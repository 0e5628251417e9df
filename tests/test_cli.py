import csv
import dataclasses
import gzip
import math
import os
import subprocess
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import pytest

import apcg
from apcg import baselines, cli, erm, native, schedule
from apcg.cli import (CSV_HEADER, KNOWN_SOLVERS, ExperimentConfig, _config_from_args,
                      build_parser, check_invariants, main, run_experiment)
from apcg.data import synth_binary, write_libsvm
from apcg.errors import ConfigurationError

import oracles


def small_config(tmp_path, **overrides):
    base = dict(synthetic=(60, 15, 0.4, 0), loss="smoothed_hinge",
                lambdas=[1e-2], gamma=1.0, solvers=["apcg"], seeds=[0],
                epochs=5, out=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


def test_config_validation(tmp_path):
    with pytest.raises(ConfigurationError):
        small_config(tmp_path, solvers=["newton"]).validate()
    with pytest.raises(ConfigurationError):
        small_config(tmp_path, lambdas=[]).validate()
    with pytest.raises(ConfigurationError):
        small_config(tmp_path, lambdas=[-1.0]).validate()
    with pytest.raises(ConfigurationError):
        small_config(tmp_path, seeds=[]).validate()
    with pytest.raises(ConfigurationError):
        small_config(tmp_path, epochs=-1).validate()
    with pytest.raises(ConfigurationError):
        ExperimentConfig().validate()  # neither data nor synthetic
    cfg = small_config(tmp_path)
    cfg.data = "also.txt"
    with pytest.raises(ConfigurationError):
        cfg.validate()


def test_epochs_zero_writes_only_initial_row(tmp_path):
    results = run_experiment(small_config(tmp_path, epochs=0))
    rows = read_rows(results[0].csv_path)
    assert rows[0] == CSV_HEADER
    assert len(rows) == 2
    assert rows[1][0] == "0"


def test_traces_deterministic_modulo_wall_time(tmp_path):
    r1 = run_experiment(small_config(tmp_path, out=str(tmp_path / "a"),
                                     solvers=["apcg", "sdca", "afg", "rpcg"]))
    r2 = run_experiment(small_config(tmp_path, out=str(tmp_path / "b"),
                                     solvers=["apcg", "sdca", "afg", "rpcg"]))
    for c1, c2 in zip(r1, r2):
        rows1 = read_rows(c1.csv_path)
        rows2 = read_rows(c2.csv_path)
        assert len(rows1) == len(rows2)
        for a, b in zip(rows1, rows2):
            assert a[:-1] == b[:-1]  # everything but wall_time_s


def test_summary_epochs_to_tol_matches_trace(tmp_path):
    config = small_config(tmp_path, epochs=200, tol=1e-6,
                          solvers=["apcg", "sdca"])
    results = run_experiment(config)
    summary = read_rows(Path(config.out) / "summary.csv")
    assert summary[0][:4] == ["dataset", "loss", "lambda", "solver"]
    by_solver = {row[3]: row for row in summary[1:]}
    for res in results:
        rows = read_rows(res.csv_path)
        gaps = [(int(r[0]), float(r[3])) for r in rows[1:]]
        first = next((e for e, g in gaps if g <= 1e-6), None)
        srow = by_solver[res.solver]
        want = "" if first is None else str(first)
        assert srow[6] == want
        assert res.epochs_to_tol == first


def test_multiple_lambdas_and_seeds_produce_all_cells(tmp_path):
    config = small_config(tmp_path, lambdas=[1e-2, 1e-3], seeds=[0, 1],
                          solvers=["apcg", "sdca"])
    results = run_experiment(config)
    assert len(results) == 8
    for r in results:
        assert Path(r.csv_path).exists()


def test_square_loss_runs_all_solvers(tmp_path):
    results = run_experiment(small_config(
        tmp_path, loss="square", epochs=8,
        solvers=["apcg", "sdca", "afg", "rpcg"]))
    assert len(results) == 4
    finals = {}
    for res in results:
        rows = read_rows(res.csv_path)
        assert len(rows) == 10
        gaps = [float(r[3]) for r in rows[1:]]
        assert all(g >= -1e-10 for g in gaps)
        assert gaps[-1] < gaps[0]
        finals[res.solver] = float(rows[-1][2])
    # all four head toward the same dual value
    spread = max(finals.values()) - min(finals.values())
    assert spread <= 1e-2


def test_libsvm_input_path(tmp_path):
    data = tmp_path / "toy.txt"
    data.write_text("+1 1:1.0 2:0.5\n-1 1:-0.5 3:1.5\n+1 2:2.0\n-1 3:-1.0\n")
    config = small_config(tmp_path, epochs=2)
    config.synthetic = None
    config.data = str(data)
    results = run_experiment(config)
    assert results[0].dataset == "toy"
    assert Path(results[0].csv_path).exists()


# input file -> its dataset.txt
DATASET_LINES = {
    "sparse": ("+1 1:1.0 2:0.5\n-1 1:-0.5 4:1.5\n+1 2:2.0 3:1.0 4:-1.0\n",
               "name=toy n=3 d=4 sparsity=0.583333\n"),  # 7 of 12 entries stored
    "no-features": ("+1\n-1\n", "name=toy n=2 d=0 sparsity=0\n"),
}


@pytest.mark.parametrize("case", DATASET_LINES)
def test_dataset_txt_records_name_shape_and_sparsity(case, tmp_path):
    text, line = DATASET_LINES[case]
    data = tmp_path / "toy.txt"
    data.write_text(text)
    config = small_config(tmp_path, epochs=1)
    config.synthetic = None
    config.data = str(data)
    run_experiment(config)
    assert (tmp_path / "out" / "dataset.txt").read_text() == line


# 100 one-feature examples of norm 3e153: at lambda 1e-4 each AFG constant
# ||A_i||^2/(lam n^2) is 9e306, so their sum overflows; at 1e-3 it does not
OVERFLOW_DATA = "".join(f"{'+1' if i % 2 == 0 else '-1'} 1:3e153\n" for i in range(100))


@pytest.mark.parametrize("kernels", ["python_kernels", "c_kernels"])
@pytest.mark.parametrize("loss", ["smoothed_hinge", "square"])
def test_afg_refuses_an_overflowing_first_step(loss, kernels, tmp_path, capsys, request):
    request.getfixturevalue(kernels)
    data = tmp_path / "big.txt"
    data.write_text(OVERFLOW_DATA)
    argv = ["run", "--data", str(data), "--loss", loss, "--solver", "afg", "--epochs", "3"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--lambda", "1e-4", "--out", str(tmp_path / "over")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "overflows" in err and len(err.splitlines()) == 1
    assert main([*argv, "--lambda", "1e-3", "--out", str(tmp_path / "ok")]) == 0
    rows = read_rows(tmp_path / "ok" / f"big_{loss}_lam0.001_afg_s0.csv")
    assert [row[:5] for row in rows[1:]] == [
        ["0", "0.5", "-0.0", "0.5", "0.01"],
        ["1", "0.5", "1.1111111111111e-310", "0.5", "0.01"],
        ["2", "0.5", "3.33333333333336e-310", "0.5", "0.01"],
        ["3", "0.5", "8.40389672250073e-310", "0.5", "0.01"]]


def test_main_run_and_exit_codes(tmp_path, capsys):
    out = tmp_path / "cli_out"
    rc = main(["run", "--synthetic", "40,10,0.5", "--lambda", "1e-2",
               "--solver", "apcg", "--seed", "0", "--epochs", "2",
               "--out", str(out)])
    assert rc == 0
    assert (out / "summary.csv").exists()
    captured = capsys.readouterr()
    assert "apcg" in captured.out

    rc = main(["run", "--lambda", "1e-2", "--out", str(out)])  # no dataset
    assert rc == 2

    rc = main(["run", "--data", str(tmp_path / "missing.txt"), "--out", str(out)])
    assert rc == 3


# outside input that must end in "error: ..." and exit code 2:
# (text of an input file or None, flags; the file's path follows the flags)
BAD_INPUTS = {
    "malformed-data": ("+1 1:abc\n", ["--data"]),
    "bad-label": ("+1 1:1.0\n2 1:0.5\n", ["--data"]),
    "non-ascii-data": ("+1 1:0.5\n-1 2:\u00e9\n", ["--data"]),
    "empty-data": ("", ["--data"]),
    # one example without features: mu = 1 at n = 1, where apcg's rho is 0
    "featureless-single-example": ("+1\n", ["--data"]),
    # an index above int64, and one whose d = 10^18 - 1 cannot be allocated
    "index-above-int64": ("+1 100000000000000000000:1\n-1 1:0.5\n", ["--data"]),
    "index-beyond-memory": ("+1 999999999999999999:1\n-1 1:0.5\n", ["--data"]),
    "synthetic-not-a-number": (None, ["--synthetic", "5,x,0.5"]),
    "synthetic-zero-examples": (None, ["--synthetic", "0,10,0.5"]),
    "synthetic-sparsity-above-one": (None, ["--synthetic", "5,10,1.5"]),
    "lambda-nan": (None, ["--synthetic", "40,10,0.5", "--lambda", "nan"]),
    "gamma-nan": (None, ["--synthetic", "40,10,0.5", "--gamma", "nan"]),
    "tol-nan": (None, ["--synthetic", "40,10,0.5", "--tol", "nan"]),
    "negative-seed": (None, ["--synthetic", "40,10,0.5", "--seed", "-1"]),
    # ||A_i||^2 / (lam n^2) overflows, so every coordinate constant L_i is inf
    "overflowing-constants-hinge": ("+1 1:1e150 2:1e150\n-1 1:1e150\n",
                                    ["--lambda", "1e-10", "--data"]),
    "overflowing-constants-square": ("+1 1:1e150 2:1e150\n-1 1:1e150\n",
                                     ["--loss", "square", "--solver", "afg",
                                      "--lambda", "1e-10", "--data"]),
    # ||A_i||^2 itself overflows, whatever lambda is
    "overflowing-norm-hinge": ("+1 1:1e200 2:1e200\n-1 1:0.5\n", ["--data"]),
    "overflowing-norm-square": ("+1 1:1e200 2:1e200\n-1 1:0.5\n",
                                ["--loss", "square", "--data"]),
    # lam n overflows, so the apcg step weights would be inf/inf
    "overflowing-lambda-n-hinge": (None, ["--synthetic", "40,10,0.5", "--lambda", "1e308"]),
    "overflowing-lambda-n-square": (None, ["--synthetic", "40,10,0.5", "--loss", "square",
                                           "--lambda", "1e308"]),
}


@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exits_with_error_line(case, tmp_path):
    text, flags = BAD_INPUTS[case]
    if text is not None:
        path = tmp_path / "in.txt"
        path.write_text(text, encoding="utf-8")
        flags = [*flags, str(path)]
    env = dict(os.environ, PYTHONPATH=str(Path(apcg.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "apcg.cli", "run", *flags, "--epochs", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert any(line.startswith("error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr


def test_non_ascii_data_names_its_line(tmp_path, capsys):
    path = tmp_path / "f"
    path.write_bytes(b"+1 1:0.5\n-1 2:\xc3\xa9\n")
    assert main(["run", "--data", str(path), "--loss", "square", "--epochs", "2",
                 "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error: line 2: ")


def test_featureless_single_example_refusal_names_the_data(tmp_path, capsys):
    path = tmp_path / "one.txt"
    path.write_text("+1\n")
    assert main(["run", "--data", str(path), "--epochs", "2",
                 "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: apcg cannot run on a single example without features")
    assert err.count("\n") == 1
    # the solvers the message offers do run on it
    assert main(["run", "--data", str(path), "--epochs", "2", "--solver", "sdca",
                 "--solver", "rpcg", "--solver", "afg", "--out", str(tmp_path / "out")]) == 0


# apcg.cli.main with the kernels loaded, or with native.library() made None
BACKEND_RUN = """
import sys
from apcg import native
if sys.argv[1] == "python":
    native.library = lambda: None
assert (native.library() is None) == (sys.argv[1] == "python"), native.backend()
from apcg.cli import main
sys.exit(main(sys.argv[2:]))
"""


@pytest.mark.parametrize("backend", ["c", "python"])
def test_afg_on_featureless_data_keeps_a_finite_step(backend, tmp_path):
    """Where f vanishes every trial passes, and the step doubles each
    iteration: past about 1000 iterations it would overflow to inf, and
    inf * 0 = NaN would then fail every trial.  The step stays finite, so
    the run ends normally with finite rows."""
    if backend == "c" and native.library() is None:
        pytest.skip(f"compiled kernels unavailable: {native.backend()}")
    path = tmp_path / "featureless.txt"
    path.write_text("+1\n-1\n+1\n")
    out = tmp_path / "out"
    env = dict(os.environ, PYTHONPATH=str(Path(apcg.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", BACKEND_RUN, backend, "run", "--data", str(path),
         "--solver", "afg", "--epochs", "1100", "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    (trace,) = out.glob("*_afg_s0.csv")
    with open(trace, newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == CSV_HEADER and len(rows) == 1 + 1101
    assert all(math.isfinite(float(v)) for row in rows[1:] for v in row)


def test_truncated_gzip_exits_with_io_error(tmp_path):
    whole = gzip.compress(b"+1 1:0.5 2:1.5\n-1 1:-0.5\n" * 100)
    path = tmp_path / "cut.txt.gz"
    path.write_bytes(whole[:len(whole) // 2])
    env = dict(os.environ, PYTHONPATH=str(Path(apcg.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "apcg.cli", "run", "--data", str(path), "--epochs", "1",
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert any(line.startswith("i/o error:") for line in proc.stderr.splitlines())
    assert "Traceback" not in proc.stderr


# how the repeated cell is asked for -> (flags, the two cells)
COLLIDING_CELLS = {
    "seed-flag": (["--lambda", "1e-3", "--seed", "1", "--seed", "1"],
                  ("lambda=0.001 solver=apcg seed=1", "lambda=0.001 solver=apcg seed=1")),
    "lambda-6-digits": (["--lambda", "1e-3", "--lambda", "1.0000001e-3", "--seed", "1"],
                        ("lambda=0.001 solver=apcg seed=1",
                         "lambda=0.0010000001 solver=apcg seed=1")),
}


@pytest.mark.parametrize("case", COLLIDING_CELLS)
def test_cells_sharing_a_trace_file_are_refused_before_any_runs(case, tmp_path, capsys,
                                                               monkeypatch):
    flags, (first, second) = COLLIDING_CELLS[case]
    monkeypatch.setattr(cli, "run_solver_trace", lambda *args: pytest.fail("a cell ran"))
    out = tmp_path / "out"
    assert main(["run", "--synthetic", "40,10,0.5", "--solver", "apcg", "--epochs", "1",
                 "--out", str(out), *flags]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: cells {first} and {second} would write the same trace file "
        "<dataset>_smoothed_hinge_lam0.001_apcg_s1.csv"]
    assert not out.exists()


@pytest.mark.parametrize("loss", ["smoothed_hinge", "square"])
def test_example_without_features_solved_by_every_solver(loss, tmp_path):
    """An example with no features is an empty column of A; f does not depend
    on its dual coordinate, so AFG bounds it by any positive constant."""
    data = tmp_path / "gaps.txt"
    data.write_text("+1 1:0.5 2:1\n-1\n+1 2:-0.3\n")
    config = small_config(tmp_path, loss=loss, solvers=list(KNOWN_SOLVERS),
                          epochs=400, tol=1e-9)
    config.synthetic = None
    config.data = str(data)
    results = run_experiment(config)
    assert [r.solver for r in results] == list(KNOWN_SOLVERS)
    assert all(r.epochs_to_tol is not None for r in results)


def test_problem_built_once_per_lambda(tmp_path, monkeypatch):
    built, build = [], cli._build_problem

    def counting_build(config, A, labels, lam):
        built.append(lam)
        return build(config, A, labels, lam)

    monkeypatch.setattr(cli, "_build_problem", counting_build)
    config = small_config(tmp_path, lambdas=[1e-2, 1e-3], seeds=[0, 1],
                          solvers=["apcg", "sdca"])
    results = run_experiment(config)
    assert built == [1e-2, 1e-3]
    assert [(r.lam, r.solver, r.seed) for r in results] == [
        (lam, solver, seed) for lam in (1e-2, 1e-3) for solver in ("apcg", "sdca")
        for seed in (0, 1)]


def test_sdca_and_rpcg_cells_share_one_run(tmp_path, monkeypatch):
    """rpcg and sdca are one computation: within a run, each (lambda, seed)
    runs the SDCA epochs once and both cells write its trace, wall times
    included.  run_solver_trace is still called once per cell."""
    calls, epochs = [], []
    run_solver_trace, sdca_epoch = cli.run_solver_trace, baselines.sdca_epoch

    def spy_trace(prob, solver, **kwargs):
        calls.append(solver)
        return run_solver_trace(prob, solver, **kwargs)

    def spy_epoch(*args):
        epochs.append(args[0].lam)
        return sdca_epoch(*args)

    monkeypatch.setattr(cli, "run_solver_trace", spy_trace)
    monkeypatch.setattr(baselines, "sdca_epoch", spy_epoch)
    config = small_config(tmp_path, lambdas=[1e-2, 1e-3], solvers=["sdca", "rpcg"],
                          seeds=[0, 1], epochs=7)
    results = run_experiment(config)
    assert calls == ["sdca", "sdca", "rpcg", "rpcg"] * 2
    assert epochs == [1e-2] * 14 + [1e-3] * 14  # 7 epochs per (lambda, seed)
    traces = {(r.lam, r.solver, r.seed): read_rows(r.csv_path) for r in results}
    for lam in config.lambdas:
        for seed in config.seeds:
            sdca = traces[(lam, "sdca", seed)]
            assert len(sdca) == 1 + 8 and sdca[0] == CSV_HEADER
            assert traces[(lam, "rpcg", seed)] == sdca
    assert len(read_rows(Path(config.out) / "summary.csv")) == 1 + 8


def output_bytes(out: Path) -> dict[str, bytes]:
    """Every file a run wrote, with the wall_time_s column of each trace cut."""
    files = {}
    for path in sorted(out.iterdir()):
        text = path.read_bytes()
        if path.name not in ("summary.csv", "dataset.txt"):
            text = b"\n".join(line.rsplit(b",", 1)[0] for line in text.split(b"\n"))
        files[path.name] = text
    return files


# The benchmark's tiny shapes: loss, n, d, sparsity, lambda, epochs and
# solvers; the ridge one is read from a LIBSVM file, as the benchmark reads it
TINY_RUNS = {
    "hinge": ("smoothed_hinge", 400, 60, 0.2, 1e-2, 200, ("apcg", "sdca", "rpcg", "afg")),
    "ridge": ("square", 200, 50, 0.2, 1e-3, 600, ("apcg", "afg")),
}


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
@pytest.mark.parametrize("shape", TINY_RUNS)
def test_run_writes_the_same_bytes_on_both_backends(shape, seed, c_kernels, tmp_path,
                                                    capsys, monkeypatch):
    """Every file a run writes, but for the wall_time_s column, and its
    stdout, but for the out paths and the kernels: line, are the same bytes
    on the compiled and on the Python kernels."""
    loss, n, d, sparsity, lam, epochs, solvers = TINY_RUNS[shape]
    if shape == "ridge":
        data = tmp_path / "data.libsvm"
        write_libsvm(*synth_binary(n, d, sparsity, seed=seed, min_nnz=1), data)
        source = ["--data", str(data)]
    else:
        source = ["--synthetic", f"{n},{d},{sparsity!r},{seed}"]
    argv = ["run", *source, "--loss", loss, "--lambda", repr(lam), "--gamma", "1.0",
            "--seed", str(seed), "--epochs", str(epochs), "--tol", "1e-6"]
    for solver in solvers:
        argv += ["--solver", solver]
    runs = []
    for backend in ("c", "python"):
        if backend == "python":
            monkeypatch.setattr(native, "library", lambda: None)
        out = tmp_path / backend
        assert main([*argv, "--out", str(out)]) == 0
        *lines, kernels = capsys.readouterr().out.replace(str(out), "OUT").splitlines()
        assert kernels.startswith("kernels: ")
        runs.append((output_bytes(out), lines))
    assert runs[0] == runs[1]


def test_jobs_is_accepted_only_as_one(tmp_path, capsys):
    """Cells run in order in one process; --jobs stays for the benchmark,
    which passes --jobs 1, and changes nothing."""
    flags = ["run", "--synthetic", "40,10,0.5", "--solver", "apcg", "--solver", "sdca",
             "--seed", "0", "--seed", "1", "--epochs", "3"]
    assert main(flags + ["--out", str(tmp_path / "plain")]) == 0
    plain = capsys.readouterr().out
    assert main(flags + ["--jobs", "1", "--out", str(tmp_path / "one")]) == 0
    assert capsys.readouterr().out == plain.replace(str(tmp_path / "plain"),
                                                    str(tmp_path / "one"))
    assert output_bytes(tmp_path / "one") == output_bytes(tmp_path / "plain")
    with pytest.raises(SystemExit) as stop:
        main(flags + ["--jobs", "2", "--out", str(tmp_path / "two")])
    assert stop.value.code == 2
    assert "--jobs: invalid choice: 2" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()


def test_a_lambda_that_fails_to_build_leaves_the_earlier_traces(tmp_path, capsys):
    """Each cell's trace is written as the cell ends.  A subnormal lambda
    overflows the coordinate constants when its problem is built, after
    the first lambda's cells have run: the run exits 2 with one error line,
    leaving those traces whole and no summary."""
    out = tmp_path / "out"
    assert main(["run", "--synthetic", "40,10,0.5", "--solver", "apcg", "--solver", "afg",
                 "--lambda", "1e-2", "--lambda", "1e-320", "--epochs", "4",
                 "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: coordinate constants ")
    assert sorted(p.name for p in out.iterdir()) == [
        "synth40x10_smoothed_hinge_lam0.01_afg_s0.csv",
        "synth40x10_smoothed_hinge_lam0.01_apcg_s0.csv"]
    for path in out.iterdir():
        rows = read_rows(path)
        assert rows[0] == CSV_HEADER and [r[0] for r in rows[1:]] == list("01234")


# ExperimentConfig field's flag -> (field, flags, value from the flags)
CONFIG_CASES = {
    "data": ("data", ["--data", "b.txt"], "b.txt"),
    "synthetic": ("synthetic", ["--synthetic", "50,12,0.25,7"], (50, 12, 0.25, 7)),
    "loss": ("loss", ["--loss", "square"], "square"),
    "lambda": ("lambdas", ["--lambda", "0.5", "--lambda", "2"], [0.5, 2.0]),
    "gamma": ("gamma", ["--gamma", "2"], 2.0),
    "solver": ("solvers", ["--solver", "afg", "--solver", "rpcg"], ["afg", "rpcg"]),
    "seed": ("seeds", ["--seed", "3"], [3]),
    "epochs": ("epochs", ["--epochs", "0"], 0),
    "tol": ("tol", ["--tol", "1e-9"], 1e-9),
    "out": ("out", ["--out", "o2"], "o2"),
}


@pytest.mark.parametrize("key", CONFIG_CASES)
def test_config_key_from_file_and_flag(key):
    """Each flag sets its own field; without it the field keeps its default."""
    assert {case[0] for case in CONFIG_CASES.values()} == {
        f.name for f in fields(ExperimentConfig)}
    name, flags, from_flags = CONFIG_CASES[key]
    parser = build_parser()
    default = getattr(ExperimentConfig(), name)
    assert from_flags != default
    assert getattr(_config_from_args(parser.parse_args(["run"])), name) == default
    assert getattr(_config_from_args(parser.parse_args(["run"] + flags)), name) == from_flags


def test_parser_rejects_unknown_solver():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "--solver", "newton"])


def test_parser_takes_no_config_file(capsys):
    with pytest.raises(SystemExit) as stop:
        build_parser().parse_args(["run", "--config", "x"])
    assert stop.value.code == 2
    assert "unrecognized arguments: --config x" in capsys.readouterr().err


def test_check_invariants_passes(capsys):
    checks = check_invariants()
    assert all(c.passed for c in checks)
    assert capsys.readouterr().out.count("[PASS] ") == len(checks)


def corrupt_alpha_root(monkeypatch):
    """The negative control: while the schedule check runs, every alpha root
    is off by a relative 1e-6; the other checks keep the true root.  The
    compiled replay does not call _alpha_root, so the check runs on the
    Python replay."""
    check, true_root = cli._check_schedule, schedule._alpha_root

    def corrupted_check():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(schedule, "_alpha_root",
                          lambda gamma_k, mu, n: true_root(gamma_k, mu, n) * (1.0 + 1e-6))
            patch.setattr(native, "library", lambda: None)
            return check()

    monkeypatch.setattr(cli, "_check_schedule", corrupted_check)


def test_check_invariants_negative_control(capsys, monkeypatch):
    corrupt_alpha_root(monkeypatch)
    checks = check_invariants()
    schedule_check = next(c for c in checks if c.name == "schedule")
    assert not schedule_check.passed
    assert capsys.readouterr().out.startswith("[FAIL] schedule: ")


def test_main_check_exit_codes(capsys, monkeypatch):
    # both schedule lines come from scalar IEEE arithmetic only, so they
    # are the same on every platform
    assert main(["check"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[PASS] schedule: worst |gamma-(n a)^2| rel err 8.88e-16"
    assert len(lines) == 6 and all(line.startswith("[PASS] ") for line in lines)
    corrupt_alpha_root(monkeypatch)
    assert main(["check"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "[FAIL] schedule: gamma != (n alpha)^2 at n=1 mu=0.0 k=0: 2.37e-06"
    assert all(line.startswith("[PASS] ") for line in lines[1:])


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_combination_check_matches_the_quadratic_reference(request, kernels):
    request.getfixturevalue(kernels)
    got = cli._check_combination_and_psihat()
    assert got.passed
    assert got == oracles.check_combination_reference()
    # the printed detail has 3 digits of the worst step: each step's
    # unrounded errors must match bitwise
    assert [[e.hex() for e in errs] for errs in cli._combination_errors()] == \
        [[e.hex() for e in errs] for errs in oracles.combination_errors_reference()]


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_envelope_check_matches_one_solve_per_seed(request, kernels):
    request.getfixturevalue(kernels)
    got = cli._check_envelope()
    assert got.passed
    assert got == oracles.check_envelope_reference()


def test_combination_check_rejects_a_perturbed_theta_row(capsys, monkeypatch):
    # the negative control: row k = 60 of theta off by a relative 1e-6
    true_rows = cli.theta_rows

    def perturbed(sched, steps):
        for k, theta in enumerate(true_rows(sched, steps)):
            yield theta * (1.0 + 1e-6) if k == 60 else theta

    monkeypatch.setattr(cli, "theta_rows", perturbed)
    checks = check_invariants()
    assert [c.name for c in checks if not c.passed] == ["combination"]
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("[FAIL] combination: x != sum theta z by "), line


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_equivalence_check_runs_the_erm_kernel(request, capsys, monkeypatch, kernels):
    # the negative control: every epoch of the kernel that run uses ends
    # with v[0] nudged by 1e-6
    request.getfixturevalue(kernels)
    true_epoch = erm.ErmDualState.epoch

    def nudged(self):
        true_epoch(self)
        self.v[0] += 1e-6

    monkeypatch.setattr(erm.ErmDualState, "epoch", nudged)
    assert main(["check"]) == 1
    line = capsys.readouterr().out.splitlines()[3]
    assert line.startswith("[FAIL] equivalence: max |x_erm - x_explicit| = "), line


def test_equivalence_check_holds_the_composite_to_the_report(monkeypatch):
    # the control of the value line: f off by a relative 1e-9
    true_composite = erm.relocated_dual_composite

    def skewed(prob):
        comp = true_composite(prob)
        value = comp.smooth.value
        smooth = dataclasses.replace(comp.smooth, value=lambda x: value(x) * (1.0 + 1e-9))
        return dataclasses.replace(comp, smooth=smooth)

    monkeypatch.setattr(erm, "relocated_dual_composite", skewed)
    got = cli._check_equivalence()
    assert not got.passed
    assert got.detail.startswith("composite f off the report's dual by "), got.detail


def _scaled_root(factor):
    """A corrupted alpha root: the true root times ``factor(gamma, mu, n)``."""
    true_root = schedule._alpha_root
    return lambda gamma_k, mu, n: true_root(gamma_k, mu, n) * factor(gamma_k, mu, n)


@pytest.mark.parametrize("root, detail", [
    (None, "worst |gamma-(n a)^2| rel err"),
    # twice the root at n = 1 stays inside (0, 1] but breaks the residual
    (_scaled_root(lambda g, mu, n: 2.0 if n == 1 else 1.0),
     "gamma != (n alpha)^2 at n=1 mu=0.0 k=0:"),
    # off only once gamma_k falls below 0.05, so the first failing k > 0
    (_scaled_root(lambda g, mu, n: 1.0 + 1e-6 if g < 0.05 else 1.0),
     "gamma != (n alpha)^2 at n=1 mu=0.0 k=3:"),
    # alpha = 2 > 1/n at n = 1, mu = 1, where gamma stays 1
    (_scaled_root(lambda g, mu, n: 2.0 if mu == 1.0 else 1.0),
     "alpha escaped bounds at n=1 mu=1.0 k=0"),
    # half the root near gamma = mu drops below sqrt(mu)/n, and breaks the
    # residual at the same k: the alpha bound is reported first
    (_scaled_root(lambda g, mu, n: 0.5 if g < 1.1 * mu else 1.0),
     "alpha escaped bounds at n=1 mu=1e-06 k=3727"),
])
def test_array_schedule_check_matches_the_per_step_reference(monkeypatch, root, detail):
    if root is not None:  # a corrupted root reaches only the Python replay
        monkeypatch.setattr(schedule, "_alpha_root", root)
        monkeypatch.setattr(native, "library", lambda: None)
    got = cli._check_schedule()
    assert got == oracles.check_schedule_reference()
    assert got.detail.startswith(detail)
    assert got.passed == (root is None)


def test_array_schedule_check_matches_the_reference_on_the_cli_corruption(monkeypatch):
    # the negative control of test_main_check_exit_codes: every root off by
    # a relative 1e-6
    monkeypatch.setattr(schedule, "_alpha_root", _scaled_root(lambda g, mu, n: 1.0 + 1e-6))
    monkeypatch.setattr(native, "library", lambda: None)
    got = cli._check_schedule()
    assert got == oracles.check_schedule_reference()
    assert got == cli.CheckResult("schedule", False,
                                  "gamma != (n alpha)^2 at n=1 mu=0.0 k=0: 2.37e-06")


@pytest.mark.parametrize("kernels", ["c_kernels", "python_kernels"])
def test_schedule_check_rejects_perturbed_history_alphas(request, monkeypatch, kernels):
    # the control on the arrays themselves, whichever backend made them:
    # every alpha of ApcgSchedule.history off by a relative 1e-6
    request.getfixturevalue(kernels)
    true_history = schedule.ApcgSchedule.history

    def perturbed(self, steps):
        alphas, gammas, betas, lams = true_history(self, steps)
        return alphas * (1.0 + 1e-6), gammas, betas, lams

    monkeypatch.setattr(schedule.ApcgSchedule, "history", perturbed)
    got = cli._check_schedule()
    assert not got.passed
    assert got.detail.startswith("gamma != (n alpha)^2 at n=1 mu=0.0 k=0: ")


def test_array_schedule_check_matches_the_reference_on_a_broken_rate_bound(monkeypatch):
    true_bound = schedule.ApcgSchedule.rate_bound
    monkeypatch.setattr(schedule.ApcgSchedule, "rate_bound",
                        lambda self, k: true_bound(self, k) * (0.5 if self.mu == 0.01 else 1.0))
    got = cli._check_schedule()
    assert got == oracles.check_schedule_reference()
    assert got == cli.CheckResult("schedule", False,
                                  "lambda_k exceeded its bound at n=1 mu=0.01")


def test_import_leaves_the_process_pool_unloaded():
    # every cell runs in the calling process, so the CLI should not pay for
    # importing multiprocessing through concurrent.futures
    env = dict(os.environ, PYTHONPATH=str(Path(apcg.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import apcg.cli, sys; print('concurrent.futures' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_check_output_and_exit_code_survive_python_O():
    # -O strips assert statements, so a check written as one would vanish
    env = dict(os.environ, PYTHONPATH=str(Path(apcg.__file__).parent.parent))
    plain, optimized = (
        subprocess.run([sys.executable, *flags, "-m", "apcg.cli", "check"],
                       capture_output=True, env=env, timeout=300)
        for flags in ([], ["-O"]))
    assert plain.returncode == 0, plain.stderr
    assert optimized.returncode == plain.returncode
    assert optimized.stdout == plain.stdout
    assert plain.stdout.count(b"[PASS] ") == 6
