"""Smoke test of the benchmark: every workload at tiny sizes, in both modes.

Pins the result schema, the metric names and units of BENCHMARK.json, and
the refusal to run without the program beside it.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

END_TO_END = {"run_s", "setup_s", "peak_rss_mb"}
# Printed for humans on every untraced run (gated metrics must never read 0,
# so these live among the per-layer metrics of BENCHMARK.json).
PRINTED = {"hinge-synth": ["time_to_gap_s.apcg", "time_to_gap_s.sdca",
                           "time_to_gap_s.rpcg", "time_to_gap_s.afg", "fail_ratio"],
           "ridge-libsvm": ["time_to_gap_s.apcg", "time_to_gap_s.afg", "fail_ratio"],
           "check-generic": ["fail_ratio"]}
PER_LAYER = {
    "time_to_gap_s.apcg", "time_to_gap_s.sdca", "time_to_gap_s.rpcg", "time_to_gap_s.afg",
    "fail_ratio", "trace.run_s_untraced", "trace.run_s_traced", "trace.overhead_s",
    "trace.overhead_share",
    "data.synth_binary_s", "data.parse_libsvm_s", "data.parse_mb_per_s", "data.dot_calls",
    "data.dot_s", "data.tdot_calls", "data.tdot_s", "data.matvec_gb_per_s_computed",
    "erm.problem_build_s", "erm.report_calls", "erm.report_s", "erm.report_share",
    "erm.apcg_steps", "erm.apcg_step_ns", "erm.apcg_ns_per_nnz", "erm.apcg_epochs_to_tol",
    "erm.zero_increment_ratio",
    "baselines.sdca_step_ns", "baselines.rpcg_step_ns", "baselines.afg_iter_ms",
    "baselines.afg_backtracks", "baselines.afg_accept_ratio", "baselines.sdca_epochs_to_tol",
    "baselines.rpcg_epochs_to_tol", "baselines.afg_iters_to_tol",
    "solvers.sampler_draws", "solvers.sampler_draw_ns", "solvers.solve_calls",
    "solvers.general_step_ns", "solvers.sc_step_ns", "solvers.efficient_step_ns",
    "schedule.steps", "schedule.step_ns", "schedule.history_bytes_computed",
    "core.block_prox_calls", "core.block_prox_ns", "core.prox_full_calls", "core.prox_full_ns",
    "cli.cells", "cli.write_s", "cli.output_bytes", "cli.unattributed_s",
    *(f"{layer}.self_s" for layer in
      ("data", "erm", "baselines", "solvers", "schedule", "core", "cli")),
}


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_every_metric():
    assert WORKLOADS == ["hinge-synth", "ridge-libsvm", "check-generic"]
    assert {m["name"] for m in SPEC["end_to_end"]} == END_TO_END
    assert {m["name"] for m in SPEC["per_layer"]} == PER_LAYER
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_schema(workload, trace):
    proc = run_bench("--workload", workload, "--seed", "1", "--seconds", "1",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    group = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in group}
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:
        assert result["metrics"]["cli.cells"]["value"] == len(PRINTED[workload]) - 1
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())
        for name in PRINTED[workload]:
            assert f"   {name} = " in proc.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "hinge-synth", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
