"""apcg benchmark: time-to-gap through ``apcg.cli.main`` on three workloads.

Run from the root of a checkout::

    python3 bench/run.py --workload hinge-synth --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 1

Every repetition runs ``apcg.cli.main(argv)`` in a fresh process
(``bench/child.py``, one core, ``--jobs 1``), so peak RSS and the import part
of the set-up time belong to that repetition alone.  Repetition k solves the
input set generated from seed ``1000 * seed + k``.  Repetitions continue
until the next one would end after ``--seconds``; the figures reported are
medians over them.  Times are wall seconds scaled to a nominal machine
speed, measured by reference kernels sampled throughout each process (see
``bench/child.py``); the unscaled wall time is printed and recorded too.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.  Set-up
time is the median over the repetitions plus five set-up-only processes that
stop at the first solver call.  ``--trace 1`` alternates untraced and traced
repetitions and reports the per-layer metrics from the traced ones
(``bench/tracing.py``), the untraced time-to-gap of each solver, the failure
ratio, and the tracing overhead as traced minus untraced ``run_s``.

Every cell passes the correctness gate or counts as failed: it must reach
the tolerance within its epoch budget, with finite primal, dual and gap and
no gap below -1e-10 (weak duality), in the returned trace and in the CSV
files the program wrote, and an independent recomputation of the final gap
must agree.  On ``check-generic`` an operation is one of the six diagnostic
checks, and one that prints FAIL (or is missing) counts as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs, traces and
per-repetition records go to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HARD_LIMIT_S = 170.0  # every run must have exited well within 180 s
SETUP_PROBES = 5
N_CHECKS = 6  # diagnostic checks printed by `apcg-bench check`
GAMMA = 1.0
TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    """How to run one workload; BENCHMARK.json records why it exists."""

    source: str  # "synthetic", "libsvm" or "check"
    loss: str = ""
    solvers: tuple[str, ...] = ()
    epochs: int = 0
    # size -> (n, d, sparsity, lambda).  The full shapes halve n and d of
    # 20000x2000 hinge and 4000x2000 ridge, keeping nnz per column and
    # lambda * n (hence the conditioning), so more repetitions fit in a run.
    shapes: tuple = ()

    def shape(self, size: str):
        return dict(self.shapes)[size]

    @property
    def operations(self) -> int:
        return len(self.solvers) if self.solvers else N_CHECKS


WORKLOADS = {
    "hinge-synth": Workload(
        source="synthetic", loss="smoothed_hinge",
        solvers=("apcg", "sdca", "rpcg", "afg"), epochs=200,
        shapes=(("full", (10000, 1000, 0.02, 2e-4)), ("tiny", (400, 60, 0.2, 1e-2)))),
    "ridge-libsvm": Workload(
        source="libsvm", loss="square", solvers=("apcg", "afg"), epochs=600,
        shapes=(("full", (2000, 1000, 0.05, 2e-6)), ("tiny", (200, 50, 0.2, 1e-3)))),
    "check-generic": Workload(
        source="check"),
}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


class Bench:
    """Runs the repetitions of one workload and aggregates their records."""

    def __init__(self, root: Path, name: str, seed: int, size: str):
        self.root = root
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.size = size
        self.out = root / ".bench_out" / f"{name}-s{seed}-{size}"
        self.started = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.env_info: dict = {}
        self.records: list[dict] = []
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)

    def input_seed(self, k: int) -> int:
        """Seed of the k-th input set: each repetition solves its own dataset,
        so the median over a run is not tied to one draw of the data."""
        return self.seed * 1000 + k

    def data_file(self, k: int) -> str:
        """The k-th LIBSVM input, written before its repetition is timed."""
        path = self.out / f"data{k}.libsvm"
        if not path.exists():
            sys.path.insert(0, str(self.root / "src"))
            from apcg.data import synth_binary, write_libsvm
            n, d, sparsity, _ = self.wl.shape(self.size)
            A, labels = synth_binary(n, d, sparsity, seed=self.input_seed(k), min_nnz=1)
            write_libsvm(A, labels, path)
        return str(path)

    def argv(self, k: int, out_dir: Path) -> list[str]:
        wl = self.wl
        if wl.source == "check":
            return ["check"]
        n, d, sparsity, lam = wl.shape(self.size)
        seed = self.input_seed(k)
        source = (["--synthetic", f"{n},{d},{sparsity!r},{seed}"]
                  if wl.source == "synthetic" else ["--data", self.data_file(k)])
        argv = ["run", *source, "--loss", wl.loss, "--lambda", repr(lam),
                "--gamma", repr(GAMMA), "--seed", str(seed),
                "--epochs", str(wl.epochs), "--tol", repr(TOL), "--jobs", "1",
                "--out", str(out_dir)]
        for s in wl.solvers:
            argv += ["--solver", s]
        return argv

    def child(self, tag: str, k: int, mode: str, trace: bool) -> dict | None:
        """Run one process on the k-th input set; None if it crashed."""
        rep_dir = self.out / tag
        shutil.rmtree(rep_dir, ignore_errors=True)
        rep_dir.mkdir()
        spec = {"argv": self.argv(k, rep_dir / "out"), "src": str(self.root / "src"),
                "mode": mode, "trace": trace, "result": str(rep_dir / "record.json"),
                "trace_out": str(rep_dir / "trace.json"), "tol": TOL, "gamma": GAMMA,
                "loss": self.wl.loss,
                "lam": self.wl.shape(self.size)[3] if self.wl.solvers else None}
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"), PYTHONHASHSEED="0",
                   OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        budget = HARD_LIMIT_S - (time.monotonic() - self.started)
        t0 = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(self.root / "bench" / "child.py"),
                                   json.dumps(spec)], cwd=self.root, env=env,
                                  capture_output=True, text=True, timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            self.problems.append(f"{tag}: timed out")
            return None
        wall = time.monotonic() - t0
        if proc.returncode != 0 or not Path(spec["result"]).exists():
            self.problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr.strip()[-2000:]}")
            return None
        record = json.loads(Path(spec["result"]).read_text())
        record["wall_s"] = wall
        record["stdout"] = proc.stdout
        self.env_info.setdefault("numpy", record["numpy"])
        return record

    def repetition(self, tag: str, k: int, trace: bool) -> dict | None:
        """A full repetition, with its operations counted against the gate."""
        ops = self.wl.operations
        self.attempted += ops
        rec = self.child(tag, k, "run", trace)
        if rec is None:
            self.failed += ops
            return None
        if self.wl.source == "check":
            passed = sum(line.startswith("[PASS]") for line in rec["stdout"].splitlines())
            failed = N_CHECKS - passed
            if rec["exit_code"] != 0 and failed == 0:
                failed = N_CHECKS
            for line in rec["stdout"].splitlines():
                if line.startswith("[FAIL]"):
                    self.problems.append(f"{tag}: {line}")
        else:
            bad = [c for c in rec["cells"] if c["failures"]]
            failed = len(bad) + max(0, ops - len(rec["cells"]))
            if rec["exit_code"] != 0:
                failed = ops
            for c in bad:
                self.problems.append(f"{tag} {c['solver']}: {'; '.join(c['failures'])}")
        self.failed += failed
        rec["tag"] = tag
        rec["trace"] = trace
        self.records.append(rec)
        return rec

    def deadline_loop(self, seconds: float, step) -> None:
        """Call ``step(k)`` until the next call would end after ``seconds``."""
        t0 = time.monotonic()
        walls: list[float] = []
        k = 0
        while True:
            s = time.monotonic()
            step(k)
            walls.append(time.monotonic() - s)
            k += 1
            now = time.monotonic()
            if now + statistics.median(walls) > t0 + seconds or \
                    now + max(walls) > self.started + HARD_LIMIT_S:
                return

    # -- the two modes ----------------------------------------------------------

    def untraced(self, seconds: float) -> dict[str, float]:
        self.child("warmup", 0, "setup", False)  # compile bytecode, fill the page cache
        setups = []
        for k in range(SETUP_PROBES):
            rec = self.child(f"setup{k}", k, "setup", False)
            if rec is not None:
                setups.append(rec["setup_nominal_s"])
        self.deadline_loop(seconds, lambda k: self.repetition(f"rep{k}", k, False))
        runs = [r for r in self.records if not r["trace"]]
        setups += [r["setup_nominal_s"] for r in runs]
        if not runs:
            return {}
        return {"run_s": statistics.median(r["run_nominal_s"] for r in runs),
                "setup_s": statistics.median(setups),
                "peak_rss_mb": statistics.median(r["rss_mb"] for r in runs)}

    def traced(self, seconds: float) -> dict[str, float]:
        self.child("warmup", 0, "setup", False)

        def pair(k):
            # both halves of a pair solve the same input; alternate which goes first
            order = (False, True) if k % 2 == 0 else (True, False)
            for trace in order:
                self.repetition(f"pair{k}-{'traced' if trace else 'plain'}", k, trace)

        self.deadline_loop(seconds, pair)
        plain = [r for r in self.records if not r["trace"]]
        traced = [r for r in self.records if r["trace"]]
        if not plain or not traced:
            return {}
        metrics = {name: statistics.median(r["per_layer"][name] for r in traced)
                   for name in traced[0]["per_layer"]}
        run_plain = statistics.median(r["run_nominal_s"] for r in plain)
        run_traced = statistics.median(r["run_nominal_s"] for r in traced)
        metrics.update({
            "trace.run_s_untraced": run_plain,
            "trace.run_s_traced": run_traced,
            "trace.overhead_s": run_traced - run_plain,
            "trace.overhead_share": (run_traced - run_plain) / run_plain,
        })
        metrics.update(self.time_to_gap(plain))
        return metrics

    def time_to_gap(self, records: list[dict]) -> dict[str, float]:
        """Median untraced time of each solver's cell (0 where it does not run)."""
        out = {}
        for solver in ("apcg", "sdca", "rpcg", "afg"):
            times = [c["time_nominal_s"] for r in records for c in r["cells"]
                     if c["solver"] == solver]
            out[f"time_to_gap_s.{solver}"] = statistics.median(times) if times else 0.0
        return out

    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def environment(root: Path) -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": platform.machine(), "commit": "unknown (not a git checkout)"}
    try:
        with open("/proc/cpuinfo") as fh:
            info["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                               if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = root / ".git" / ref[5:]
            ref = ref_path.read_text().strip() if ref_path.is_file() else ref
        info["commit"] = ref
    info["src_apcg_lines"] = sum(len(p.read_text().splitlines())
                                 for p in sorted((root / "src" / "apcg").glob("*.py")))
    return info


def load_spec(root: Path) -> dict:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
            "why": {w["name"]: w["why"] for w in spec["workloads"]}}


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool,
                 size: str, units: dict, why: str) -> dict:
    bench = Bench(root, name, seed, size)
    values = bench.traced(seconds) if trace else bench.untraced(seconds)
    plain = [r for r in bench.records if not r["trace"]]
    if trace:
        values["fail_ratio"] = bench.fail_ratio()
    env = dict(environment(root), **bench.env_info)

    print(f"== {name} (seed {seed}, {size}): {why}")
    print("   env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"   repetitions: {len(plain)} untraced, {len(bench.records) - len(plain)} traced")
    if not trace:
        for metric, unit in units.items():
            print(f"   {metric} = {values.get(metric, float('nan')):.6g} {unit}")
        ttg = bench.time_to_gap(plain)
        for solver in bench.wl.solvers:
            key = f"time_to_gap_s.{solver}"
            samples = [c["time_nominal_s"] for r in plain for c in r["cells"]
                       if c["solver"] == solver]
            q1, med, q3 = quartiles(samples) if samples else (0.0, 0.0, 0.0)
            print(f"   {key} = {ttg[key]:.6g} s (n={len(samples)}, q1 {q1:.4g}, q3 {q3:.4g})")
        print(f"   fail_ratio = {bench.fail_ratio():.6g} ratio "
              f"({bench.failed} failed of {bench.attempted})")
        if plain:
            wall = statistics.median(r["run_s"] for r in plain)
            slowdown = statistics.median(r["mean_slowdown"] for r in plain)
            print(f"   wall-clock run_s = {wall:.6g} s at a sampled slowdown of {slowdown:.3g} "
                  "against nominal speed (times above are at nominal speed)")
    else:
        zero = sorted(k for k, v in values.items() if v == 0 and k != "fail_ratio")
        for key, value in sorted(values.items()):
            print(f"   {key} = {value:.6g} {units.get(key, '')}")
        if zero:
            print("   0 because this workload does not exercise the layer or has "
                  "nothing to count: " + ", ".join(zero))
    for problem in bench.problems:
        print(f"   FAILED {problem}", file=sys.stderr)

    metrics = {k: {"value": float(values[k]), "unit": unit}
               for k, unit in units.items() if k in values}
    complete = len(metrics) == len(units)
    result = {"correct": bench.failed == 0 and complete, "attempted": bench.attempted,
              "failed": bench.failed, "metrics": metrics}
    record = dict(result, workload=name, seed=seed, size=size, trace=trace, env=env,
                  why=why, repetitions=[{k: v for k, v in r.items() if k != "stdout"}
                                                 for r in bench.records],
                  problems=bench.problems)
    (root / ".bench_out" / f"result-{name}-s{seed}-{size}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True, help="non-negative workload seed")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks the ERM workloads for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = Path.cwd()
    if not (root / "src" / "apcg" / "cli.py").is_file():
        print("error: run from the root of an apcg checkout (src/apcg/cli.py not found)",
              file=sys.stderr)
        return 2
    spec = load_spec(root)
    units = spec["per_layer"] if args.trace else spec["end_to_end"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(root, name, args.seed, args.seconds, bool(args.trace),
                                  args.size, units, spec["why"][name]) for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}/{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    if not any(r["metrics"] for r in results.values()):
        print("error: no repetition completed", file=sys.stderr)
        return 1
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
