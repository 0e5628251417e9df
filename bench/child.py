"""One benchmark repetition, in a fresh process.

Usage: ``python3 bench/child.py SPEC_JSON`` with ``PYTHONPATH`` set to the
checkout's ``src``; ``bench/run.py`` builds the spec.  The child times
``apcg.cli.main(argv)``, checks every cell it ran, and writes one JSON record
to ``spec["result"]``.  Spec keys:

* ``argv`` -- arguments for ``apcg.cli.main``;
* ``src`` -- the directory ``apcg`` must be imported from;
* ``mode`` -- ``run`` (a full repetition) or ``setup`` (stop at the first
  cell, or right after the import when there are no cells);
* ``trace`` -- wrap the seven layers with :class:`tracing.Tracer` and write
  the trace to ``spec["trace_out"]``;
* ``loss``, ``lam``, ``gamma``, ``tol`` -- the problem, for the
  independent gap check.

Machine speed.  Where a core is shared with other tenants (as on the 2-vCPU
Xeon VM the benchmark was tuned on), its speed swings by up to 2x within
fractions of a second.  A timer signal therefore runs two small fixed
reference kernels every ``PERIOD_S`` seconds: a pure-Python loop, and (once
numpy is imported) a loop of 20-element numpy gathers and scatters, the two
kinds of work apcg's solvers do.  A sample is
the geometric mean of their times over their nominal times, i.e. how much
slower than nominal the machine runs at that moment.  Every time the child
reports is given twice: ``*_s`` is wall time with the sampling pauses taken
out, and ``*_nominal_s`` divides it by the mean slowdown sampled during the
interval, which cancels the machine's speed while a change in apcg's own
speed passes through unchanged.
"""

import csv
import json
import math
import resource
import signal
import sys
import time
from pathlib import Path

PERIOD_S = 0.05
PYTHON_NOMINAL_S = 0.0024  # typical kernel times on a 2.1 GHz Xeon vCPU
NUMPY_NOMINAL_S = 0.0014


def python_kernel_s() -> float:
    """Seconds for a fixed pure-Python loop."""
    t = time.perf_counter()
    buf = [0.5] * 64
    acc = 0.0
    for i in range(20_000):
        j = i & 63
        v = buf[j] * 0.999 + acc * 1e-9
        buf[j] = v if v < 1.0 else v - 1.0
        acc += v
    return time.perf_counter() - t


def numpy_kernel(np):
    """A function timing 300 gather-dot-scatter steps on a 512 KB vector."""
    rng = np.random.Generator(np.random.PCG64(0))
    w = rng.standard_normal(1 << 16)
    rows = rng.integers(0, w.size, (300, 20))
    val = rng.standard_normal(20)

    def seconds() -> float:
        t = time.perf_counter()
        for idx in rows:
            a = float(val @ w[idx])
            w[idx] += (a * 1e-12) * val
        return time.perf_counter() - t
    return seconds


class SpeedClock:
    """Slowdown samples on a timer, and intervals timed net of sampling."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (taken at, slowdown)
        self.paused_ns = [0]  # shared with the tracer, which excludes it too
        self.numpy_s = None

    def sample(self, *_):
        t = time.perf_counter_ns()
        slowdown = python_kernel_s() / PYTHON_NOMINAL_S
        if self.numpy_s is not None:
            slowdown = math.sqrt(slowdown * self.numpy_s() / NUMPY_NOMINAL_S)
        self.samples.append((t / 1e9, slowdown))
        self.paused_ns[0] += time.perf_counter_ns() - t

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def add_numpy(self, np) -> None:
        t = time.perf_counter_ns()
        self.numpy_s = numpy_kernel(np)
        self.paused_ns[0] += time.perf_counter_ns() - t

    def stop(self) -> None:
        if signal.getitimer(signal.ITIMER_REAL)[0]:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            self.sample()

    def now(self) -> tuple[float, float]:
        while True:  # retry if a sample lands between the two reads
            paused = self.paused_ns[0]
            t = time.perf_counter()
            if self.paused_ns[0] == paused:
                return t, paused / 1e9

    def seconds(self, start, end) -> tuple[float, float]:
        """(wall, nominal) seconds between two ``now()`` stamps, net of sampling."""
        (a, pa), (b, pb) = start, end
        wall = (b - a) - (pb - pa)
        slow = [s for t, s in self.samples if a <= t <= b]
        if len(slow) < 2:  # short interval: add the samples that bracket it
            slow += [s for t, s in reversed(self.samples) if t < a][:1]
            slow += [s for t, s in self.samples if t > b][:1]
        return wall, wall * len(slow) / sum(slow)


CLOCK = SpeedClock()
CLOCK.start()
T0 = CLOCK.now()  # set-up starts here, before numpy and apcg are imported

import numpy as np  # noqa: E402

import apcg  # noqa: E402
import apcg.cli as cli  # noqa: E402

T_IMPORTED = CLOCK.now()
CLOCK.add_numpy(np)

GAP_FLOOR = -1e-10  # weak duality: no reported gap may fall below this


class SetupDone(Exception):
    """Raised at the first cell of a setup-only repetition."""


def independent_gap(A, labels, loss: str, lam: float, gamma: float, x) -> float:
    """P(A x / (lam n)) - D(x), written apart from apcg's own kernels.

    Products go through ``np.add.at`` on expanded column ids instead of
    ``SparseColMatrix.dot``/``tdot``; the losses and conjugates are written
    out here, so a broken kernel or report cannot certify itself.
    """
    n = A.n
    x = np.asarray(x, dtype=float)
    cols = np.repeat(np.arange(n), np.diff(A.indptr))
    vals = A.values * labels[cols] if loss == "smoothed_hinge" else A.values
    ax = np.zeros(A.d)
    np.add.at(ax, A.indices, vals * x[cols])
    w = ax / (lam * n)
    margins = np.zeros(n)
    np.add.at(margins, cols, vals * w[A.indices])
    if loss == "smoothed_hinge":
        if np.any(x < -1e-9) or np.any(x > 1 + 1e-9):
            return float("inf")  # outside the conjugate domain
        x = np.clip(x, 0.0, 1.0)
        phi = np.where(margins >= 1.0, 0.0,
                       np.where(margins <= 1.0 - gamma, 1.0 - margins - gamma / 2.0,
                                (1.0 - margins) ** 2 / (2.0 * gamma)))
        conj = -x + 0.5 * gamma * x * x
    else:
        phi = (margins - labels) ** 2 / (2.0 * gamma)
        conj = -labels * x + 0.5 * gamma * x * x
    primal = float(np.mean(phi)) + 0.5 * lam * float(w @ w)
    dual = -float(np.mean(conj)) - float(ax @ ax) / (2.0 * lam * n * n)
    return primal - dual


def cell_failures(result, tol: float) -> list[str]:
    """The correctness gate of one cell's trace."""
    failures = []
    if result.epochs_to_tol is None:
        failures.append(f"missed tol {tol:g} in {result.epochs_run} epochs")
    values = [v for r in result.reports for v in (r.primal, r.dual, r.gap)]
    if not all(np.isfinite(values)):
        failures.append("non-finite primal, dual or gap")
    min_gap = min(r.gap for r in result.reports)
    if min_gap < GAP_FLOOR:
        failures.append(f"gap {min_gap:.3e} below {GAP_FLOOR:g} (weak duality)")
    return failures


def check_outputs(out_dir: Path, cells: list[dict], tol: float) -> None:
    """Match summary.csv and each trace CSV against the cells that ran."""
    try:
        with open(out_dir / "summary.csv") as fh:
            summary = list(csv.DictReader(fh))
    except OSError as exc:
        for c in cells:
            c["failures"].append(f"summary.csv unreadable: {exc}")
        return
    if len(summary) != len(cells):
        for c in cells:
            c["failures"].append("summary.csv has the wrong number of rows")
        return
    for c, row in zip(cells, summary):
        if row["solver"] != c["solver"] or row["epochs_to_tol"] != str(c["epochs_to_tol"]) \
                or float(row["final_gap"]) != c["final_gap"]:
            c["failures"].append("summary.csv row disagrees with the run")
            continue
        trace = out_dir / (f"{row['dataset']}_{row['loss']}_lam{float(row['lambda']):g}"
                           f"_{row['solver']}_s{row['seed']}.csv")
        try:
            with open(trace) as fh:
                gaps = [float(r["gap"]) for r in csv.DictReader(fh)]
        except OSError as exc:
            c["failures"].append(f"trace unreadable: {exc}")
            continue
        if len(gaps) != c["epochs_run"] + 1 or gaps[-1] > tol \
                or not all(np.isfinite(gaps)) or min(gaps) < GAP_FLOOR:
            c["failures"].append(f"trace {trace.name} fails the gate")


def main() -> int:
    spec = json.loads(sys.argv[1])
    if Path(apcg.__file__).resolve().parent != Path(spec["src"]).resolve() / "apcg":
        print(f"apcg imported from {apcg.__file__}, expected {spec['src']}", file=sys.stderr)
        return 3
    record = {"numpy": np.__version__, "cells": []}
    stamps = {}  # interval name -> (start, end) clock stamps
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer(CLOCK.paused_ns)
        tracer.install(apcg)
    setup_only = spec["mode"] == "setup"
    is_run = spec["argv"][0] == "run"
    if not is_run:
        stamps["setup"] = (T0, T_IMPORTED)
        if setup_only:
            return write(spec, record, stamps)

    loaded = {}
    load_dataset = cli._load_dataset

    def capture_dataset(config):
        loaded["dataset"] = load_dataset(config)
        return loaded["dataset"]

    run_solver_trace = cli.run_solver_trace
    outcomes = []  # (cell record, final x)

    def timed_cell(prob, solver, epochs, seed, tol):
        start = CLOCK.now()
        if "setup" not in stamps:
            stamps["setup"] = (T0, start)
            stamps["main_setup"] = (main_start, start)
            if setup_only:
                raise SetupDone
        result = run_solver_trace(prob, solver, epochs, seed, tol)
        stamps[f"cell{len(outcomes)}"] = (start, CLOCK.now())
        cell = {"solver": solver, "epochs_run": result.epochs_run,
                "epochs_to_tol": result.epochs_to_tol, "final_gap": result.reports[-1].gap,
                "failures": cell_failures(result, tol)}
        outcomes.append((cell, result.x))
        return result

    cli._load_dataset = capture_dataset
    cli.run_solver_trace = timed_cell
    main_start = CLOCK.now()
    try:
        code = cli.main(spec["argv"])
    except SetupDone:
        return write(spec, record, stamps)
    stamps["run"] = (main_start, CLOCK.now())
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["exit_code"] = code
    CLOCK.stop()

    cells = [cell for cell, _ in outcomes]
    record["cells"] = cells
    record["output_bytes"] = 0
    if is_run:
        out_dir = Path(spec["argv"][spec["argv"].index("--out") + 1])
        check_outputs(out_dir, cells, spec["tol"])
        record["output_bytes"] = sum(p.stat().st_size for p in out_dir.iterdir())
        _, A, labels = loaded["dataset"]
        for cell, x in outcomes:
            gap = independent_gap(A, labels, spec["loss"], spec["lam"], spec["gamma"], x)
            cell["independent_gap"] = gap
            if not gap <= spec["tol"] + 1e-9 or \
                    abs(gap - cell["final_gap"]) > 1e-9 + 1e-6 * spec["tol"]:
                cell["failures"].append(
                    f"independent gap {gap:.6e} vs reported {cell['final_gap']:.6e}")
    if tracer is None:
        return write(spec, record, stamps)
    from tracing import per_layer_metrics
    write(spec, record, stamps)  # per_layer_metrics reads the timed intervals
    record["per_layer"] = per_layer_metrics(tracer, record)
    tracer.write(spec["trace_out"])
    return write(spec, record, stamps)


def write(spec, record, stamps) -> int:
    """Turn the stamps into ``<name>_s`` and ``<name>_nominal_s``, and save."""
    CLOCK.stop()
    for name, (start, end) in stamps.items():
        wall, nominal = CLOCK.seconds(start, end)
        target, key = record, name
        if name.startswith("cell"):
            target, key = record["cells"][int(name[4:])], "time"
        target[f"{key}_s"], target[f"{key}_nominal_s"] = wall, nominal
    record.setdefault("main_setup_s", 0.0)
    record["slowdown_samples"] = len(CLOCK.samples)
    record["mean_slowdown"] = sum(r for _, r in CLOCK.samples) / len(CLOCK.samples)
    with open(spec["result"], "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
