"""Benchmark CLI: run solver comparisons on ERM instances and emit CSV traces.

One trace file is written per (dataset, lambda, solver, seed) cell with the
columns ``epoch, primal, dual, gap, dual_subgrad_norm_sq, wall_time_s``,
plus a summary file recording the first epoch at which each run's gap
dropped to the tolerance.  ``apcg-bench check`` runs the diagnostic suite
(schedule properties, combination coefficients, solver equivalences, gap
bounds, rate envelope) and exits nonzero if any check fails.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import math
import sys
import weakref
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from . import baselines, erm, native
from .data import parse_libsvm, synth_binary
from .errors import ConfigurationError, ParseError
from .instances import diag_dominant_quadratic
from .schedule import ApcgSchedule, theta_rows
from .solvers import (ApcgEfficientState, ApcgExplicitState, BlockSampler,
                      apcg_step_efficient, apcg_step_general, solve)

KNOWN_SOLVERS = ("apcg", "sdca", "afg", "rpcg")
CSV_HEADER = ["epoch", "primal", "dual", "gap", "dual_subgrad_norm_sq", "wall_time_s"]
SUMMARY_HEADER = ["dataset", "loss", "lambda", "solver", "seed",
                  "epochs_run", "epochs_to_tol", "final_gap"]


@dataclass
class ExperimentConfig:
    data: str | None = None
    synthetic: tuple[int, int, float, int] | None = None  # n, d, sparsity, seed
    loss: str = "smoothed_hinge"
    lambdas: list[float] = field(default_factory=lambda: [1e-4])
    gamma: float = 1.0
    solvers: list[str] = field(default_factory=lambda: ["apcg"])
    seeds: list[int] = field(default_factory=lambda: [0])
    epochs: int = 100
    tol: float | None = None
    out: str = "results"

    def validate(self) -> None:
        if (self.data is None) == (self.synthetic is None):
            raise ConfigurationError("exactly one of data path or synthetic spec is required")
        if self.synthetic is not None:
            n, d, sparsity, seed = self.synthetic
            if n < 1 or d < 1 or seed < 0:
                raise ConfigurationError("synthetic n and d must be >= 1 and seed >= 0")
            if not 0.0 < sparsity <= 1.0:
                raise ConfigurationError(f"synthetic sparsity must lie in (0, 1], got {sparsity}")
        if self.loss not in ("smoothed_hinge", "square"):
            raise ConfigurationError(f"unknown loss {self.loss!r}")
        if not self.lambdas or not all(0.0 < l < math.inf for l in self.lambdas):
            raise ConfigurationError("need at least one lambda, each positive and finite")
        if not 0.0 < self.gamma < math.inf:
            raise ConfigurationError("gamma must be positive and finite")
        if self.tol is not None and math.isnan(self.tol):
            raise ConfigurationError("tol must be a number, not nan")
        if not self.solvers:
            raise ConfigurationError("need at least one solver")
        for s in self.solvers:
            if s not in KNOWN_SOLVERS:
                raise ConfigurationError(f"unknown solver {s!r}; choose from {KNOWN_SOLVERS}")
        if not self.seeds:
            raise ConfigurationError("need at least one seed")
        if any(s < 0 for s in self.seeds):
            raise ConfigurationError("seeds must be >= 0")
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        # each cell writes its own trace file, whose name has lambda to 6 digits
        seen = {}
        for lam, solver, seed in itertools.product(self.lambdas, self.solvers, self.seeds):
            name = _cell_filename("<dataset>", self.loss, lam, solver, seed)
            cell = f"lambda={lam!r} solver={solver} seed={seed}"
            if name in seen:
                raise ConfigurationError(
                    f"cells {seen[name]} and {cell} would write the same trace file {name}")
            seen[name] = cell


def _load_dataset(config: ExperimentConfig):
    if config.data is not None:
        A, labels = parse_libsvm(config.data)
        if A.n == 0:
            raise ConfigurationError(f"{config.data} holds no examples")
        name = Path(config.data).name.removesuffix(".gz").removesuffix(".txt")
    else:
        n, d, sparsity, seed = config.synthetic
        A, labels = synth_binary(n, d, sparsity, seed=seed, min_nnz=1)
        name = f"synth{n}x{d}"
    return name, A, labels


def _build_problem(config: ExperimentConfig, A, labels, lam: float) -> erm.ErmProblem:
    if config.loss == "smoothed_hinge":
        return erm.ErmProblem.smoothed_hinge(A, labels, lam=lam, gamma=config.gamma)
    # square loss regresses on the +-1 labels
    return erm.ErmProblem.ridge(A, labels, lam=lam, gamma=config.gamma)


# The problems that run_experiment built, each with the runs its cells have
# made so far, keyed by (computation, epochs, seed, tol).  A problem leaves
# once its lambda's cells are done; one built elsewhere is never here, so a
# direct call of run_solver_trace always runs.
_SHARED_RUNS: "weakref.WeakKeyDictionary[erm.ErmProblem, dict]" = \
    weakref.WeakKeyDictionary()


def run_solver_trace(prob: erm.ErmProblem, solver: str, epochs: int, seed: int,
                     tol: float | None) -> erm.ErmRunResult:
    """Per-epoch primal/dual/gap trace for one solver on one instance.

    Every solver is charged by the shared accounting: n coordinate steps or
    one full-gradient iteration per epoch.  ``apcg`` runs the relocated dual
    splitting in specialized form (``erm.ErmDualState``), and ``afg`` the
    simple splitting (``baselines.afg_step``).  ``rpcg`` runs the SDCA
    kernel: on the relocated splitting the coordinate subproblem is an exact
    1-d quadratic, so the prox step with weight L_i is SDCA's exact maximizer,
    x_i + (a_i/n - grad_i)/L_i = (a_i - A_i'w + x_i q_i)/(gamma + q_i).
    Each solver hands the reports the A x it maintains anyway: APCG's
    aggregates, SDCA's lam n w, AFG's carried image of its iterate.

    On a problem that :func:`run_experiment` built, ``sdca`` and ``rpcg``
    cells with the same (epochs, seed, tol) get one run, made by whichever
    comes first: the second call returns the same result, wall times
    included.
    """
    computation = "sdca" if solver == "rpcg" else solver
    runs = _SHARED_RUNS.get(prob, {})  # a throwaway memo for any other problem
    key = (computation, epochs, seed, tol)
    if key in runs:
        return runs[key]
    if computation == "apcg":
        state = erm.ErmDualState(prob, seed=seed)
        epoch, current, ax = state.epoch, state.x, state.ax
    elif computation == "sdca":
        x, w_agg = np.zeros(prob.n), np.zeros(prob.d)
        sampler = BlockSampler(prob.n, seed)
        epoch = lambda: baselines.sdca_epoch(prob, x, w_agg, sampler)
        current = lambda: x
        ax = lambda: (prob.lam * prob.n) * w_agg
    elif computation == "afg":
        afg = baselines.afg_start(prob)
        epoch = lambda: baselines.afg_step(prob, afg)
        current = lambda: afg.x
        ax = lambda: afg.ax
    else:
        raise ConfigurationError(f"unknown solver {solver!r}")
    runs[key] = result = erm.run_epochs(prob, epoch, current, epochs, tol, ax=ax)
    return result


@dataclass(frozen=True)
class CellResult:
    dataset: str
    loss: str
    lam: float
    solver: str
    seed: int
    epochs_run: int
    epochs_to_tol: int | None
    final_gap: float
    csv_path: str


def _cell_filename(dataset: str, loss: str, lam: float, solver: str, seed: int) -> str:
    return f"{dataset}_{loss}_lam{lam:g}_{solver}_s{seed}.csv"


def _write_trace(path: Path, reports) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in reports:
            writer.writerow([r.epoch, repr(r.primal), repr(r.dual), repr(r.gap),
                             repr(r.dual_subgrad_norm_sq), f"{r.wall_time_s:.6f}"])


def run_experiment(config: ExperimentConfig) -> list[CellResult]:
    """Run every (lambda, solver, seed) cell in order and write its trace as
    it ends, then the summary and dataset files.  Each lambda's problem is
    built once, before its first cell, and shared by its cells, which share
    their runs too (see run_solver_trace)."""
    config.validate()
    dataset, A, labels = _load_dataset(config)
    entries = A.n * A.d
    description = (f"name={dataset} n={A.n} d={A.d} "
                   f"sparsity={A.nnz / entries if entries else 0.0:.6g}\n")
    out_dir = Path(config.out)
    out_dir.mkdir(parents=True, exist_ok=True)

    results: list[CellResult] = []
    for lam in config.lambdas:
        prob = _build_problem(config, A, labels, lam)
        _SHARED_RUNS[prob] = {}
        for solver in config.solvers:
            for seed in config.seeds:
                run = run_solver_trace(prob, solver, epochs=config.epochs, seed=seed,
                                       tol=config.tol)
                path = out_dir / _cell_filename(dataset, config.loss, lam, solver, seed)
                _write_trace(path, run.reports)
                results.append(CellResult(
                    dataset=dataset, loss=config.loss, lam=lam, solver=solver, seed=seed,
                    epochs_run=run.epochs_run, epochs_to_tol=run.epochs_to_tol,
                    final_gap=run.reports[-1].gap, csv_path=str(path)))

    with open(out_dir / "summary.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SUMMARY_HEADER)
        for r in results:
            writer.writerow([r.dataset, r.loss, repr(r.lam), r.solver, r.seed,
                             r.epochs_run,
                             "" if r.epochs_to_tol is None else r.epochs_to_tol,
                             repr(r.final_gap)])
    with open(out_dir / "dataset.txt", "w") as fh:
        fh.write(description)
    return results


# ---------------------------------------------------------------------------
# Diagnostic checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check_schedule() -> CheckResult:
    worst = 0.0
    steps = 10_000
    for n in (1, 2, 10, 1000):
        for mu in (0.0, 1e-6, 0.01, 1.0):
            for gamma0 in (max(mu, 0.1), 1.0):
                sched = ApcgSchedule(n, mu, gamma0)
                alphas, gammas, _, lams = sched.history(steps)
                lo = math.sqrt(mu) / n
                escaped = ~((lo - 1e-15 <= alphas) & (alphas <= 1.0 / n + 1e-15))
                resid = np.abs(gammas[1:] - (n * alphas) ** 2) / np.maximum(gammas[1:], 1e-300)
                # report the first failing k, the alpha bound before the residual
                failing = np.flatnonzero(escaped | (resid > 1e-12))
                if failing.size:
                    k = int(failing[0])
                    if escaped[k]:
                        return CheckResult("schedule", False,
                                           f"alpha escaped bounds at n={n} mu={mu} k={k}")
                    return CheckResult("schedule", False,
                                       f"gamma != (n alpha)^2 at n={n} mu={mu} k={k}: {resid[k]:.2e}")
                worst = max(worst, float(resid.max()))
                if np.any(lams > sched.rate_bound(np.arange(steps + 1)) * (1.0 + 1e-12) + 1e-300):
                    return CheckResult("schedule", False,
                                       f"lambda_k exceeded its bound at n={n} mu={mu}")
    return CheckResult("schedule", True, f"worst |gamma-(n a)^2| rel err {worst:.2e}")


def _check_theta() -> CheckResult:
    worst_sum = 0.0
    for n in (1, 3, 17):
        for mu, gamma0 in ((0.0, 1.0), (0.04, 0.5), (0.3, 0.3)):
            for k, theta in enumerate(theta_rows(ApcgSchedule(n, mu, gamma0), 200)):
                if k not in (1, 5, 40, 200):
                    continue
                if theta.min() < -1e-12:
                    return CheckResult("theta", False,
                                       f"negative coefficient at n={n} mu={mu} k={k}")
                worst_sum = max(worst_sum, abs(theta.sum() - 1.0))
                if abs(theta.sum() - 1.0) > 1e-12:
                    return CheckResult("theta", False,
                                       f"coefficients sum to {theta.sum()} at n={n} k={k}")
    return CheckResult("theta", True, f"worst |sum-1| = {worst_sum:.2e}")


def _check_combination_and_psihat() -> CheckResult:
    inst = diag_dominant_quadratic(8, seed=3, l1=0.05)
    problem = inst.problem
    sched = ApcgSchedule(problem.n, problem.smooth.mu, 1.0)
    state = ApcgExplicitState.start(np.zeros(problem.dim), seed=11, n_blocks=problem.n)
    zs = [state.z.copy()]
    psis = [problem.reg.eval_full(zs[0])]  # Psi(z^(l)), once per iterate
    worst_comb = 0.0
    worst_psi = -math.inf
    rows = theta_rows(sched, 120)
    next(rows)  # theta^(0) = (1,): x^(0) = z^(0)
    for theta in rows:
        apcg_step_general(problem, state, sched)
        zs.append(state.z.copy())
        psis.append(problem.reg.eval_full(zs[-1]))
        combo = sum(t * z for t, z in zip(theta, zs))
        worst_comb = max(worst_comb, float(np.max(np.abs(combo - state.x))))
        psi_hat = sum(t * psi for t, psi in zip(theta, psis))
        worst_psi = max(worst_psi, problem.reg.eval_full(state.x) - psi_hat)
    if worst_comb > 1e-8:
        return CheckResult("combination", False, f"x != sum theta z by {worst_comb:.2e}")
    if worst_psi > 1e-10:
        return CheckResult("combination", False, f"Psi(x) exceeded Psi-hat by {worst_psi:.2e}")
    return CheckResult("combination", True,
                       f"max combo err {worst_comb:.2e}, max Psi slack {worst_psi:.2e}")


def _check_equivalence() -> CheckResult:
    inst = diag_dominant_quadratic(20, seed=5, l1=0.1)
    problem = inst.problem
    mu = problem.smooth.mu
    worst = 0.0
    for seed in (0, 1):
        sched = ApcgSchedule(problem.n, mu, mu)  # the constant strongly convex schedule
        explicit = ApcgExplicitState.start(np.zeros(problem.dim), seed=seed,
                                           n_blocks=problem.n)
        fast = ApcgEfficientState(np.zeros(problem.dim), problem, mu, seed=seed)
        for _ in range(500):
            apcg_step_general(problem, explicit, sched)
            apcg_step_efficient(problem, fast)
            worst = max(worst, float(np.max(np.abs(fast.x_full() - explicit.x))))
    passed = worst <= 1e-8
    return CheckResult("equivalence", passed, f"max |x_uv - x_explicit| = {worst:.2e}")


def _check_gap_bound() -> CheckResult:
    A, labels = synth_binary(100, 20, 0.3, seed=7, min_nnz=1)
    prob = erm.ErmProblem.smoothed_hinge(A, labels, lam=1e-2, gamma=1.0)
    run = erm.solve_erm(prob, epochs=30, seed=2)
    worst_gap = min(r.gap for r in run.reports)
    worst_slack = max(r.gap - r.subgradient_gap_bound for r in run.reports)
    if worst_gap < -1e-10:
        return CheckResult("gap-bound", False, f"negative gap {worst_gap:.2e}")
    if worst_slack > 1e-10:
        return CheckResult("gap-bound", False,
                           f"gap exceeded subgradient bound by {worst_slack:.2e}")
    return CheckResult("gap-bound", True,
                       f"min gap {worst_gap:.2e}, max bound slack {worst_slack:.2e}")


def _check_envelope() -> CheckResult:
    inst = diag_dominant_quadratic(20, seed=1, l1=0.1)
    problem = inst.problem
    # proximal-gradient oracle for F* and x*, stopped once the iterates settle
    # into their floating-point cycle (a new iterate equals one of the last two)
    x = prev = np.zeros(problem.dim)
    step = 1.0 / inst.lipschitz_full
    for _ in range(300_000):
        x_new = problem.reg.prox_full(x - step * problem.smooth.full_gradient(x),
                                      1.0 / step)
        if np.array_equal(x_new, x) or np.array_equal(x_new, prev):
            break
        x, prev = x_new, x
    fstar = problem.objective(x)
    gamma0 = 1.0
    r0 = problem.weighted_norm(-x)
    f0 = problem.objective(np.zeros(problem.dim))
    budget = f0 - fstar + 0.5 * gamma0 * r0 * r0
    epochs = 30
    traces = []
    for seed in range(20):
        res = solve(problem, ApcgSchedule(problem.n, problem.smooth.mu, gamma0),
                    max_iters=epochs * problem.n, seed=seed)
        traces.append([f for _, f in res.trace])
    mean_gap = np.mean(traces, axis=0) - fstar
    sched = ApcgSchedule(problem.n, problem.smooth.mu, gamma0)
    # skip epochs whose theoretical bound is below what doubles can resolve
    floor = 1e-12 * max(1.0, abs(fstar))
    bounds = sched.rate_bound(problem.n * np.arange(mean_gap.size)) * budget
    resolved = bounds >= floor
    ratio = float(np.max(mean_gap[resolved] / bounds[resolved], initial=0.0))
    passed = ratio <= 1.2
    return CheckResult("envelope", passed, f"max (F-F*)/bound = {ratio:.3f}")


def check_invariants() -> list[CheckResult]:
    """Run the diagnostic suite at desk scale; each result prints one line."""
    checks = [
        _check_schedule(),
        _check_theta(),
        _check_combination_and_psihat(),
        _check_equivalence(),
        _check_gap_bound(),
        _check_envelope(),
    ]
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}")
    return checks


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _parse_synthetic(text: str) -> tuple[int, int, float, int]:
    parts = text.split(",")
    if len(parts) not in (3, 4):
        raise ConfigurationError("--synthetic expects n,d,sparsity[,seed]")
    try:
        return (int(parts[0]), int(parts[1]), float(parts[2]),
                int(parts[3]) if len(parts) == 4 else 0)
    except ValueError:
        raise ConfigurationError(f"--synthetic expects n,d,sparsity[,seed], got {text!r}") from None


def _config_from_args(args) -> ExperimentConfig:
    """The ExperimentConfig defaults, overridden by the flags given.  Each
    field is also its flag's dest; only --synthetic arrives unparsed."""
    given = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)
             if getattr(args, f.name) is not None}
    if "synthetic" in given:
        given["synthetic"] = _parse_synthetic(given["synthetic"])
    return ExperimentConfig(**given)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="apcg-bench",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run solver comparison, write CSV traces")
    run.add_argument("--data", help="LIBSVM file (optionally .gz)")
    run.add_argument("--synthetic", help="n,d,sparsity[,seed] synthetic dataset")
    run.add_argument("--loss", choices=["smoothed_hinge", "square"])
    run.add_argument("--lambda", dest="lambdas", type=float, action="append",
                     help="regularization strength (repeatable)")
    run.add_argument("--gamma", type=float, help="loss smoothness parameter")
    run.add_argument("--solver", dest="solvers", action="append",
                     choices=list(KNOWN_SOLVERS), help="solver to run (repeatable)")
    run.add_argument("--seed", dest="seeds", type=int, action="append",
                     help="RNG seed (repeatable)")
    run.add_argument("--epochs", type=int)
    run.add_argument("--tol", type=float, help="stop a run once gap <= tol")
    run.add_argument("--out", help="output directory")
    # accepted only as 1, which every benchmark run passes; cells run in order
    run.add_argument("--jobs", type=int, choices=[1], help=argparse.SUPPRESS)

    sub.add_parser("check", help="run the diagnostic invariant suite")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "check":
        checks = check_invariants()
        return 0 if all(c.passed for c in checks) else 1
    try:
        config = _config_from_args(args)
        results = run_experiment(config)
    except (ConfigurationError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the array's size
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    for r in results:
        tol_part = ("gap<=tol at epoch "
                    f"{r.epochs_to_tol}" if r.epochs_to_tol is not None else
                    f"final gap {r.final_gap:.3e}")
        print(f"{r.dataset} lam={r.lam:g} {r.solver} seed={r.seed}: "
              f"{r.epochs_run} epochs, {tol_part} -> {r.csv_path}")
    print(f"kernels: {native.backend()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
