"""In-memory call tracer for the traced benchmark run.

The tracer wraps functions of the seven ``apcg`` layers from the outside:
no code under ``src/apcg`` knows about it.  Every wrapped function keeps a
call count, inclusive time and self time (inclusive minus the time of the
wrapped calls it made).  Calls that happen once per epoch or less are also
kept as spans ``(id, name, start_ns, end_ns, parent_id)``; per-step
functions, called hundreds of thousands of times, keep only counts so that
memory stays bounded.  Everything is written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import json
import os
import sys
from time import perf_counter_ns

LAYERS = ("data", "erm", "baselines", "solvers", "schedule", "core", "cli")

# Called once per coordinate step (or per prox/schedule step): counts only.
PER_STEP = frozenset({
    "erm.apcg_erm_step",
    "solvers.BlockSampler.draw",
    "solvers.apcg_step_general", "solvers.apcg_step_sc",
    "solvers.apcg_step_nsc", "solvers.apcg_step_efficient",
    "solvers.nsc_alpha_next",
    "schedule.ApcgSchedule.step", "schedule.solve_alpha",
    "core.block_prox",
    "baselines.rpcg_step", "baselines.sdca_coordinate_update",
})

# Methods wrapped besides the public module-level functions of each layer.
METHODS = {
    "data": [("SparseColMatrix", "dot"), ("SparseColMatrix", "tdot")],
    "erm": [("ErmProblem", "smoothed_hinge"), ("ErmProblem", "ridge"),
            ("PrimalDualReport", "evaluate")],
    "solvers": [("BlockSampler", "draw")],
    "schedule": [("ApcgSchedule", "step")],
}

# Private cli functions that delimit dataset loading, trace writing and the
# six diagnostic checks.
CLI_PRIVATE = ("_load_dataset", "_write_trace", "_check_schedule", "_check_theta",
               "_check_combination_and_psihat", "_check_equivalence",
               "_check_gap_bound", "_check_envelope")

PROX_FULL = "core.prox_full."  # one stats entry per implementing class


class Tracer:
    def __init__(self, paused_ns: list[int]):
        """``paused_ns[0]`` counts time the process spent not running apcg
        (the child's speed sampling); it is left out of every duration."""
        self.paused_ns = paused_ns
        self.stats: dict[str, list[int]] = {}  # name -> [calls, incl_ns, self_ns]
        self.counts: dict[str, float] = {}
        self.spans: list[tuple[int, str, int, int, int]] = []
        self._stack: list[list[int]] = []  # open calls: [child_ns, span id]
        self._next_id = 0
        # name -> (before(args) -> token, after(args, result, dur_ns, token))
        self.hooks = {
            "data.SparseColMatrix.dot": (None, self._on_matvec),
            "data.SparseColMatrix.tdot": (None, self._on_matvec),
            "data.parse_libsvm": (None, self._on_parse),
            "erm.PrimalDualReport.evaluate": (self._matvec_ns, self._on_report),
            "erm.apcg_erm_step": (None, self._on_apcg_step),
            "baselines.sdca_epoch": (None, self._on_sdca_epoch),
            "baselines.rpcg_erm_epoch": (None, self._on_rpcg_epoch),
            "baselines.afg_step": (self._afg_backtracks, self._on_afg_step),
        }

    def add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def calls(self, name: str) -> int:
        return self.stats.get(name, (0, 0, 0))[0]

    def seconds(self, name: str) -> float:
        return self.stats.get(name, (0, 0, 0))[1] / 1e9

    def wrap(self, name: str, fn):
        """Return a wrapper of ``fn`` that records its calls under ``name``."""
        stats = self.stats.setdefault(name, [0, 0, 0])
        stack = self._stack
        paused = self.paused_ns
        keep_span = name not in PER_STEP
        before, after = self.hooks.get(name, (None, None))
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            if keep_span:
                sid = tracer._next_id
                tracer._next_id += 1
            else:
                sid = parent  # children of a per-step call attach to its span parent
            token = before(args) if before is not None else None
            frame = [0, sid]
            stack.append(frame)
            # this order can only miss a pause, never subtract one that
            # fell outside [t0, t1]
            t0 = perf_counter_ns()
            p0 = paused[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                p1 = paused[0]
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0 - (p1 - p0)
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if keep_span:
                    tracer.spans.append((sid, name, t0, t1, parent))
            if after is not None:
                after(args, result, dur, token)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- installation -------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every layer's public functions plus the methods listed above."""
        modules = {m: sys.modules[f"{package.__name__}.{m}"] for m in LAYERS}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if attr.startswith("_") and not (short == "cli" and attr in CLI_PRIVATE):
                    continue
                self._rebind(package, obj, self.wrap(f"{short}.{attr}", obj))
            for cls_name, meth in METHODS.get(short, ()):
                self._wrap_method(getattr(mod, cls_name), meth, f"{short}.{cls_name}.{meth}")
        base = modules["core"].SeparableRegularizer
        for mod in modules.values():
            for obj in list(vars(mod).values()):
                if (inspect.isclass(obj) and issubclass(obj, base)
                        and obj.__module__ == mod.__name__ and "prox_full" in vars(obj)):
                    self._wrap_method(obj, "prox_full", PROX_FULL + obj.__name__)

    def _wrap_method(self, cls, meth: str, name: str) -> None:
        raw = vars(cls)[meth]
        if isinstance(raw, classmethod):
            setattr(cls, meth, classmethod(self.wrap(name, raw.__func__)))
        else:
            setattr(cls, meth, self.wrap(name, raw))

    @staticmethod
    def _rebind(package, original, wrapper) -> None:
        """Replace ``original`` wherever an apcg module imported it by name."""
        prefix = package.__name__ + "."
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package.__name__ or mod_name.startswith(prefix)):
                continue
            for attr, obj in list(vars(mod).items()):
                if obj is original:
                    setattr(mod, attr, wrapper)

    # -- hooks: counters taken where the work happens ---------------------------

    def _matvec_ns(self, args):
        return self.counts.get("matvec_ns", 0)

    def _on_matvec(self, args, result, dur, token):
        self.add("matvec_ns", dur)
        # compulsory traffic: values, row indices and column ids read once,
        # the input vector gathered once per nonzero, the output written once
        self.add("data.matvec_bytes", 32 * args[0].nnz + 8 * result.size)

    def _on_parse(self, args, result, dur, token):
        if isinstance(args[0], (str, os.PathLike)):
            self.add("data.parse_bytes", os.path.getsize(args[0]))

    def _on_report(self, args, result, dur, token):
        self.add("erm.report_matvec_ns", self.counts.get("matvec_ns", 0) - token)

    def _on_apcg_step(self, args, result, dur, token):
        m = args[0].matrix
        self.add("erm.apcg_expected_nnz", m.values.size / m.n)
        if result.last_h == 0.0:
            self.add("erm.zero_increments", 1)

    def _on_sdca_epoch(self, args, result, dur, token):
        self.add("baselines.sdca_steps", args[0].n)

    def _on_rpcg_epoch(self, args, result, dur, token):
        self.add("baselines.rpcg_steps", args[0].n)

    def _afg_backtracks(self, args):
        return args[1].backtracks

    def _on_afg_step(self, args, result, dur, token):
        self.add("baselines.afg_backtracks", result.backtracks - token)

    # -- output ---------------------------------------------------------------

    def write(self, path) -> None:
        """Write spans, per-function stats and counters as one JSON file."""
        with open(path, "w") as fh:
            json.dump({"span_fields": ["id", "name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans,
                       "stats_fields": ["calls", "incl_ns", "self_ns"],
                       "stats": self.stats,
                       "counts": self.counts}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(tr: Tracer, rep: dict) -> dict[str, float]:
    """Per-layer metrics of one traced repetition.

    ``rep`` is the child's record: ``run_s``, ``main_setup_s`` (main start to
    the first cell), ``cells`` and ``output_bytes``.  A metric whose layer
    the workload does not exercise reads 0.
    """
    cells = rep["cells"]
    by_solver = {c["solver"]: c for c in cells}
    cell_s = sum(c["time_s"] for c in cells)
    checks_s = sum(tr.seconds(f"cli.{name}") for name in CLI_PRIVATE if name.startswith("_check"))

    dot_s, tdot_s = tr.seconds("data.SparseColMatrix.dot"), tr.seconds("data.SparseColMatrix.tdot")
    parse_s = tr.seconds("data.parse_libsvm")
    report_s = tr.seconds("erm.PrimalDualReport.evaluate")
    apcg_steps = tr.calls("erm.apcg_erm_step")
    apcg_step_ns = _ratio(tr.seconds("erm.apcg_erm_step") * 1e9, apcg_steps)
    afg_iters = tr.calls("baselines.afg_step")
    backtracks = tr.counts.get("baselines.afg_backtracks", 0)
    sched_steps = tr.calls("schedule.ApcgSchedule.step")
    prox_full = [v for k, v in tr.stats.items() if k.startswith(PROX_FULL)]
    prox_full_calls = sum(v[0] for v in prox_full)

    # cli.write_s: trace CSVs, plus the summary and dataset files that
    # run_experiment writes after the last trace
    write_s = tr.seconds("cli._write_trace")
    traces = [end for _, name, _, end, _ in tr.spans if name == "cli._write_trace"]
    experiment = [end for _, name, _, end, _ in tr.spans if name == "cli.run_experiment"]
    if traces and experiment:
        write_s += (experiment[-1] - max(traces)) / 1e9

    def ns_per(name, steps):
        return _ratio(tr.seconds(name) * 1e9, steps)

    out = {
        "data.synth_binary_s": tr.seconds("data.synth_binary"),
        "data.parse_libsvm_s": parse_s,
        "data.parse_mb_per_s": _ratio(tr.counts.get("data.parse_bytes", 0) / 1e6, parse_s),
        "data.dot_calls": tr.calls("data.SparseColMatrix.dot"),
        "data.dot_s": dot_s,
        "data.tdot_calls": tr.calls("data.SparseColMatrix.tdot"),
        "data.tdot_s": tdot_s,
        "data.matvec_gb_per_s_computed": _ratio(tr.counts.get("data.matvec_bytes", 0) / 1e9,
                                                dot_s + tdot_s),
        "erm.problem_build_s": tr.seconds("erm.ErmProblem.smoothed_hinge")
        + tr.seconds("erm.ErmProblem.ridge"),
        "erm.report_calls": tr.calls("erm.PrimalDualReport.evaluate"),
        "erm.report_s": report_s - tr.counts.get("erm.report_matvec_ns", 0) / 1e9,
        "erm.report_share": _ratio(report_s, cell_s),
        "erm.apcg_steps": apcg_steps,
        "erm.apcg_step_ns": apcg_step_ns,
        "erm.apcg_ns_per_nnz": _ratio(apcg_step_ns * apcg_steps,
                                      tr.counts.get("erm.apcg_expected_nnz", 0)),
        "erm.apcg_epochs_to_tol": by_solver.get("apcg", {}).get("epochs_to_tol") or 0,
        "erm.zero_increment_ratio": _ratio(tr.counts.get("erm.zero_increments", 0), apcg_steps),
        "baselines.sdca_step_ns": ns_per("baselines.sdca_epoch",
                                         tr.counts.get("baselines.sdca_steps", 0)),
        "baselines.rpcg_step_ns": ns_per("baselines.rpcg_erm_epoch",
                                         tr.counts.get("baselines.rpcg_steps", 0)),
        "baselines.afg_iter_ms": _ratio(tr.seconds("baselines.afg_step") * 1e3, afg_iters),
        "baselines.afg_backtracks": backtracks,
        "baselines.afg_accept_ratio": _ratio(afg_iters, afg_iters + backtracks),
        "baselines.sdca_epochs_to_tol": by_solver.get("sdca", {}).get("epochs_to_tol") or 0,
        "baselines.rpcg_epochs_to_tol": by_solver.get("rpcg", {}).get("epochs_to_tol") or 0,
        "baselines.afg_iters_to_tol": by_solver.get("afg", {}).get("epochs_to_tol") or 0,
        "solvers.sampler_draws": tr.calls("solvers.BlockSampler.draw"),
        "solvers.sampler_draw_ns": ns_per("solvers.BlockSampler.draw",
                                          tr.calls("solvers.BlockSampler.draw")),
        "solvers.solve_calls": tr.calls("solvers.solve"),
        "solvers.general_step_ns": ns_per("solvers.apcg_step_general",
                                          tr.calls("solvers.apcg_step_general")),
        "solvers.sc_step_ns": ns_per("solvers.apcg_step_sc", tr.calls("solvers.apcg_step_sc")),
        "solvers.efficient_step_ns": ns_per("solvers.apcg_step_efficient",
                                            tr.calls("solvers.apcg_step_efficient")),
        "schedule.steps": sched_steps,
        "schedule.step_ns": ns_per("schedule.ApcgSchedule.step", sched_steps),
        # four history lists, each entry a list slot plus a float object
        "schedule.history_bytes_computed": sched_steps * 4 * (8 + sys.getsizeof(0.0)),
        "core.block_prox_calls": tr.calls("core.block_prox"),
        "core.block_prox_ns": ns_per("core.block_prox", tr.calls("core.block_prox")),
        "core.prox_full_calls": prox_full_calls,
        "core.prox_full_ns": _ratio(sum(v[1] for v in prox_full), prox_full_calls),
        "cli.cells": len(cells),
        "cli.write_s": write_s,
        "cli.output_bytes": rep["output_bytes"],
        "cli.unattributed_s": rep["run_s"] - rep["main_setup_s"] - cell_s - checks_s - write_s,
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[2] for k, v in tr.stats.items()
                                     if k.startswith(layer + ".")) / 1e9
    return out
