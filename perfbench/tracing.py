"""In-memory spans around the library's public functions.

The tracer replaces a function at the module attribute its callers look it
up through (``switching.bessel_j`` is what the switching maps call), records
one span per call -- name, start, end, parent span, op index and a few
computed counts -- and puts the original back on ``uninstall``.  Nothing in
the library is edited; with the tracer uninstalled the library runs exactly
as it does for a user.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

# Bessel arguments above this run the ODE continuation (specfun's
# _DIRECT_ARG_LIMIT); classified here by argument, not by peeking inside.
BESSEL_DIRECT_MAX_ARG = 20.0


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    counts: dict = field(default_factory=dict)
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


def _grid_counts(steps, cells):
    return {"steps": steps, "cells": cells, "cell_steps": steps * cells}


def _stage_counts(res):
    """Steps and (z, node) cells of a reduced stage, from its arrays."""
    return _grid_counts(len(res.tau) - 1, int(res.m_final.size))


def _full_counts(res):
    return _grid_counts(len(res.tau) - 1, int(res.r13.size))


def _bessel_name(args, kwargs):
    x = float(args[1]) if len(args) > 1 else float(kwargs["x"])
    return ("specfun.bessel_j.direct" if x <= BESSEL_DIRECT_MAX_ARG
            else "specfun.bessel_j.ode")


def _row_counts(row):
    return {"error_rows": 1 if row.get("error") else 0}


# (module, attribute, span name or namer(args, kwargs), counts(result))
TARGETS = [
    ("mbsolver", "run_pipeline", "mbsolver.run_pipeline", None),
    ("mbsolver", "simulate_storage_reduced", "mbsolver.write_march",
     _stage_counts),
    ("mbsolver", "simulate_retrieval_reduced", "mbsolver.read_march",
     _stage_counts),
    ("mbsolver", "simulate_storage_full", "mbsolver.full_write",
     _full_counts),
    ("mbsolver", "stage_handoff_multipliers", "mbsolver.handoff",
     lambda res: {"nodes": len(res)}),
    ("mbsolver", "quadrature_nodes", "params.quadrature_nodes", None),
    ("mbsolver", "stark_shifted_detuning", "params.stark_shifted_detuning",
     None),
    ("switching", "bessel_j", _bessel_name, None),
    ("switching", "complex_gamma", "specfun.gamma", None),
    ("switching", "reciprocal_gamma", "specfun.gamma", None),
    ("specfun", "complex_gamma", "specfun.gamma", None),
    ("specfun", "reciprocal_gamma", "specfun.gamma", None),
    ("switching", "bessel_cross_product_m", "specfun.cross_product_m", None),
    ("switching", "switch_off_asymptotic", "switching.switch_off_asymptotic",
     None),
    ("switching", "switch_on_coefficients",
     "switching.switch_on_coefficients", None),
    ("efficiency", "overall_efficiency", "efficiency.overall_efficiency",
     None),
    ("efficiency", "resolve_coupling", "efficiency.resolve_coupling", None),
    ("strcheck", "waveform_fidelity", "strcheck.waveform_fidelity", None),
    ("strcheck", "fwhm", "strcheck.fwhm", None),
    ("strcheck", "apply_str", "strcheck.apply_str", None),
    ("strcheck", "str_residual", "strcheck.str_residual", None),
    ("cli", "main", "cli.main", None),
    ("cli", "run_sweep", "cli.run_sweep", None),
    ("cli", "_sweep_point", "cli.point", _row_counts),
    ("cli", "_write_rows", "cli.emit", None),
]


class Tracer:
    """Collects spans while installed.  One client, one thread: a plain
    stack gives each span its parent."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list = []
        self.op = -1

    def install(self, modules: dict) -> None:
        for mod_name, attr, name, counts in TARGETS:
            mod = modules[mod_name]
            if not hasattr(mod, attr):
                continue      # a later version may have removed it
            orig = getattr(mod, attr)
            self._saved.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(orig, name, counts))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved.clear()

    def _wrap(self, fn, name, counts):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = tracer.begin(label)
            try:
                res = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
            if counts is not None:
                tracer.spans[idx].counts = counts(res)
            return res

        traced.__wrapped__ = fn
        return traced

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent,
                               op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        span = self.spans[idx]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_time += span.duration


def _outermost(spans, span):
    """False when an ancestor span has the same name (recursion, or the
    same function reached through two bindings)."""
    p = span.parent
    while p >= 0:
        if spans[p].name == span.name:
            return False
        p = spans[p].parent
    return True


def summarize(spans: list[Span], ops: list[int]) -> dict:
    """Per-name totals over the spans of the given ops: calls, inclusive
    seconds (outermost spans only), self seconds and summed counts."""
    keep = set(ops)
    out: dict = {}
    for span in spans:
        if span.op not in keep:
            continue
        agg = out.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                         "counts": {}})
        agg["calls"] += 1
        agg["self_s"] += span.duration - span.child_time
        if _outermost(spans, span):
            agg["s"] += span.duration
        for k, v in span.counts.items():
            agg["counts"][k] = agg["counts"].get(k, 0) + v
    return out


def layer_metrics(summary: dict, n_ops: int, op_times: list[float],
                  setup: dict) -> dict:
    """The per-layer metrics of one traced run, as per-op means (counts and
    seconds per traced op).  Set-up metrics are totals of one set-up."""
    def get(name, key="s"):
        agg = summary.get(name)
        return 0.0 if agg is None else float(agg[key])

    def count(name, key):
        agg = summary.get(name)
        return 0 if agg is None else agg["counts"].get(key, 0)

    n = max(n_ops, 1)
    m = {}
    march_s = 0.0
    for stage in ("write_march", "read_march", "full_write"):
        name = f"mbsolver.{stage}"
        s, calls = get(name), get(name, "calls")
        cell_steps = count(name, "cell_steps")
        march_s += s
        m[f"{name}.s"] = s / n
        m[f"{name}.steps"] = count(name, "steps") / n
        m[f"{name}.cells"] = count(name, "cells") / calls if calls else 0.0
        m[f"{name}.us_per_cell_step"] = (1e6 * s / cell_steps
                                         if cell_steps else 0.0)
    m["mbsolver.handoff.s"] = get("mbsolver.handoff") / n
    m["mbsolver.handoff.nodes"] = count("mbsolver.handoff", "nodes") / n
    total_op = sum(op_times)
    m["mbsolver.march_share"] = march_s / total_op if total_op else 0.0
    for branch in ("direct", "ode"):
        name = f"specfun.bessel_j.{branch}"
        calls = get(name, "calls")
        m[f"{name}.calls"] = calls / n
        m[f"{name}.s"] = get(name) / n
        m[f"{name}.us_per_call"] = 1e6 * get(name) / calls if calls else 0.0
    m["specfun.gamma.calls"] = get("specfun.gamma", "calls") / n
    m["specfun.gamma.s"] = get("specfun.gamma") / n
    m["specfun.cross_product_m.calls"] = \
        get("specfun.cross_product_m", "calls") / n
    for name in ("switching.switch_off_asymptotic",
                 "switching.switch_on_coefficients"):
        m[f"{name}.calls"] = get(name, "calls") / n
        m[f"{name}.self_s"] = get(name, "self_s") / n
    m["efficiency.overall_efficiency.calls"] = \
        get("efficiency.overall_efficiency", "calls") / n
    m["efficiency.overall_efficiency.s"] = \
        get("efficiency.overall_efficiency") / n
    m["efficiency.resolve_coupling.setup_calls"] = float(
        setup.get("efficiency.resolve_coupling", {}).get("calls", 0))
    m["efficiency.resolve_coupling.setup_s"] = float(
        setup.get("efficiency.resolve_coupling", {}).get("s", 0.0))
    m["params.quadrature_nodes.calls"] = \
        get("params.quadrature_nodes", "calls") / n
    m["params.quadrature_nodes.s"] = get("params.quadrature_nodes") / n
    m["params.stark_shifted_detuning.calls"] = \
        get("params.stark_shifted_detuning", "calls") / n
    for name in ("waveform_fidelity", "fwhm", "apply_str", "str_residual"):
        m[f"strcheck.{name}.s"] = get(f"strcheck.{name}") / n
    m["strcheck.str_residual.calls"] = \
        get("strcheck.str_residual", "calls") / n
    m["cli.run_sweep.self_s"] = get("cli.run_sweep", "self_s") / n
    m["cli.emit.s"] = get("cli.emit") / n
    points = get("cli.point", "calls")
    m["cli.points"] = points / n
    m["cli.error_row_frac"] = (count("cli.point", "error_rows") / points
                               if points else 0.0)
    m["other.self_s"] = get("op", "self_s") / n
    return m
