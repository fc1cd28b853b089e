"""Seeded workload plans, the ops that run them and the physics checks.

Every workload is a closed loop with one client in one process: the next op
starts when the previous one has returned.  A plan is a list of plain dicts
(JSON values only) generated from the workload seed with the standard
library's Mersenne Twister, so the same seed always gives the same configs,
independent of numpy.  The first ops of every plan are fixed anchors whose
physics outputs were recorded at the seed commit (``reference.json``);
their drift from those values is reported on every run.

Ops call the library through module attributes (``mbsolver.run_pipeline``)
so the tracer in ``tracing.py`` sees them at the same bindings the library
itself uses.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random

# ---------------------------------------------------------------- plans

ECHO_FIXED = dict(tau0=70.0, tau_st=10.0, t_peak=35.0, sigma_t=10.0,
                  dtau=0.125, nz=48, nodes=161)
# quick-start config of the README; the second anchor is criterion 6 at
# eta = 0.5; the third records the write-stage history for the STR checks
ECHO_ANCHORS = [
    dict(kind="pipeline", eta=2.0, delta01=20.0, k_off=500.0, k_on=500.0,
         optical_depth=200.0, str=False),
    dict(kind="pipeline", eta=0.5, delta01=20.0, k_off=500.0, k_on=500.0,
         optical_depth=200.0, str=False),
    dict(kind="pipeline", eta=2.0, delta01=20.0, k_off=500.0, k_on=500.0,
         optical_depth=200.0, str=True),
]
# The read march of eta = 0.5 takes twice the steps of eta = 1 or 2, and
# depth sets the z grid (49 to 61 points): together they fix an op's cost.
# eta therefore cycles through ECHO_ETAS and the depth quantile follows a
# golden-ratio sequence from a seeded start, so every run, however short,
# holds the same mix of costs; every seventh op records the STR history.
ECHO_ETAS = (0.5, 1.0, 2.0)
ECHO_STR_EVERY = 7
ECHO_OPS = 60
GOLDEN = (5 ** 0.5 - 1) / 2

# switch sweeps: axis points per curve and the figure ranges
SWEEP_POINTS = 40
EFFMAP_POINTS = 57
K_MAX = 50.0
# one block of ten curves, the two ODE-branch curves spread apart: those
# stay below |Im p| = 200, the edge curve starts above |Im p| = 240, past
# the cosh overflow at ~226
SWEEP_BLOCK = ("off_slow", "off_direct", "on", "off_direct", "off_edge",
               "off_slow", "off_direct", "effmap", "off_direct", "on")
SWEEP_ANCHORS = [
    dict(kind="off_slow", delta01=5.0, k_min=0.025),
    dict(kind="on", delta02=10.0, spot=17),
    dict(kind="effmap", delta02=10.0, k_off=100.0, k_on=100.0,
         optical_depth=20.0, tau_echo=60.0, spot=30),
]

FULL_ANCHOR = dict(kind="full", t_peak=24.0, sigma_t=8.0)

# A switch_sweep run covers its whole plan at least once, however few
# --seconds it is given, and then starts it again: its distinct ops, and
# with them attempted and failed, depend on the seed alone, never on the
# machine's speed.  Nine blocks (two mirrored rounds of the 3 x 3
# slow-curve grid, ~7 s at the seed commit) fit well inside one run.
SWEEP_BLOCKS = 9
WHOLE_PLAN = ("switch_sweep",)
FULL_OPS = 11
WORKLOADS = ("echo_pipeline", "switch_sweep", "full_model")


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _echo_ops(rng):
    start = rng.random()
    ops = []
    for n in range(ECHO_OPS):
        u = (start + n * GOLDEN) % 1.0
        ops.append(dict(kind="pipeline", eta=ECHO_ETAS[n % len(ECHO_ETAS)],
                        delta01=rng.uniform(10.0, 20.0),
                        k_off=_log_uniform(rng, 0.05, 500.0),
                        k_on=_log_uniform(rng, 0.05, 500.0),
                        optical_depth=5.0 * 40.0 ** u,
                        str=n % ECHO_STR_EVERY == ECHO_STR_EVERY - 1))
    return ops


# ODE-branch curves cost in proportion to |Im p| and to the number of
# points past Omega/k = 20, i.e. to both draws below.  They walk a seeded
# permutation of a 3 x 3 grid of (Omega/k_min, delta0) cells with a seeded
# position inside each cell; the next round visits the cells again, in
# another order, at the mirrored positions.  Every eighteen such curves
# thus cover the whole range twice with a seed-independent mean position,
# and the run's ODE cost settles whatever the seed.
SLOW_STRATA = 3


def _slow_points(rng):
    """Endless (u_x, u_d) in [0, 1)^2 for the ODE-branch curves."""
    cells = [(a, b) for a in range(SLOW_STRATA) for b in range(SLOW_STRATA)]
    while True:
        firsts = [(cx, cd, rng.random(), rng.random()) for cx, cd in cells]
        mirrored = [(cx, cd, 1.0 - rx, 1.0 - rd)
                    for cx, cd, rx, rd in firsts]
        for points in (firsts, mirrored):
            rng.shuffle(points)
            for cx, cd, rx, rd in points:
                yield ((cx + rx) / SLOW_STRATA, (cd + rd) / SLOW_STRATA)


def _sweep_block(rng, slow_points):
    ops = []
    for kind in SWEEP_BLOCK:
        if kind == "off_direct":
            ops.append(dict(kind=kind, delta01=rng.uniform(3.0, 20.0),
                            k_min=0.05))
        elif kind == "off_slow":
            u_x, u_d = next(slow_points)
            k_min = 1.0 / (20.5 + 29.5 * u_x)           # Omega/k in (20, 50]
            d_hi = min(20.0, 400.0 * k_min)               # |Im p| <= 200
            ops.append(dict(kind=kind, delta01=3.0 + (d_hi - 3.0) * u_d,
                            k_min=k_min))
        elif kind == "off_edge":
            k_min = rng.uniform(0.02, 0.035)
            ops.append(dict(kind=kind,
                            delta01=rng.uniform(480.0 * k_min, 20.0),
                            k_min=k_min))
        elif kind == "on":
            ops.append(dict(kind=kind, delta02=rng.uniform(2.0, 40.0),
                            spot=rng.randrange(SWEEP_POINTS)))
        else:
            ops.append(dict(kind=kind, delta02=rng.uniform(2.0, 30.0),
                            k_off=_log_uniform(rng, 50.0, 500.0),
                            k_on=_log_uniform(rng, 50.0, 500.0),
                            optical_depth=_log_uniform(rng, 1.0, 200.0),
                            tau_echo=rng.uniform(20.0, 200.0),
                            spot=rng.randrange(EFFMAP_POINTS)))
    return ops


def _sweep_ops(rng):
    slow_points = _slow_points(rng)
    ops = []
    for _ in range(SWEEP_BLOCKS):
        ops.extend(_sweep_block(rng, slow_points))
    return ops


def _full_ops(rng):
    return [dict(kind="full", t_peak=rng.uniform(22.0, 26.0),
                 sigma_t=rng.uniform(7.0, 9.0)) for _ in range(FULL_OPS)]


def make_plan(workload: str, seed: int) -> list[dict]:
    """The op configs of one run: fixed anchors, then seeded ops.  A run
    that outlasts its plan starts it again."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    anchors, draw = {
        "echo_pipeline": (ECHO_ANCHORS, _echo_ops),
        "switch_sweep": (SWEEP_ANCHORS, _sweep_ops),
        "full_model": ([FULL_ANCHOR], _full_ops),
    }[workload]
    plan = ([dict(a, anchor=True) for a in anchors]
            + [dict(op, anchor=False) for op in draw(rng)])
    for i, op in enumerate(plan):
        op["id"] = f"{i}-{config_hash(op)}"
    return plan


def config_hash(op: dict) -> str:
    body = {k: v for k, v in op.items() if k != "id"}
    text = json.dumps(body, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def plan_digest(plan: list[dict]) -> str:
    text = json.dumps(plan, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ---------------------------------------------------------------- inputs

class Inputs:
    """Everything an op needs, built once per process during set-up: the
    resolved parameters, line shapes, input envelopes and config texts."""

    def __init__(self, workload: str, seed: int, scratch: str):
        from ramanecho import efficiency, mbsolver
        from ramanecho.params import (BroadeningSpec, PhysicalParams,
                                      quadrature_nodes)

        self.workload = workload
        self.plan = make_plan(workload, seed)
        self.scratch = scratch
        self.prepared = []
        if workload == "echo_pipeline":
            self.broad = BroadeningSpec(raman_kind="gaussian",
                                        raman_width=0.3, rule="uniform",
                                        n_default=ECHO_FIXED["nodes"])
            nd = len(quadrature_nodes(self.broad)[0])
            subset = (list(range(1, ECHO_FIXED["nz"], 8)),
                      list(range(4, nd, 16)))
            for op in self.plan:
                p = PhysicalParams.make(
                    delta01=op["delta01"], eta=op["eta"], k_off=op["k_off"],
                    k_on=op["k_on"], tau0=ECHO_FIXED["tau0"],
                    tau_st=ECHO_FIXED["tau_st"],
                    optical_depth=op["optical_depth"])
                self.prepared.append(dict(
                    params=efficiency.resolve_coupling(p, self.broad),
                    m_subset=subset if op["str"] else None))
        elif workload == "full_model":
            import numpy as np
            self.broad = BroadeningSpec(raman_kind="gaussian",
                                        raman_width=0.3, rule="gauss",
                                        n_default=24)
            p = PhysicalParams.make(omega1_rabi=1.0, delta01=10.0,
                                    optical_depth=2.0, tau0=48.0)
            p = efficiency.resolve_coupling(p, self.broad)
            t_axis = np.linspace(0.0, 48.0, 48 * 8 + 1)
            for op in self.plan:
                env = mbsolver.gaussian_input(op["t_peak"], op["sigma_t"],
                                              t_axis)
                self.prepared.append(dict(params=p, env=env))
        else:
            for op in self.plan:
                self.prepared.append(dict(config=sweep_config_text(op)))


def sweep_command(op: dict) -> str:
    return {"on": "switch-on", "effmap": "efficiency-map"}.get(
        op["kind"], "switch-off")


def sweep_axis(op: dict) -> tuple[str, list[float]]:
    """Axis name and the values the CLI must report, from the same
    numpy spacing rule the CLI documents for start:stop:n[:log|lin]."""
    import numpy as np
    if op["kind"] == "on":
        return "k_on", list(np.geomspace(0.1, K_MAX, SWEEP_POINTS))
    if op["kind"] == "effmap":
        return "delta01", list(np.linspace(2.0, 30.0, EFFMAP_POINTS))
    return "k_off", list(np.geomspace(op["k_min"], K_MAX, SWEEP_POINTS))


def sweep_config_text(op: dict) -> str:
    if op["kind"] == "on":
        lines = [f"delta02 = {op['delta02']!r}", "sweep_axis1 = k_on",
                 f"sweep_values1 = 0.1:{K_MAX!r}:{SWEEP_POINTS}:log"]
    elif op["kind"] == "effmap":
        lines = [f"delta02 = {op['delta02']!r}", f"k_off = {op['k_off']!r}",
                 f"k_on = {op['k_on']!r}",
                 f"optical_depth = {op['optical_depth']!r}",
                 f"tau_echo = {op['tau_echo']!r}", "tau_st = 0",
                 "raman_kind = lorentzian", "raman_width = 0.3",
                 "optical_kind = gaussian", "optical_width = 0.1",
                 "sweep_axis1 = delta01",
                 f"sweep_values1 = 2:30:{EFFMAP_POINTS}:lin"]
    else:
        lines = [f"delta01 = {op['delta01']!r}", "sweep_axis1 = k_off",
                 f"sweep_values1 = {op['k_min']!r}:{K_MAX!r}:"
                 f"{SWEEP_POINTS}:log"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- ops
# An op returns its raw outputs; check() turns them into a verdict and the
# physics record.  Only the op is timed.

def run_op(inputs: Inputs, i: int):
    prep = inputs.prepared[i]
    if inputs.workload == "echo_pipeline":
        return _echo_op(inputs, prep)
    if inputs.workload == "full_model":
        return _full_op(inputs, prep)
    return _sweep_op(inputs, i)


def _echo_op(inputs, prep):
    from ramanecho import mbsolver, strcheck
    p = prep["params"]
    res = mbsolver.run_pipeline(
        p, inputs.broad, t_peak=ECHO_FIXED["t_peak"],
        sigma_t=ECHO_FIXED["sigma_t"], dtau=ECHO_FIXED["dtau"],
        nz=ECHO_FIXED["nz"], m_subset=prep["m_subset"])
    out = dict(res=res,
               fidelity=strcheck.waveform_fidelity(
                   res.input_env, res.echo_env, p.eta, res.tau_echo_origin),
               fwhm_in=strcheck.fwhm(res.input_env),
               fwhm_echo=strcheck.fwhm(res.echo_env))
    if prep["m_subset"] is not None:
        forms = {}
        for form in ("first", "second", "third"):
            tr = strcheck.StrTransform(eta=p.eta, form=form)
            forms[form] = strcheck.str_residual(
                strcheck.apply_str(res.storage, p, tr), p)["total"]
        bad = strcheck.str_residual(strcheck.apply_str(
            res.storage, p, strcheck.StrTransform(eta=p.eta),
            coupling_scale=1.1), p)["total"]
        out.update(str_forms=forms, str_violated=bad)
    return out


def _full_op(inputs, prep):
    import numpy as np
    from ramanecho import mbsolver
    p, env = prep["params"], prep["env"]
    full = mbsolver.simulate_storage_full(p, inputs.broad, env, t_end=48.0,
                                          n_nodes=24)
    red = mbsolver.simulate_storage_reduced(p, inputs.broad, env,
                                            t_end=48.0, dtau=0.0625,
                                            n_nodes=24)
    # the full solver reports the bare field; undo the constant
    # background-refraction phase before comparing envelopes (criterion 10)
    phase = np.exp(-1j * 0.5 * p.beta * p.medium_length / p.delta01)
    a_f = full.field_out.samples * phase
    e_r = (np.interp(full.tau, red.tau, red.field_out.samples.real)
           + 1j * np.interp(full.tau, red.tau, red.field_out.samples.imag))
    err = math.sqrt(np.trapezoid(np.abs(a_f - e_r) ** 2, full.tau)
                    / full.energy_in)
    return dict(full=full, red=red, field_error=err)


def _sweep_op(inputs, i):
    from ramanecho import cli
    base = os.path.join(inputs.scratch, f"op{i}")
    cfg_path, out_path = base + ".cfg", base + ".csv"
    with open(cfg_path, "w", encoding="utf-8") as fh:
        fh.write(inputs.prepared[i]["config"])
    if os.path.exists(out_path):
        os.remove(out_path)
    code = cli.main([sweep_command(inputs.plan[i]), "--config", cfg_path,
                     "--jobs", "1", "--out", out_path])
    return dict(code=code, out_path=out_path)


# ---------------------------------------------------------------- checks

class CheckFailed(Exception):
    """An op returned, but its output violates the physics check."""


def _require(cond, message):
    if not cond:
        raise CheckFailed(message)


def _finite(*vals):
    return all(isinstance(v, (int, float)) and math.isfinite(v)
               for v in vals)


# criterion 7: analytic efficiency vs simulation; criterion 6: shape
EPS_REL_TOL = 0.05
FIDELITY_MIN = 0.99
WIDTH_REL_TOL = 0.05
# STR on the write stage at dtau = 0.125 and 161 nodes: the residual is
# finite-difference truncation (~5e-3 at seed); a 10 % coupling violation
# raises it ~16x at seed
STR_BASE_MAX = 0.02
STR_VIOLATION_MIN = 5.0
# fast-switch limits at k = 50: the seed sits within 4e-4 of the limit
FAST_LIMIT_TOL = 1e-3
EFFMAP_REL_TOL = 2e-3
UNITARITY_TOL = 1e-10


def in_criterion6_regime(op: dict) -> bool:
    """Fast switches into a thick medium, where criterion 6 demands a
    shape-perfect, correctly compressed echo."""
    return (min(op["k_off"], op["k_on"]) >= 50.0
            and op["optical_depth"] >= 100.0)


def check(inputs: Inputs, i: int, out) -> dict:
    """Physics record of one op; raises CheckFailed on a wrong answer."""
    op = inputs.plan[i]
    if inputs.workload == "echo_pipeline":
        return _check_echo(op, out)
    if inputs.workload == "full_model":
        return _check_full(out)
    return _check_sweep(op, out)


def _check_echo(op, out):
    res = out["res"]
    eta = op["eta"]
    eps_sim, eps_model = float(res.eps_sim), float(res.model.total)
    width_ratio = out["fwhm_in"] / out["fwhm_echo"]
    want_peak = (ECHO_FIXED["tau0"] - ECHO_FIXED["t_peak"]
                 + ECHO_FIXED["tau_st"]) / eta
    phys = dict(eps_sim=eps_sim, eps_model=eps_model,
                eps_rel=(eps_sim - eps_model) / eps_model,
                fidelity=float(out["fidelity"]), width_ratio=width_ratio,
                peak_offset=abs(res.tau2_peak - want_peak))
    _require(_finite(*phys.values()), f"non-finite output {phys}")
    _require(abs(phys["eps_rel"]) <= EPS_REL_TOL,
             f"|eps_sim - eps_model|/eps_model = {abs(phys['eps_rel']):.4f}"
             f" > {EPS_REL_TOL}")
    if in_criterion6_regime(op):
        step = res.retrieval.dtau * (1.0 + 1e-9)
        _require(phys["fidelity"] >= FIDELITY_MIN,
                 f"fidelity {phys['fidelity']:.5f} < {FIDELITY_MIN}")
        _require(abs(width_ratio - eta) <= WIDTH_REL_TOL * eta,
                 f"width ratio {width_ratio:.4f} not within 5% of {eta}")
        _require(phys["peak_offset"] <= step,
                 f"echo peak {phys['peak_offset']:.4f} off > one step")
    if "str_forms" in out:
        forms = out["str_forms"]
        base = forms["first"]
        phys.update({f"str_{k}": float(v) for k, v in forms.items()})
        phys["str_violation_ratio"] = out["str_violated"] / base
        _require(_finite(*forms.values(), out["str_violated"]),
                 "non-finite STR residual")
        _require(all(abs(v - base) <= 1e-9 * base for v in forms.values()),
                 f"sign forms disagree: {forms}")
        _require(base <= STR_BASE_MAX, f"STR residual {base:.3g} > "
                 f"{STR_BASE_MAX}")
        _require(phys["str_violation_ratio"] >= STR_VIOLATION_MIN,
                 f"violated candidate only {phys['str_violation_ratio']:.1f}"
                 f"x the exact one")
    return phys


def _check_full(out):
    full, red = out["full"], out["red"]
    phys = dict(field_error=float(out["field_error"]),
                full_transmitted=full.energy_out / full.energy_in,
                reduced_transmitted=red.energy_out / red.energy_in,
                full_steps=len(full.tau) - 1)
    _require(_finite(*phys.values()), f"non-finite output {phys}")
    bound = load_reference()["full_model"]["field_error_bound"]
    _require(phys["field_error"] <= bound,
             f"full-vs-reduced field error {phys['field_error']:.5f} > "
             f"{bound:.5f}")
    for key in ("full_transmitted", "reduced_transmitted"):
        _require(0.0 <= phys[key] <= 1.0 + 1e-6,
                 f"{key} = {phys[key]:.6f} outside [0, 1]")
    return phys


def read_sweep_csv(path, axis_name, observable):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    _require(rows, "empty CSV")
    _require(list(rows[0].keys()) == [axis_name, observable, "error"],
             f"unexpected CSV columns {list(rows[0].keys())}")
    axis = [float(r[axis_name]) for r in rows]
    values = [float(r[observable]) for r in rows]
    errors = [r["error"] for r in rows]
    return axis, values, errors


def _fast_transfer(delta01, omega=1.0):
    """Instantaneous switch-off of the light-shifted class the efficiency
    model uses: 1 / (1 + zeta13^2), zeta13 = W / (delta0 - W^2/delta0)."""
    zeta = omega / (delta01 - omega * omega / delta01)
    return 1.0 / (1.0 + zeta * zeta)


def _check_sweep(op, out):
    code = out["code"]
    _require(code in (0, 2), f"exit code {code}")
    observable = {"on": "eps_r", "effmap": "overall_eff"}.get(op["kind"],
                                                              "eps_t")
    axis_name, want_axis = sweep_axis(op)
    axis, values, errors = read_sweep_csv(out["out_path"], axis_name,
                                          observable)
    _require(len(axis) == len(want_axis), f"{len(axis)} rows, want "
             f"{len(want_axis)}")
    _require(all(abs(a - b) <= 1e-12 * abs(b)
                 for a, b in zip(axis, want_axis)), "axis values differ")
    bad = [j for j, e in enumerate(errors) if e]
    _require((code == 2) == bool(bad), f"exit code {code} with "
             f"{len(bad)} error rows")
    for j, v in enumerate(values):
        if j in bad:
            _require(math.isnan(v), "error row carries a value")
        else:
            _require(0.0 <= v <= 1.0 + 1e-9, f"{observable} = {v!r} "
                     "outside [0, 1]")
    phys = dict(points=len(values), error_rows=len(bad), values=values)
    if op["kind"] in ("off_direct", "off_slow", "off_edge"):
        # CLI eps_t uses the unshifted class: fast limit 1/(1+(W/delta0)^2)
        j = len(values) - 1
        spot = values[j]
        limit = 1.0 / (1.0 + 1.0 / op["delta01"] ** 2)
        phys.update(spot_value=spot, spot_closed_form=limit)
        _require(j not in bad and abs(spot - limit) <= FAST_LIMIT_TOL,
                 f"eps_t at k={want_axis[j]:.3g} is {spot!r}, fast limit "
                 f"{limit!r}")
    elif op["kind"] == "on":
        from ramanecho import switching
        from ramanecho.params import PhysicalParams
        j = op["spot"]
        p = PhysicalParams.make(delta02=op["delta02"], k_on=want_axis[j])
        co = switching.switch_on_coefficients(p)
        w = p.omega2_rabi / p.delta02
        closed = abs(co.c12) ** 2 + abs(w * co.c13) ** 2
        phys.update(spot_value=values[j], spot_closed_form=closed,
                    unitarity_defect=co.unitarity_defect)
        _require(co.unitarity_defect < UNITARITY_TOL,
                 f"unitarity defect {co.unitarity_defect:.3g}")
        _require(abs(values[j] - closed) <= 1e-12 * closed,
                 f"eps_r {values[j]!r} != |C12|^2 + (W/d)^2 |C13|^2 "
                 f"{closed!r}")
    else:
        j = op["spot"]
        d01 = want_axis[j]
        r2 = 1.0 / d01 ** 2
        active = op["tau_echo"]                      # eta = 1, tau_st = 0
        gam = math.exp(-0.25 * r2 * r2 * 2.0 * (0.1 * active) ** 2)
        closed = (_fast_transfer(d01) * gam * gam
                  * (1.0 - math.exp(-op["optical_depth"])) ** 2)
        phys.update(spot_value=values[j], spot_closed_form=closed)
        _require(j not in bad
                 and abs(values[j] - closed) <= EFFMAP_REL_TOL * closed,
                 f"overall_eff {values[j]!r} vs fast-switch product "
                 f"{closed!r}")
    return phys


# ---------------------------------------------------------------- drift

_REFERENCE = None


def reference_path() -> str:
    return os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "reference.json")


def load_reference() -> dict:
    global _REFERENCE
    if _REFERENCE is None:
        with open(reference_path(), encoding="utf-8") as fh:
            _REFERENCE = json.load(fh)
    return _REFERENCE


def anchor_drift(workload: str, op: dict, phys: dict) -> dict | None:
    """Relative drift of an anchor op's physics from the seed commit:
    {key: drift}.  Arrays report their largest elementwise drift; NaN equal
    to NaN counts as no drift."""
    ref = load_reference().get(workload, {}).get("anchors", {}).get(op["id"])
    if ref is None:
        return None
    drift = {}
    for key, want in ref.items():
        got = phys.get(key)
        if got is None:
            drift[key] = math.inf
            continue
        pairs = zip(got, want) if isinstance(want, list) else [(got, want)]
        worst = 0.0
        for g, w in pairs:
            if isinstance(w, float) and math.isnan(w):
                worst = max(worst, 0.0 if math.isnan(g) else math.inf)
            elif g != w:
                worst = max(worst, abs(g - w) / abs(w) if w else abs(g - w))
        drift[key] = worst
    return drift
