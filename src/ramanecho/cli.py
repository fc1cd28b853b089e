"""Batch front end: parameter sweeps, figure data sets, pipeline and
transform checks, with deterministic CSV/JSON output.

Exit codes: 0 success, 1 configuration problem, 2 a physics-domain error at
one or more sweep points, 3 a requested tolerance was not met.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from multiprocessing import Pool

import numpy as np

from . import efficiency, mbsolver, strcheck, switching
from .params import (BROADENING_KEYS, BroadeningSpec, ConfigError,
                     DomainError, PhysicalParams, _coerce,
                     broadening_from_config, load_config, params_from_config,
                     stark_shifted_detuning)

OBSERVABLES = ("remnant_r13", "eps_t", "eps_r", "gamma_factor",
               "overall_eff", "fidelity")

_CLI_KEY_PREFIXES = ("sweep_", "pipeline_")
_CLI_KEYS = ("observable",)


class _Parser(argparse.ArgumentParser):
    def error(self, message):                      # exit code 1, not 2
        raise ConfigError(message)


# ===================== output =====================

def _fmt(val) -> str:
    if isinstance(val, float):
        return f"{val:.17g}"
    return str(val)


def emit_csv(rows, columns, stream) -> None:
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row.get(c, "")) for c in columns) + "\n")


def emit_json(rows, columns, stream) -> None:
    parts = []
    for row in rows:
        fields = []
        for c in columns:
            v = row.get(c, "")
            if isinstance(v, float) and math.isfinite(v):
                fields.append(f'"{c}": {_fmt(v)}')
            else:
                # json.dumps spells non-finite floats NaN/Infinity, the
                # tokens json.loads accepts back
                fields.append(f'"{c}": {json.dumps(v)}')
        parts.append("{" + ", ".join(fields) + "}")
    stream.write("[\n" + ",\n".join(parts) + "\n]\n")


def _write_rows(rows, columns, out_path, fmt) -> None:
    emit = emit_csv if fmt == "csv" else emit_json
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            emit(rows, columns, fh)
    else:
        emit(rows, columns, sys.stdout)


# ===================== config handling =====================

@dataclass
class CliConfig:
    params: PhysicalParams
    broadening: BroadeningSpec
    options: dict


def split_config(cfg: dict) -> tuple[dict, dict]:
    base, cli = {}, {}
    for key, val in cfg.items():
        if key in _CLI_KEYS or any(key.startswith(p)
                                   for p in _CLI_KEY_PREFIXES):
            cli[key] = val
        else:
            base[key] = val
    return base, cli


def read_cli_config(path) -> CliConfig:
    cfg = load_config(path) if path else {}
    base, cli = split_config(cfg)
    return CliConfig(params=params_from_config(base),
                     broadening=broadening_from_config(base),
                     options=cli)


def parse_axis_values(text: str) -> np.ndarray:
    """Either a comma list '1,2,5' or a range 'start:stop:n[:log|lin]'."""
    text = text.strip()
    if ":" in text:
        bits = text.split(":")
        if len(bits) not in (3, 4):
            raise ConfigError(f"range spec needs start:stop:n[:log|lin], "
                              f"got {text!r}")
        try:
            start, stop, n = float(bits[0]), float(bits[1]), int(bits[2])
        except ValueError as exc:
            raise ConfigError(f"cannot parse range {text!r}") from exc
        mode = bits[3] if len(bits) == 4 else "lin"
        if n < 1:
            raise ConfigError("range spec needs n >= 1")
        if mode == "log":
            if start <= 0 or stop <= 0:
                raise ConfigError("log range needs positive endpoints")
            return np.geomspace(start, stop, n)
        if mode != "lin":
            raise ConfigError(f"unknown range mode {mode!r}")
        return np.linspace(start, stop, n)
    try:
        return np.array([float(v) for v in text.split(",") if v.strip()])
    except ValueError as exc:
        raise ConfigError(f"cannot parse axis values {text!r}") from exc


@dataclass(frozen=True)
class SweepSpec:
    """Up to three named axes, row-major (first axis outermost)."""

    axes: tuple
    observable: str

    def __post_init__(self) -> None:
        if not (1 <= len(self.axes) <= 3):
            raise ConfigError("sweeps support 1 to 3 axes")
        if self.observable not in OBSERVABLES:
            raise ConfigError(f"unknown observable {self.observable!r}; "
                              f"choose from {OBSERVABLES}")
        for name, values in self.axes:
            if len(values) < 1:
                raise ConfigError(f"axis {name!r} has no values")


def sweep_from_options(options: dict, default_observable="eps_t") -> SweepSpec:
    axes = []
    for i in (1, 2, 3):
        name = options.get(f"sweep_axis{i}")
        vals = options.get(f"sweep_values{i}")
        if name is None and vals is None:
            continue
        if name is None or vals is None:
            raise ConfigError(f"sweep axis {i} needs both sweep_axis{i} and "
                              f"sweep_values{i}")
        axes.append((name.strip(), parse_axis_values(vals)))
    if not axes:
        raise ConfigError("no sweep axes configured")
    return SweepSpec(axes=tuple(axes),
                     observable=options.get("observable",
                                            default_observable).strip())


def _apply_axis(params, broadening, name, value):
    if name in BROADENING_KEYS:
        if BROADENING_KEYS[name] is int:
            if not value.is_integer():
                raise ConfigError(f"axis {name!r} takes integers, got "
                                  f"{value!r}")
            value = int(value)
        return params, broadening.replace(**{name: value})
    try:
        return params.replace(**{name: value}), broadening
    except TypeError as exc:
        raise ConfigError(f"unknown sweep axis {name!r}") from exc


def _pipeline_kwargs(options: dict) -> dict:
    kw = {}
    for key, cast, dest in (("pipeline_dtau", float, "dtau"),
                            ("pipeline_nz", int, "nz"),
                            ("pipeline_nodes", int, "n_nodes"),
                            ("pipeline_sigma_t", float, "sigma_t"),
                            ("pipeline_t_peak", float, "t_peak")):
        if key in options:
            kw[dest] = _coerce(key, options[key], cast)
    return kw


# ===================== observables =====================

def _switch_off_final(params):
    """Line-centre coherence pair before the write control ramps down and
    its amplitudes after."""
    shift = stark_shifted_detuning(params, 0.0, inverse=True)
    init = switching.init_coherence_after_storage(params, 0.0, shift, 1.0)
    return init, switching.switch_off_asymptotic(params, init, 0.0, shift)


def evaluate_observable(name: str, params: PhysicalParams,
                        broadening: BroadeningSpec, options: dict) -> float:
    if name == "remnant_r13":
        init, fin = _switch_off_final(params)
        return abs(fin.r13) ** 2 / init.norm_sq
    if name == "eps_t":
        return switching.transfer_efficiency(params)
    if name == "eps_r":
        return switching.switch_on_efficiency(params)
    if name == "gamma_factor":
        return efficiency.dephasing_factor(params, broadening)
    if name == "overall_eff":
        return efficiency.overall_efficiency(params, broadening).total
    if name == "fidelity":
        res = mbsolver.run_pipeline(params, broadening,
                                    **_pipeline_kwargs(options))
        return strcheck.waveform_fidelity(res.input_env, res.echo_env,
                                          params.eta, res.tau_echo_origin)
    raise ConfigError(f"unknown observable {name!r}")


def _sweep_point(job):
    names, values, params, broadening, observable, options = job
    row = {n: float(v) for n, v in zip(names, values)}
    try:
        p, b = params, broadening
        for n, v in zip(names, values):
            p, b = _apply_axis(p, b, n, float(v))
        row[observable] = float(evaluate_observable(observable, p, b,
                                                    options))
        row["error"] = ""
    except (DomainError, ConfigError) as exc:
        row[observable] = math.nan
        row["error"] = str(exc)
    return row


def run_sweep(spec: SweepSpec, params: PhysicalParams,
              broadening: BroadeningSpec, options: dict | None = None,
              jobs: int = 1):
    """Evaluate the observable over the axis product, row-major.  Points
    that raise a physics-domain error get NaN plus the message in their
    'error' column; the sweep continues.  Parallel runs reproduce the serial
    row order exactly."""
    options = options or {}
    names = [a[0] for a in spec.axes]
    grids = np.meshgrid(*[a[1] for a in spec.axes], indexing="ij")
    points = np.stack([g.ravel() for g in grids], axis=-1)
    jobs_list = [(names, tuple(pt), params, broadening, spec.observable,
                  options) for pt in points]
    if jobs > 1:
        with Pool(jobs) as pool:
            rows = pool.map(_sweep_point, jobs_list)
    else:
        rows = [_sweep_point(j) for j in jobs_list]
    return rows, names + [spec.observable, "error"]


# ===================== subcommands =====================

def cmd_sweep(args) -> int:
    """switch-off, switch-on and efficiency-map: a sweep whose observable
    defaults to the subcommand's own (args.observable)."""
    cfg = read_cli_config(args.config)
    spec = sweep_from_options(cfg.options, args.observable)
    rows, columns = run_sweep(spec, cfg.params, cfg.broadening, cfg.options,
                              jobs=args.jobs)
    _write_rows(rows, columns, args.out, args.format)
    return 2 if any(r["error"] for r in rows) else 0


def cmd_pipeline(args) -> int:
    cfg = read_cli_config(args.config)
    res = mbsolver.run_pipeline(cfg.params, cfg.broadening,
                                **_pipeline_kwargs(cfg.options))
    fid = strcheck.waveform_fidelity(res.input_env, res.echo_env,
                                     cfg.params.eta, res.tau_echo_origin)
    in_w = strcheck.fwhm(res.input_env)
    echo_w = strcheck.fwhm(res.echo_env)
    row = {
        "eta": cfg.params.eta,
        "eps_sim": res.eps_sim,
        "eps_model": res.model.total,
        "fidelity": fid,
        "fwhm_in": in_w,
        "fwhm_echo": echo_w,
        "compression": in_w / echo_w if echo_w else math.nan,
        "t_peak_in": res.t_peak_in,
        "tau2_peak": res.tau2_peak,
        "delay": res.delay,
        "error": "",
    }
    _write_rows([row], list(row.keys()), args.out, args.format)
    if args.tolerance is not None:
        rel = abs(res.eps_sim - res.model.total) / max(res.model.total,
                                                       1e-300)
        if rel > args.tolerance:
            return 3
    return 0


def cmd_str_check(args) -> int:
    cfg = read_cli_config(args.config)
    p = efficiency.resolve_coupling(cfg.params, cfg.broadening)
    kw = _pipeline_kwargs(cfg.options)
    dtau = kw.get("dtau", 0.02)
    env = mbsolver.gaussian_input(kw.get("t_peak", 0.35 * p.tau0),
                                  kw.get("sigma_t", 0.1 * p.tau0),
                                  mbsolver.time_axis(p.tau0, dtau))
    n_nodes = kw.get("n_nodes", 24)
    storage = mbsolver.simulate_storage_reduced(
        p, cfg.broadening, env, t_end=p.tau0, dtau=dtau, n_nodes=n_nodes,
        nz=40, m_subset=(list(range(1, 40, 8)), list(range(1, n_nodes, 3))))
    rows = []
    worst = 0.0
    for form in ("first", "second", "third"):
        tr = strcheck.StrTransform(eta=p.eta, form=form)
        base = strcheck.str_residual(strcheck.apply_str(storage, p, tr), p)
        bad = strcheck.str_residual(
            strcheck.apply_str(storage, p, tr, coupling_scale=1.1), p)
        rows.append({"form": form, "residual": base["total"],
                     "residual_spin": base["spin"],
                     "residual_field": base["field"],
                     "violation_ratio": bad["total"] / base["total"],
                     "error": ""})
        worst = max(worst, base["total"])
    _write_rows(rows, ["form", "residual", "residual_spin", "residual_field",
                       "violation_ratio", "error"], args.out, args.format)
    if args.tolerance is not None and worst > args.tolerance:
        return 3
    return 0


# ===================== figure data sets =====================

def _figure_switch_off():
    rows = []
    for d0 in (3.0, 5.0, 10.0, 20.0):
        for k in np.geomspace(0.05, 50.0, 60):
            p = PhysicalParams.make(delta01=d0, k_off=k)
            row = {"delta0_over_omega": d0, "k_over_omega": k,
                   "k_over_delta0": k / d0, "error": ""}
            init, fin = _switch_off_final(p)
            row["eps_t"] = abs(fin.r12) ** 2 / init.norm_sq
            row["remnant_r13"] = abs(fin.r13) ** 2 / init.norm_sq
            rows.append(row)
    return rows, ["delta0_over_omega", "k_over_omega", "k_over_delta0",
                  "eps_t", "remnant_r13", "error"]


def _figure_switch_on():
    rows = []
    for d0 in (2.0, 5.0, 10.0, 20.0, 40.0):
        for k in np.geomspace(0.1, 50.0, 60):
            p = PhysicalParams.make(delta02=d0, k_on=k)
            co = switching.switch_on_coefficients(p)
            rows.append({
                "delta02_over_omega2": d0, "k_on_over_omega2": k,
                "c12_sq": abs(co.c12) ** 2, "c13_sq": abs(co.c13) ** 2,
                "unitarity_defect": co.unitarity_defect,
                "eps_r": switching.switch_on_efficiency(p), "error": ""})
    return rows, ["delta02_over_omega2", "k_on_over_omega2", "c12_sq",
                  "c13_sq", "unitarity_defect", "eps_r", "error"]


def _figure_efficiency_map():
    base = PhysicalParams.make(delta01=1.0, k_off=1.0, k_on=200.0,
                               optical_depth=200.0, tau_st=0.0)
    broad = BroadeningSpec(raman_kind="lorentzian", raman_width=0.3,
                           optical_kind="gaussian", optical_width=0.1)
    resolved = efficiency.resolve_coupling(base, broad)
    beta = resolved.beta
    rows = []
    for t_echo in np.linspace(20.0, 200.0, 10):
        for y in np.linspace(2.0, 30.0, 57):
            p = base.replace(delta01=y, delta02=y, beta=beta,
                             tau_echo=t_echo)
            row = {"delta0_over_omega": y, "tau_echo": t_echo, "error": ""}
            try:
                row["overall_eff"] = efficiency.overall_efficiency(
                    p, broad).total
            except DomainError as exc:
                row["overall_eff"] = math.nan
                row["error"] = str(exc)
            rows.append(row)
    return rows, ["delta0_over_omega", "tau_echo", "overall_eff", "error"]


def _figure_pipeline_waveforms():
    rows = []
    broad = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                           rule="uniform", n_default=121, cutoff=4.0)
    for eta in (0.5, 1.0, 2.0):
        p = PhysicalParams.make(delta01=20.0, eta=eta, k_off=200.0,
                                k_on=200.0, tau0=70.0, optical_depth=60.0)
        res = mbsolver.run_pipeline(p, broad, t_peak=35.0, sigma_t=8.0,
                                    dtau=0.2, nz=32)
        for t, v in zip(res.input_env.axis, res.input_env.samples):
            rows.append({"eta": eta, "trace": "input", "tau": float(t),
                         "abs_e": float(abs(v)), "error": ""})
        for t, v in zip(res.echo_env.axis, res.echo_env.samples):
            rows.append({"eta": eta, "trace": "echo", "tau": float(t),
                         "abs_e": float(abs(v)), "error": ""})
    return rows, ["eta", "trace", "tau", "abs_e", "error"]


# figures 2 and 3 plot columns of one data set, and so do 4 and 5
_FIGURES = {
    2: _figure_switch_off,
    3: _figure_switch_off,
    4: _figure_switch_on,
    5: _figure_switch_on,
    6: _figure_efficiency_map,
    7: _figure_pipeline_waveforms,
}


def cmd_figure(args) -> int:
    if args.number not in _FIGURES:
        raise ConfigError(f"figure must be one of {sorted(_FIGURES)}")
    rows, columns = _FIGURES[args.number]()
    _write_rows(rows, columns, args.out, args.format)
    return 2 if any(r["error"] for r in rows) else 0


# ===================== entry point =====================

def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ramanecho",
                     description="Raman photon-echo memory sweeps and checks")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", default=None,
                        help="flat key = value configuration file")
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes (results identical to serial)")
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None, help="output path (stdout "
                        "when omitted)")
        sp.add_argument("--tolerance", type=float, default=None,
                        help="fail (exit 3) when the check exceeds this")

    # (subcommand, handler, default observable of a sweep)
    for name, fn, observable in (("switch-off", cmd_sweep, "eps_t"),
                                 ("switch-on", cmd_sweep, "eps_r"),
                                 ("efficiency-map", cmd_sweep, "overall_eff"),
                                 ("pipeline", cmd_pipeline, None),
                                 ("str-check", cmd_str_check, None)):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(fn=fn, observable=observable)

    sp = sub.add_parser("figure")
    sp.add_argument("number", type=int, help="figure data set, 2..7")
    common(sp)
    sp.set_defaults(fn=cmd_figure)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except DomainError as exc:
        print(f"physics domain error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
