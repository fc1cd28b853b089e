import csv
import io
import json
import math
import os
import tempfile

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ramanecho import efficiency
from ramanecho.cli import (
    OBSERVABLES,
    SweepSpec,
    _apply_axis,
    emit_csv,
    emit_json,
    main,
    parse_axis_values,
    run_sweep,
    split_config,
    sweep_from_options,
)
from ramanecho.params import (BroadeningSpec, ConfigError, PhysicalParams,
                              quadrature_nodes)

PIPELINE_CFG = """\
# round-trip check configuration
delta01 = 20
eta = 1
k_off = 500
k_on = 500
tau0 = 70
tau_st = 10
optical_depth = 10
raman_kind = gaussian
raman_width = 0.3
rule = uniform
n_default = 121
pipeline_dtau = 0.25
pipeline_sigma_t = 10
pipeline_t_peak = 35
"""

STRCHECK_CFG = """\
delta01 = 20
eta = 2
k_off = 500
k_on = 500
tau0 = 40
optical_depth = 5
raman_kind = gaussian
raman_width = 0.3
pipeline_dtau = 0.05
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------- axis grammar ----------

def test_axis_comma_list():
    assert np.allclose(parse_axis_values("1, 2.5,5"), [1.0, 2.5, 5.0])


def test_axis_linear_range():
    assert np.allclose(parse_axis_values("0:10:5"), np.linspace(0, 10, 5))
    assert np.allclose(parse_axis_values("0:10:5:lin"), np.linspace(0, 10, 5))


def test_axis_log_range():
    assert np.allclose(parse_axis_values("0.1:10:7:log"),
                       np.geomspace(0.1, 10, 7))


@pytest.mark.parametrize("bad", ["1:2", "1:2:3:4:5", "0:1:0", "1:2:3:cubic",
                                 "-1:10:4:log", "a,b", "a:2:3", "0:1:2.5"])
def test_axis_rejects_malformed(bad):
    with pytest.raises(ConfigError):
        parse_axis_values(bad)


# ---------- config split and sweep assembly ----------

def test_split_config_separates_cli_options():
    base, cli = split_config({"delta01": "20", "raman_width": "0.3",
                              "observable": "eps_t",
                              "sweep_axis1": "k_off",
                              "sweep_values1": "1,2",
                              "pipeline_dtau": "0.25"})
    assert set(base) == {"delta01", "raman_width"}
    assert set(cli) == {"observable", "sweep_axis1", "sweep_values1",
                        "pipeline_dtau"}


def test_sweep_from_options_pairs_axes():
    spec = sweep_from_options({"sweep_axis1": "k_off",
                               "sweep_values1": "1:2:3",
                               "sweep_axis2": "delta01",
                               "sweep_values2": "5,10"})
    assert [a[0] for a in spec.axes] == ["k_off", "delta01"]
    assert spec.observable == "eps_t"


def test_sweep_from_options_rejects_half_axis():
    with pytest.raises(ConfigError):
        sweep_from_options({"sweep_axis1": "k_off"})
    with pytest.raises(ConfigError):
        sweep_from_options({})


def test_sweep_spec_rejects_unknown_observable():
    with pytest.raises(ConfigError):
        SweepSpec(axes=(("k_off", np.array([1.0])),), observable="speed")


# ---------- emission ----------

def test_csv_roundtrips_floats_exactly():
    rows = [{"x": 1.0 / 3.0, "y": math.pi, "error": ""}]
    buf = io.StringIO()
    emit_csv(rows, ["x", "y", "error"], buf)
    back = list(csv.DictReader(io.StringIO(buf.getvalue())))
    assert float(back[0]["x"]) == rows[0]["x"]
    assert float(back[0]["y"]) == rows[0]["y"]


def test_json_output_parses_and_roundtrips():
    rows = [{"x": 0.1 + 0.2, "error": ""}, {"x": float("nan"), "error": "bad"}]
    buf = io.StringIO()
    emit_json(rows, ["x", "error"], buf)
    back = json.loads(buf.getvalue())
    assert back[0]["x"] == rows[0]["x"]
    assert math.isnan(back[1]["x"]) and back[1]["error"] == "bad"


# ---------- sweep engine ----------

def test_run_sweep_row_major_order():
    spec = SweepSpec(axes=(("delta01", np.array([5.0, 10.0])),
                           ("k_off", np.array([1.0, 2.0, 3.0]))),
                     observable="eps_t")
    p = PhysicalParams.make()
    rows, columns = run_sweep(spec, p, BroadeningSpec())
    assert columns == ["delta01", "k_off", "eps_t", "error"]
    assert [(r["delta01"], r["k_off"]) for r in rows] == [
        (5.0, 1.0), (5.0, 2.0), (5.0, 3.0),
        (10.0, 1.0), (10.0, 2.0), (10.0, 3.0)]
    assert all(r["error"] == "" for r in rows)
    assert all(0.0 < r["eps_t"] <= 1.0 for r in rows)


def test_run_sweep_isolates_domain_failures():
    spec = SweepSpec(axes=(("delta01", np.array([10.0, 0.0, 20.0])),),
                     observable="eps_t")
    rows, _ = run_sweep(spec, PhysicalParams.make(), BroadeningSpec())
    assert math.isnan(rows[1]["eps_t"]) and rows[1]["error"]
    assert rows[0]["error"] == "" and rows[2]["error"] == ""


def test_run_sweep_parallel_matches_serial():
    spec = SweepSpec(axes=(("k_off", np.geomspace(0.5, 20.0, 6)),),
                     observable="remnant_r13")
    p = PhysicalParams.make(delta01=8.0)
    serial, _ = run_sweep(spec, p, BroadeningSpec(), jobs=1)
    parallel, _ = run_sweep(spec, p, BroadeningSpec(), jobs=2)
    assert serial == parallel


def test_integer_axis_takes_integral_values_as_int():
    _, b = _apply_axis(PhysicalParams.make(), BroadeningSpec(), "n_default",
                       3.0)
    assert b.n_default == 3 and isinstance(b.n_default, int)
    assert len(quadrature_nodes(b)[0]) == 3


def test_integer_axis_rejects_fractional_value():
    spec = SweepSpec(axes=(("n_default", np.array([4.0, 3.5])),),
                     observable="overall_eff")
    rows, _ = run_sweep(spec, PhysicalParams.make(), BroadeningSpec())
    assert rows[0]["error"] == ""
    assert math.isnan(rows[1]["overall_eff"])
    assert "integers" in rows[1]["error"]


def test_run_sweep_unknown_axis_marks_row():
    spec = SweepSpec(axes=(("warp", np.array([1.0])),), observable="eps_t")
    rows, _ = run_sweep(spec, PhysicalParams.make(), BroadeningSpec())
    assert math.isnan(rows[0]["eps_t"]) and "unknown sweep axis" \
        in rows[0]["error"]


# ---------- command line ----------

def test_switch_off_command_exit_zero(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "delta01 = 10\n"
                 "sweep_axis1 = k_off\nsweep_values1 = 1,5,25\n")
    out = str(tmp_path / "o.csv")
    assert main(["switch-off", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert len(rows) == 3
    eff = [float(r["eps_t"]) for r in rows]
    assert eff[0] > eff[1] > eff[2]        # slower shut-off keeps more


def test_sweep_with_bad_point_exits_two(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "sweep_axis1 = delta01\n"
                 "sweep_values1 = 10,0,20\n")
    out = str(tmp_path / "o.csv")
    assert main(["switch-off", "--config", cfg, "--out", out]) == 2
    assert len(_read_rows(out)) == 3


def test_switch_on_slow_ramp_matches_mpmath(tmp_path):
    # k_on = 0.03 puts Im q ~ 667, where gamma(1 - q) underflowed in the
    # Bessel form; the 0F1 form evaluates it
    cfg = _write(tmp_path, "c.cfg", "delta02 = 40\nsweep_axis1 = k_on\n"
                 "sweep_values1 = 0.03:0.1:3\n")
    out = str(tmp_path / "o.csv")
    assert main(["switch-on", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert len(rows) == 3 and not any(r["error"] for r in rows)
    mpmath.mp.dps = 40
    b = 0.5 * (1 + 1j * mpmath.mpf(40) / mpmath.mpf("0.03"))      # 1 - q
    x = 1 / mpmath.mpf("0.03")
    c12 = mpmath.hyp0f1(b, -x * x / 4)
    c13 = x / (2 * b) * mpmath.hyp0f1(b + 1, -x * x / 4)
    want = float(abs(c12) ** 2 + abs(c13 / 40) ** 2)
    assert float(rows[0]["eps_r"]) == pytest.approx(want, rel=1e-12)
    assert float(abs(c12) ** 2 + abs(c13) ** 2) == pytest.approx(1.0,
                                                                 rel=1e-15)


@settings(max_examples=60, deadline=None)
@given(command=st.sampled_from(["switch-off", "switch-on"]),
       delta0=st.floats(0.3, 500.0),
       ks=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=4))
def test_switch_sweeps_end_in_values_or_error_rows(command, delta0, ks):
    key, axis, col = {"switch-off": ("delta01", "k_off", "eps_t"),
                      "switch-on": ("delta02", "k_on", "eps_r")}[command]
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "c.cfg")
        with open(cfg, "w") as fh:
            fh.write(f"{key} = {delta0!r}\nsweep_axis1 = {axis}\n"
                     f"sweep_values1 = {','.join(repr(k) for k in ks)}\n")
        out = os.path.join(tmp, "o.csv")
        code = main([command, "--config", cfg, "--out", out])
        rows = _read_rows(out)
    assert code in (0, 2) and len(rows) == len(ks)
    assert (code == 2) == any(r["error"] for r in rows)
    for r in rows:
        v = float(r[col])
        if r["error"]:
            assert math.isnan(v)
        else:
            assert 0.0 <= v <= 1.0 + 1e-9


@pytest.mark.parametrize("command", ["pipeline", "str-check"])
@pytest.mark.parametrize("dtau", ["0", "-0.1", "1e-9", "nan", "inf", "abc"])
def test_bad_time_step_exits_with_one_line(tmp_path, capsys, command, dtau):
    base = PIPELINE_CFG if command == "pipeline" else STRCHECK_CFG
    text = "\n".join(line for line in base.splitlines()
                     if not line.startswith("pipeline_dtau"))
    cfg = _write(tmp_path, "c.cfg", text + f"\npipeline_dtau = {dtau}\n")
    assert main([command, "--config", cfg]) in (1, 2)
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_pipeline_past_the_old_overflow_edge(tmp_path):
    # delta0 = 20, k_off = 0.04: |Im p| = 250, where the Bessel-form handoff
    # overflowed after the whole write march
    cfg = _write(tmp_path, "c.cfg", PIPELINE_CFG.replace(
        "k_off = 500", "k_off = 0.04").replace("n_default = 121",
                                                 "n_default = 41"))
    out = str(tmp_path / "p.csv")
    assert main(["pipeline", "--config", cfg, "--out", out]) == 0
    row = _read_rows(out)[0]
    assert float(row["eps_sim"]) == pytest.approx(float(row["eps_model"]),
                                                  rel=0.05)
    assert float(row["fidelity"]) > 0.99


def test_missing_axes_exit_one(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "delta01 = 10\n")
    assert main(["switch-off", "--config", cfg]) == 1


def test_malformed_range_exits_one_with_one_line(tmp_path, capsys):
    cfg = _write(tmp_path, "c.cfg", "sweep_axis1 = k_off\n"
                 "sweep_values1 = a:2:3\n")
    assert main(["switch-off", "--config", cfg]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "a:2:3" in err


def test_unknown_config_key_exit_one(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "delta_zero = 10\n")
    assert main(["switch-off", "--config", cfg]) == 1


def test_pipeline_command_reports_round_trip(tmp_path):
    cfg = _write(tmp_path, "p.cfg", PIPELINE_CFG)
    out = str(tmp_path / "p.csv")
    assert main(["pipeline", "--config", cfg, "--out", out,
                 "--tolerance", "0.05"]) == 0
    row = _read_rows(out)[0]
    assert float(row["fidelity"]) > 0.99
    assert float(row["eps_sim"]) == pytest.approx(float(row["eps_model"]),
                                                  rel=0.05)
    assert float(row["compression"]) == pytest.approx(1.0, rel=0.05)


def test_pipeline_tolerance_gate_exits_three(tmp_path):
    cfg = _write(tmp_path, "p.cfg", PIPELINE_CFG)
    out = str(tmp_path / "p.csv")
    assert main(["pipeline", "--config", cfg, "--out", out,
                 "--tolerance", "1e-9"]) == 3


def test_str_check_command(tmp_path):
    cfg = _write(tmp_path, "s.cfg", STRCHECK_CFG)
    out = str(tmp_path / "s.csv")
    assert main(["str-check", "--config", cfg, "--out", out,
                 "--tolerance", "0.005"]) == 0
    rows = _read_rows(out)
    assert [r["form"] for r in rows] == ["first", "second", "third"]
    for r in rows:
        assert float(r["residual"]) < 0.005
        assert float(r["violation_ratio"]) > 10.0
    assert main(["str-check", "--config", cfg, "--out",
                 str(tmp_path / "s2.csv"), "--tolerance", "1e-12"]) == 3


def test_figure_switch_on_data(tmp_path):
    out = str(tmp_path / "f4.csv")
    assert main(["figure", "4", "--out", out]) == 0
    rows = _read_rows(out)
    assert len(rows) == 5 * 60
    assert all(float(r["unitarity_defect"]) < 1e-10 for r in rows)


@pytest.mark.parametrize("number, columns, n_rows", [
    (2, ["delta0_over_omega", "k_over_omega", "k_over_delta0", "eps_t",
         "remnant_r13", "error"], 4 * 60),
    (6, ["delta0_over_omega", "tau_echo", "overall_eff", "error"], 10 * 57),
    (7, ["eta", "trace", "tau", "abs_e", "error"], 4408),
])
def test_figure_data_sets(tmp_path, number, columns, n_rows):
    out = str(tmp_path / "f.csv")
    assert main(["figure", str(number), "--out", out]) == 0
    with open(out, newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == columns
    assert len(rows) == n_rows
    assert not any(r["error"] for r in rows)


def test_figures_2_and_3_are_one_data_set(tmp_path):
    out2, out3 = str(tmp_path / "f2.csv"), str(tmp_path / "f3.csv")
    assert main(["figure", "2", "--out", out2]) == 0
    assert main(["figure", "3", "--out", out3]) == 0
    with open(out2, "rb") as f2, open(out3, "rb") as f3:
        assert f2.read() == f3.read()


def test_gamma_factor_sweep_matches_closed_form(tmp_path):
    # eta = 1, tau_st = 0: the light shift dephases over the whole tau_echo
    cfg = _write(tmp_path, "c.cfg", "optical_kind = gaussian\n"
                 "optical_width = 0.1\ntau_echo = 50\n"
                 "observable = gamma_factor\nsweep_axis1 = delta01\n"
                 "sweep_values1 = 2,5,10\n")
    out = str(tmp_path / "o.csv")
    assert main(["switch-off", "--config", cfg, "--out", out]) == 0
    for row in _read_rows(out):
        r2 = 1.0 / float(row["delta01"]) ** 2
        want = math.exp(-0.25 * r2 * r2 * 2.0 * (0.1 * 50.0) ** 2)
        assert float(row["gamma_factor"]) == pytest.approx(want, rel=1e-12)


def test_efficiency_map_command(tmp_path):
    cfg = _write(tmp_path, "c.cfg", "delta01 = 10\nk_off = 5\nk_on = 50\n"
                 "optical_depth = 20\noptical_kind = gaussian\n"
                 "optical_width = 0.1\nsweep_axis1 = tau_echo\n"
                 "sweep_values1 = 20:200:4\n")
    out = str(tmp_path / "o.csv")
    assert main(["efficiency-map", "--config", cfg, "--out", out]) == 0
    rows = _read_rows(out)
    assert list(rows[0]) == ["tau_echo", "overall_eff", "error"]
    broad = BroadeningSpec(optical_kind="gaussian", optical_width=0.1)
    for row in rows:
        p = PhysicalParams.make(delta01=10.0, k_off=5.0, k_on=50.0,
                                optical_depth=20.0,
                                tau_echo=float(row["tau_echo"]))
        want = efficiency.overall_efficiency(p, broad).total
        assert float(row["overall_eff"]) == want
    eff = [float(r["overall_eff"]) for r in rows]
    assert eff == sorted(eff, reverse=True)   # longer dephasing window


def test_eps_t_spectral_classes(tmp_path):
    # delta0 = 3, k = 50.  The switch-off sweep's eps_t takes the unshifted
    # class (Delta1 = 0), near its fast limit 1/(1 + (W/delta0)^2) = 0.9.
    # The figure 2/3 data set, remnant_r13 and the efficiency budget take
    # the light-shifted line centre, Delta1 = W^2/delta0.
    cfg = _write(tmp_path, "c.cfg", "delta01 = 3\nsweep_axis1 = k_off\n"
                 "sweep_values1 = 50\n")
    out = str(tmp_path / "o.csv")
    assert main(["switch-off", "--config", cfg, "--out", out]) == 0
    unshifted = float(_read_rows(out)[0]["eps_t"])
    assert unshifted == pytest.approx(0.9004, abs=5e-5)
    assert abs(unshifted - 1.0 / (1.0 + 1.0 / 9.0)) <= 1e-3
    fig = str(tmp_path / "f2.csv")
    assert main(["figure", "2", "--out", fig]) == 0
    row = _read_rows(fig)[59]                 # delta0 = 3, last k
    assert float(row["delta0_over_omega"]) == 3.0
    assert float(row["k_over_omega"]) == pytest.approx(50.0)
    shifted = float(row["eps_t"])
    assert shifted == pytest.approx(0.8771, abs=5e-5)
    p = PhysicalParams.make(delta01=3.0, k_off=50.0)
    assert efficiency.overall_efficiency(p, BroadeningSpec()).eps_t \
        == shifted
    remnant = float(row["remnant_r13"])
    assert remnant == pytest.approx(1.0 - shifted, abs=1e-12)
    assert run_sweep(SweepSpec(axes=(("k_off", np.array([50.0])),),
                               observable="remnant_r13"),
                     p, BroadeningSpec())[0][0]["remnant_r13"] == remnant


def test_figure_rejects_unknown_number():
    assert main(["figure", "9"]) == 1


def test_observable_names_are_stable():
    assert OBSERVABLES == ("remnant_r13", "eps_t", "eps_r", "gamma_factor",
                           "overall_eff", "fidelity")
