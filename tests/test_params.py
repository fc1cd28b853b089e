import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramanecho.params import (
    BroadeningSpec,
    ConfigError,
    DomainError,
    FieldEnvelope,
    PhysicalParams,
    broadening_from_config,
    gaussian_shape,
    gradient_shape,
    load_config,
    lorentzian_shape,
    params_from_config,
    quadrature_nodes,
    stark_shifted_detuning,
)


# ---------- parameter record ----------

def test_make_fills_read_stage_defaults():
    p = PhysicalParams.make(omega1_rabi=0.5, delta01=12.0, eta=4.0)
    assert p.omega2_rabi == pytest.approx(2.0 * 0.5)
    assert p.delta02 == 12.0


def test_make_explicit_values_win():
    p = PhysicalParams.make(delta01=12.0, delta02=-7.0, eta=2.0,
                            omega2_rabi=0.3)
    assert p.delta02 == -7.0
    assert p.omega2_rabi == 0.3


@pytest.mark.parametrize("kw", [
    {"eta": 0.0},
    {"delta01": 0.0},
    {"delta02": 0.0},
    {"k_off": 0.0},
    {"k_on": -2.0},
    {"gamma21": -0.1},
    {"optical_depth": -5.0},
    {"medium_length": 0.0},
])
def test_invalid_parameters_rejected(kw):
    with pytest.raises(DomainError):
        PhysicalParams(**kw)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize(
    "name", [f.name for f in dataclasses.fields(PhysicalParams)])
def test_non_finite_parameters_rejected(name, bad):
    with pytest.raises(DomainError):
        PhysicalParams.make(**{name: bad})


def test_replace_is_functional():
    p = PhysicalParams.make(delta01=10.0)
    q = p.replace(delta01=5.0)
    assert q.delta01 == 5.0
    assert p.delta01 == 10.0


def test_stage_accessors():
    p = PhysicalParams.make(omega1_rabi=1.0, eta=4.0, delta01=10.0,
                            delta02=-3.0)
    assert p.omega(1) == 1.0
    assert p.omega(2) == pytest.approx(2.0)
    assert p.delta0(2) == -3.0
    with pytest.raises(DomainError):
        p.omega(3)


# ---------- broadening & quadrature ----------

@pytest.mark.parametrize("spec", [
    gaussian_shape(0.3),
    gaussian_shape(0.3, rule="uniform"),
    lorentzian_shape(0.5),
    lorentzian_shape(0.5, rule="uniform"),
])
def test_quadrature_normalised_and_symmetric(spec):
    nodes, weights = quadrature_nodes(spec, 48)
    assert weights.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(weights > 0)
    assert np.allclose(nodes, -nodes[::-1], atol=1e-12)
    assert np.all(np.diff(nodes) > 0)


def test_gaussian_gauss_rule_second_moment_exact():
    width = 0.37
    nodes, weights = quadrature_nodes(gaussian_shape(width), 24)
    assert float(weights @ nodes**2) == pytest.approx(width**2, rel=1e-12)


def _truncated_overlap(radius):
    # Int L_w(d) * w^2/(w^2+d^2) dd over |d| <= radius*w, renormalised;
    # tends to the untruncated value 1/2 as the cutoff radius grows
    return (math.atan(radius) + radius / (1.0 + radius ** 2)) \
        / (2.0 * math.atan(radius))


def test_lorentzian_gauss_rule_self_overlap():
    width = 0.8
    nodes, weights = quadrature_nodes(lorentzian_shape(width), 64)
    got = float(weights @ (width**2 / (width**2 + nodes**2)))
    assert got == pytest.approx(_truncated_overlap(50.0), abs=1e-9)


def test_lorentzian_gauss_rule_cutoff_convergence():
    width = 0.8
    spec = lorentzian_shape(width).replace(cutoff=2000.0)
    nodes, weights = quadrature_nodes(spec, 64)
    got = float(weights @ (width**2 / (width**2 + nodes**2)))
    assert got == pytest.approx(_truncated_overlap(2000.0), abs=1e-9)
    assert abs(got - 0.5) < 5e-4


def test_single_node_rule_collapses_to_line_center():
    nodes, weights = quadrature_nodes(gaussian_shape(0.3), 1)
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [1.0]


def test_zero_width_collapses_to_line_center():
    nodes, weights = quadrature_nodes(gaussian_shape(0.0), 32)
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [1.0]


def test_gradient_has_no_spectral_quadrature():
    with pytest.raises(DomainError):
        quadrature_nodes(gradient_shape(2.0), 16)


def test_gradient_slope_roundtrip():
    spec = gradient_shape(-1.5)
    assert spec.is_gradient
    assert spec.chi == -1.5


def test_optical_line_defaults_to_single_node():
    spec = gaussian_shape(0.3)          # optical_kind defaults to none
    nodes, weights = quadrature_nodes(spec, 16, line="optical")
    assert nodes.tolist() == [0.0]
    assert weights.tolist() == [1.0]


def test_bad_node_count_rejected():
    with pytest.raises(DomainError):
        quadrature_nodes(gaussian_shape(0.3), 0)


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        BroadeningSpec(raman_kind="boxcar")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["raman_width", "optical_width", "cutoff"])
def test_non_finite_broadening_rejected(name, bad):
    for kind in ("gaussian", "gradient"):
        with pytest.raises(ConfigError):
            BroadeningSpec(raman_kind=kind, **{name: bad})


@pytest.mark.parametrize("n", [3.5, 3.0])
def test_node_count_must_be_an_integer(n):
    # the Gauss-Hermite rule takes an int node count, even for 3.0
    with pytest.raises(ConfigError):
        BroadeningSpec(n_default=n)


@given(width=st.floats(0.01, 5.0), n=st.integers(2, 80),
       kind=st.sampled_from(["gaussian", "lorentzian"]),
       rule=st.sampled_from(["gauss", "uniform"]))
def test_quadrature_weights_always_normalised(width, n, kind, rule):
    spec = BroadeningSpec(raman_kind=kind, raman_width=width, rule=rule)
    nodes, weights = quadrature_nodes(spec, n)
    assert abs(weights.sum() - 1.0) < 1e-12
    assert np.all(np.diff(nodes) > 0)


# ---------- detuning bookkeeping ----------

@given(raw=st.floats(-50.0, 50.0), omega=st.floats(0.1, 3.0),
       delta0=st.floats(2.0, 40.0))
def test_light_shift_map_is_a_bijection(raw, omega, delta0):
    p = PhysicalParams.make(omega1_rabi=omega, delta01=delta0)
    shifted = stark_shifted_detuning(p, raw, 1)
    back = stark_shifted_detuning(p, shifted, 1, inverse=True)
    assert back == pytest.approx(raw, abs=1e-10)


def test_light_shift_sign():
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=10.0)
    assert stark_shifted_detuning(p, 0.0, 1) == pytest.approx(-0.1)


# ---------- grids and envelopes ----------

def test_envelope_energy_matches_trapezoid():
    t = np.linspace(-40, 40, 4001)
    sigma = 3.0
    env = FieldEnvelope(samples=np.exp(-0.5 * (t / sigma) ** 2) + 0j, axis=t)
    # Int |E|^2 = sigma * sqrt(pi) for a unit-amplitude Gaussian
    assert env.energy() == pytest.approx(sigma * math.sqrt(math.pi),
                                         rel=1e-6)


def test_envelope_rejects_nonfinite_samples():
    t = np.linspace(0, 1, 5)
    bad = np.array([0, 1, np.inf, 1, 0], dtype=complex)
    with pytest.raises(DomainError):
        FieldEnvelope(samples=bad, axis=t)


def test_envelope_rejects_unknown_direction():
    t = np.linspace(0, 1, 5)
    with pytest.raises(DomainError):
        FieldEnvelope(samples=np.zeros(5, complex), axis=t,
                      direction="sideways")


# ---------- configuration files ----------

def test_config_roundtrip(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(
        "# comment line\n"
        "delta01 = 15.0   # trailing comment\n"
        "eta = 2.0\n"
        "raman_kind = lorentzian\n"
        "raman_width = 0.4\n"
        "\n")
    cfg = load_config(cfg_file)
    p = params_from_config(cfg)
    b = broadening_from_config(cfg)
    assert p.delta01 == 15.0
    assert p.eta == 2.0
    assert p.omega2_rabi == pytest.approx(math.sqrt(2.0))
    assert b.raman_kind == "lorentzian"
    assert b.raman_width == 0.4


def test_config_rejects_malformed_line(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("delta01 15.0\n")
    with pytest.raises(ConfigError):
        load_config(cfg_file)


def test_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        params_from_config({"detunnning": "3.0"})
    with pytest.raises(ConfigError):
        broadening_from_config({"raman_breadth": "0.3"})


def test_config_sections_tolerate_each_other():
    cfg = {"delta01": "15.0", "raman_width": "0.4"}
    assert params_from_config(cfg).delta01 == 15.0
    assert broadening_from_config(cfg).raman_width == 0.4


def test_config_rejects_unparseable_number():
    with pytest.raises(ConfigError):
        params_from_config({"delta01": "fast"})
