import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramanecho.efficiency import (
    complex_absorption,
    complex_line_depth,
    dephasing_factor,
    echo_envelope_map,
    echo_time,
    effective_linewidth,
    eps_tilde,
    line_center_depth,
    overall_efficiency,
    resolve_coupling,
)
from ramanecho.params import (
    BroadeningSpec,
    DomainError,
    FieldEnvelope,
    PhysicalParams,
    gaussian_shape,
    gradient_shape,
    lorentzian_shape,
)


def _unit_coupling_params(**kw):
    # beta = 1, omega1 = delta01 = 1 so the absorption prefactor is exactly 1
    kw.setdefault("omega1_rabi", 1.0)
    kw.setdefault("delta01", 1.0)
    kw.setdefault("beta", 1.0)
    return PhysicalParams.make(**kw)


# ---------- line shapes ----------

def test_lorentzian_absorption_reference_value():
    # frozen 50-digit quadrature of the line integral at
    # width 1.5, offset 0.7, effective linewidth 0.2
    p = _unit_coupling_params(gamma21=0.2)
    got = complex_absorption(p, lorentzian_shape(1.5), 0.7)
    want = 0.5029585798816568116529 + 0.2071005917159763197188j
    assert abs(got - want) < 1e-12


def test_gaussian_absorption_reference_value():
    p = _unit_coupling_params(gamma21=0.2)
    got = complex_absorption(p, gaussian_shape(0.8), 0.7)
    want = 0.9504652749457567487122 + 0.6548984399643059717011j
    assert abs(got - want) < 1e-12


def test_lorentzian_center_depth_closed_form():
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=2.0, beta=3.0,
                            gamma21=0.2)
    # beta r^2 L / (width + gamma_eff) = 3*0.25/1.7
    got = line_center_depth(p, lorentzian_shape(1.5))
    assert got == pytest.approx(3.0 * 0.25 / 1.7, rel=1e-12)


@pytest.mark.parametrize("chi", [0.5, -0.5])
def test_gradient_center_depth_closed_form(chi):
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=4.0, beta=2.0)
    got = complex_line_depth(p, gradient_shape(chi), 0.0)
    # pi * beta r^2 / |chi| regardless of gradient orientation
    assert got.real == pytest.approx(math.pi * 2.0 / 16.0 / abs(chi),
                                     rel=1e-10)


def test_absorption_peak_sits_on_line_center():
    p = _unit_coupling_params(gamma21=0.1)
    for spec in (gaussian_shape(0.5), lorentzian_shape(0.5)):
        center = complex_absorption(p, spec, 0.0).real
        for nu in (-0.7, -0.2, 0.3, 1.1):
            assert complex_absorption(p, spec, nu).real < center


def test_effective_linewidth_modes():
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=10.0, gamma21=0.02,
                            gamma31=3.0)
    assert effective_linewidth(p) == pytest.approx(0.02 + 3.0 * 0.01)


def test_resolve_coupling_roundtrip():
    p = PhysicalParams.make(delta01=10.0, optical_depth=5.0)
    for spec in (gaussian_shape(0.3), lorentzian_shape(0.3),
                 gradient_shape(0.8)):
        r = resolve_coupling(p, spec)
        assert r.beta > 0
        assert line_center_depth(r, spec) == pytest.approx(5.0, rel=1e-12)


def test_resolve_coupling_needs_positive_depth():
    p = PhysicalParams.make(delta01=10.0)
    with pytest.raises(DomainError):
        resolve_coupling(p, gaussian_shape(0.3))


# ---------- echo timing and dephasing ----------

def test_echo_time_scaling():
    assert echo_time(1.0, 80.0) == pytest.approx(80.0)
    assert echo_time(2.0, 80.0) == pytest.approx(60.0)
    assert echo_time(0.5, 80.0) == pytest.approx(120.0)
    with pytest.raises(DomainError):
        echo_time(0.0, 80.0)


def test_dephasing_factor_trivial_without_optical_spread():
    p = PhysicalParams.make(delta01=10.0, tau_echo=50.0)
    assert dephasing_factor(p, gaussian_shape(0.3)) == 1.0


def test_dephasing_factor_gaussian_log_slope():
    # log of the suppression is quadratic in the optical spread; the
    # finite-difference slope of log Gamma vs active time must match the
    # analytic coefficient
    spec = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                          optical_kind="gaussian", optical_width=0.1)
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=5.0, eta=2.0,
                            tau_st=0.0)
    r2 = (1.0 / 5.0) ** 2
    coeff = 0.25 * r2 * r2 * (1.0 + 4.0) * 0.1 ** 2
    scale = 0.5 * (1.0 + 1.0 / 2.0)       # d(active)/d(tau_echo)
    t0, h = 80.0, 0.5
    lo = math.log(dephasing_factor(p.replace(tau_echo=t0 - h), spec))
    hi = math.log(dephasing_factor(p.replace(tau_echo=t0 + h), spec))
    fd = (hi - lo) / (2.0 * h)
    want = -2.0 * coeff * (t0 * scale) * scale
    assert fd == pytest.approx(want, rel=0.01)


def test_dephasing_factor_lorentzian_log_linear():
    spec = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                          optical_kind="lorentzian", optical_width=0.05)
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=5.0, eta=1.0,
                            tau_st=0.0, tau_echo=40.0)
    r2 = (1.0 / 5.0) ** 2
    want = math.exp(-0.5 * r2 * 2.0 * 0.05 * 40.0)
    assert dephasing_factor(p, spec) == pytest.approx(want, rel=1e-12)


def test_dephasing_factor_rejects_negative_active_window():
    spec = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                          optical_kind="gaussian", optical_width=0.1)
    p = PhysicalParams.make(delta01=5.0, tau_echo=10.0, tau_st=20.0)
    with pytest.raises(DomainError):
        dephasing_factor(p, spec)


# ---------- budget ----------

def test_breakdown_total_is_exact_product():
    spec = BroadeningSpec(raman_kind="lorentzian", raman_width=0.3,
                          optical_kind="gaussian", optical_width=0.05)
    p = PhysicalParams.make(delta01=8.0, k_off=2.0, k_on=5.0, gamma21=0.001,
                            tau_echo=60.0, optical_depth=3.0)
    b = overall_efficiency(p, spec)
    prod = (b.eps_t * b.eps_r * b.gamma_factor * b.storage_decay
            * b.depth_factor)
    assert b.total == pytest.approx(prod, rel=1e-14)
    assert 0.0 < b.total < 1.0


def test_overall_efficiency_monotone_in_depth():
    spec = gaussian_shape(0.3)
    vals = [overall_efficiency(
        PhysicalParams.make(delta01=10.0, optical_depth=d), spec).total
        for d in (0.5, 1.0, 2.0, 5.0, 50.0)]
    assert np.all(np.diff(vals) > 0)


def test_overall_efficiency_monotone_in_spin_decay():
    spec = gaussian_shape(0.3)
    vals = [overall_efficiency(
        PhysicalParams.make(delta01=10.0, optical_depth=5.0, tau_echo=50.0,
                            gamma21=g), spec).total
        for g in (0.0, 1e-3, 3e-3, 1e-2)]
    assert np.all(np.diff(vals) < 0)


def test_overall_efficiency_monotone_in_optical_spread():
    p = PhysicalParams.make(delta01=5.0, optical_depth=5.0, tau_echo=50.0)
    vals = []
    for w in (0.0, 0.05, 0.1, 0.2):
        spec = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                              optical_kind="gaussian", optical_width=w)
        vals.append(overall_efficiency(p, spec).total)
    assert np.all(np.diff(vals) < 0)


def test_eps_tilde_is_the_depthless_budget():
    spec = BroadeningSpec(raman_kind="lorentzian", raman_width=0.3,
                          optical_kind="gaussian", optical_width=0.05)
    p = PhysicalParams.make(delta01=8.0, k_off=2.0, k_on=5.0, gamma21=1e-3,
                            tau_echo=60.0, optical_depth=3.0)
    p = resolve_coupling(p, spec)
    b = overall_efficiency(p, spec)
    assert eps_tilde(p, spec) * b.depth_factor == pytest.approx(b.total,
                                                                rel=1e-12)


@given(depth=st.floats(0.2, 30.0), d0=st.floats(4.0, 30.0))
def test_efficiency_bounded_by_unity(depth, d0):
    p = PhysicalParams.make(delta01=d0, optical_depth=depth, k_off=5.0,
                            k_on=5.0)
    b = overall_efficiency(p, gaussian_shape(0.3))
    assert 0.0 <= b.total <= 1.0 + 1e-12


# ---------- ideal echo image ----------

def test_envelope_map_energy_ratio_is_exact():
    t = np.linspace(0.0, 70.0, 561)
    env = FieldEnvelope(samples=np.exp(-0.5 * ((t - 35.0) / 10.0) ** 2) + 0j,
                        axis=t)
    p = PhysicalParams.make(delta01=10.0, eta=2.0, tau_echo=80.0)
    eps = 0.4375
    echo = echo_envelope_map(p, env, eps)
    assert echo.energy() / env.energy() == pytest.approx(eps, rel=1e-12)
    assert echo.direction == "backward"


def test_envelope_map_compresses_and_reverses():
    t = np.linspace(0.0, 70.0, 1401)
    env = FieldEnvelope(samples=np.exp(-0.5 * ((t - 20.0) / 6.0) ** 2) + 0j,
                        axis=t)
    p = PhysicalParams.make(delta01=10.0, eta=2.0)
    echo = echo_envelope_map(p, env, 1.0, tau_echo=60.0)
    ip = int(np.argmax(np.abs(echo.samples)))
    # the image of the input peak at t arrives at tau_echo - t/eta
    assert echo.axis[ip] == pytest.approx(60.0 - 20.0 / 2.0, abs=0.1)


def test_envelope_map_rejects_negative_budget():
    t = np.linspace(0.0, 1.0, 11)
    env = FieldEnvelope(samples=np.ones(11, complex), axis=t)
    p = PhysicalParams.make(delta01=10.0)
    with pytest.raises(DomainError):
        echo_envelope_map(p, env, -0.1)
