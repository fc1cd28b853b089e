import cmath
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from ramanecho import switching
from ramanecho.params import DomainError, PhysicalParams
from ramanecho.switching import (
    CoherencePair,
    init_coherence_after_storage,
    switch_off_asymptotic,
    switch_off_ode_oracle,
    switch_on_coefficients,
    switch_on_efficiency,
    switch_on_ode_oracle,
    transfer_efficiency,
)


def _rel(got, want, scale=None):
    return abs(got - want) / (scale or max(abs(want), 1e-300))


# Frozen ramp-down references: 50-digit integration of the exact solution,
# rotating-frame amplitudes with free phases removed.
OFF_CASE_1 = dict(
    params=PhysicalParams(omega1_rabi=1.0, k_off=0.8, delta01=7.0),
    delta1=0.3, Delta1=-0.2,
    initial=CoherencePair(r12=0.6 + 0.2j, r13=0.1 - 0.3j),
    r12=0.5965062751118783447761 + 0.210397498253225628634j,
    r13=-0.006566297926909235579563 - 0.3160222147452154412607j,
)
OFF_CASE_2 = dict(
    params=PhysicalParams(omega1_rabi=1.0, k_off=2.5, delta01=5.0,
                          gamma21=0.05, gamma31=0.12),
    delta1=0.0, Delta1=0.4,
    initial=CoherencePair(r12=-0.3 + 0.7j, r13=0.25 + 0.15j),
    r12=-0.2908882014921175875012 + 0.7246085571243900191541j,
    r13=0.2371679509536553825665 - 0.004030214304444103359983j,
)

# Frozen ramp-up references for a unit initial spin amplitude.
ON_CASES = [
    (dict(omega2_rabi=1.3, k_on=1.0, delta02=3.7),
     0.931848767540769732807 + 0.1972522570729457071028j,
     0.1199723642121073882154 - 0.279921512816958189327j),
    (dict(omega2_rabi=2.0, k_on=0.5, delta02=2.0),
     0.04753673728876960521746 + 0.8481147313366296087593j,
     0.5276698357712066311738 - 0.002491087096611206612141j),
    (dict(omega2_rabi=0.4, k_on=4.0, delta02=12.0),
     0.9994995835579634017769 + 0.00149916680963347926155j,
     0.01001665318972514861605 - 0.02996667524453452375879j),
]


# ---------- ramp-down ----------

@pytest.mark.parametrize("case", [OFF_CASE_1, OFF_CASE_2],
                         ids=["lossless", "damped"])
def test_switch_off_reference_values(case):
    got = switch_off_asymptotic(case["params"], case["initial"],
                                case["delta1"], case["Delta1"])
    assert _rel(got.r12, case["r12"]) < 1e-12
    assert _rel(got.r13, case["r13"]) < 1e-12


def test_switch_off_norm_conserved_without_damping():
    case = OFF_CASE_1
    got = switch_off_asymptotic(case["params"], case["initial"],
                                case["delta1"], case["Delta1"])
    assert got.norm_sq == pytest.approx(case["initial"].norm_sq, rel=1e-12)


@given(k=st.floats(0.1, 20.0), d0=st.floats(3.0, 30.0),
       a_re=st.floats(-1.0, 1.0), a_im=st.floats(-1.0, 1.0),
       b_re=st.floats(-1.0, 1.0), b_im=st.floats(-1.0, 1.0))
def test_switch_off_norm_conserved_property(k, d0, a_re, a_im, b_re, b_im):
    init = CoherencePair(r12=complex(a_re, a_im), r13=complex(b_re, b_im))
    if init.norm_sq < 1e-6:
        init = CoherencePair(r12=1.0 + 0j, r13=complex(b_re, b_im))
    p = PhysicalParams(omega1_rabi=1.0, k_off=k, delta01=d0)
    got = switch_off_asymptotic(p, init, 0.0, 0.0)
    assert abs(got.norm_sq / init.norm_sq - 1.0) < 1e-10


@pytest.mark.parametrize("case", [OFF_CASE_1, OFF_CASE_2],
                         ids=["lossless", "damped"])
def test_switch_off_matches_brute_force(case):
    p = case["params"]
    ode = switch_off_ode_oracle(p, case["initial"], case["delta1"],
                                case["Delta1"])
    t = 25.0 / p.k_off
    tail = switch_off_asymptotic(p, case["initial"], case["delta1"],
                                 case["Delta1"])
    # the oracle's state = asymptote times the free phases and decays at t
    ph12 = cmath.exp(-(1j * case["Delta1"] + p.gamma21) * t)
    ph13 = cmath.exp(-(1j * (p.delta01 + case["delta1"]) + p.gamma31) * t)
    scale = math.sqrt(case["initial"].norm_sq)
    assert _rel(tail.r12 * ph12, ode.r12, scale) < 1e-7
    assert _rel(tail.r13 * ph13, ode.r13, scale) < 1e-7


def test_switch_off_fast_limit_freezes_the_state():
    p = PhysicalParams(omega1_rabi=1.0, k_off=1e12, delta01=10.0)
    init = CoherencePair(r12=0.8 + 0.1j, r13=-0.2 + 0.4j)
    got = switch_off_asymptotic(p, init, 0.0, 0.0)
    assert got.r12 == init.r12
    assert got.r13 == init.r13


def test_ode_oracle_rejects_short_horizon():
    with pytest.raises(DomainError):
        switch_off_ode_oracle(OFF_CASE_1["params"], OFF_CASE_1["initial"],
                              0.0, 0.0, horizon=1.0)


# ---------- storage initial condition ----------

def test_initial_coherence_slaving_ratio():
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=8.0)
    pair = init_coherence_after_storage(p, 0.5, -0.3, 1.0 + 0.5j)
    d_eff = 8.0 + 0.5 - (-0.3)
    assert pair.r13 / pair.r12 == pytest.approx(1.0 / d_eff, rel=1e-12)


def test_initial_coherence_rejects_resonant_class():
    p = PhysicalParams.make(omega1_rabi=1.0, delta01=8.0)
    with pytest.raises(DomainError):
        init_coherence_after_storage(p, 0.0, 8.0, 1.0)


# ---------- transfer efficiency ----------

def test_transfer_efficiency_fast_limit():
    p = PhysicalParams.make(delta01=5.0, k_off=1e6)
    want = 1.0 / (1.0 + (1.0 / 5.0) ** 2)
    assert transfer_efficiency(p) == pytest.approx(want, abs=1e-4)


def test_transfer_efficiency_slow_limit_is_lossless():
    p = PhysicalParams.make(delta01=10.0, k_off=0.05)
    assert transfer_efficiency(p) == pytest.approx(1.0, abs=1e-3)


def test_transfer_efficiency_monotone_in_switch_rate():
    vals = [transfer_efficiency(PhysicalParams.make(delta01=5.0, k_off=k))
            for k in np.geomspace(0.05, 50.0, 12)]
    assert np.all(np.diff(vals) < 1e-12)


# ---------- ramp-up ----------

@pytest.mark.parametrize("kw,c12,c13", ON_CASES,
                         ids=["moderate", "slow", "fast"])
def test_switch_on_reference_values(kw, c12, c13):
    p = PhysicalParams(**kw)
    got = switch_on_coefficients(p)
    assert _rel(got.c12, c12) < 1e-12
    assert _rel(got.c13, c13) < 1e-12


def test_switch_on_fast_limit_formula():
    p = PhysicalParams(omega2_rabi=0.4, k_on=4.0, delta02=12.0)
    got = switch_on_coefficients(p)
    x = 0.4 / 4.0
    abar = 12.0 / 4.0
    approx_c13 = x / (1.0 + 1j * abar)
    assert abs(got.c13 - approx_c13) < 5e-3 * abs(approx_c13)


@given(k=st.floats(0.1, 50.0), d02=st.floats(2.0, 40.0),
       w2=st.floats(0.2, 3.0))
def test_switch_on_partition_is_unitary(k, d02, w2):
    p = PhysicalParams(omega2_rabi=w2, k_on=k, delta02=d02)
    assert switch_on_coefficients(p).unitarity_defect < 1e-10


def test_switch_on_matches_brute_force():
    for kw, _, _ in ON_CASES:
        p = PhysicalParams(**kw)
        co = switch_on_coefficients(p)
        ode = switch_on_ode_oracle(p)
        scale = max(abs(ode.r12), abs(ode.r13), 1.0)
        assert abs(co.c12 - ode.r12) / scale < 1e-7
        assert abs(1j * co.c13 - ode.r13) / scale < 1e-7


def test_switch_on_efficiency_improves_with_rate():
    vals = [switch_on_efficiency(PhysicalParams.make(delta01=10.0, k_on=k))
            for k in (0.5, 2.0, 10.0, 200.0)]
    assert np.all(np.diff(vals) > 0)
    assert vals[-1] == pytest.approx(1.0, abs=1e-3)


def test_switch_on_instant_limit_keeps_everything_in_the_spin():
    p = PhysicalParams.make(delta01=10.0, k_on=1e12)
    co = switch_on_coefficients(p)
    assert co.c12 == 1.0 + 0.0j
    assert co.c13 == 0.0 + 0.0j


# ---------- the 0F1 series and its domain ----------

@pytest.mark.parametrize("b,y", [
    (0.5 + 1000.0j, 2500.0), (0.5 - 1000.0j, 10.0), (0.5 + 250.0j, 625.0),
    (1.5 - 250.0j, 625.0), (-2.5 + 300.0j, 400.0), (0.5 + 7.5j, 81.0),
    (-3.5 + 10.0j, 30.0), (1.0 + 0.0j, 0.25)])
def test_hyp0f1_against_mpmath(b, y):
    mpmath.mp.dps = 40
    got, big = switching._hyp0f1(b, y)
    want = complex(mpmath.hyp0f1(mpmath.mpc(b.real, b.imag), -y))
    # rounding of the sum stays within a few eps of its largest term
    assert abs(got - want) <= 8 * 2.0 ** -52 * big
    assert big >= 1.0


def test_hyp0f1_pole_is_a_domain_error():
    with pytest.raises(DomainError):
        switching._hyp0f1(-2.0 + 0.0j, 1.0)


@pytest.mark.parametrize("d0,k", [(400.0, 0.05), (100.0, 0.2), (60.0, 0.1),
                                  (20.0, 0.04)])
def test_switch_off_past_the_old_overflow_edge(d0, k):
    # |Im p| = d0 / 2k >= 250: the Bessel form overflowed in sin(pi p) here
    p = PhysicalParams.make(delta01=d0, k_off=k)
    init = init_coherence_after_storage(p, 0.0, 0.0, 1.0)
    got = switch_off_asymptotic(p, init, 0.0, 0.0)
    assert abs(got.norm_sq / init.norm_sq - 1.0) < 1e-14
    eps = transfer_efficiency(p)
    assert 1.0 - 1e-6 < eps <= 1.0      # slow switch, far off resonance
    # the series agrees with mpmath's 0F1 at this |Im p|
    mpmath.mp.dps = 40
    pp = 0.5 * (1.0 + 1j * d0 / k)
    y = 0.25 / (k * k)
    want = (init.r12 * mpmath.hyp0f1(pp, -y) + 1j * init.r13
            * (0.5 / (k * pp)) * mpmath.hyp0f1(pp + 1, -y))
    assert abs(got.r12 - complex(want)) < 1e-12 * math.sqrt(init.norm_sq)


@pytest.mark.parametrize("which", ["off", "on"])
def test_ill_conditioned_slow_switch_is_a_domain_error(which):
    # near resonance and slow: the largest series term is ~1e13 times the
    # result, past the rounding limit
    if which == "off":
        p = PhysicalParams.make(delta01=0.5, k_off=0.02)
        with pytest.raises(DomainError, match="rounding"):
            transfer_efficiency(p)
    else:
        p = PhysicalParams.make(delta02=0.5, k_on=0.02)
        with pytest.raises(DomainError, match="rounding"):
            switch_on_coefficients(p)


def test_switch_on_efficiency_needs_off_resonant_read():
    # the adiabatic weight (W2/delta02)^2 would exceed 1 and eps_r with it
    with pytest.raises(DomainError, match="off-resonant"):
        switch_on_efficiency(PhysicalParams(delta02=0.5, k_on=50.0))
