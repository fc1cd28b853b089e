"""Closed-form coherence dynamics through the control switch-off / switch-on.

Both transients admit exact Bessel-function solutions once the control is an
exponential of time.  Conventions used throughout:

switch-off (write control ramps down, rate k):
    control(tau) = W0 * exp(-k * (tau - tau_switch)),  tau >= tau_switch
    x  = W0 / k
    alpha = (delta0 + delta1 - Delta1 - i*(gamma31 - gamma21)) / k
    p  = (1 + i*alpha) / 2
    chi(tau) = x * exp(-k * (tau - tau_switch))        (runs x -> 0)

    The rotating-frame amplitudes P (spin) and Q (optical), defined by
        r12(tau) = exp(-(i*Delta1 + gamma21)(tau - tau_switch)) * P
        r13(tau) = exp(-(i*(delta0 + delta1) + gamma31)(tau - tau_switch)) * Q
    evolve as
        P = chi^p  [a J_p(chi)     + b J_{-p}(chi)]
        Q = (i/c) chi^{1-p} [a J_{p-1}(chi) - b J_{1-p}(chi)],  c = x^{-i*alpha}
    with constants fixed by the state at the switch time,
        a = x^{-p} [r12 J_{1-p}(x) - i r13 J_{-p}(x)] / M
        b = x^{-p} [i r13 J_p(x)   + r12 J_{p-1}(x)] / M
        M = J_p J_{1-p} + J_{-p} J_{p-1} = 2 sin(pi p) / (pi x).
    Final amplitudes (chi -> 0):
        P_inf = (x/2)^{-p}   [i r13 J_p(x)    + r12 J_{p-1}(x)] / (M Gamma(1-p))
        Q_inf = i (x/2)^{p-1}[r12 J_{1-p}(x) - i r13 J_{-p}(x)] / (M Gamma(p))

switch-on (read control ramps up, rate k_on, from zero to W2):
    control(tau) = W2 * exp(k_on * (tau - tau_on)),  tau <= tau_on
    x_on = W2 / k_on,  abar = delta02 / k_on,  q = (1 - i*abar) / 2
        C12 = (x_on/2)^q Gamma(1-q) J_{-q}(x_on)
        C13 = (x_on/2)^q Gamma(1-q) J_{1-q}(x_on)
    A unit spin coherence entering the ramp leaves it as
        (r12, r13) = (C12, i * C13),
    with |C12|^2 + |C13|^2 = 1 exactly (no optical decay during the ramp).

All formulas here were frozen against independent 50-digit ODE integration
before being written down.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.integrate import solve_ivp

from .params import DomainError, PhysicalParams
from .specfun import (bessel_cross_product_m, bessel_j, complex_gamma,
                      reciprocal_gamma)

__all__ = [
    "CoherencePair",
    "SwitchOnCoefficients",
    "init_coherence_after_storage",
    "switch_off_coherences",
    "switch_off_asymptotic",
    "switch_off_ode_oracle",
    "transfer_efficiency",
    "switch_on_coefficients",
    "switch_on_efficiency",
    "switch_on_ode_oracle",
]

# Below this control-to-switch-rate ratio the ramp is over before anything
# precesses: the map is the identity to double precision.
_FAST_X_CUTOFF = 1e-10


@dataclass(frozen=True)
class CoherencePair:
    """Spin (r12) and optical (r13) coherence of one spectral class."""

    r12: complex
    r13: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.r12) ** 2 + abs(self.r13) ** 2


@dataclass(frozen=True)
class SwitchOnCoefficients:
    """Partition of a unit spin coherence after the read-control ramp."""

    c12: complex
    c13: complex

    @property
    def unitarity_defect(self) -> float:
        return abs(abs(self.c12) ** 2 + abs(self.c13) ** 2 - 1.0)


# ===================== pre-switch state =====================

def init_coherence_after_storage(params: PhysicalParams, delta1: float,
                                 Delta1: float,
                                 a_spectral: complex) -> CoherencePair:
    """Representative coherence pair driven by an absorbed spectral amplitude.

    For a spectral class at optical offset delta1 and two-photon detuning
    Delta1 the steady off-resonant response to amplitude a_spectral is

        r12 = i * zeta12 * a_spectral,   r13 = zeta13 * r12,

    zeta13 = W1 / D, zeta12 = W1 / (D + 2 W1^2 / D), D = delta0 + delta1 - Delta1.

    The r13/r12 ratio is the adiabatic slaving ratio, which is what makes the
    fast-switch transfer efficiency land at 1/(1 + zeta13^2).
    """
    d_eff = params.delta01 + delta1 - Delta1
    if d_eff == 0:
        raise DomainError("resonant spectral class: delta0 + delta1 - Delta1 = 0")
    w1 = params.omega1_rabi
    zeta13 = w1 / d_eff
    zeta12 = w1 / (d_eff + 2.0 * w1 * w1 / d_eff)
    r12 = 1j * zeta12 * complex(a_spectral)
    return CoherencePair(r12=r12, r13=zeta13 * r12)


# ===================== switch-off =====================

def _off_geometry(params: PhysicalParams, delta1: float, Delta1: float):
    k = params.k_off
    x = params.omega1_rabi / k
    alpha = (params.delta01 + delta1 - Delta1
             - 1j * (params.gamma31 - params.gamma21)) / k
    p = 0.5 * (1.0 + 1j * alpha)
    return x, alpha, p


def switch_off_asymptotic(params: PhysicalParams, initial: CoherencePair,
                          delta1: float, Delta1: float) -> CoherencePair:
    """Rotating-frame amplitudes (P_inf, Q_inf) left after the write control
    has fully ramped down.  Free phase/decay accumulated since the switch
    time is NOT included; apply it separately over the storage interval."""
    x, alpha, p = _off_geometry(params, delta1, Delta1)
    if x < _FAST_X_CUTOFF:
        return initial
    m = bessel_cross_product_m(alpha, x)
    jp = bessel_j(p, x)
    jpm1 = bessel_j(p - 1.0, x)
    j1mp = bessel_j(1.0 - p, x)
    jmp = bessel_j(-p, x)
    lg_half = cmath.log(0.5 * x)
    # grouped to keep intermediates inside double range for |Im p| ~ 200
    p_inf = cmath.exp(-p * lg_half) * (1j * initial.r13 * jp
                                       + initial.r12 * jpm1) \
        * reciprocal_gamma(1.0 - p) / m
    q_inf = 1j * cmath.exp((p - 1.0) * lg_half) * (initial.r12 * j1mp
                                                   - 1j * initial.r13 * jmp) \
        * reciprocal_gamma(p) / m
    if not (cmath.isfinite(p_inf) and cmath.isfinite(q_inf)):
        raise DomainError(
            "switch-off amplitudes overflow double precision; the "
            "detuning-to-switch-rate ratio is outside the supported range")
    return CoherencePair(r12=p_inf, r13=q_inf)


def switch_off_coherences(params: PhysicalParams, initial: CoherencePair,
                          delta1: float, Delta1: float,
                          tau_since: float) -> CoherencePair:
    """Exact coherences a time tau_since after the write control started its
    exponential ramp-down, free evolution included."""
    if tau_since < 0:
        raise DomainError("tau_since must be >= 0")
    x, alpha, p = _off_geometry(params, delta1, Delta1)
    phase12 = cmath.exp(-(1j * Delta1 + params.gamma21) * tau_since)
    phase13 = cmath.exp(-(1j * (params.delta01 + delta1) + params.gamma31)
                        * tau_since)
    if x < _FAST_X_CUTOFF:
        return CoherencePair(r12=phase12 * initial.r12,
                             r13=phase13 * initial.r13)
    chi = x * math.exp(-params.k_off * tau_since)
    m = bessel_cross_product_m(alpha, x)
    xmp = cmath.exp(-p * cmath.log(x))
    a = xmp * (initial.r12 * bessel_j(1.0 - p, x)
               - 1j * initial.r13 * bessel_j(-p, x)) / m
    b = xmp * (1j * initial.r13 * bessel_j(p, x)
               + initial.r12 * bessel_j(p - 1.0, x)) / m
    c_inv = cmath.exp(1j * alpha * cmath.log(x))
    if chi == 0.0:
        tail = switch_off_asymptotic(params, initial, delta1, Delta1)
        return CoherencePair(r12=phase12 * tail.r12, r13=phase13 * tail.r13)
    lchi = cmath.log(chi)
    p_amp = cmath.exp(p * lchi) * (a * bessel_j(p, chi)
                                   + b * bessel_j(-p, chi))
    q_amp = 1j * c_inv * cmath.exp((1.0 - p) * lchi) \
        * (a * bessel_j(p - 1.0, chi) - b * bessel_j(1.0 - p, chi))
    return CoherencePair(r12=phase12 * p_amp, r13=phase13 * q_amp)


def switch_off_ode_oracle(params: PhysicalParams, initial: CoherencePair,
                          delta1: float, Delta1: float,
                          horizon: float | None = None,
                          rtol: float = 1e-10) -> CoherencePair:
    """Brute-force integration of the two-level system through the ramp-down;
    the independent check for switch_off_coherences.  horizon defaults to
    25/k_off, by which point the control is ~1e-11 of its initial value."""
    k = params.k_off
    if horizon is None:
        horizon = 25.0 / k
    if horizon < 20.0 / k:
        raise DomainError("oracle horizon must be >= 20 / k_off")
    w0 = params.omega1_rabi
    c13 = -(1j * (params.delta01 + delta1) + params.gamma31)
    c12 = -(1j * Delta1 + params.gamma21)

    def rhs(t, y):
        r13 = complex(y[0], y[1])
        r12 = complex(y[2], y[3])
        w = w0 * math.exp(-k * t)
        d13 = c13 * r13 + 1j * w * r12
        d12 = c12 * r12 + 1j * w * r13
        return [d13.real, d13.imag, d12.real, d12.imag]

    y0 = [initial.r13.real, initial.r13.imag,
          initial.r12.real, initial.r12.imag]
    sol = solve_ivp(rhs, (0.0, horizon), y0, method="DOP853",
                    rtol=rtol, atol=1e-14)
    if not sol.success:
        raise DomainError(f"switch-off oracle failed: {sol.message}")
    y = sol.y[:, -1]
    return CoherencePair(r12=complex(y[2], y[3]), r13=complex(y[0], y[1]))


def transfer_efficiency(params: PhysicalParams, delta1: float = 0.0,
                        Delta1: float = 0.0,
                        initial: CoherencePair | None = None) -> float:
    """Fraction of the pre-switch excitation left in the spin coherence after
    the write control ramps down:

        eps_t = |P_inf|^2 / (|r12|^2 + |r13|^2).

    Fast-switch limit (k >> W1): 1 / (1 + (W1/delta0)^2) on line centre.
    Decay during the ramp is excluded; it belongs to the storage-decay factor.
    """
    if initial is None:
        initial = init_coherence_after_storage(params, delta1, Delta1, 1.0)
    if initial.norm_sq == 0:
        raise DomainError("initial coherence pair is identically zero")
    final = switch_off_asymptotic(params, initial, delta1, Delta1)
    return abs(final.r12) ** 2 / initial.norm_sq


# ===================== switch-on =====================

def _on_geometry(params: PhysicalParams):
    k = params.k_on
    x_on = params.omega2_rabi / k
    abar = params.delta02 / k
    q = 0.5 * (1.0 - 1j * abar)
    return x_on, abar, q


def switch_on_coefficients(params: PhysicalParams) -> SwitchOnCoefficients:
    """Spin / optical partition coefficients after the read-control ramp."""
    x_on, _, q = _on_geometry(params)
    if x_on < _FAST_X_CUTOFF:
        return SwitchOnCoefficients(c12=1.0 + 0.0j, c13=0.0 + 0.0j)
    pref = cmath.exp(q * cmath.log(0.5 * x_on)) * complex_gamma(1.0 - q)
    return SwitchOnCoefficients(c12=pref * bessel_j(-q, x_on),
                                c13=pref * bessel_j(1.0 - q, x_on))


def switch_on_efficiency(params: PhysicalParams) -> float:
    """Fraction of the spin excitation available to the retrieval dynamics
    after the read control ramps up:

        eps_r = |C12|^2 + |(W2/delta02) C13|^2.

    The optical part only contributes through its adiabatic weight, hence the
    (W2/delta02)^2 suppression.  Instantaneous switch-on gives eps_r -> 1.
    """
    coeff = switch_on_coefficients(params)
    weight = params.omega2_rabi / params.delta02
    return abs(coeff.c12) ** 2 + abs(weight * coeff.c13) ** 2


def switch_on_ode_oracle(params: PhysicalParams) -> CoherencePair:
    """Brute-force integration of the exponential ramp-up from deep in its
    tail, t0 = -30/k_on, starting with unit spin coherence and the
    adiabatically slaved optical coherence i*W(t0)/(k_on + i*delta02)."""
    k = params.k_on
    w2 = params.omega2_rabi
    d02 = params.delta02
    t0 = -30.0 / k
    w_init = w2 * math.exp(k * t0)
    r13_0 = 1j * w_init / (k + 1j * d02)

    def rhs(t, y):
        r13 = complex(y[0], y[1])
        r12 = complex(y[2], y[3])
        w = w2 * math.exp(k * t)
        d13 = -(1j * d02 + params.gamma31) * r13 + 1j * w * r12
        d12 = -params.gamma21 * r12 + 1j * w * r13
        return [d13.real, d13.imag, d12.real, d12.imag]

    sol = solve_ivp(rhs, (t0, 0.0), [r13_0.real, r13_0.imag, 1.0, 0.0],
                    method="DOP853", rtol=1e-10, atol=1e-14)
    if not sol.success:
        raise DomainError(f"switch-on oracle failed: {sol.message}")
    y = sol.y[:, -1]
    return CoherencePair(r12=complex(y[2], y[3]), r13=complex(y[0], y[1]))
