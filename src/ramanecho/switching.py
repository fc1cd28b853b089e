"""Closed-form coherence dynamics through the control switch-off / switch-on.

Both transients are exact once the control is an exponential of time.  Their
Bessel form (orders +-p, normaliser 2 sin(pi p) / (pi x), (x/2)^{+-p} and
gamma factors) cancels, by J_nu(x) = (x/2)^nu 0F1(;nu+1;-x^2/4) /
Gamma(nu+1) (DLMF 10.16.9) and Gamma(p) Gamma(1-p) = pi / sin(pi p) (DLMF
5.5.3), to a pair of 0F1(;b;-y) per map, entire in b:

switch-off (write control ramps down, rate k):
    control(tau) = W0 * exp(-k * (tau - tau_switch)),  tau >= tau_switch
    x  = W0 / k,  y = x^2 / 4
    alpha = (delta0 + delta1 - Delta1 - i*(gamma31 - gamma21)) / k
    p  = (1 + i*alpha) / 2

    The rotating-frame amplitudes P (spin) and Q (optical), defined by
        r12(tau) = exp(-(i*Delta1 + gamma21)(tau - tau_switch)) * P
        r13(tau) = exp(-(i*(delta0 + delta1) + gamma31)(tau - tau_switch)) * Q
    start at (r12, r13) and end, once the control has gone, at
        P_inf = r12 0F1(;p;-y)   + i r13 (x / 2p)       0F1(;p+1;-y)
        Q_inf = r13 0F1(;1-p;-y) + i r12 (x / (2(1-p))) 0F1(;2-p;-y)

switch-on (read control ramps up, rate k_on, from zero to W2):
    control(tau) = W2 * exp(k_on * (tau - tau_on)),  tau <= tau_on
    x_on = W2 / k_on,  y_on = x_on^2 / 4,  q = (1 - i*delta02/k_on) / 2
        C12 = 0F1(;1-q;-y_on)
        C13 = (x_on/2) / (1-q) 0F1(;2-q;-y_on)
    A unit spin coherence entering the ramp leaves it as
        (r12, r13) = (C12, i * C13),
    with |C12|^2 + |C13|^2 = 1 exactly (no optical decay during the ramp).

Domain.  Each 0F1 is its ratio series summed in double precision, with
rounding about eps times its largest term.  A map whose eps * sum(largest
|term| * |coefficient|) exceeds _ROUNDING_LIMIT = 1e-8 of its pair's norm
raises DomainError: the norm, not each amplitude, as a small P_inf is
physical.  Slow switches get there, once Omega^2 / (2 k delta0) passes
about 20 (at Omega = 1: k < 0.0025 at delta0 = 10, k < 0.012 at delta0 = 2,
delta0 < 0.07 at k = 0.05, nowhere for k >= 0.1).  The tests check the
forms against 50-digit ODE integration and mpmath's hyp0f1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .params import DomainError, PhysicalParams

__all__ = [
    "CoherencePair",
    "SwitchOnCoefficients",
    "init_coherence_after_storage",
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
# Largest estimated rounding of a map, relative to the norm of its pair; a
# series term beyond the ceiling has failed it already (stop before overflow)
_ROUNDING_LIMIT = 1e-8
_TERM_CEILING = 1e250


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


# ===================== the series =====================

def _hyp0f1(b: complex, y: float):
    """(0F1(;b;-y), largest |term|) from the ratio series of
    sum_n (-y)^n / ((b)_n n!) in plain complex arithmetic, summed until the
    terms fall below 1e-17 of the largest past n = -Re b."""
    if b.imag == 0.0 and b.real <= 0.0 and b.real % 1.0 == 0.0:
        raise DomainError(f"0F1 parameter {b} is a pole")
    term = total = 1.0 + 0.0j
    big = 1.0
    n = 0
    while True:
        term *= -y / ((b + n) * (n + 1))
        n += 1
        total += term
        mag = abs(term)
        if not mag <= big:                # NaN too: the limit rejects it
            big = mag
            if not big <= _TERM_CEILING:
                break
        elif mag < 1e-17 * big and n > -b.real:
            break
    return total, big


def _check_rounding(weighted_terms: float, norm: float, what: str) -> None:
    """DomainError past the rounding limit (module docstring, Domain)."""
    err = math.ulp(1.0) * weighted_terms
    if not err <= _ROUNDING_LIMIT * norm:
        raise DomainError(
            f"{what} map too ill-conditioned for double precision: "
            f"estimated rounding {err:.1e} exceeds {_ROUNDING_LIMIT:g} of "
            f"the pair's norm {norm:.3g} (slow switch near resonance)")


# ===================== switch-off =====================

def switch_off_asymptotic(params: PhysicalParams, initial: CoherencePair,
                          delta1: float, Delta1: float) -> CoherencePair:
    """Rotating-frame amplitudes (P_inf, Q_inf) left after the write control
    has fully ramped down.  Free phase/decay accumulated since the switch
    time is NOT included; apply it separately over the storage interval."""
    k = params.k_off
    x = params.omega1_rabi / k
    if x < _FAST_X_CUTOFF:
        return initial
    alpha = (params.delta01 + delta1 - Delta1
             - 1j * (params.gamma31 - params.gamma21)) / k
    p = 0.5 * (1.0 + 1j * alpha)
    y = 0.25 * x * x
    f_p, big_p = _hyp0f1(p, y)
    f_p1, big_p1 = _hyp0f1(p + 1.0, y)
    f_q, big_q = _hyp0f1(1.0 - p, y)
    f_q1, big_q1 = _hyp0f1(2.0 - p, y)
    r12, r13 = initial.r12, initial.r13
    c_p1 = 0.5j * x / p * r13
    c_q1 = 0.5j * x / (1.0 - p) * r12
    _check_rounding(abs(r12) * big_p + abs(c_p1) * big_p1
                    + abs(r13) * big_q + abs(c_q1) * big_q1,
                    math.sqrt(initial.norm_sq), "switch-off")
    return CoherencePair(r12=r12 * f_p + c_p1 * f_p1,
                         r13=r13 * f_q + c_q1 * f_q1)


def _ode_pair(c13, c12, w0, rate, span, initial, rtol, what):
    """DOP853 integration of dr13/dt = c13 r13 + i W r12, dr12/dt =
    c12 r12 + i W r13 with W = w0 exp(rate t) over span, from initial."""
    from scipy.integrate import solve_ivp  # lazily: ~25 MB, oracles only

    def rhs(t, y):
        r13 = complex(y[0], y[1])
        r12 = complex(y[2], y[3])
        w = w0 * math.exp(rate * t)
        d13 = c13 * r13 + 1j * w * r12
        d12 = c12 * r12 + 1j * w * r13
        return [d13.real, d13.imag, d12.real, d12.imag]

    y0 = [initial.r13.real, initial.r13.imag,
          initial.r12.real, initial.r12.imag]
    sol = solve_ivp(rhs, span, y0, method="DOP853", rtol=rtol, atol=1e-14)
    if not sol.success:
        raise DomainError(f"{what} oracle failed: {sol.message}")
    y = sol.y[:, -1]
    return CoherencePair(r12=complex(y[2], y[3]), r13=complex(y[0], y[1]))


def switch_off_ode_oracle(params: PhysicalParams, initial: CoherencePair,
                          delta1: float, Delta1: float,
                          horizon: float | None = None,
                          rtol: float = 1e-10) -> CoherencePair:
    """Brute-force integration of the two-level system through the ramp-down;
    the independent check for switch_off_asymptotic.  horizon defaults to
    25/k_off, by which point the control is ~1e-11 of its initial value."""
    k = params.k_off
    if horizon is None:
        horizon = 25.0 / k
    if horizon < 20.0 / k:
        raise DomainError("oracle horizon must be >= 20 / k_off")
    return _ode_pair(-(1j * (params.delta01 + delta1) + params.gamma31),
                     -(1j * Delta1 + params.gamma21), params.omega1_rabi,
                     -k, (0.0, horizon), initial, rtol, "switch-off")


def transfer_efficiency(params: PhysicalParams, delta1: float = 0.0,
                        Delta1: float = 0.0) -> float:
    """Fraction of the pre-switch excitation left in the spin coherence after
    the write control ramps down:

        eps_t = |P_inf|^2 / (|r12|^2 + |r13|^2).

    Fast-switch limit (k >> W1): 1 / (1 + (W1/delta0)^2) on line centre.
    Decay during the ramp is excluded; it belongs to the storage-decay factor.
    """
    initial = init_coherence_after_storage(params, delta1, Delta1, 1.0)
    if initial.norm_sq == 0:
        raise DomainError("initial coherence pair is identically zero")
    final = switch_off_asymptotic(params, initial, delta1, Delta1)
    return abs(final.r12) ** 2 / initial.norm_sq


# ===================== switch-on =====================

def switch_on_coefficients(params: PhysicalParams) -> SwitchOnCoefficients:
    """Spin / optical partition coefficients after the read-control ramp."""
    k = params.k_on
    x_on = params.omega2_rabi / k
    if x_on < _FAST_X_CUTOFF:
        return SwitchOnCoefficients(c12=1.0 + 0.0j, c13=0.0 + 0.0j)
    b = 0.5 * (1.0 + 1j * params.delta02 / k)            # 1 - q
    y = 0.25 * x_on * x_on
    f0, big0 = _hyp0f1(b, y)
    f1, big1 = _hyp0f1(b + 1.0, y)
    c = 0.5 * x_on / b
    _check_rounding(big0 + abs(c) * big1, 1.0, "switch-on")
    return SwitchOnCoefficients(c12=f0, c13=c * f1)


def switch_on_efficiency(params: PhysicalParams) -> float:
    """Fraction of the spin excitation available to the retrieval dynamics
    after the read control ramps up:

        eps_r = |C12|^2 + |(W2/delta02) C13|^2.

    The optical part only contributes through its adiabatic weight, hence the
    (W2/delta02)^2 suppression.  Instantaneous switch-on gives eps_r -> 1.
    The weight needs |delta02| > W2 (off resonance), or eps_r would pass 1.
    """
    weight = params.omega2_rabi / params.delta02
    if abs(weight) >= 1.0:
        raise DomainError("eps_r needs an off-resonant read stage, "
                          "|delta02| > omega2_rabi")
    coeff = switch_on_coefficients(params)
    return abs(coeff.c12) ** 2 + abs(weight * coeff.c13) ** 2


def switch_on_ode_oracle(params: PhysicalParams) -> CoherencePair:
    """Brute-force integration of the exponential ramp-up from deep in its
    tail, t0 = -30/k_on, starting with unit spin coherence and the
    adiabatically slaved optical coherence i*W(t0)/(k_on + i*delta02)."""
    k = params.k_on
    w2 = params.omega2_rabi
    t0 = -30.0 / k
    r13_0 = 1j * w2 * math.exp(k * t0) / (k + 1j * params.delta02)
    return _ode_pair(-(1j * params.delta02 + params.gamma31), -params.gamma21,
                     w2, k, (t0, 0.0), CoherencePair(1.0 + 0.0j, r13_0),
                     1e-10, "switch-on")
