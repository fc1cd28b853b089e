"""Absorption profiles and the factorised echo-efficiency model.

The echo energy budget multiplies five independent penalties:

    total = eps_t * eps_r * gamma_factor * storage_decay * depth_factor

    eps_t         write-control switch-off transfer (switching module)
    eps_r         read-control switch-on partition (switching module)
    gamma_factor  squared inhomogeneous light-shift dephasing suppression
    storage_decay exp(-2 gamma21 tau_echo(eta))
    depth_factor  |1 - exp(-depth)|^2  re-absorption / finite-depth penalty

Absorption of the reduced model around the two-photon line:

    alpha(nu, z) = -i beta r^2 Int G(Dt) / (Dt - nu - i gamma_eff) dDt,
    r = W1/delta01,  gamma_eff = gamma21 + gamma31 r^2,

with closed forms for the Lorentzian (width w), Gaussian (std sigma) and
longitudinal-gradient variants:

    Lorentzian  alpha = beta r^2 / ((w + gamma_eff) - i nu)
    Gaussian    alpha = beta r^2 sqrt(pi) wofz((nu + i gamma_eff)/(sigma sqrt2))
                        / (sigma sqrt2)
    gradient    alpha = -i beta r^2 / (chi (z - L/2) - nu - i gamma_eff)

The scaling of gamma_eff's optical part by r^2 keeps the expression
dimensionally coherent.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from scipy.special import wofz

from . import switching
from .params import (GAUSSIAN, GRADIENT, LORENTZIAN, NONE, BroadeningSpec,
                     DomainError, FieldEnvelope, PhysicalParams)

__all__ = [
    "EfficiencyBreakdown",
    "effective_linewidth",
    "complex_absorption",
    "complex_line_depth",
    "line_center_depth",
    "resolve_coupling",
    "dephasing_factor",
    "echo_time",
    "eps_tilde",
    "echo_envelope_map",
    "overall_efficiency",
]


def effective_linewidth(params: PhysicalParams) -> float:
    """Write-stage two-photon linewidth gamma21 + gamma31 r^2."""
    r = params.omega1_rabi / params.delta01
    return params.gamma21 + params.gamma31 * r * r


def complex_absorption(params: PhysicalParams, broadening: BroadeningSpec,
                       nu: float) -> complex:
    """Complex absorption coefficient of the reduced model's write stage at
    detuning nu from the two-photon line (per unit length; real part
    absorbs).  Spectral lines only: the gradient line depends on z, and
    complex_line_depth integrates it in closed form."""
    r = params.omega1_rabi / params.delta01
    bpre = params.beta * r * r
    g = effective_linewidth(params)
    kind = broadening.raman_kind
    if kind == LORENTZIAN:
        w = broadening.raman_width
        if w + g <= 0:
            raise DomainError("Lorentzian line needs width + gamma_eff > 0")
        return bpre / complex(w + g, -nu)
    if kind == GAUSSIAN:
        s = broadening.raman_width
        if s <= 0:
            if g <= 0:
                raise DomainError("zero-width line needs gamma_eff > 0")
            return bpre / complex(g, -nu)
        zz = complex(nu, g) / (s * math.sqrt(2.0))
        return bpre * math.sqrt(math.pi) * wofz(zz) / (s * math.sqrt(2.0))
    raise DomainError(f"unsupported raman_kind {kind!r}")


def complex_line_depth(params: PhysicalParams, broadening: BroadeningSpec,
                       nu: float) -> complex:
    """Write-stage absorption coefficient integrated along the medium.
    Spectral shapes are z-independent; the gradient variant, whose line sits
    at chi (z - L/2), has the closed-form log."""
    length = params.medium_length
    if broadening.raman_kind != GRADIENT:
        return complex_absorption(params, broadening, nu) * length
    r = params.omega1_rabi / params.delta01
    bpre = params.beta * r * r
    g = effective_linewidth(params) + 1e-300
    chi = broadening.chi
    hi = complex(chi * length / 2.0 - nu, -g)
    lo = complex(-chi * length / 2.0 - nu, -g)
    return (-1j * bpre / chi) * (cmath.log(hi) - cmath.log(lo))


def line_center_depth(params: PhysicalParams,
                      broadening: BroadeningSpec) -> float:
    return float(complex_line_depth(params, broadening, 0.0).real)


def resolve_coupling(params: PhysicalParams,
                     broadening: BroadeningSpec) -> PhysicalParams:
    """Fix beta so the line-centre depth matches params.optical_depth.
    The depth is linear in beta, so one unit evaluation suffices."""
    if params.optical_depth <= 0:
        raise DomainError("optical_depth must be positive to resolve beta")
    unit = params.replace(beta=1.0)
    base = line_center_depth(unit, broadening)
    if base <= 0:
        raise DomainError("degenerate line shape: zero depth at unit coupling")
    return params.replace(beta=params.optical_depth / base)


# ===================== factor functions =====================

def echo_time(eta: float, tau_echo_unit: float) -> float:
    """Echo emission time for scaling factor eta, given the eta = 1 value:
    the write half is fixed, the read half stretches by 1/eta."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    return 0.5 * (1.0 + 1.0 / eta) * tau_echo_unit


def dephasing_factor(params: PhysicalParams,
                     broadening: BroadeningSpec) -> float:
    """Amplitude suppression from the control-induced light shift varying
    across the optical line (width delta_in).  Active while a control is on,
    i.e. for tau_echo(eta) - tau_st.  Echo ENERGY carries the square."""
    if broadening.optical_kind == NONE or broadening.optical_width == 0:
        return 1.0
    eta = params.eta
    r2 = (params.omega1_rabi / params.delta01) ** 2
    active = echo_time(eta, params.tau_echo) - params.tau_st
    if active < 0:
        raise DomainError("tau_echo(eta) earlier than tau_st: no active "
                          "window for light-shift dephasing")
    phase = broadening.optical_width * active
    if broadening.optical_kind == GAUSSIAN:
        return math.exp(-0.25 * r2 * r2 * (1.0 + eta * eta) * phase * phase)
    if broadening.optical_kind == LORENTZIAN:
        return math.exp(-0.5 * r2 * (1.0 + eta) * phase)
    raise DomainError(f"unsupported optical_kind {broadening.optical_kind!r}")


@dataclass(frozen=True)
class EfficiencyBreakdown:
    """Echo energy budget; total is the exact product of the five factors."""

    eps_t: float
    eps_r: float
    gamma_factor: float
    storage_decay: float
    depth_factor: float

    @property
    def total(self) -> float:
        return (self.eps_t * self.eps_r * self.gamma_factor
                * self.storage_decay * self.depth_factor)


def _budget_factors(params: PhysicalParams, broadening: BroadeningSpec):
    """eps_t, eps_r, the dephasing AMPLITUDE factor and the storage decay:
    every factor of the budget but the depth factor."""
    shift = params.omega1_rabi ** 2 / params.delta01
    eps_t = switching.transfer_efficiency(params, 0.0, shift)
    eps_r = switching.switch_on_efficiency(params)
    gam = dephasing_factor(params, broadening)
    decay = math.exp(-2.0 * params.gamma21
                     * echo_time(params.eta, params.tau_echo)) \
        if params.gamma21 > 0 else 1.0
    return eps_t, eps_r, gam, decay


def eps_tilde(params: PhysicalParams, broadening: BroadeningSpec) -> float:
    """Switching + decay part of the budget (everything but the depth
    factor); this is the prefactor of the closed-form spectral echo."""
    eps_t, eps_r, gam, decay = _budget_factors(params, broadening)
    return eps_t * eps_r * gam * gam * decay


def overall_efficiency(params: PhysicalParams,
                       broadening: BroadeningSpec) -> EfficiencyBreakdown:
    """Full factorised budget.  beta may be unresolved; the depth factor then
    uses params.optical_depth directly."""
    eps_t, eps_r, gam, decay = _budget_factors(params, broadening)
    if params.beta > 0:
        depth = line_center_depth(params, broadening)
    else:
        depth = params.optical_depth
    depth_fac = abs(1.0 - math.exp(-depth)) ** 2
    return EfficiencyBreakdown(eps_t, eps_r, gam * gam, decay, depth_fac)


def echo_envelope_map(params: PhysicalParams, input_env: FieldEnvelope,
                      eps_total: float,
                      tau_echo: float | None = None) -> FieldEnvelope:
    """Ideal-echo image of a time-domain input envelope: reversed,
    compressed by eta, amplitude sqrt(eta * eps_total):

        E2(tau) = sqrt(eta * eps_total) E1(-eta (tau - tau_echo)),

    tau_echo being the arrival time of the image of the input's time origin.
    Constructed sample-by-sample so the energy ratio is eps_total exactly.
    """
    if eps_total < 0:
        raise DomainError("eps_total must be nonnegative")
    eta = params.eta
    if tau_echo is None:
        tau_echo = echo_time(eta, params.tau_echo)
    axis = tau_echo - input_env.axis[::-1] / eta
    samples = math.sqrt(eta * eps_total) * input_env.samples[::-1]
    return FieldEnvelope(samples=samples, axis=axis, z=0.0,
                         direction="backward", kind="time")
