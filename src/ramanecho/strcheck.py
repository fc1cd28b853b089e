"""Verification tools for time-rescaled backward retrieval.

A write-stage reduced solution (M1, E1) on detuning nodes d maps onto a
candidate read-stage solution by time reversal with compression eta,
node relabelling d -> -eta*d, and sqrt(eta) coupling/field rescaling:

    M2(tau2, Z, -eta d) = sM * M1(-eta tau2, Z, d)
    E2(tau2, Z)         = sE * sqrt(eta) * E1(-eta tau2, Z)
    r2                  = sr * sqrt(eta) * r1      (same for the beta r / 2
                                                    field coupling)

The read-stage equations fix only the relative signs, sr*sE = -sM and
sr*sM = -sE, leaving three equivalent sign conventions:

    first  (sr, sM, sE) = (+1, +1, -1)
    second (sr, sM, sE) = (-1, +1, +1)
    third  (sr, sM, sE) = (+1, -1, +1)

str_residual plugs a candidate into the read-stage equations and reports
normalised defect sizes; an exact transform of an exact solution leaves only
finite-difference truncation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import BroadeningSpec, DomainError, FieldEnvelope, PhysicalParams

__all__ = [
    "StrTransform",
    "StrCandidate",
    "apply_str",
    "crib_candidate",
    "str_residual",
    "waveform_fidelity",
    "fwhm",
    "gem_gradient_flip",
]

_FORM_SIGNS = {
    "first": (+1.0, +1.0, -1.0),
    "second": (-1.0, +1.0, +1.0),
    "third": (+1.0, -1.0, +1.0),
}


@dataclass(frozen=True)
class StrTransform:
    eta: float
    form: str = "first"

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise DomainError("eta must be positive")
        if self.form not in _FORM_SIGNS:
            raise DomainError(f"unknown transform form {self.form!r}; "
                              f"choose from {sorted(_FORM_SIGNS)}")

    @property
    def signs(self):
        return _FORM_SIGNS[self.form]


@dataclass
class StrCandidate:
    """Read-stage trial solution on the transformed grids."""

    tau2: np.ndarray
    z: np.ndarray
    d2_nodes: np.ndarray          # subset, already stage-2 values
    m2: np.ndarray                # (nt, nz_sub, nd_sub)
    e2: np.ndarray                # (nt, nz)
    s2: np.ndarray                # (nt, nz) weighted node sum
    z_idx: np.ndarray
    r2: float
    c2: float
    eta: float


def apply_str(storage, params: PhysicalParams, transform: StrTransform, *,
              detuning_scale: float = 1.0, time_scale: float = 1.0,
              coupling_scale: float = 1.0) -> StrCandidate:
    """Build the read-stage candidate from a write-stage StageResult that
    recorded an M history subset.  The *_scale knobs deliberately violate one
    matching condition each (1.0 = exact transform)."""
    if storage.m_history is None:
        raise DomainError("storage result has no M history subset; rerun "
                          "with m_subset=...")
    eta = transform.eta
    sr, sm, se = transform.signs
    root = math.sqrt(eta)
    tau2 = -(storage.tau[::-1]) / (eta * time_scale)
    d1_sub = storage.d_nodes[storage.m_hist_d_idx]
    d2 = -eta * detuning_scale * d1_sub
    r1 = params.omega1_rabi / params.delta01
    c1 = 0.5 * params.beta * r1
    return StrCandidate(
        tau2=tau2,
        z=storage.z,
        d2_nodes=d2,
        m2=sm * storage.m_history[::-1],
        e2=se * root * storage.e_history[::-1],
        s2=sm * storage.s_history[::-1],
        z_idx=np.asarray(storage.m_hist_z_idx),
        r2=coupling_scale * sr * root * r1,
        c2=coupling_scale * sr * root * c1,
        eta=eta)


def crib_candidate(storage, params: PhysicalParams) -> StrCandidate:
    """Plain detuning-flip backward retrieval (no rescaling), written out
    independently of the generic transform machinery."""
    if storage.m_history is None:
        raise DomainError("storage result has no M history subset")
    r1 = params.omega1_rabi / params.delta01
    return StrCandidate(
        tau2=-(storage.tau[::-1]),
        z=storage.z,
        d2_nodes=-storage.d_nodes[storage.m_hist_d_idx],
        m2=storage.m_history[::-1].copy(),
        e2=-storage.e_history[::-1],
        s2=storage.s_history[::-1].copy(),
        z_idx=np.asarray(storage.m_hist_z_idx),
        r2=r1,
        c2=0.5 * params.beta * r1,
        eta=1.0)


def _rms(a: np.ndarray) -> float:
    return float(np.sqrt(np.mean(np.abs(a) ** 2)))


def str_residual(candidate: StrCandidate, params: PhysicalParams) -> dict:
    """Normalised defects of the read-stage equations on the candidate.

    spin :  d/dtau2 M2 + (i d2 + gamma21) M2 - i r2 E2   at the subset nodes
    field:  d/dZ    E2 + i c2 S2
    Each is reported relative to its largest constituent term (RMS over the
    interior of the grids), so the result is invariant under both amplitude
    rescaling and joint unit changes.
    """
    t, z = candidate.tau2, candidate.z
    m2, e2, s2 = candidate.m2, candidate.e2, candidate.s2
    e_sub = e2[:, candidate.z_idx]
    dm_dt = np.gradient(m2, t, axis=0)
    term_rot = (1j * candidate.d2_nodes[None, None, :]
                + params.gamma21) * m2
    term_drive = 1j * candidate.r2 * e_sub[:, :, None]
    res_spin = (dm_dt + term_rot - term_drive)[1:-1]
    scale_spin = max(_rms(dm_dt[1:-1]), _rms(term_rot[1:-1]),
                     _rms(term_drive[1:-1]), 1e-300)
    de_dz = np.gradient(e2, z, axis=1)
    term_src = 1j * candidate.c2 * s2
    res_field = (de_dz + term_src)[1:-1, 1:-1]
    scale_field = max(_rms(de_dz[1:-1, 1:-1]), _rms(term_src[1:-1, 1:-1]),
                      1e-300)
    spin = _rms(res_spin) / scale_spin
    fld = _rms(res_field) / scale_field
    return {"spin": spin, "field": fld, "total": max(spin, fld)}


# ===================== waveform metrics =====================

def waveform_fidelity(input_env: FieldEnvelope, echo_env: FieldEnvelope,
                      eta: float, tau_echo: float) -> float:
    """Normalised overlap between the echo and the ideal reversed-compressed
    image of the input,

        F = |Int ref*(tau) E2(tau) dtau|^2 / (||ref||^2 ||E2||^2),
        ref(tau) = E1(-eta (tau - tau_echo)),

    tau_echo being the arrival time of the image of the input's time origin.
    Insensitive to global amplitude and phase; 1.0 means shape-perfect."""
    if eta <= 0:
        raise DomainError("eta must be positive")
    t2 = echo_env.axis
    ref = input_env.at(-eta * (t2 - tau_echo))
    norm_ref = np.trapezoid(np.abs(ref) ** 2, t2)
    norm_echo = np.trapezoid(np.abs(echo_env.samples) ** 2, t2)
    if norm_ref <= 0 or norm_echo <= 0:
        raise DomainError("fidelity undefined for an identically zero "
                          "waveform")
    overlap = np.trapezoid(np.conj(ref) * echo_env.samples, t2)
    return float(abs(overlap) ** 2 / (norm_ref * norm_echo))


def fwhm(env: FieldEnvelope) -> float:
    """Full width at half maximum of |samples|^2 around the global peak,
    with linear interpolation at the crossings."""
    y = np.abs(env.samples) ** 2
    x = env.axis
    ip = int(np.argmax(y))
    half = 0.5 * y[ip]
    if y[0] >= half or y[-1] >= half:
        raise DomainError("peak not resolved inside the axis range")
    i = ip
    while y[i] > half:
        i -= 1
    left = x[i] + (x[i + 1] - x[i]) * (half - y[i]) / (y[i + 1] - y[i])
    i = ip
    while y[i] > half:
        i += 1
    right = x[i - 1] + (x[i] - x[i - 1]) * (half - y[i - 1]) \
        / (y[i] - y[i - 1])
    return float(right - left)


def gem_gradient_flip(broadening: BroadeningSpec,
                      eta: float) -> BroadeningSpec:
    """Longitudinal-gradient analogue of the node relabelling: the read
    stage runs the gradient reversed and scaled, chi -> -eta*chi."""
    if not broadening.is_gradient:
        raise DomainError("gradient flip only applies to the "
                          "longitudinal-gradient variant")
    if eta <= 0:
        raise DomainError("eta must be positive")
    return broadening.replace(raman_width=-eta * broadening.chi)
