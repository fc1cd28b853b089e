"""Propagation solvers: full three-level dynamics and the reduced
(adiabatically eliminated) model, plus the end-to-end storage/retrieval
pipeline and the closed-form spectral echo solution.

Frames and conventions (group velocity 1, local time tau = t - z):

full model, write stage (stage 1, forward field A):
    dR13/dtau = -(i*delta01 + gamma31) R13 + i W(tau) R12 + i A
    dR12/dtau = -(i*Delta1 + gamma21) R12 + i W(tau) R13
    dA/dZ     = i (beta/2) sum_nodes w R13
with Delta1 the raw two-photon detuning of each node and W(tau) the write
control, Omega1 until tau0 and exp(-k_off (tau - tau0)) Omega1 after it.
Read stage (stage 2) runs under the constant control Omega2 and propagates
the field backward: dA/dZ flips sign and the boundary moves to Z = L.

reduced model, stage mu with coupling r = W_mu/delta0_mu:
    dM/dtau = -(i*Dt + gamma21) M + i r E
    dE/dZ   = (-1)^(mu+1) i (beta r / 2) sum_nodes w M
where Dt is the light-shift-corrected two-photon detuning and E, M carry the
refractive background phase stripped off:
    stage 1: E = A exp(-i beta Z / (2 delta01)),  M = R12 exp(-i beta Z / (2 delta01))
    stage 2: A = E exp(-i beta Z / (2 delta02)),  M = R12 exp(+i beta Z / (2 delta02))
The node grid `d` always means the stage-1 shifted detuning; a time-rescaled
read stage sees each node at -eta*d.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import efficiency, switching
from .params import (BroadeningSpec, DomainError, FieldEnvelope,
                     PhysicalParams, is_off_resonant,
                     quadrature_nodes, stark_shifted_detuning)

__all__ = [
    "StageResult",
    "PipelineResult",
    "graded_z_grid",
    "gaussian_input",
    "time_axis",
    "simulate_storage_reduced",
    "simulate_retrieval_reduced",
    "simulate_storage_full",
    "simulate_retrieval_full",
    "echo_spectral_solution",
    "stage_handoff_multipliers",
    "run_pipeline",
    "stored_excitation",
]


# ===================== result record =====================

@dataclass
class StageResult:
    """One stage of propagation on the (tau, z, node) grid.  m_final is the
    final spin coherence of either model: M in the reduced one, R12 in the
    full one, which adds the optical coherence r13.  Only the reduced model
    records the field and collective-spin histories."""

    tau: np.ndarray
    z: np.ndarray
    d_nodes: np.ndarray
    weights: np.ndarray
    field_out: FieldEnvelope
    m_final: np.ndarray                    # (nz, nd) at tau[-1]
    r13: np.ndarray | None = None          # (nz, nd) full model
    e_history: np.ndarray | None = None    # (nt, nz) reduced model
    s_history: np.ndarray | None = None    # (nt, nz): weighted node sum of M
    m_history: np.ndarray | None = None    # (nt, nz_sub, nd_sub) optional
    m_hist_z_idx: np.ndarray | None = None
    m_hist_d_idx: np.ndarray | None = None
    energy_in: float = 0.0
    energy_out: float = 0.0
    stored: float = 0.0

    @property
    def dtau(self) -> float:
        return float(self.tau[1] - self.tau[0])


# ===================== grids & inputs =====================

# The graded grid's spacing grows by this factor per cell, up to this
# fraction of the medium length.
_Z_GROWTH = 1.15
_Z_MAX_FRAC = 1.0 / 40.0


def graded_z_grid(length: float, depth: float, n_uniform: int = 48):
    """Spatial grid refined toward the entrance face when the medium is
    optically thick; uniform otherwise.  First spacing ~ 1/(8*depth)
    absorption lengths, growing geometrically to length/40."""
    if depth <= 8.0:
        return np.linspace(0.0, length, n_uniform + 1)
    dz = length / (8.0 * depth)
    dz_max = length * _Z_MAX_FRAC
    pts = [0.0]
    while pts[-1] < length:
        pts.append(pts[-1] + dz)
        dz = min(dz * _Z_GROWTH, dz_max)
    pts[-1] = length
    if pts[-1] - pts[-2] < 0.25 * dz_max:
        del pts[-2]
    return np.asarray(pts)


def gaussian_input(t_peak: float, sigma_t: float,
                   axis: np.ndarray) -> FieldEnvelope:
    samples = np.exp(-0.5 * ((axis - t_peak) / sigma_t) ** 2)
    return FieldEnvelope(samples=samples.astype(complex), axis=axis,
                         z=0.0, direction="forward", kind="time")


def _midpoints(tau: np.ndarray) -> np.ndarray:
    return tau[:-1] + 0.5 * (tau[1] - tau[0])


def _sample_input(env: FieldEnvelope | None, tau: np.ndarray):
    """Input envelope at tau and at the step midpoints, zero outside its
    axis and everywhere when the stage has no input (env None)."""
    if env is None:
        return np.zeros(len(tau), complex), np.zeros(len(tau) - 1, complex)
    return env.at(tau), env.at(_midpoints(tau))


# ===================== shared stage set-up and march =====================

# Largest (time samples x z points) of one run: 1e7 complex elements are
# 160 MB per (tau, z) history array of a reduced stage.
MAX_GRID_ELEMENTS = 10_000_000


def time_axis(t_end: float, dtau: float, nz: int = 1) -> np.ndarray:
    """Axis from 0 to t_end at step ~dtau (at least two points), checked
    before it is allocated: dtau and t_end finite and > 0, and the axis
    times nz z points within MAX_GRID_ELEMENTS."""
    if not (0 < dtau < math.inf and t_end > 0
            and (t_end / dtau + 1) * nz <= MAX_GRID_ELEMENTS):
        raise DomainError(f"time axis needs finite dtau, t_end > 0 and <= "
                          f"{MAX_GRID_ELEMENTS:.0e} grid elements; got dtau ="
                          f" {dtau!r}, t_end = {t_end!r} on {nz} z points")
    return np.linspace(0.0, t_end, max(int(round(t_end / dtau)) + 1, 2))


def _stage_grid(params, t_end, dtau, fastest, limit, direction, nz):
    """Uniform time grid of one stage run on nz z points, with the sign of
    its field integral and the z index where the field leaves: +1 and Z = L
    forward, -1 and Z = 0 backward.  Every run needs beta resolved, a known
    direction and a step that resolves its fastest rate, dtau * fastest <=
    limit."""
    if params.beta <= 0:
        raise DomainError("params.beta must be resolved (> 0) before a run; "
                          "see efficiency.resolve_coupling")
    if direction not in ("forward", "backward"):
        raise DomainError(f"direction must be forward/backward, got "
                          f"{direction!r}")
    if dtau * fastest > limit:
        raise DomainError(f"time step {dtau:g} too coarse for rate "
                          f"{fastest:g} (need dtau * rate <= {limit:g})")
    tau = time_axis(t_end, dtau, nz)
    return (tau, -1, 0) if direction == "backward" else (tau, +1, -1)


def _exit_field(samples, tau, z, exit_idx, direction):
    """Envelope of the field leaving the medium at z[exit_idx]: Z = L for
    a forward stage, Z = 0 for a backward one."""
    return FieldEnvelope(samples=samples, axis=tau, z=float(z[exit_idx]),
                         direction=direction, kind="time")


def _field_integral(s: np.ndarray, hz: np.ndarray, sign: int) -> np.ndarray:
    """Trapezoid integral of s over the medium the field has already
    crossed: Int_0^Z for a forward field (sign > 0), Int_Z^L for a backward
    one, which enters at Z = L.  hz = 0.5 * diff(z).

    Both models propagate as dE/dZ = sign * i c S with E = E_in at the
    entrance face, so E(Z) = E_in + i c * (this integral) either way."""
    out = np.empty_like(s)
    terms = hz * (s[1:] + s[:-1])
    if sign > 0:
        out[0] = 0.0
        terms.cumsum(out=out[1:])
    else:
        out[-1] = 0.0
        terms[::-1].cumsum(out=out[-2::-1])
    return out


def _rk4_march(y, tau, drive, drive_mid, deriv, record):
    """Classical RK4 over the uniform grid tau, shared by both models.

    deriv(y, u) returns (dy/dtau, field) for the state y under the external
    inputs u; drive[i] holds them at tau[i] and drive_mid[i] at
    tau[i] + h/2, sampled once per run.  record(i, y, field) keeps what the
    caller wants at tau[i]; the field comes from the k1 evaluation."""
    h = tau[1] - tau[0]
    last = len(tau) - 1
    for i in range(last):
        k1, f = deriv(y, drive[i])
        record(i, y, f)
        k2, _ = deriv(y + 0.5 * h * k1, drive_mid[i])
        k3, _ = deriv(y + 0.5 * h * k2, drive_mid[i])
        k4, _ = deriv(y + h * k3, drive[i + 1])
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    record(last, y, deriv(y, drive[last])[1])
    return y


def stored_excitation(params, z, weights, *coherences) -> float:
    """(beta/2) integral over Z of the weighted node sum of the summed
    |coherence|^2: the spin M alone in the reduced model, R13 and R12 in
    the full one."""
    dens = sum(np.abs(c) ** 2 for c in coherences) @ weights
    return float(0.5 * params.beta * np.trapezoid(dens, z))


# ===================== reduced solver =====================

def _reduced_stage(params, grid, direction, z, d_nodes, weights, env, stage,
                   m_init, m_subset=None) -> StageResult:
    """Reduced model: the field is algebraic in M, so the marching state is
    just the (nz, nd) spin array.  env is the input field (None: no
    input); m_subset = (z indices, node indices) keeps that corner of the M
    history."""
    tau, sign, exit_idx = grid
    e_in = _sample_input(env, tau)
    r = params.omega(stage) / params.delta0(stage)
    ir = 1j * r
    ic = 1j * (0.5 * params.beta * r)
    dt_nodes = d_nodes if stage == 1 else -params.eta * d_nodes
    lam = -(1j * dt_nodes + params.gamma21)          # (nd,)
    hz = 0.5 * np.diff(z)
    nt, nz = len(tau), len(z)
    e_hist = np.empty((nt, nz), dtype=complex)
    s_hist = np.empty((nt, nz), dtype=complex)
    z_idx = d_idx = m_hist = None
    if m_subset is not None:
        z_idx, d_idx = map(np.asarray, m_subset)
        sub = np.ix_(z_idx, d_idx)
        m_hist = np.empty((nt, len(z_idx), len(d_idx)), dtype=complex)

    def deriv(m, e0):
        s = m @ weights
        e = e0 + ic * _field_integral(s, hz, sign)
        return lam * m + ir * e[:, None], (e, s)

    def record(i, m, es):
        e_hist[i], s_hist[i] = es
        if m_hist is not None:
            m_hist[i] = m[sub]

    m = _rk4_march(m_init.astype(complex), tau, e_in[0], e_in[1], deriv,
                   record)
    out = _exit_field(e_hist[:, exit_idx], tau, z, exit_idx, direction)
    return StageResult(tau=tau, z=z, d_nodes=d_nodes, weights=weights,
                       field_out=out, m_final=m, e_history=e_hist,
                       s_history=s_hist, m_history=m_hist,
                       m_hist_z_idx=z_idx, m_hist_d_idx=d_idx,
                       energy_in=float(np.trapezoid(np.abs(e_in[0]) ** 2,
                                                    tau)),
                       energy_out=out.energy(),
                       stored=stored_excitation(params, z, weights, m))


def simulate_storage_reduced(params: PhysicalParams,
                             broadening: BroadeningSpec,
                             input_field: FieldEnvelope, *,
                             t_end: float,
                             dtau: float = 0.125,
                             n_nodes: int | None = None,
                             nz: int = 48,
                             m_subset=None) -> StageResult:
    """Write-stage run of the reduced model with constant write control.
    The step must resolve the detuning span, dtau * span <= 0.5 with
    span = max|d| + gamma21.

    Returns the transmitted field at Z = L, the final spin array and the
    field / collective-spin histories."""
    if not is_off_resonant(params, broadening, stage=1):
        raise DomainError("reduced model outside its validity range: "
                          "|delta01| must exceed the Rabi frequency and "
                          "broadening widths")
    d_nodes, weights = quadrature_nodes(broadening, n_nodes, line="raman")
    depth = efficiency.line_center_depth(params, broadening)
    z = graded_z_grid(params.medium_length, depth, n_uniform=nz)
    grid = _stage_grid(params, t_end, dtau,
                       np.max(np.abs(d_nodes)) + params.gamma21, 0.5,
                       "forward", len(z))
    return _reduced_stage(params, grid, "forward", z, d_nodes, weights,
                          input_field, 1, np.zeros((len(z), len(d_nodes))),
                          m_subset)


def simulate_retrieval_reduced(params: PhysicalParams,
                               m_initial: np.ndarray,
                               z: np.ndarray,
                               d_nodes: np.ndarray,
                               weights: np.ndarray, *,
                               t_end: float,
                               dtau: float,
                               direction: str = "backward") -> StageResult:
    """Read-stage run of the reduced model from a prepared spin array.

    The node grid is still the stage-1 shifted detuning; each node evolves at
    -eta*d, so the step must satisfy dtau * (eta max|d| + gamma21) <= 0.5.
    direction='backward' (the echo direction) integrates the field from
    Z = L toward 0; 'forward' keeps the write-stage geometry to expose the
    reabsorption penalty."""
    grid = _stage_grid(params, t_end, dtau,
                       np.max(np.abs(params.eta * d_nodes)) + params.gamma21,
                       0.5, direction, len(z))
    return _reduced_stage(params, grid, direction, z, d_nodes, weights, None,
                          2, m_initial)


# ===================== full solver =====================

def _raw_two_photon(params, d_nodes, stage):
    """Raw two-photon detuning that puts the stage's shifted detuning at the
    requested node value: stage 1 at +d, a time-rescaled stage 2 at -eta*d."""
    d = np.atleast_1d(d_nodes)
    target = d if stage == 1 else -params.eta * d
    return stark_shifted_detuning(params, target, stage, inverse=True)


def _control(params, stage, tau):
    """Control Rabi frequency at the times tau.  The write control is
    Omega1 up to tau0 and Omega1 exp(-k_off (tau - tau0)) after it; the
    read control is the constant Omega2."""
    if stage == 2:
        return np.full(len(tau), params.omega2_rabi)
    return params.omega1_rabi * np.exp(
        -params.k_off * np.maximum(tau - params.tau0, 0.0))


def _full_stage(params, grid, direction, z, d_nodes, weights, env, stage,
                y0) -> StageResult:
    """Full model on the stacked state y = (R13, R12), shape (2, nz, nd).
    env is the input field (None: no input)."""
    tau, sign, exit_idx = grid
    a_in = _sample_input(env, tau)
    raw = _raw_two_photon(params, d_nodes, stage)
    lam = np.empty((2, 1, len(raw)), dtype=complex)
    lam[0] = -(1j * params.delta0(stage) + params.gamma31)
    lam[1] = -(1j * raw + params.gamma21)
    ihb = 1j * (0.5 * params.beta)
    hz = 0.5 * np.diff(z)
    iw = [1j * _control(params, stage, ts) for ts in (tau, _midpoints(tau))]
    a_exit = np.empty(len(tau), dtype=complex)

    def deriv(y, u):
        a = u[0] + ihb * _field_integral(y[0] @ weights, hz, sign)
        dy = lam * y + u[1] * y[::-1]
        dy[0] += 1j * a[:, None]
        return dy, a

    def record(i, y, a):
        a_exit[i] = a[exit_idx]

    y = _rk4_march(y0.astype(complex), tau, list(zip(a_in[0], iw[0])),
                   list(zip(a_in[1], iw[1])), deriv, record)
    out = _exit_field(a_exit, tau, z, exit_idx, direction)
    return StageResult(
        tau=tau, z=z, d_nodes=d_nodes, weights=weights, field_out=out,
        m_final=y[1], r13=y[0],
        energy_in=float(np.trapezoid(np.abs(a_in[0]) ** 2, tau)),
        energy_out=out.energy(),
        stored=stored_excitation(params, z, weights, y[0], y[1]))


def simulate_storage_full(params: PhysicalParams,
                          broadening: BroadeningSpec,
                          input_field: FieldEnvelope, *,
                          t_end: float,
                          dtau: float | None = None,
                          n_nodes: int | None = None,
                          nz: int = 48) -> StageResult:
    """Write-stage run of the full three-level model (no adiabatic
    elimination) under the write control of `_control`.  fastest =
    |delta01| + Omega1, plus k_off when t_end > tau0; RK4 resolves the
    optical phase and the ramp while dtau * fastest <= 0.2, and the default
    step is 0.15 / fastest."""
    d_nodes, weights = quadrature_nodes(broadening, n_nodes, line="raman")
    ramp = params.k_off if t_end > params.tau0 else 0.0
    fastest = abs(params.delta01) + params.omega1_rabi + ramp
    if dtau is None:
        dtau = 0.15 / fastest
    depth = efficiency.line_center_depth(params, broadening)
    z = graded_z_grid(params.medium_length, depth, n_uniform=nz)
    grid = _stage_grid(params, t_end, dtau, fastest, 0.2, "forward", len(z))
    return _full_stage(params, grid, "forward", z, d_nodes, weights,
                       input_field, 1, np.zeros((2, len(z), len(d_nodes))))


def simulate_retrieval_full(params: PhysicalParams,
                            r13_init: np.ndarray, r12_init: np.ndarray,
                            z: np.ndarray, d_nodes: np.ndarray,
                            weights: np.ndarray, *,
                            t_end: float,
                            dtau: float | None = None,
                            direction: str = "backward") -> StageResult:
    """Read-stage run of the full model from prepared coherence arrays under
    the constant read control Omega2.  d_nodes is the write stage's node
    grid; each node runs at the raw detuning that puts its shifted one at
    -eta*d.  The step follows the write-stage rule with delta02 and
    Omega2."""
    fastest = abs(params.delta02) + params.omega2_rabi
    if dtau is None:
        dtau = 0.15 / fastest
    grid = _stage_grid(params, t_end, dtau, fastest, 0.2, direction, len(z))
    return _full_stage(params, grid, direction, z, d_nodes, weights, None, 2,
                       np.stack([r13_init, r12_init]))


# ===================== closed-form spectral echo =====================

def echo_spectral_solution(params: PhysicalParams,
                           broadening: BroadeningSpec,
                           input_spectrum: FieldEnvelope,
                           nu_out: np.ndarray | None = None) -> FieldEnvelope:
    """Frequency-domain echo prediction for the time-rescaled read-out:

        E2(nu) = sqrt(eps~ / eta) E1(-nu/eta) (1 - exp(-kappa_c(-nu/eta)))

    with eps~ the switching/decay part of the efficiency budget and kappa_c
    the complex line depth of the write stage.  Output times are measured
    from the arrival of the image of the input's time origin (apply an extra
    exp(i nu T) for a different epoch).  Only the matched coupling ratio
    (omega2/delta02)^2 = eta (omega1/delta01)^2 admits this closed form.
    """
    eta = params.eta
    if not math.isclose((params.omega2_rabi / params.delta02) ** 2,
                        eta * (params.omega1_rabi / params.delta01) ** 2,
                        rel_tol=1e-12):
        raise DomainError("closed-form echo requires (omega2/delta02)^2 = "
                          "eta (omega1/delta01)^2")
    if input_spectrum.kind != "freq":
        raise DomainError("input_spectrum must be a frequency-domain envelope")
    if nu_out is None:
        nu_out = -eta * input_spectrum.axis[::-1]
    nu_src = -nu_out / eta
    e1 = input_spectrum.at(nu_src)
    kap = np.array([efficiency.complex_line_depth(params, broadening, nu)
                    for nu in nu_src])
    amp = math.sqrt(efficiency.eps_tilde(params, broadening) / eta)
    samples = amp * e1 * (1.0 - np.exp(-kap))
    return FieldEnvelope(samples=samples, axis=np.asarray(nu_out, float),
                         z=0.0, direction="backward", kind="freq")


# ===================== pipeline =====================

def stage_handoff_multipliers(params: PhysicalParams, d_nodes: np.ndarray):
    """Per-node factor applied to the stored spin wave between the write and
    read runs: exact switch-off transfer, free precession over the storage
    interval at the raw (unshifted) detuning, then the read-ramp partition
    with the optical component entering at its adiabatic weight."""
    on = switching.switch_on_coefficients(params)
    w2 = params.omega2_rabi / params.delta02
    on_factor = on.c12 + 1j * w2 * on.c13
    mult = np.empty(len(d_nodes), dtype=complex)
    for i, d in enumerate(d_nodes):
        raw = stark_shifted_detuning(params, d, 1, inverse=True)
        pre = switching.init_coherence_after_storage(params, 0.0, raw, 1.0)
        pair = switching.CoherencePair(r12=1.0 + 0.0j,
                                       r13=pre.r13 / pre.r12)
        off = switching.switch_off_asymptotic(params, pair, 0.0, raw)
        interval = np.exp(-(1j * raw + params.gamma21) * params.tau_st)
        mult[i] = off.r12 * interval * on_factor
    return mult


# The read window runs this many input widths (sigma_t, compressed by eta)
# past the image of the input's time origin.
_RETRIEVAL_MARGIN = 12.0


@dataclass
class PipelineResult:
    params: PhysicalParams
    broadening: BroadeningSpec
    input_env: FieldEnvelope
    echo_env: FieldEnvelope
    storage: StageResult
    retrieval: StageResult
    eps_sim: float
    t_peak_in: float
    tau2_peak: float
    delay: float
    tau_echo_origin: float
    model: "efficiency.EfficiencyBreakdown"


def run_pipeline(params: PhysicalParams, broadening: BroadeningSpec, *,
                 t_peak: float = 35.0, sigma_t: float = 10.0,
                 dtau: float = 0.125, n_nodes: int | None = None,
                 nz: int = 48, direction: str = "backward",
                 m_subset=None) -> PipelineResult:
    """Full storage -> switch maps -> read-out chain on the reduced model.

    The switch transients are applied as instantaneous per-node maps at the
    write/read boundaries; tau_st is the control-off interval between them.
    """
    if params.tau0 <= t_peak:
        raise DomainError("tau0 must lie beyond the input peak")
    p = params
    if p.beta <= 0:
        p = efficiency.resolve_coupling(p, broadening)
    breakdown = efficiency.overall_efficiency(p, broadening)
    env_in = gaussian_input(t_peak, sigma_t, time_axis(p.tau0, dtau))
    storage = simulate_storage_reduced(p, broadening, env_in, t_end=p.tau0,
                                       dtau=dtau, n_nodes=n_nodes, nz=nz,
                                       m_subset=m_subset)
    mult = stage_handoff_multipliers(p, storage.d_nodes)
    m2 = storage.m_final * mult[None, :]
    eta = p.eta
    t_end2 = (p.tau0 + p.tau_st) / eta + _RETRIEVAL_MARGIN * sigma_t / eta \
        + 8.0 * dtau
    dtau2 = dtau / eta if eta > 1 else dtau
    retrieval = simulate_retrieval_reduced(
        p, m2, storage.z, storage.d_nodes, storage.weights, t_end=t_end2,
        dtau=dtau2, direction=direction)
    echo = retrieval.field_out
    eps_sim = echo.energy() / storage.energy_in if storage.energy_in else 0.0
    ip = int(np.argmax(np.abs(env_in.samples)))
    ie = int(np.argmax(np.abs(echo.samples)))
    t_peak_meas = float(env_in.axis[ip])
    tau2_peak = float(echo.axis[ie])
    delay = (p.tau0 - t_peak_meas) + p.tau_st + tau2_peak
    return PipelineResult(
        params=p, broadening=broadening, input_env=env_in, echo_env=echo,
        storage=storage, retrieval=retrieval, eps_sim=eps_sim,
        t_peak_in=t_peak_meas, tau2_peak=tau2_peak, delay=delay,
        tau_echo_origin=(p.tau0 + p.tau_st) / eta, model=breakdown)
