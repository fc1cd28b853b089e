import math

import numpy as np
import pytest
from scipy.integrate import cumulative_trapezoid

from ramanecho import mbsolver
from ramanecho.efficiency import (
    complex_line_depth,
    eps_tilde,
    resolve_coupling,
)
from ramanecho.mbsolver import (
    ControlSegment,
    _field_integral,
    control_value,
    echo_spectral_solution,
    gaussian_input,
    graded_z_grid,
    read_schedule,
    run_pipeline,
    simulate_retrieval_full,
    simulate_retrieval_reduced,
    simulate_storage_full,
    simulate_storage_reduced,
    stage_handoff_multipliers,
    stored_excitation,
    time_axis,
    write_schedule,
)
from ramanecho.params import (
    BroadeningSpec,
    DomainError,
    FieldEnvelope,
    PhysicalParams,
    gaussian_shape,
    quadrature_nodes,
)

GAUSS24 = gaussian_shape(0.3)                 # Gauss-Hermite node default
UNIFORM161 = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                            rule="uniform", n_default=161)


def _spectrum(env, nu):
    """Int E(t) exp(+i nu t) dt by direct quadrature (convention-explicit)."""
    phase = np.exp(1j * np.outer(nu, env.axis))
    return np.trapezoid(phase * env.samples[None, :], env.axis, axis=1)


@pytest.fixture(scope="module")
def write_run():
    # uniform nodes: discrete-comb revival sits at 2 pi / spacing ~ 420,
    # far outside the window (Gauss nodes revive near t ~ 90 here)
    p = PhysicalParams.make(delta01=20.0, optical_depth=2.0, tau0=110.0)
    p = resolve_coupling(p, UNIFORM161)
    t = np.linspace(0.0, 110.0, 881)
    env = gaussian_input(35.0, 10.0, t)
    res = simulate_storage_reduced(p, UNIFORM161, env, t_end=110.0,
                                   dtau=0.125, nz=32)
    return p, env, res


# ---------- write stage ----------

def test_write_energy_bookkeeping(write_run):
    p, env, res = write_run
    absorbed = res.energy_in - res.energy_out
    assert absorbed > 0
    assert res.stored == pytest.approx(absorbed, rel=0.01)


def test_write_transmission_matches_line_shape(write_run):
    p, env, res = write_run
    nu = np.linspace(-0.15, 0.15, 31)
    s_in = _spectrum(env, nu)
    s_out = _spectrum(res.field_out, nu)
    kap = np.array([complex_line_depth(p, UNIFORM161, v) for v in nu])
    want = s_in * np.exp(-0.5 * kap)
    assert np.max(np.abs(s_out - want)) < 0.01 * np.max(np.abs(want))


def test_write_stage_grid_convergence():
    p = PhysicalParams.make(delta01=20.0, optical_depth=2.0, tau0=50.0)
    p = resolve_coupling(p, UNIFORM161)
    t = np.linspace(0.0, 50.0, 401)
    env = gaussian_input(25.0, 7.0, t)

    def run(dtau, nz, n_nodes):
        r = simulate_storage_reduced(p, UNIFORM161, env, t_end=50.0,
                                     dtau=dtau, n_nodes=n_nodes, nz=nz)
        return r.energy_out

    base = run(0.125, 32, None)
    assert run(0.25, 32, None) == pytest.approx(base, rel=0.005)
    assert run(0.125, 16, None) == pytest.approx(base, rel=0.005)
    assert run(0.125, 32, 321) == pytest.approx(base, rel=0.005)


def test_write_requires_resolved_coupling():
    p = PhysicalParams.make(delta01=20.0, tau0=10.0)      # beta = 0
    t = np.linspace(0.0, 10.0, 81)
    with pytest.raises(DomainError):
        simulate_storage_reduced(p, GAUSS24, gaussian_input(5.0, 1.0, t),
                                 t_end=10.0)


def test_write_rejects_near_resonant_configuration():
    p = PhysicalParams.make(delta01=0.5, beta=10.0, tau0=10.0)
    t = np.linspace(0.0, 10.0, 81)
    with pytest.raises(DomainError):
        simulate_storage_reduced(p, GAUSS24, gaussian_input(5.0, 1.0, t),
                                 t_end=10.0)


def test_write_rejects_coarse_time_step():
    p = PhysicalParams.make(delta01=20.0, beta=10.0, tau0=10.0)
    wide = gaussian_shape(3.0)
    p = p.replace(delta01=40.0)          # keep off-resonant with wide line
    t = np.linspace(0.0, 10.0, 81)
    with pytest.raises(DomainError):
        simulate_storage_reduced(p, wide, gaussian_input(5.0, 1.0, t),
                                 t_end=10.0, dtau=0.125)


# ---------- read stage ----------

def test_read_energy_theorem(write_run):
    p, env, res = write_run
    ret = simulate_retrieval_reduced(p, UNIFORM161, res.m_final, res.z,
                                     res.d_nodes, res.weights, t_end=90.0,
                                     dtau=0.125)
    released = res.stored - ret.stored
    assert released > 0
    assert ret.energy_out == pytest.approx(released, rel=0.01)


def test_backward_readout_beats_forward_reabsorption():
    broad = UNIFORM161
    base = PhysicalParams.make(delta01=20.0, k_off=500.0, k_on=500.0,
                               tau0=70.0, tau_st=10.0, optical_depth=8.0)
    res_b = run_pipeline(base, broad, t_peak=35.0, sigma_t=10.0, dtau=0.125)
    res_f = run_pipeline(base, broad, t_peak=35.0, sigma_t=10.0, dtau=0.125,
                         direction="forward")
    assert res_b.eps_sim / res_f.eps_sim > 10.0


# ---------- full model ----------

@pytest.fixture(scope="module")
def full_write_case():
    p = PhysicalParams.make(delta01=10.0, optical_depth=2.0, tau0=40.0)
    p = resolve_coupling(p, GAUSS24)
    t = np.linspace(0.0, 40.0, 321)
    env = gaussian_input(20.0, 6.0, t)

    def run(dtau=None):
        return simulate_storage_full(p, GAUSS24, env, t_end=40.0, n_nodes=16,
                                     nz=24, dtau=dtau)
    return p, run, run()


def test_full_write_energy_bookkeeping(full_write_case):
    _, _, res = full_write_case
    absorbed = res.energy_in - res.energy_out
    assert res.stored == pytest.approx(absorbed, rel=0.02)


def test_full_write_default_step_matches_fine_step(full_write_case):
    # the default step sits at 75 % of the dtau * fastest <= 0.2 guard;
    # compare with a step that resolves the optical phase ~200 times a turn
    p, run, res = full_write_case
    fine = run(dtau=0.03 / abs(p.delta01))
    assert len(res.tau) < len(fine.tau) / 4
    a = res.field_out.samples
    ref = (np.interp(res.tau, fine.tau, fine.field_out.samples.real)
           + 1j * np.interp(res.tau, fine.tau, fine.field_out.samples.imag))
    l2 = np.sqrt(np.trapezoid(np.abs(a - ref) ** 2, res.tau)
                 / np.trapezoid(np.abs(ref) ** 2, res.tau))
    assert l2 < 1e-4


def test_full_write_default_step_resolves_the_control_ramp():
    # a k_off = 500 ramp-down is over in ~0.05: the default step must
    # resolve it as well as the optical phase (it fell within one step of
    # 0.15 / (|delta0| + Omega), 4e-4 off a fine step here)
    broad = BroadeningSpec(raman_kind="gaussian", raman_width=0.3,
                           rule="gauss", n_default=9)
    p = PhysicalParams.make(delta01=10.0, optical_depth=5.0, tau0=2.0,
                            k_off=500.0)
    p = resolve_coupling(p, broad)
    env = gaussian_input(1.0, 0.3, np.linspace(0.0, 2.1, 401))

    def run(dtau=None):
        return simulate_storage_full(
            p, broad, env, t_end=2.1, n_nodes=9, nz=24, dtau=dtau,
            control_schedule=write_schedule(p, 2.1))
    res = run()
    fine = run(dtau=(res.tau[1] - res.tau[0]) / 4.0)
    err = np.max(np.abs(res.r12 - fine.r12)) / np.max(np.abs(fine.r12))
    assert err < 1e-6


def test_full_read_energy_theorem():
    p = PhysicalParams.make(delta01=10.0, optical_depth=2.0)
    p = resolve_coupling(p, GAUSS24)
    nodes, weights = quadrature_nodes(gaussian_shape(0.05), 8)
    z = np.linspace(0.0, 1.0, 33)
    r12 = np.exp(-0.5 * ((z[:, None] - 0.5) / 0.2) ** 2) \
        * np.ones(8)[None, :] + 0j
    r13 = np.zeros_like(r12)
    stored0 = stored_excitation(p, z, weights, r13, r12)
    res = simulate_retrieval_full(p, gaussian_shape(0.05), r13, r12, z,
                                  nodes, np.zeros(8), weights, t_end=30.0)
    released = stored0 - res.stored
    assert released > 0
    assert res.energy_out == pytest.approx(released, rel=0.02)


def test_full_write_rejects_coarse_step():
    p = PhysicalParams.make(delta01=10.0, beta=10.0, tau0=10.0)
    t = np.linspace(0.0, 10.0, 81)
    with pytest.raises(DomainError):
        simulate_storage_full(p, GAUSS24, gaussian_input(5.0, 1.0, t),
                              t_end=10.0, dtau=0.1)


def test_full_read_rejects_coarse_step():
    p = PhysicalParams.make(delta01=10.0, beta=10.0)
    nodes, weights = quadrature_nodes(gaussian_shape(0.05), 4)
    z = np.linspace(0.0, 1.0, 9)
    r12 = np.ones((9, 4), complex)
    with pytest.raises(DomainError):
        simulate_retrieval_full(p, gaussian_shape(0.05), np.zeros_like(r12),
                                r12, z, nodes, np.zeros(4), weights,
                                t_end=1.0, dtau=0.1)


@pytest.mark.parametrize("model", ["reduced", "full"])
def test_read_rejects_unknown_direction_before_marching(model, monkeypatch):
    def no_march(*args):
        raise AssertionError("the read march ran before the direction check")
    monkeypatch.setattr(mbsolver, "_rk4_march", no_march)
    p = PhysicalParams.make(delta01=10.0, beta=10.0)
    nodes, weights = quadrature_nodes(gaussian_shape(0.05), 4)
    z = np.linspace(0.0, 1.0, 9)
    spin = np.ones((9, 4), complex)
    with pytest.raises(DomainError):
        if model == "reduced":
            simulate_retrieval_reduced(p, gaussian_shape(0.05), spin, z,
                                       nodes, weights, t_end=1.0, dtau=0.05,
                                       direction="backwards")
        else:
            simulate_retrieval_full(p, gaussian_shape(0.05),
                                    np.zeros_like(spin), spin, z, nodes,
                                    np.zeros(4), weights, t_end=1.0,
                                    direction="backwards")


@pytest.mark.parametrize("dtau", [0.0, -0.1, math.nan, math.inf, 1e-9])
def test_bad_time_step_is_a_domain_error(dtau):
    # 1e-9 would ask for ~7e10 time samples: rejected before allocation
    p = PhysicalParams.make(delta01=20.0, tau0=70.0, optical_depth=2.0)
    with pytest.raises(DomainError):
        run_pipeline(p, UNIFORM161, dtau=dtau)
    p = resolve_coupling(p, UNIFORM161)
    env = gaussian_input(35.0, 10.0, np.linspace(0.0, 70.0, 561))
    with pytest.raises(DomainError):
        simulate_storage_reduced(p, UNIFORM161, env, t_end=70.0, dtau=dtau)


def test_time_axis_budget():
    assert np.array_equal(time_axis(1.0, 0.25), [0.0, 0.25, 0.5, 0.75, 1.0])
    assert len(time_axis(1.0, 10.0)) == 2
    time_axis(1.0, 1e-3, nz=mbsolver.MAX_GRID_ELEMENTS // 1001)
    with pytest.raises(DomainError, match="grid elements"):
        time_axis(1.0, 1e-3, nz=mbsolver.MAX_GRID_ELEMENTS // 1000)


# ---------- shared march ----------

@pytest.mark.parametrize("sign", [+1, -1])
def test_field_integral_matches_scipy_trapezoid(sign):
    z = graded_z_grid(1.0, 40.0)
    rng = np.random.default_rng(3)
    s = rng.normal(size=len(z)) + 1j * rng.normal(size=len(z))
    got = _field_integral(s, 0.5 * np.diff(z), sign)
    if sign > 0:
        want = cumulative_trapezoid(s, z, initial=0.0)
    else:
        # Int_Z^L: the reversed cumulative integral runs over negative steps
        want = -cumulative_trapezoid(s[::-1], z[::-1], initial=0.0)[::-1]
    np.testing.assert_array_equal(got, want)


# ---------- closed-form spectral echo ----------

def test_spectral_echo_matches_simulation():
    broad = UNIFORM161
    p = PhysicalParams.make(delta01=20.0, eta=2.0, k_off=500.0, k_on=500.0,
                            tau0=70.0, tau_st=10.0, optical_depth=5.0)
    res = run_pipeline(p, broad, t_peak=35.0, sigma_t=10.0, dtau=0.125)
    nu = np.linspace(-0.5, 0.5, 51)
    got = np.abs(_spectrum(res.echo_env, nu))

    nu_in = np.linspace(-0.8, 0.8, 401)
    sigma_t = 10.0
    spec_in = FieldEnvelope(
        samples=(sigma_t * math.sqrt(2.0 * math.pi)
                 * np.exp(-0.5 * (sigma_t * nu_in) ** 2)).astype(complex),
        axis=nu_in, kind="freq")
    closed = echo_spectral_solution(res.params, broad, spec_in, nu_out=nu)
    want = np.abs(closed.samples)
    l2 = np.sqrt(np.trapezoid((got - want) ** 2, nu)
                 / np.trapezoid(want ** 2, nu))
    assert l2 < 0.03


def test_spectral_echo_scaling_prefactor():
    p = PhysicalParams.make(delta01=20.0, eta=4.0, optical_depth=200.0)
    p = resolve_coupling(p, GAUSS24)
    nu_in = np.linspace(-0.4, 0.4, 801)
    spec_in = FieldEnvelope(samples=np.exp(-0.5 * (nu_in / 0.05) ** 2)
                            .astype(complex), axis=nu_in, kind="freq")
    echo = echo_spectral_solution(p, GAUSS24, spec_in)
    # at full depth the image is the 1/sqrt(eta)-scaled mirrored spectrum
    amp = math.sqrt(eps_tilde(p, GAUSS24) / 4.0)
    peak = float(np.max(np.abs(echo.samples)))
    assert peak == pytest.approx(amp, rel=0.01)
    # frequency axis stretched by eta
    half = np.abs(echo.samples) >= 0.5 * peak
    width_out = echo.axis[half][-1] - echo.axis[half][0]
    assert width_out == pytest.approx(4.0 * 0.05 * 2.0 * math.sqrt(2.0 *
                                                                   math.log(2.0)),
                                      rel=0.05)


def test_spectral_echo_requires_matched_scalings():
    # omega2/delta02 equal to omega1/delta01 at eta = 2: the coupling ratio
    # lacks its sqrt(eta)
    p = PhysicalParams.make(delta01=20.0, eta=2.0, optical_depth=5.0,
                            omega2_rabi=1.0)
    p = resolve_coupling(p, GAUSS24)
    nu = np.linspace(-0.5, 0.5, 11)
    env = FieldEnvelope(samples=np.ones(11, complex), axis=nu, kind="freq")
    with pytest.raises(DomainError):
        echo_spectral_solution(p, GAUSS24, env)


def test_spectral_echo_requires_frequency_domain_input():
    p = PhysicalParams.make(delta01=20.0, eta=2.0, optical_depth=5.0)
    p = resolve_coupling(p, GAUSS24)
    t = np.linspace(0.0, 1.0, 11)
    env = FieldEnvelope(samples=np.ones(11, complex), axis=t, kind="time")
    with pytest.raises(DomainError):
        echo_spectral_solution(p, GAUSS24, env)


# ---------- pipeline ----------

def test_pipeline_echo_matches_budget_and_shape():
    broad = UNIFORM161
    p = PhysicalParams.make(delta01=20.0, eta=2.0, k_off=500.0, k_on=500.0,
                            tau0=70.0, tau_st=10.0, optical_depth=10.0)
    res = run_pipeline(p, broad, t_peak=35.0, sigma_t=10.0, dtau=0.125)
    assert res.eps_sim == pytest.approx(res.model.total, rel=0.05)
    # image of the input peak: reversed, compressed, delayed
    want_peak = (70.0 - 35.0 + 10.0) / 2.0
    assert res.tau2_peak == pytest.approx(want_peak, abs=res.retrieval.dtau)


def test_pipeline_input_must_fit_before_switching():
    p = PhysicalParams.make(delta01=20.0, tau0=30.0, optical_depth=5.0)
    with pytest.raises(DomainError):
        run_pipeline(p, UNIFORM161, t_peak=35.0, sigma_t=5.0)


def test_handoff_multipliers_preserve_excitation_for_fast_switches():
    p = PhysicalParams.make(delta01=20.0, k_off=500.0, k_on=500.0,
                            tau_st=10.0, optical_depth=5.0, beta=100.0)
    d = np.linspace(-1.2, 1.2, 9)
    mult = stage_handoff_multipliers(p, d)
    assert np.all(np.abs(np.abs(mult) - 1.0) < 5e-3)


# ---------- grids, inputs, schedules ----------

def test_graded_grid_refines_entrance_face():
    z = graded_z_grid(1.0, 40.0)
    assert z[0] == 0.0 and z[-1] == 1.0
    assert np.all(np.diff(z) > 0)
    dz = np.diff(z)
    assert dz[0] == pytest.approx(1.0 / 320.0, rel=1e-9)
    assert np.all(np.diff(dz) > -1e-15)          # spacing never shrinks


def test_graded_grid_uniform_when_thin():
    z = graded_z_grid(1.0, 2.0, n_uniform=40)
    assert len(z) == 41
    assert np.allclose(np.diff(z), 1.0 / 40.0)


def test_control_schedule_composition():
    p = PhysicalParams.make(delta01=10.0, tau0=20.0, k_off=2.0, k_on=4.0,
                            eta=4.0)
    ws = write_schedule(p, 30.0)
    assert control_value(ws, 10.0) == pytest.approx(1.0)
    assert control_value(ws, 21.0) == pytest.approx(math.exp(-2.0))
    rs = read_schedule(p, 5.0, 20.0)
    assert control_value(rs, 5.0) == pytest.approx(p.omega2_rabi)
    assert control_value(rs, 4.0) == pytest.approx(p.omega2_rabi
                                                   * math.exp(-4.0))
    assert control_value(rs, 10.0) == pytest.approx(p.omega2_rabi)
    assert control_value(rs, 25.0) == 0.0


def test_control_segment_validation():
    with pytest.raises(DomainError):
        ControlSegment(0.0, 0.0)
    with pytest.raises(DomainError):
        ControlSegment(0.0, 1.0, "warble")
    with pytest.raises(DomainError):
        ControlSegment(0.0, 1.0, "ramp_down", 1.0, 0.0)
