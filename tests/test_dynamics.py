"""Open-system evolution: bath rates, the dual-route solver check, and fits."""
import math

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.integrate import solve_ivp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kerrcat import (BathSpec, DensityMatrix, DetuningNoise, JumpTerm,
                     KerrCatParams, Ket, Schedule, Truncation, XGateSpec,
                     annihilation, bose_einstein, build_cat_frame,
                     build_dephasing, build_full_dissipators,
                     build_nrwa_dissipators, build_rwa_dissipators,
                     coherent_state, creation,
                     default_snail, default_truncation, evolve, evolve_ket,
                     fit_exponential, fock_state, kerr_cat_hamiltonian,
                     lifetime_T_alpha, lifetime_T_C, liouvillian_matrix, nbar_time_avg,
                     number_operator, plateau_bath, standard_bath, tc_tradeoff,
                     x_gate_schedule)
from kerrcat import dynamics
from kerrcat.dynamics import _lifetime_truncation, _real_liouvillian
from kerrcat.errors import (DimMismatch, FitDiverged, NonFiniteState,
                            NonPositiveTemperature, NotHermitian, ZeroG3)
from kerrcat.fock import Operator
from kerrcat.kernels import (NOENV, RK_A, RK_B, RK_C, RK_E, default_max_step,
                             gershgorin_range, se_step)
from kerrcat.units import MHZ

K = MHZ * 1.2


# -------------------------------------------------------------- thermal rates

def test_bose_einstein_frozen_values():
    # x = hbar*omega/(k_B T) with omega = 2*pi*5.9 GHz, T = 73.5 mK -> n = 0.0217
    assert bose_einstein(MHZ * 5900.0, 73.5) == pytest.approx(0.0217, abs=2e-4)
    # full drive frequency at the hotter effective bath temperature
    assert bose_einstein(MHZ * 11800.0, 515.0) == pytest.approx(0.4996, abs=2e-3)


def test_bose_einstein_limits():
    with pytest.raises(NonPositiveTemperature):
        bose_einstein(MHZ * 100.0, -1.0)
    assert bose_einstein(MHZ * 5900.0, 1e-6) == 0.0
    # classical limit n -> kT/(hbar omega)
    omega, temp = MHZ * 1.0, 1e5
    x = omega / (130.920339 * temp)
    assert bose_einstein(omega, temp) == pytest.approx(1.0 / x, rel=1e-2)


@given(st.floats(min_value=1.0, max_value=1000.0),
       st.floats(min_value=10.0, max_value=1000.0))
def test_bose_einstein_monotone_in_temperature(omega_mhz, temp):
    omega = MHZ * omega_mhz
    assert bose_einstein(omega, temp * 1.1) > bose_einstein(omega, temp)


def test_bath_scaling_and_plateau():
    bath = standard_bath()
    assert bath.kappa_half == pytest.approx(1.0 / 38.5)
    assert bath.kappa_full == pytest.approx(7.0)
    assert bath.kappa_phi == pytest.approx(MHZ * 1e-4)
    doubled = bath.scaled(2.0)
    assert doubled.kappa_half == pytest.approx(2.0 / 38.5)
    assert doubled.T_half == bath.T_half  # temperatures are not rates
    assert doubled.n_half == pytest.approx(bath.n_half)
    pb = plateau_bath(0.05)
    assert pb.n_half == pytest.approx(0.05, rel=1e-9)


def test_dissipator_builders():
    tr = Truncation(8)
    bath = standard_bath()
    rwa = build_rwa_dissipators(bath, tr)
    assert len(rwa) == 2
    heat, cool = rwa
    assert heat.rate == pytest.approx(bath.kappa_half * bath.n_half)
    assert cool.rate == pytest.approx(bath.kappa_half * (1 + bath.n_half))
    assert np.allclose(heat.operator.mat, creation(tr).mat)
    assert np.allclose(cool.operator.mat, annihilation(tr).mat)

    nrwa = build_nrwa_dissipators(bath, default_snail(), 4 * K, tr)
    c1 = 8 * (MHZ * 15) / (3 * MHZ * 11800)
    assert c1 == pytest.approx(3.3898e-3, rel=1e-4)
    a = annihilation(tr).mat
    got_heat = nrwa[0].operator.mat
    assert got_heat[2, 0] == pytest.approx(c1 * math.sqrt(2), rel=1e-12)

    deph = build_dephasing(bath, tr)
    assert len(deph) == 1 and deph[0].rate == pytest.approx(MHZ * 1e-4)
    full = build_full_dissipators(bath, default_snail(), 4 * K, tr)
    assert len(full) == len(rwa) + len(nrwa) + len(deph)
    with pytest.raises(ZeroG3):
        build_nrwa_dissipators(bath, default_snail().__class__(omega_a0=MHZ * 5900.0),
                               4 * K, tr)


def test_jump_term_rejects_negative_rate():
    with pytest.raises(ValueError):
        JumpTerm(annihilation(Truncation(4)), -0.1)


@pytest.mark.parametrize("rate", [math.nan, math.inf])
def test_jump_term_rejects_nonfinite_rate(rate):
    # a NaN rate fails `rate > 0`, so evolve would drop the jump without a word
    with pytest.raises(ValueError, match="finite and >= 0"):
        JumpTerm(annihilation(Truncation(4)), rate)


# ----------------------------------------------------------------- evolution

def _random_lindblad(rng, dim, njump):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = Operator(((m + m.conj().T) / 2).astype(complex), Truncation(dim),
                 hermitian_hint=True)
    jumps = []
    for _ in range(njump):
        l = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append(JumpTerm(Operator(0.5 * l, Truncation(dim)),
                              float(rng.uniform(0.1, 1.0))))
    return h, jumps


def test_evolve_matches_liouvillian_exponential():
    rng = np.random.default_rng(2)
    for dim, njump in ((4, 1), (6, 2)):
        h, jumps = _random_lindblad(rng, dim, njump)
        rho0 = fock_state(0, Truncation(dim)).to_density_matrix()
        times = np.array([0.0, 0.35])
        res = evolve(rho0, h, jumps, times)
        sup = liouvillian_matrix(h, jumps)
        want = (scipy.linalg.expm(sup * times[-1])
                @ rho0.mat.reshape(-1)).reshape(dim, dim)
        assert np.max(np.abs(res.final_state.mat - want)) < 1e-7


def test_liouvillian_action_matches_rhs_sampling():
    # dual-route consistency: superoperator action == direct RHS evaluation
    rng = np.random.default_rng(5)
    dim = 5
    h, jumps = _random_lindblad(rng, dim, 2)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    sup = liouvillian_matrix(h, jumps)
    route_a = (sup @ rho.reshape(-1)).reshape(dim, dim)
    hm = h.mat
    route_b = -1j * (hm @ rho - rho @ hm)
    for j in jumps:
        l = j.scaled_matrix()
        route_b += l @ rho @ l.conj().T - 0.5 * (l.conj().T @ l @ rho
                                                 + rho @ l.conj().T @ l)
    assert np.max(np.abs(route_a - route_b)) < 1e-12


def test_evolve_preserves_trace_and_positivity():
    p = KerrCatParams(K=K, eps2=2 * K)
    tr = default_truncation(p.alpha)
    h = kerr_cat_hamiltonian(p, tr)
    jumps = [JumpTerm(annihilation(tr), 0.5)]
    rho0 = fock_state(0, tr).to_density_matrix()
    res = evolve(rho0, h, jumps, np.linspace(0, 0.5, 6),
                 {"n": number_operator(tr)})
    assert res.trace_drift < 1e-8
    evals = np.linalg.eigvalsh(res.final_state.mat)
    assert evals.min() > -1e-8
    assert res.observables["n"].shape == (6,)


@settings(deadline=None, max_examples=25)
@given(dim=st.integers(2, 8), njump=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1), rate_scale=st.sampled_from([0.1, 1.0, 30.0]),
       t0=st.floats(-1.0, 1.0),
       gaps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=5))
def test_evolve_constant_generator_matches_expm_and_stepper(dim, njump, seed,
                                                            rate_scale, t0, gaps):
    # the constant route against expm of the dense Liouvillian, and so is
    # the CF4 route of schedules (reached through an all-zero envelope), on
    # non-uniform sample times; rate_scale 30 makes both split into substeps
    rng = np.random.default_rng(seed)
    tr = Truncation(dim)
    h, jumps = _random_lindblad(rng, dim, njump)
    jumps = [JumpTerm(j.operator, j.rate * rate_scale) for j in jumps]
    obs = number_operator(tr)
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = b @ b.conj().T
    rho0 = DensityMatrix((rho / np.trace(rho).real).astype(complex), tr)
    times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])

    res = evolve(rho0, h, jumps, times, {"n": obs})
    zero = Schedule(h, [(np.zeros(2), obs)], dt=times[-1] - times[0], t0=times[0])
    stepped = evolve(rho0, zero, jumps, times, {"n": obs})
    assert res.nsteps >= times.size - 1 and stepped.nsteps > 0
    sup = liouvillian_matrix(h, jumps)
    for j, t in enumerate(times):
        want = (scipy.linalg.expm(sup * (t - times[0]))
                @ rho0.mat.reshape(-1)).reshape(dim, dim)
        n_want = float(np.real(np.trace(obs.mat @ want)))
        assert res.observables["n"][j] == pytest.approx(n_want, abs=1e-9)
        assert stepped.observables["n"][j] == pytest.approx(n_want, abs=1e-7)
    assert np.max(np.abs(res.final_state.mat - want)) < 1e-9
    assert np.max(np.abs(stepped.final_state.mat - want)) < 1e-7
    assert res.trace_drift < 1e-10


def test_evolve_constant_generator_takes_one_exponential_per_interval():
    # the cost of the constant route: one exponential of the whole generator
    # per interval between samples, cut into pieces by the damping rule at d;
    # a schedule with (all-zero) envelopes takes two half-exponentials per
    # interval, so its pieces are cut at d/2
    tr = Truncation(5)
    h = number_operator(tr)
    jumps = [JumpTerm(annihilation(tr), 40.0), JumpTerm(number_operator(tr), 5.0)]
    times = np.array([0.0, 0.02, 0.3, 0.35, 1.2])
    d = dynamics._sparse_liouvillian(h.mat, [j.scaled_matrix() for j in jumps])[2]

    def pieces(damping):
        return sum(max(1, math.ceil(dt * damping / dynamics.CHEB_DAMPING_STEP))
                   for dt in np.diff(times))

    rho0 = fock_state(2, tr).to_density_matrix()
    zero = Schedule(h, [(np.zeros(2), annihilation(tr))], dt=times[-1] - times[0])
    assert pieces(d / 2) < pieces(d)
    assert evolve(rho0, h, jumps, times).nsteps == pieces(d)
    assert evolve(rho0, zero, jumps, times).nsteps == pieces(d / 2)


@settings(deadline=None, max_examples=30)
@given(dim=st.integers(2, 8), njump=st.integers(0, 3),
       seed=st.integers(0, 2**32 - 1))
def test_hermitian_basis_makes_the_liouvillian_real(dim, njump, seed):
    # the change of basis of the density-matrix route against the dense
    # oracle: Q L Q† is real and is the route's real generator, and Q is
    # unitary
    rng = np.random.default_rng(seed)
    h, jumps = _random_lindblad(rng, dim, njump)
    Q, Lr, _ = _real_liouvillian(h.mat, [j.scaled_matrix() for j in jumps])
    q = Q.toarray()
    want = q @ liouvillian_matrix(h, jumps) @ q.conj().T
    assert np.max(np.abs(want.imag)) < 1e-12
    assert np.max(np.abs(want.real - Lr.toarray())) < 1e-12
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    vec = (b + b.conj().T).reshape(-1)
    x = Q @ vec
    assert np.max(np.abs(x.imag)) < 1e-12
    assert np.max(np.abs(Q.conj().T @ x - vec)) < 1e-12


def test_evolve_zero_generator_keeps_state():
    tr = Truncation(4)
    h = Operator(np.zeros((4, 4), dtype=complex), tr, hermitian_hint=True)
    rho0 = fock_state(2, tr).to_density_matrix()
    res = evolve(rho0, h, [], np.array([0.0, 0.5, 3.0]))
    assert np.max(np.abs(res.final_state.mat - rho0.mat)) < 1e-15


def test_evolve_rejects_non_hermitian_constant_h():
    tr = Truncation(3)
    h = Operator(np.triu(np.ones((3, 3))) * 1j, tr)
    with pytest.raises(NotHermitian):
        evolve(fock_state(0, tr).to_density_matrix(), h, [], np.array([0.0, 1.0]))


def test_evolve_ket_matches_exponential_and_preserves_norm():
    rng = np.random.default_rng(9)
    dim = 6
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = Operator(((m + m.conj().T) / 2).astype(complex), Truncation(dim),
                 hermitian_hint=True)
    psi0 = fock_state(0, Truncation(dim))
    times = np.array([0.0, 0.8])
    res = evolve_ket(psi0, h, times)
    want = scipy.linalg.expm(-1j * h.mat * times[-1]) @ psi0.amp
    assert np.max(np.abs(res.final_ket.amp - want)) < 1e-7
    assert res.final_ket.norm() == pytest.approx(1.0, abs=1e-7)


@settings(deadline=None, max_examples=25)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       t0=st.floats(-1.0, 1.0),
       gaps=st.lists(st.floats(0.01, 1.0), min_size=1, max_size=6))
def test_evolve_ket_constant_h_is_exact_at_every_sample(dim, seed, t0, gaps):
    # the eigendecomposition path against expm(-iHt) psi0 and the RK stepper,
    # on non-uniform sample times
    rng = np.random.default_rng(seed)
    tr = Truncation(dim)

    def random_hermitian():
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return Operator((m + m.conj().T) / 2, tr, hermitian_hint=True)

    h, obs = random_hermitian(), random_hermitian()
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 = Ket(amp / np.linalg.norm(amp), tr)
    times = t0 + np.concatenate([[0.0], np.cumsum(gaps)])

    res = evolve_ket(psi0, h, times, {"o": obs})
    assert res.nsteps == 0
    assert res.trace_drift < 1e-12
    max_step = default_max_step(gershgorin_range(h.mat))
    stepped, h_next = psi0.amp.copy(), max_step
    for j, t in enumerate(times):
        want = scipy.linalg.expm(-1j * h.mat * (t - times[0])) @ psi0.amp
        if j:
            stepped, h_next, status, _ = se_step(
                stepped, times[j - 1], t, h.mat, *NOENV, 1e-11, 1e-13,
                max_step, h_next, RK_A, RK_B, RK_C, RK_E)
            assert status == 0
            got = evolve_ket(psi0, h, times[:j + 1]).final_ket
            assert np.max(np.abs(got.amp - want)) < 1e-7
            assert np.max(np.abs(got.amp - stepped)) < 1e-7
            assert abs(got.norm() - 1.0) < 1e-12
        o_want = float(np.real(np.vdot(want, obs.mat @ want)))
        o_stepped = float(np.real(np.vdot(stepped, obs.mat @ stepped)))
        assert res.observables["o"][j] == pytest.approx(o_want, abs=1e-7)
        assert res.observables["o"][j] == pytest.approx(o_stepped, abs=1e-7)


def test_evolve_ket_rejects_non_hermitian_constant_h():
    tr = Truncation(3)
    h = Operator(np.triu(np.ones((3, 3))) * 1j, tr)
    with pytest.raises(NotHermitian):
        evolve_ket(fock_state(0, tr), h, np.array([0.0, 1.0]))


def test_evolve_ket_rejects_non_hermitian_schedule_h0():
    # the CF4 route bounds the spectrum of h0 with eigvalsh, which reads one
    # triangle only
    tr = Truncation(3)
    h = Operator(np.triu(np.ones((3, 3))) * 1j, tr)
    sched = Schedule(h, [(np.ones(3), number_operator(tr))], dt=0.5)
    with pytest.raises(NotHermitian):
        evolve_ket(fock_state(0, tr), sched, np.array([0.0, 1.0]))


def test_schedule_envelope_matches_folded_constant():
    dim = 5
    tr = Truncation(dim)
    rng = np.random.default_rng(1)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0 = Operator(((h0m + h0m.conj().T) / 2).astype(complex), tr,
                  hermitian_hint=True)
    c0 = 0.25 + 0.1j
    t1 = 0.6
    env = np.full(13, c0)
    sched = Schedule(h0, [(env, Operator(m, tr))], dt=t1 / 12)
    psi0 = fock_state(1, tr)
    res_env = evolve_ket(psi0, sched, np.array([0.0, t1]))
    folded = Operator(h0.mat + c0 * m + np.conj(c0) * m.conj().T, tr,
                      hermitian_hint=True)
    res_fold = evolve_ket(psi0, folded, np.array([0.0, t1]))
    assert np.max(np.abs(res_env.final_ket.amp - res_fold.final_ket.amp)) < 1e-8


@pytest.mark.parametrize("run", ["evolve", "evolve_ket"])
def test_evolve_raises_on_nonfinite_state(run):
    # finite envelope samples and operator whose drive bound overflows to inf
    tr = Truncation(20)
    a = annihilation(tr)
    kerr = Operator(-(a.mat.conj().T @ a.mat.conj().T @ a.mat @ a.mat), tr,
                    hermitian_hint=True)
    sched = Schedule(kerr, [(np.full(9, 1e300), Operator(1e10 * a.mat, tr))], dt=0.05)
    psi0 = coherent_state(1.5, tr)
    times = np.array([0.0, 0.2, 0.4])
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(NonFiniteState, match="at t = 0 us"):
        if run == "evolve":
            evolve(psi0.to_density_matrix(), sched, [], times)
        else:
            evolve_ket(psi0, sched, times)


@pytest.mark.parametrize("run", ["evolve", "evolve_ket"])
@pytest.mark.parametrize("state_dim,obs_dim", [(10, 12), (12, 10)])
def test_evolve_rejects_a_state_or_observable_of_another_dim(run, state_dim, obs_dim):
    h = number_operator(Truncation(12))
    psi0 = fock_state(0, Truncation(state_dim))
    obs = {"n": number_operator(Truncation(obs_dim))}
    times = np.array([0.0, 1.0])
    with pytest.raises(DimMismatch):
        if run == "evolve":
            evolve(psi0.to_density_matrix(), h, [], times, obs)
        else:
            evolve_ket(psi0, h, times, obs)


@pytest.mark.parametrize("bad", [np.array([0.1, np.nan, 0.2]),
                                 np.array([0.1, 0.2, np.inf * 1j]),
                                 np.array([0.3]), np.zeros((2, 2))])
def test_schedule_rejects_bad_envelope(bad):
    tr = Truncation(3)
    with pytest.raises(ValueError):
        Schedule(number_operator(tr), [(bad, annihilation(tr))], dt=0.1)


@pytest.mark.parametrize("run", ["evolve", "evolve_ket"])
def test_sample_times_must_lie_on_the_envelope_grid(run):
    # grid 0.1 .. 0.5 in steps of 0.1; rounding of ~1e-9 dt is forgiven
    tr = Truncation(4)
    sched = Schedule(number_operator(tr), [(np.full(5, 0.2 + 0.1j), annihilation(tr))],
                     dt=0.1, t0=0.1)
    psi0 = fock_state(1, tr)

    def go(times):
        if run == "evolve":
            return evolve(psi0.to_density_matrix(), sched, [], times).final_state.mat
        return evolve_ket(psi0, sched, times).final_ket.amp

    assert np.all(np.isfinite(go(np.array([0.1 - 1e-12, 0.3, 0.5 + 1e-12]))))
    for times in ([0.1, 0.3, 0.5 + 1e-6], [0.1 - 1e-6, 0.3], [0.2, 0.7]):
        with pytest.raises(ValueError, match="envelope grid"):
            go(np.array(times))


@settings(deadline=None, max_examples=50)
@given(dim=st.integers(2, 8), nenv=st.integers(1, 2), nsamp=st.integers(2, 12),
       dt=st.floats(0.005, 0.01), t0=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True),
       real=st.booleans())
def test_evolve_ket_schedule_matches_dop853(dim, nenv, nsamp, dt, t0, seed, fractions,
                                            real):
    # CF4 on random schedules (non-Hermitian complex drives, sample times off
    # the envelope grid) against solve_ivp on the linearly interpolated H(t);
    # the real leg (real h0, operators and envelopes, a complex ket) leaves
    # CF4 no imaginary term
    rng = np.random.default_rng(seed)
    tr = Truncation(dim)

    def cmat():
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        return m.real.astype(complex) if real else m

    def unit(m):
        return m / np.linalg.norm(m, 2)

    def hermitian():
        m = cmat()
        return Operator(unit(m + m.conj().T), tr, hermitian_hint=True)

    h0, obs = hermitian(), hermitian()
    ops = [Operator(unit(cmat()), tr) for _ in range(nenv)]
    envs = [rng.uniform(-1, 1, nsamp) + 1j * rng.uniform(-1, 1, nsamp) * (not real)
            for _ in range(nenv)]
    sched = Schedule(h0, list(zip(envs, ops)), dt=dt, t0=t0)
    grid = t0 + dt * np.arange(nsamp)
    times = np.unique(t0 + (nsamp - 1) * dt * np.array(fractions))
    assume(times.size >= 2 and np.min(np.diff(times)) > 1e-6)
    amp = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 = Ket(amp / np.linalg.norm(amp), tr)

    res = evolve_ket(psi0, sched, times, {"o": obs})

    def rhs(t, y):
        h = h0.mat.copy()
        for env, op in zip(envs, ops):
            c = np.interp(t, grid, env.real) + 1j * np.interp(t, grid, env.imag)
            h += c * op.mat + np.conj(c) * op.mat.conj().T
        return -1j * (h @ y)

    sol = solve_ivp(rhs, (times[0], times[-1]), psi0.amp, method="DOP853",
                    rtol=1e-12, atol=1e-12, t_eval=times)
    assert sol.success
    want = [float(np.real(np.vdot(y, obs.mat @ y))) for y in sol.y.T]
    assert np.max(np.abs(res.observables["o"] - want)) < 1e-6
    assert np.max(np.abs(res.final_ket.amp - sol.y[:, -1])) < 1e-6
    assert res.trace_drift < 1e-12
    # one interval per piece of the envelope grid cut at the sample times
    # (a grid point within rounding of a sample time cuts nothing)
    gap = np.min(np.abs(grid[:, None] - times[None, :]), axis=1)
    inside = np.sum((grid > times[0]) & (grid < times[-1]) & (gap > 1e-9 * dt))
    assert res.nsteps == times.size - 1 + inside


@pytest.mark.parametrize("layout", ["fortran", "sliced"])
def test_cf4_ket_block_layout_leaves_result_and_input_unchanged(layout):
    # a ket block that is not C-contiguous advances as its C-ordered copy,
    # and the caller's array is not written
    rng = np.random.default_rng(7)
    dim, nb = 6, 3
    tr = Truncation(dim)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    sched = Schedule(Operator((m + m.conj().T) / 2, tr, hermitian_hint=True),
                     [(rng.uniform(-1, 1, 6) + 1j * rng.uniform(-1, 1, 6),
                       annihilation(tr))], dt=0.01)
    times = np.array([0.0, 0.03, 0.05])
    block = rng.normal(size=(dim, nb)) + 1j * rng.normal(size=(dim, nb))
    if layout == "fortran":
        y = np.asfortranarray(block)
    else:
        y = np.repeat(block, 2, axis=1)[:, ::2]
        assert np.array_equal(y, block)
    assert not y.flags.c_contiguous
    kept = y.copy()
    want = [s for s, _, _ in dynamics._cf4(sched, times, block)]
    got = [s for s, _, _ in dynamics._cf4(sched, times, y)]
    assert np.array_equal(y, kept)
    assert np.max(np.abs(np.array(got) - np.array(want))) < 1e-14


def _plain_series(A, v, coef, sign):
    """sum_k coef[k] P_k v by the three-term recurrence, P_0 = 1, P_1 = A/2,
    P_{k+1} = A P_k + sign P_{k-1}, with A @ x and fresh arrays; also
    sum_k |coef[k]| max|P_k v|, the scale of its round-off."""
    t_prev, t_cur = v, 0.5 * (A @ v)
    acc = coef[0] * t_prev + coef[1] * t_cur
    scale = abs(coef[0]) * np.max(np.abs(t_prev)) + abs(coef[1]) * np.max(np.abs(t_cur))
    for c in coef[2:]:
        t_prev, t_cur = t_cur, A @ t_cur + sign * t_prev
        acc = acc + c * t_cur
        scale += abs(c) * np.max(np.abs(t_cur))
    return acc, scale


@settings(deadline=None, max_examples=60)
@given(route=st.sampled_from(["rho", "ket"]), n=st.integers(2, 40),
       nq=st.integers(1, 3), nb=st.integers(1, 4), nterms=st.integers(2, 40),
       layout=st.sampled_from(["C", "fortran", "sliced"]),
       seed=st.integers(0, 2**32 - 1))
def test_chebyshev_series_matches_plain_recurrence(route, n, nq, nb, nterms, layout,
                                                   seed):
    # each term of _chebyshev_series is one in-place multiply-accumulate
    # (csr_matvec for a CSR stack, dgemm for a dense one); it must sum the
    # same polynomial as the plain recurrence, and leave v as it was
    rng = np.random.default_rng(seed)
    blocks = [scipy.sparse.random(n, n, density=min(1.0, 4.0 / n), random_state=rng)
              .toarray() * rng.normal() for _ in range(nq)]
    blocks = [b / max(1.0, np.abs(b).sum(axis=1).max()) for b in blocks]
    if route == "rho":  # real CSR stack, real block and weights, sign +1
        nb, sign, dtype = 1, 1, float
        M = scipy.sparse.csr_matrix(np.hstack(blocks))
        v = rng.normal(size=(n, nb))
        w = rng.normal(size=(nq, nb))
        coef = rng.normal(size=nterms)
    else:  # dense real stack, complex block and weights, sign -1
        sign, dtype = -1, complex
        M = np.hstack(blocks)
        v = rng.normal(size=(n, nb)) + 1j * rng.normal(size=(n, nb))
        w = rng.normal(size=(nq, nb)) + 1j * rng.normal(size=(nq, nb))
        coef = rng.normal(size=nterms) + 1j * rng.normal(size=nterms)
    w[0] = 1.0
    if layout == "fortran":
        v = np.asfortranarray(v)
    elif layout == "sliced":
        v = np.repeat(v, 2, axis=0)[::2]
    kept = v.copy()
    got = dynamics._chebyshev_series(M, w, v, coef)
    assert np.array_equal(v, kept)
    assert got.shape == v.shape and got.dtype == dtype
    for b in range(nb):
        A = sum(w[q, b] * blocks[q] for q in range(nq))
        want, scale = _plain_series(A, v[:, b], coef, sign)
        assert np.max(np.abs(got[:, b] - want)) <= 1e-13 * scale


def test_chebyshev_series_rejects_a_csr_stack_of_another_shape():
    # csr_matvec reads x and writes y without bounds checks
    M = scipy.sparse.csr_matrix(np.ones((4, 8)))
    with pytest.raises(ValueError, match="CSR stack"):
        dynamics._chebyshev_series(M, np.ones((3, 1)), np.ones((4, 1)), np.ones(3))
    with pytest.raises(ValueError, match="CSR stack"):
        dynamics._chebyshev_series(M, np.ones((2, 2)), np.ones((4, 2)), np.ones(3))


@pytest.mark.parametrize("route", ["rho", "ket"])
def test_cf4_yields_states_that_later_terms_do_not_overwrite(route):
    # the series rotates two buffers in place; every yielded state must be an
    # array of its own, since evolve_ket and chevron_map keep them
    rng = np.random.default_rng(11)
    dim, tr = 5, Truncation(5)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    sched = Schedule(Operator((m + m.conj().T) / 2, tr, hermitian_hint=True),
                     [(rng.uniform(-1, 1, 9) + 1j * rng.uniform(-1, 1, 9),
                       annihilation(tr))], dt=0.01)
    times = np.array([0.0, 0.015, 0.03, 0.05, 0.07, 0.08])
    if route == "rho":
        y, Ls = np.eye(dim, dtype=complex).reshape(-1) / dim, [annihilation(tr).mat]
    else:
        y, Ls = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3)), None
    states = dynamics._cf4(sched, times, y, Ls)
    kept = [(s, s.copy()) for s, _, _ in states]
    assert len(kept) == times.size - 1
    for s, copy in kept:
        assert np.array_equal(s, copy)
    assert all(not np.shares_memory(a, b) for (a, _), (b, _) in zip(kept, kept[1:]))


def _series_sizes(monkeypatch) -> list:
    """The number of coordinates of every Chebyshev series run from now on."""
    sizes, series = [], dynamics._chebyshev_series

    def recording(M, w, v, coef):
        sizes.append(v.shape[0])
        return series(M, w, v, coef)
    monkeypatch.setattr(dynamics, "_chebyshev_series", recording)
    return sizes


def test_chebyshev_term_counts_are_pinned(monkeypatch):
    # the matrix products of three fixed runs: any change to the series that
    # keeps its polynomial keeps these counts, and so does running a
    # lifetime in one relative-parity block of rho
    sizes = _series_sizes(monkeypatch)
    p = KerrCatParams(K=K, eps2=4.0 * K)
    tr = default_truncation(p.alpha)
    jumps = build_full_dissipators(standard_bath().scaled(100.0), default_snail(),
                                   p.eps2, tr)
    times = np.linspace(0.0, 40.0, 161)
    # criterion 4's T_alpha run at alpha^2 = 4 (one trial, early stop), on
    # both blocks from |w+><w+| and on the odd block alone
    noise = DetuningNoise(mean=0.03 * K, std=0.002 * K, trials=1, seed=0)
    h = kerr_cat_hamiltonian(KerrCatParams(K=K, eps2=p.eps2,
                                           detuning=float(noise.draws()[0])), tr)
    frame = build_cat_frame(h)
    res = evolve(frame.w_plus.to_density_matrix(), h, jumps, times,
                 {"z": frame.z}, early_stop=("z", dynamics.LIFETIME_EARLY_STOP))
    assert (res.times.size, res.nsteps, res.nterms) == (30, 319, 63481)
    assert set(sizes) == {784}
    sizes.clear()
    z, nterms = dynamics._pointer_z(h, [j.scaled_matrix() for j in jumps], frame,
                                    times, stop=True)
    assert (z.size, nterms) == (30, 63481)
    assert set(sizes) == {392}
    sizes.clear()
    # criterion 4's T_C run at alpha^2 = 4, in the even block
    h = kerr_cat_hamiltonian(p, tr)
    frame = build_cat_frame(h)
    res = evolve(frame.v_even.to_density_matrix(), h, jumps, np.linspace(0.0, 0.4, 121))
    assert (res.nsteps, res.nterms) == (120, 6360)
    assert set(sizes) == {392}
    # the chevron's design cell, one closed X(pi/2) gate
    sched = x_gate_schedule(XGateSpec(Tg=0.32, delta0=-8.2 * K), p, tr)
    res = evolve_ket(frame.w_plus, sched, np.array([0.0, 0.32]))
    assert (res.nsteps, res.nterms) == (320, 12160)
    assert evolve_ket(frame.w_plus, h, np.array([0.0, 0.32])).nterms == 0


def _cross_block_entries(M: scipy.sparse.csr_matrix) -> int:
    nev = (M.shape[0] + 1) // 2
    return M[:nev, nev:].count_nonzero() + M[nev:, :nev].count_nonzero()


@pytest.mark.parametrize("rate_scale", [1.0, 100.0])
@pytest.mark.parametrize("detuning_over_k", [0.0, 0.03, 2.0])
@pytest.mark.parametrize("alpha_sq", [1.0, 4.0, 8.0])
def test_liouvillian_splits_exactly_by_relative_parity(alpha_sq, detuning_over_k,
                                                       rate_scale):
    # every generator of the density-matrix route has definite photon-number
    # parity, so L_r and the X gate's drive terms (a†² and n) have no
    # nonzero entry between the even and the odd block
    p = KerrCatParams(K=K, eps2=alpha_sq * K, detuning=detuning_over_k * K)
    tr = default_truncation(p.alpha)
    jumps = build_full_dissipators(standard_bath().scaled(rate_scale),
                                   default_snail(), p.eps2, tr)
    Q, Lr, _ = _real_liouvillian(kerr_cat_hamiltonian(p, tr).mat,
                                 [j.scaled_matrix() for j in jumps])
    # the even block, i + j even, is the first half of the coordinates
    q = Q.tocoo()
    assert np.array_equal(q.row < (tr.dim ** 2 + 1) // 2,
                          (q.col // tr.dim + q.col % tr.dim) % 2 == 0)
    assert Lr.nnz > 0 and _cross_block_entries(Lr) == 0
    a = annihilation(tr).mat
    for M in (a.conj().T @ a.conj().T, number_operator(tr).mat):
        for P in (M + M.conj().T, 1j * (M - M.conj().T)):
            drive = (Q @ (-1j * dynamics._ad(P)) @ Q.conj().T).real
            assert _cross_block_entries(drive) == 0


def test_parity_breaking_jump_advances_both_blocks(monkeypatch):
    # with a jump a + 1, rho0 = |2><2| in the even block leaks into the odd
    # one: _cf4 must advance all of x and still match the dense exponential;
    # with the jump a alone it advances the even block only
    sizes = _series_sizes(monkeypatch)
    tr = Truncation(6)
    a = annihilation(tr)
    a2 = a.mat @ a.mat
    h = Operator(-K * a2.conj().T @ a2 + K * (a2 + a2.conj().T)
                 - 0.3 * K * number_operator(tr).mat, tr, hermitian_hint=True)
    rho0 = fock_state(2, tr).to_density_matrix()
    times = np.array([0.0, 0.4, 1.0])
    odd = (np.add.outer(np.arange(6), np.arange(6)) % 2).astype(bool)
    for jump, nsize in ((Operator(a.mat + np.eye(6), tr), 36), (a, 18)):
        jumps = [JumpTerm(jump, 0.7)]
        sizes.clear()
        res = evolve(rho0, h, jumps, times)
        want = (scipy.linalg.expm(liouvillian_matrix(h, jumps) * times[-1])
                @ rho0.mat.reshape(-1)).reshape(6, 6)
        assert np.max(np.abs(res.final_state.mat - want)) < 1e-10
        assert set(sizes) == {nsize}
        assert (np.max(np.abs(want[odd])) > 1e-3) == (nsize == 36)


def test_pointer_lifetime_under_a_parity_breaking_jump_keeps_both_blocks(monkeypatch):
    # a jump a + 0.3 feeds the even part of |w+><w+| into <Z>: the run must
    # start from the whole pointer state and match public evolve on it
    sizes = _series_sizes(monkeypatch)
    p = KerrCatParams(K=K, eps2=1.0 * K)
    tr = default_truncation(p.alpha)
    jumps = [JumpTerm(Operator(annihilation(tr).mat + 0.3 * np.eye(tr.dim), tr), 2.0)]
    t_alpha, _ = lifetime_T_alpha(p, jumps, None, t_max=4.0, trunc=tr)
    assert set(sizes) == {tr.dim ** 2}
    h = kerr_cat_hamiltonian(p, tr)
    frame = build_cat_frame(h)
    times = np.linspace(0.0, 4.0, 161)
    res = evolve(frame.w_plus.to_density_matrix(), h, jumps, times, {"z": frame.z},
                 early_stop=("z", dynamics.LIFETIME_EARLY_STOP))
    ref = fit_exponential(res.times, res.observables["z"]).T
    assert t_alpha == pytest.approx(ref, rel=1e-9)


@pytest.mark.parametrize("alpha_sq", [1.0, 4.0])
def test_one_block_lifetimes_equal_the_two_block_route(alpha_sq):
    # T_alpha and T_C from the lifetime functions (one block each) against
    # the same fits on public evolve runs that advance both blocks
    p = KerrCatParams(K=K, eps2=alpha_sq * K)
    tr = default_truncation(p.alpha)
    jumps = build_full_dissipators(standard_bath().scaled(100.0), default_snail(),
                                   p.eps2, tr)
    noise = DetuningNoise(mean=0.03 * K, std=0.002 * K, trials=1, seed=0)
    t_alpha, _ = lifetime_T_alpha(p, jumps, noise, t_max=40.0, trunc=tr)
    h = kerr_cat_hamiltonian(KerrCatParams(K=K, eps2=p.eps2,
                                           detuning=float(noise.draws()[0])), tr)
    frame = build_cat_frame(h)
    times = np.linspace(0.0, 40.0, 161)
    res = evolve(frame.w_plus.to_density_matrix(), h, jumps, times, {"z": frame.z},
                 early_stop=("z", dynamics.LIFETIME_EARLY_STOP))
    z, nterms = dynamics._pointer_z(h, [j.scaled_matrix() for j in jumps], frame,
                                    times, stop=True)
    assert nterms == res.nterms
    assert np.max(np.abs(z - res.observables["z"])) < 1e-12
    ref = fit_exponential(res.times, res.observables["z"]).T
    assert t_alpha == pytest.approx(ref, rel=1e-9)

    # <X> of |v_e><v_e| from two two-block runs: psi = cos(th) v_e + sin(th) v_o
    # gives <X>(t) = cos²(th) X_e(t) + sin²(th) X_o(t)
    t_c, _ = lifetime_T_C(p, jumps, t_max=0.4, trunc=tr)
    h = kerr_cat_hamiltonian(p, tr)
    frame = build_cat_frame(h)
    times = np.linspace(0.0, 0.4, dynamics.LIFETIME_WINDOWS + 1)
    runs = [evolve(Ket(math.cos(th) * frame.v_even.amp + math.sin(th) * frame.v_odd.amp,
                       tr).to_density_matrix(), h, jumps, times, {"x": frame.x})
            for th in (math.pi / 6, math.pi / 3)]
    x_even = (3.0 * runs[0].observables["x"] - runs[1].observables["x"]) / 2.0
    one = evolve(frame.v_even.to_density_matrix(), h, jumps, times, {"x": frame.x})
    assert runs[0].nterms == runs[1].nterms == one.nterms
    assert np.max(np.abs(x_even - one.observables["x"])) < 1e-12
    ref = fit_exponential(times, x_even, with_offset=True).T
    assert t_c == pytest.approx(ref, rel=1e-9)


@settings(deadline=None, max_examples=25)
@given(dim=st.integers(2, 6), nenv=st.integers(1, 2), njump=st.integers(0, 3),
       rate_scale=st.sampled_from([0.1, 1.0, 30.0]), nsamp=st.integers(2, 8),
       dt=st.floats(0.005, 0.01), t0=st.floats(-1.0, 1.0),
       seed=st.integers(0, 2**32 - 1),
       fractions=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=5, unique=True))
def test_evolve_schedule_matches_dop853(dim, nenv, njump, rate_scale, nsamp, dt, t0,
                                        seed, fractions):
    # CF4 on vec(rho) for random schedules (non-Hermitian complex drives,
    # sample times off the envelope grid, 0-3 unit-norm jumps at rates up to
    # 30/us) against solve_ivp on the Lindblad equation written out here;
    # without jumps it must equal |psi><psi| of the ket route
    rng = np.random.default_rng(seed)
    tr = Truncation(dim)

    def cmat():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))

    def unit(m):
        return m / np.linalg.norm(m, 2)

    def hermitian():
        m = cmat()
        return Operator(unit(m + m.conj().T), tr, hermitian_hint=True)

    h0, obs = hermitian(), hermitian()
    ops = [Operator(unit(cmat()), tr) for _ in range(nenv)]
    envs = [rng.uniform(-1, 1, nsamp) + 1j * rng.uniform(-1, 1, nsamp)
            for _ in range(nenv)]
    jumps = [JumpTerm(Operator(unit(cmat()), tr), float(rng.uniform(0.1, 1.0)) * rate_scale)
             for _ in range(njump)]
    sched = Schedule(h0, list(zip(envs, ops)), dt=dt, t0=t0)
    grid = t0 + dt * np.arange(nsamp)
    times = np.unique(t0 + (nsamp - 1) * dt * np.array(fractions))
    assume(times.size >= 2 and np.min(np.diff(times)) > 1e-6)
    amp = cmat()[0]
    psi0 = Ket(amp / np.linalg.norm(amp), tr)

    res = evolve(psi0.to_density_matrix(), sched, jumps, times, {"o": obs})

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = h0.mat.copy()
        for env, op in zip(envs, ops):
            c = np.interp(t, grid, env.real) + 1j * np.interp(t, grid, env.imag)
            h += c * op.mat + np.conj(c) * op.mat.conj().T
        out = -1j * (h @ rho - rho @ h)
        for j in jumps:
            l = j.scaled_matrix()
            ldl = l.conj().T @ l
            out += l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        return out.reshape(-1)

    sol = solve_ivp(rhs, (times[0], times[-1]), psi0.to_density_matrix().mat.reshape(-1),
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=times)
    assert sol.success
    rhos = sol.y.T.reshape(-1, dim, dim)
    want = [float(np.real(np.trace(obs.mat @ rho))) for rho in rhos]
    assert np.max(np.abs(res.observables["o"] - want)) < 1e-6
    assert np.max(np.abs(res.final_state.mat - rhos[-1])) < 1e-6
    assert res.trace_drift < 1e-10
    ket = evolve_ket(psi0, sched, times, {"o": obs})
    assert res.nsteps >= ket.nsteps  # more when damping substeps cut intervals
    if not jumps:
        assert res.nsteps == ket.nsteps
        psi = ket.final_ket.amp
        assert np.max(np.abs(res.final_state.mat - np.outer(psi, psi.conj()))) < 1e-12
        assert np.max(np.abs(res.observables["o"] - ket.observables["o"])) < 1e-12


@pytest.mark.parametrize("rate", [300.0, 3000.0])
def test_evolve_schedule_damping_substeps_match_dop853(rate):
    # strong loss against a 10 ns grid: CF4 cuts every interval into pieces
    # with (piece) * d/2 <= CHEB_DAMPING_STEP (d = 6 rate for this jump, so
    # 3 and 23 pieces); a smooth drive on the non-Hermitian a, checked
    # against solve_ivp
    dim, dt = 4, 0.01
    tr = Truncation(dim)
    a = annihilation(tr)
    h0 = Operator(np.diag(np.arange(dim)).astype(complex), tr, hermitian_hint=True)
    grid = dt * np.arange(11)
    env = np.sin(20.0 * grid).astype(complex)
    sched = Schedule(h0, [(env, a)], dt=dt)
    jump = JumpTerm(a, rate)
    times = np.array([0.0, 0.033, 0.1])
    rho0 = fock_state(1, tr).to_density_matrix()
    res = evolve(rho0, sched, [jump], times, {"n": number_operator(tr)})
    assert res.nsteps > 11

    def rhs(t, y):
        rho = y.reshape(dim, dim)
        h = h0.mat + np.interp(t, grid, env.real) * (a.mat + a.mat.conj().T)
        l = jump.scaled_matrix()
        ldl = l.conj().T @ l
        out = -1j * (h @ rho - rho @ h) + l @ rho @ l.conj().T - 0.5 * (ldl @ rho + rho @ ldl)
        return out.reshape(-1)

    sol = solve_ivp(rhs, (0.0, 0.1), rho0.mat.reshape(-1), method="DOP853",
                    rtol=1e-12, atol=1e-13, t_eval=times)
    assert sol.success
    rhos = sol.y.T.reshape(-1, dim, dim)
    want = [float(np.real(np.trace(number_operator(tr).mat @ r))) for r in rhos]
    assert np.max(np.abs(res.observables["n"] - want)) < 1e-6
    assert np.max(np.abs(res.final_state.mat - rhos[-1])) < 1e-6


def test_early_stop_truncates_trace():
    tr = Truncation(6)
    h = Operator(np.zeros((6, 6), dtype=complex), tr, hermitian_hint=True)
    jumps = [JumpTerm(annihilation(tr), 2.0)]
    rho0 = fock_state(3, tr).to_density_matrix()
    res = evolve(rho0, h, jumps, np.linspace(0, 8, 81),
                 {"n": number_operator(tr)}, early_stop=("n", 1.0))
    assert res.times.size < 81
    assert res.observables["n"][-1] <= 1.0 + 1e-6


# --------------------------------------------------------------------- fits

def test_fit_exponential_recovers_parameters():
    t = np.linspace(0, 5, 120)
    y = 0.9 * np.exp(-t / 1.7)
    fit = fit_exponential(t, y)
    assert fit.T == pytest.approx(1.7, rel=1e-6)
    assert fit.amplitude == pytest.approx(0.9, rel=1e-6)
    y_off = 0.7 * np.exp(-t / 0.9) + 0.25
    fit2 = fit_exponential(t, y_off, with_offset=True)
    assert fit2.T == pytest.approx(0.9, rel=1e-6)
    assert fit2.offset == pytest.approx(0.25, abs=1e-6)


def test_fit_exponential_flags_its_log_linear_fallback(monkeypatch):
    t = np.linspace(0, 5, 120)
    y = 0.7 * np.exp(-t / 0.9) + 0.25
    assert not fit_exponential(t, y, with_offset=True).fell_back

    def no_convergence(*args, **kwargs):
        raise RuntimeError("Optimal parameters not found")
    monkeypatch.setattr(dynamics, "curve_fit", no_convergence)
    fit = fit_exponential(t, y, with_offset=True)
    m = y > dynamics.FIT_FLOOR
    slope, intercept = np.polyfit(t[m], np.log(y[m]), 1)
    assert fit.fell_back
    assert fit.T == pytest.approx(-1.0 / slope, rel=1e-9)
    assert fit.amplitude == pytest.approx(math.exp(intercept), rel=1e-9)
    assert fit.offset == 0.0


def test_fit_exponential_rejects_rising_signal():
    t = np.linspace(0, 3, 30)
    with pytest.raises(FitDiverged):
        fit_exponential(t, 1.0 - np.exp(-t))


@settings(deadline=None, max_examples=25)
@given(st.floats(min_value=0.2, max_value=6.0),
       st.floats(min_value=0.3, max_value=1.0))
def test_fit_round_trip_property(tau, amp):
    t = np.linspace(0, 3 * tau, 90)
    fit = fit_exponential(t, amp * np.exp(-t / tau))
    assert fit.T == pytest.approx(tau, rel=1e-5)


# ------------------------------------------------------------- trade-off law

def test_nbar_limits_and_tradeoff():
    assert nbar_time_avg(1e-4) == pytest.approx(0.5, rel=1e-4)
    assert nbar_time_avg(3.0) == pytest.approx(9.0, rel=1e-6)
    assert tc_tradeoff(38.5, 2.0) == pytest.approx(4.8125, abs=2e-4)


def test_lifetime_tc_against_formula_small_case():
    p = KerrCatParams(K=K, eps2=1.0 * K)
    tr = _lifetime_truncation(p, None)
    kappa = 20.0 / 38.5
    pred = tc_tradeoff(38.5, 1.0) / 20.0
    t_c, resid = lifetime_T_C(p, [JumpTerm(annihilation(tr), kappa)],
                              t_max=2.5 * pred, trunc=tr)
    assert t_c == pytest.approx(pred, rel=0.02)
    assert resid < 1e-3


def test_fitted_pointer_lifetime_is_converged_in_truncation(capsys):
    # the C4 runs at 100x rates: eight more Fock levels move T_alpha < 1%
    shifts = {}
    for a2 in (1.0, 2.0, 4.0):
        p = KerrCatParams(K=K, eps2=a2 * K)
        noise = DetuningNoise(mean=0.03 * K, std=0.002 * K, trials=1, seed=0)
        t_alpha = []
        for extra in (0, 8):
            tr = Truncation(default_truncation(p.alpha).dim + extra)
            jumps = build_full_dissipators(standard_bath().scaled(100.0),
                                           default_snail(), p.eps2, tr)
            t_alpha.append(lifetime_T_alpha(p, jumps, noise, t_max=40.0,
                                            trunc=tr)[0])
        shifts[a2] = abs(t_alpha[1] / t_alpha[0] - 1.0)
    with capsys.disabled():
        print("\nT_alpha shift at dim + 8: "
              + ", ".join(f"{s:.1e} (alpha²={a2:g})" for a2, s in shifts.items()))
    assert max(shifts.values()) < 0.01, shifts


def test_detuning_noise_draws_deterministic():
    noise = DetuningNoise(mean=0.1, std=0.02, trials=5, seed=3)
    assert np.array_equal(noise.draws(), noise.draws())
    assert DetuningNoise(mean=0.1, std=0.02, trials=5, seed=7).draws().shape == (5,)
    zero = DetuningNoise(mean=0.3, std=0.0, trials=4)
    assert np.array_equal(zero.draws(), np.full(4, 0.3))
