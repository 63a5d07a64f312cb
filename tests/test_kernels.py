"""Integrator kernels: tableau consistency and agreement with dense oracles."""
import math

import numpy as np
import pytest
import scipy.linalg

from kerrcat.kernels import (NOENV, RK_A, RK_B, RK_C, RK_E, STATUS_NONFINITE,
                             STATUS_OK, STATUS_UNDERFLOW, backend,
                             default_max_step, gershgorin_range, lb_step,
                             se_step, warmup)


def test_backend_reports_known_value():
    assert backend() == "numpy"


def test_tableau_order_conditions():
    # stage consistency c_s = sum_j a_sj and first-order weight sums
    assert np.allclose(RK_A.sum(axis=1), RK_C)
    assert RK_B.sum() == pytest.approx(1.0, abs=1e-15)
    # embedded difference annihilates constants (both weight rows sum to 1)
    assert RK_E.sum() == pytest.approx(0.0, abs=1e-15)


def test_gershgorin_bounds_spectrum():
    rng = np.random.default_rng(4)
    for _ in range(5):
        m = rng.normal(size=(9, 9)) + 1j * rng.normal(size=(9, 9))
        h = (m + m.conj().T) / 2
        evals = np.linalg.eigvalsh(h)
        assert gershgorin_range(h) >= evals.max() - evals.min() - 1e-12


def test_default_max_step_scaling():
    assert default_max_step(9.0) == pytest.approx(2.5 / 10.0)
    assert default_max_step(9.0, margin=0.05) == pytest.approx(0.005)


def test_warmup_runs():
    warmup()


def _random_system(rng, dim, njump):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = (m + m.conj().T) / 2
    ls = []
    for _ in range(njump):
        l = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        ls.append(0.4 * l)
    return h, ls


def test_se_step_matches_matrix_exponential():
    rng = np.random.default_rng(7)
    for dim in (3, 6):
        h, _ = _random_system(rng, dim, 0)
        psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi0 /= np.linalg.norm(psi0)
        t1 = 0.7
        psi, _, status, _ = se_step(psi0.astype(np.complex128), 0.0, t1,
                                    h.astype(np.complex128), *NOENV,
                                    1e-10, 1e-12, 0.05, 1e-3,
                                    RK_A, RK_B, RK_C, RK_E)
        assert status == STATUS_OK
        want = scipy.linalg.expm(-1j * h * t1) @ psi0
        assert np.max(np.abs(psi - want)) < 1e-8


def test_lb_step_matches_liouvillian_exponential():
    rng = np.random.default_rng(11)
    dim = 4
    h, ls = _random_system(rng, dim, 2)
    rho0 = np.zeros((dim, dim), dtype=np.complex128)
    rho0[0, 0] = 1.0
    g = -1j * h.astype(np.complex128)
    for l in ls:
        g = g - 0.5 * (l.conj().T @ l)
    larr = np.array(ls, dtype=np.complex128)
    t1 = 0.5
    rho, _, status, _ = lb_step(rho0, 0.0, t1, g, g.conj().T, larr, *NOENV,
                                1e-10, 1e-12, 0.05, 1e-3, RK_A, RK_B, RK_C, RK_E)
    assert status == STATUS_OK
    # dense vectorized-Liouvillian oracle (row-major vec)
    eye = np.eye(dim)
    sup = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for l in ls:
        ldl = l.conj().T @ l
        sup += np.kron(l, l.conj()) - 0.5 * (np.kron(ldl, eye)
                                             + np.kron(eye, ldl.T))
    want = (scipy.linalg.expm(sup * t1) @ rho0.reshape(-1)).reshape(dim, dim)
    assert np.max(np.abs(rho - want)) < 1e-8
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-9)


def test_constant_envelope_equals_folded_hamiltonian():
    rng = np.random.default_rng(3)
    dim = 4
    h, _ = _random_system(rng, dim, 0)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    c0 = 0.3 - 0.2j
    psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi0 /= np.linalg.norm(psi0)
    t1 = 0.4
    envs = np.full((1, 8), c0, dtype=np.complex128)
    mats = np.array([m], dtype=np.complex128)
    with_env, _, s1, _ = se_step(psi0.astype(np.complex128), 0.0, t1,
                                 h.astype(np.complex128), 1, envs, mats,
                                 t1 / 7, 0.0, 1e-10, 1e-12, 0.02, 1e-3,
                                 RK_A, RK_B, RK_C, RK_E)
    h_folded = h + c0 * m + np.conj(c0) * m.conj().T
    folded, _, s2, _ = se_step(psi0.astype(np.complex128), 0.0, t1,
                               h_folded.astype(np.complex128), *NOENV,
                               1e-10, 1e-12, 0.02, 1e-3, RK_A, RK_B, RK_C, RK_E)
    assert s1 == STATUS_OK and s2 == STATUS_OK
    assert np.max(np.abs(with_env - folded)) < 1e-9


def _step_both(rng, dim, rtol, atol, h0, corrupt=False):
    """Run se_step and lb_step on one random system; return both results."""
    h, ls = _random_system(rng, dim, 1)
    h = h.astype(np.complex128)
    larr = np.array(ls, dtype=np.complex128)
    g = -1j * h - 0.5 * (ls[0].conj().T @ ls[0])
    psi0 = np.zeros(dim, dtype=np.complex128)
    psi0[0] = 1.0
    rho0 = np.outer(psi0, psi0.conj())
    if corrupt:
        psi0[1] = np.nan
        rho0[1, 1] = np.nan
    return (se_step(psi0, 0.0, 0.5, h, *NOENV, rtol, atol, 0.05, h0,
                    RK_A, RK_B, RK_C, RK_E),
            lb_step(rho0, 0.0, 0.5, g, g.conj().T, larr, *NOENV, rtol, atol,
                    0.05, h0, RK_A, RK_B, RK_C, RK_E))


def test_unreachable_tolerance_underflows():
    # With rtol = 0 and atol = 1e-100 every attempt is rejected and the step
    # shrinks by the clipped factor 0.2 until it drops below 1e-14:
    # 0.05 * 0.2**18 = 1.3e-14, 0.05 * 0.2**19 = 2.6e-15.
    for y, h_next, status, nsteps in _step_both(np.random.default_rng(7), 4,
                                                0.0, 1e-100, 0.05):
        assert status == STATUS_UNDERFLOW
        assert nsteps == 19
        assert h_next == pytest.approx(0.05 * 0.2 ** 19)
        assert np.all(np.isfinite(y))


# A NaN entry in the state leaves a non-finite error estimate, which stops
# the stepper at once. With rtol = 0 and atol = 1e-300 the error ratios are
# ~1e297, whose squares overflow: the estimate must stay finite, so the
# stepper is stopped by step-size underflow instead (1e-3 * 0.2**16 < 1e-14).
@pytest.mark.parametrize("rtol, atol, corrupt", [(1e-8, 1e-10, True),
                                                 (0.0, 1e-300, False)])
def test_nonfinite_error_estimate_stops_stepper(rtol, atol, corrupt):
    with np.errstate(over="raise"):
        results = _step_both(np.random.default_rng(7), 4, rtol, atol, 1e-3,
                             corrupt=corrupt)
    for y, h_next, status, nsteps in results:
        if corrupt:
            assert status == STATUS_NONFINITE
            assert nsteps == 0
        else:
            assert status == STATUS_UNDERFLOW
            assert nsteps == 16
            assert h_next == pytest.approx(1e-3 * 0.2 ** 16)
            assert np.all(np.isfinite(y))
