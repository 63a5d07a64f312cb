"""Fock-space construction, states, and Wigner functions against closed forms."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.special import eval_laguerre

from kerrcat import (DensityMatrix, Ket, Operator, Truncation, annihilation,
                     cat_state, coherent_state, creation, default_truncation,
                     displacement, expectation, fock_state, identity,
                     number_operator, parity_operator, state_fidelity, wigner,
                     wigner_grid, wigner_normalization)
from kerrcat.errors import (DegenerateCat, DimMismatch, NotHermitian,
                            TruncationTooSmall)

TR = Truncation(20)


def test_truncation_rejects_tiny_dim():
    with pytest.raises(ValueError):
        Truncation(1)


@given(st.integers(min_value=2, max_value=80))
def test_commutator_exact_below_cutoff(dim):
    a = annihilation(Truncation(dim)).mat
    comm = a @ a.conj().T - a.conj().T @ a
    # the [a, a+] = 1 identity holds exactly except in the last basis state,
    # where the truncated a+ loses the outgoing amplitude
    assert np.allclose(comm[:-1, :-1], np.eye(dim - 1))
    assert comm[-1, -1] == pytest.approx(1 - dim)


def test_creation_is_adjoint():
    assert np.array_equal(creation(TR).mat, annihilation(TR).dag().mat)


def test_number_operator_diagonal():
    assert np.allclose(number_operator(TR).mat, np.diag(np.arange(20)))


def test_parity_squares_to_identity_and_flips_a():
    p = parity_operator(TR).mat
    a = annihilation(TR).mat
    assert np.allclose(p @ p, np.eye(20))
    assert np.allclose(p @ a @ p, -a)


def test_displacement_unitary_and_generates_coherent():
    alpha = 0.7 - 0.3j
    d = displacement(alpha, Truncation(40))
    assert np.allclose(d.mat @ d.mat.conj().T, np.eye(40), atol=1e-12)
    from_vacuum = Ket(d.mat[:, 0], Truncation(40))
    direct = coherent_state(alpha, Truncation(40))
    assert abs(from_vacuum.overlap(direct)) == pytest.approx(1.0, abs=1e-12)


def test_displacement_rejects_overflowing_amplitude():
    with pytest.raises(TruncationTooSmall):
        displacement(4.0, Truncation(8))


@settings(deadline=None)
@given(st.floats(min_value=0.05, max_value=3.5),
       st.floats(min_value=-math.pi, max_value=math.pi))
def test_coherent_state_poisson_amplitudes(mag, phase):
    alpha = mag * complex(math.cos(phase), math.sin(phase))
    tr = default_truncation(alpha)
    ket = coherent_state(alpha, tr)
    n = np.arange(tr.dim)
    root_fact = np.array([math.sqrt(math.factorial(int(k))) for k in n])
    want = np.exp(-abs(alpha) ** 2 / 2) * alpha ** n / root_fact
    assert np.allclose(ket.amp, want, atol=1e-9)
    assert ket.norm() == pytest.approx(1.0, abs=1e-12)


def test_coherent_overlap_closed_form():
    a, b = 1.2 + 0.5j, -0.8 + 0.1j
    tr = Truncation(45)
    got = coherent_state(a, tr).overlap(coherent_state(b, tr))
    want = np.exp(-0.5 * (abs(a) ** 2 + abs(b) ** 2) + np.conj(a) * b)
    assert got == pytest.approx(want, abs=1e-10)


def test_coherent_state_raises_when_cutoff_too_small():
    with pytest.raises(TruncationTooSmall):
        coherent_state(3.0, Truncation(10))


@pytest.mark.parametrize("parity,sign", [("even", 1), ("odd", -1), (1, 1), (-1, -1)])
def test_cat_state_parity_and_norm(parity, sign):
    alpha = 1.7
    tr = default_truncation(alpha)
    ket = cat_state(alpha, parity, tr)
    assert ket.norm() == pytest.approx(1.0, abs=1e-12)
    assert expectation(parity_operator(tr), ket) == pytest.approx(sign, abs=1e-12)
    # explicit superposition oracle
    plus = coherent_state(alpha, tr).amp + sign * coherent_state(-alpha, tr).amp
    plus = plus / np.linalg.norm(plus)
    assert abs(np.vdot(plus, ket.amp)) == pytest.approx(1.0, abs=1e-12)


def test_odd_cat_at_zero_amplitude_degenerates():
    with pytest.raises(DegenerateCat):
        cat_state(0.0, "odd", TR)


def test_operator_hermitian_hint_validated():
    with pytest.raises(NotHermitian):
        Operator(annihilation(TR).mat, TR, hermitian_hint=True)


def test_dim_mismatch_rejected():
    with pytest.raises(DimMismatch):
        annihilation(Truncation(5)) @ annihilation(Truncation(6))


def test_density_matrix_validation():
    rho = fock_state(0, TR).to_density_matrix()
    assert rho.purity() == pytest.approx(1.0)
    bad_trace = np.zeros((20, 20)); bad_trace[0, 0] = 0.5
    with pytest.raises(ValueError):
        DensityMatrix(bad_trace, TR)
    neg = np.zeros((20, 20)); neg[0, 0] = 1.5; neg[1, 1] = -0.5
    with pytest.raises(ValueError):
        DensityMatrix(neg, TR)


def test_state_fidelity_bounds():
    even = cat_state(1.5, "even", TR)
    odd = cat_state(1.5, "odd", TR)
    assert state_fidelity(even, even) == pytest.approx(1.0)
    assert state_fidelity(even, odd) == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None)
@given(st.floats(min_value=0.0, max_value=4.0))
def test_default_truncation_keeps_tail_small(mag):
    tr = default_truncation(mag)
    ket = coherent_state(mag, tr)  # raises TruncationTooSmall if tail > 1e-9
    assert abs(ket.amp[-1]) ** 2 < 1e-9


# ---------------------------------------------------------------- Wigner

def test_wigner_vacuum_gaussian():
    tr = Truncation(15)
    pts = np.array([0.0, 0.3 + 0.4j, 1.5, -2.1j])
    got = wigner(fock_state(0, tr), pts)
    want = (2 / math.pi) * np.exp(-2 * np.abs(pts) ** 2)
    assert np.allclose(got, want, atol=1e-12)


def test_wigner_coherent_displaced_gaussian():
    a0 = 1.1 - 0.7j
    g = np.linspace(-7.0, 7.0, 57)
    disk = (g[None, :] + 1j * g[:, None]).ravel()
    # alpha = 5 at dim 70, on a grid out to |beta| = 7: the tolerance is set
    # by the truncated coherent state, not by the sum
    for alpha, pts, atol in ((a0, np.array([0.0, a0, a0 + 0.5j, 2.0]), 1e-10),
                             (5.0, disk[np.abs(disk) <= 7.0], 1e-6)):
        tr = default_truncation(alpha)
        got = wigner(coherent_state(alpha, tr), pts)
        want = (2 / math.pi) * np.exp(-2 * np.abs(pts - alpha) ** 2)
        assert np.max(np.abs(got - want)) < atol, (alpha, tr.dim)


@pytest.mark.parametrize("n", [1, 10, 30, 40])
def test_wigner_fock_state_matches_laguerre(n):
    # W_n(beta) = (2/pi) (-1)^n e^{-2|beta|^2} L_n(4|beta|^2)
    mag = np.linspace(0.0, 3.5, 71)
    pts = mag * np.exp(0.7j)
    got = wigner(fock_state(n, Truncation(n + 1)), pts)
    want = (2 / math.pi) * (-1) ** n * np.exp(-2 * mag**2) * eval_laguerre(n, 4 * mag**2)
    assert np.max(np.abs(got - want)) < 1e-12


@settings(deadline=None, max_examples=30)
@given(dim=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
       pts=st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                    min_size=1, max_size=4))
def test_wigner_matches_displaced_parity_trace(dim, seed, pts):
    # (2/pi) Tr[rho D(2 beta) P] with D from expm in a space padded to dim 100
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    rho /= np.trace(rho).real
    pts = [complex(re, im) for re, im in pts]
    got = wigner(DensityMatrix(rho, Truncation(dim)), np.array(pts))
    big = annihilation(Truncation(100)).mat
    par = (-1.0) ** np.arange(100)
    for beta, w in zip(pts, got):
        d = expm(2 * beta * big.conj().T - np.conj(2 * beta) * big)[:dim, :dim]
        want = (2 / math.pi) * np.real(np.trace(rho @ (d * par[:dim])))
        assert abs(w - want) < 1e-10


def test_wigner_fock_one_negative_at_origin():
    got = wigner(fock_state(1, TR), np.array(0.0))
    assert got == pytest.approx(-2 / math.pi, abs=1e-12)


@pytest.mark.parametrize("parity,w0", [("even", 2 / math.pi), ("odd", -2 / math.pi)])
def test_wigner_cat_origin_parity_value(parity, w0):
    st_ = cat_state(2.0, parity, default_truncation(2.0))
    assert wigner(st_, np.array(0.0)) == pytest.approx(w0, rel=1e-9)


def test_wigner_grid_normalizes_to_one():
    st_ = cat_state(2.0, "even", default_truncation(2.0))
    g = np.linspace(-4.0, 4.0, 81)
    w = wigner_grid(st_, g, g)
    assert w.shape == (81, 81)
    assert wigner_normalization(w, g, g) == pytest.approx(1.0, abs=1e-3)


def test_wigner_accepts_density_matrix():
    tr = Truncation(12)
    rho = DensityMatrix(np.diag([0.5, 0.5] + [0.0] * 10).astype(complex), tr)
    got = wigner(rho, np.array(0.0))
    want = 0.5 * (2 / math.pi) + 0.5 * (-2 / math.pi)
    assert got == pytest.approx(want, abs=1e-12)


def test_identity_operator():
    assert np.array_equal(identity(TR).mat, np.eye(20))
