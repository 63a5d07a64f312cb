"""Cat-aligned qubit frame: basis construction, gauge, and Pauli algebra."""
import math

import numpy as np
import pytest

from kerrcat import (KerrCatParams, Ket, Truncation, bloch_vector, build_cat_frame,
                     cat_state, coherent_state, default_truncation, expectation,
                     kerr_cat_hamiltonian, manifold_population, parity_operator,
                     state_fidelity)
from kerrcat.errors import DegenerateCat
from kerrcat.fock import Operator
from kerrcat.units import MHZ

K = MHZ * 1.2


@pytest.fixture(scope="module")
def frame4():
    p = KerrCatParams(K=K, eps2=4.0 * K)
    tr = default_truncation(p.alpha)
    return build_cat_frame(kerr_cat_hamiltonian(p, tr)), p, tr


def test_manifold_is_top_eigenpair(frame4):
    frame, p, tr = frame4
    assert frame.energies[0] >= frame.energies[1]
    assert frame.tunnel_splitting < 1e-9 * p.K
    assert frame.gap == pytest.approx(13.0908 * p.K, rel=1e-3)


def test_eigenvectors_match_ideal_cats(frame4):
    frame, p, tr = frame4
    assert state_fidelity(frame.v_even, cat_state(p.alpha, "even", tr)) > 0.999
    assert state_fidelity(frame.v_odd, cat_state(p.alpha, "odd", tr)) > 0.999
    assert expectation(parity_operator(tr), frame.v_even) == pytest.approx(1.0, abs=1e-9)
    assert expectation(parity_operator(tr), frame.v_odd) == pytest.approx(-1.0, abs=1e-9)


def test_pointer_states_near_coherent(frame4):
    frame, p, tr = frame4
    assert state_fidelity(frame.w_plus, coherent_state(p.alpha, tr)) > 0.999
    assert state_fidelity(frame.w_minus, coherent_state(-p.alpha, tr)) > 0.999


def test_gauge_fixes_positive_quadrature(frame4):
    frame, p, tr = frame4
    n = np.arange(tr.dim)
    ve, vo = frame.v_even.amp, frame.v_odd.amp
    # <v_e| (a + a+)/2 |v_o> must be real positive after gauge fixing
    qvo = 0.5 * np.vdot(ve[:-1], np.sqrt(n[1:]) * vo[1:]) \
        + 0.5 * np.vdot(ve[1:], np.sqrt(n[1:]) * vo[:-1])
    assert qvo.imag == pytest.approx(0.0, abs=1e-10)
    assert qvo.real > 0


def test_pauli_algebra_within_manifold(frame4):
    frame, _, _ = frame4
    z, x, y, pr = frame.z.mat, frame.x.mat, frame.y.mat, frame.projector.mat
    assert np.allclose(z @ z, pr, atol=1e-12)
    assert np.allclose(x @ x, pr, atol=1e-12)
    assert np.allclose(x @ y - y @ x, 2j * z, atol=1e-12)
    assert np.allclose(y @ z - z @ y, 2j * x, atol=1e-12)
    assert np.allclose(z @ x - x @ z, 2j * y, atol=1e-12)


def test_bloch_vector_axes(frame4):
    frame, _, _ = frame4
    assert np.allclose(bloch_vector(frame, frame.w_plus), [0, 0, 1], atol=1e-9)
    assert np.allclose(bloch_vector(frame, frame.w_minus), [0, 0, -1], atol=1e-9)
    assert np.allclose(bloch_vector(frame, frame.v_even), [1, 0, 0], atol=1e-9)
    assert np.allclose(bloch_vector(frame, frame.v_odd), [-1, 0, 0], atol=1e-9)


def test_manifold_population_complete(frame4):
    frame, _, _ = frame4
    assert manifold_population(frame, frame.w_plus) == pytest.approx(1.0, abs=1e-12)
    assert manifold_population(frame, frame.v_odd.to_density_matrix()) \
        == pytest.approx(1.0, abs=1e-12)


def test_frame_functionals_normalize_a_ket(frame4):
    frame, _, tr = frame4
    psi = Ket(frame.w_plus.amp + (0.4 + 0.3j) * frame.w_minus.amp
              + 0.2 * cat_state(1.0, "odd", tr).amp, tr).normalized()
    scaled = Ket(3.0 * psi.amp, tr)
    bloch = bloch_vector(frame, psi)
    assert np.all(np.abs(bloch) > 0.01)
    assert np.allclose(bloch_vector(frame, scaled), bloch, atol=1e-12)
    assert manifold_population(frame, scaled) \
        == pytest.approx(manifold_population(frame, psi), abs=1e-12)
    assert np.allclose(bloch_vector(frame, psi.to_density_matrix()), bloch,
                       atol=1e-12)


def test_frame_functionals_reject_raw_arrays(frame4):
    frame, _, _ = frame4
    with pytest.raises(TypeError):
        bloch_vector(frame, frame.w_plus.amp)
    with pytest.raises(TypeError):
        manifold_population(frame, frame.w_plus.amp)


@pytest.mark.parametrize("detuning_over_k", [0.0, 2.0])
@pytest.mark.parametrize("alpha_sq", [0.25, 1.0, 2.0, 10.0, 12.0, 16.0])
def test_frame_is_parity_exact(alpha_sq, detuning_over_k):
    # one eigh per parity sector: no weight at all on the other sector, even
    # where the top pair is degenerate to round-off (detuning 0)
    p = KerrCatParams(K=K, eps2=alpha_sq * K, detuning=detuning_over_k * K)
    tr = default_truncation(p.alpha)
    frame = build_cat_frame(kerr_cat_hamiltonian(p, tr))
    even_block = np.add.outer(np.arange(tr.dim), np.arange(tr.dim)) % 2 == 0
    assert not np.any(frame.v_even.amp[1::2])
    assert not np.any(frame.v_odd.amp[0::2])
    assert not np.any(frame.z.mat[even_block])
    assert not np.any(frame.x.mat[~even_block])
    assert np.any(frame.z.mat) and np.any(frame.x.mat)


def test_rejects_a_top_pair_of_one_parity():
    # a diagonal H has definite parity, but its two highest levels, |2> and
    # |4>, are both even
    tr = Truncation(6)
    h = Operator(np.diag([0.0, 1.0, 5.0, 2.0, 4.0, 3.0]).astype(complex), tr,
                 hermitian_hint=True)
    with pytest.raises(DegenerateCat, match="share one photon-number parity"):
        build_cat_frame(h)


def test_rejects_parity_mixed_top_pair():
    # position operator: it couples even and odd photon numbers, and its top
    # eigenvectors are parity-mixed quadrature states
    tr = Truncation(24)
    n = np.arange(24)
    q = np.zeros((24, 24))
    q[np.arange(23), np.arange(1, 24)] = 0.5 * np.sqrt(n[1:])
    q = q + q.T
    with pytest.raises(DegenerateCat):
        build_cat_frame(Operator(q.astype(complex), tr, hermitian_hint=True))
