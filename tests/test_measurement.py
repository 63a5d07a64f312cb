"""Readout shot model, QNDness Monte Carlo, and process tomography."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from kerrcat import (CANONICAL_PREPS, DiscriminationLine, IQShot, PTM,
                     SpamModel, apply_ptm, cqr_steady_amplitude, default_line,
                     default_readout, discriminate, gate_fidelity,
                     misassignment_probability, ptm_estimate, ptm_identity,
                     ptm_rotation, qndness, simulate_readout,
                     tomography_pipeline)
from kerrcat.errors import SingularDesign
from kerrcat.measurement import ReadoutParams

PAULI = {
    "I": np.eye(2, dtype=np.complex128),
    "X": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


# ------------------------------------------------------------- pointer model


def test_steady_pointer_amplitude():
    r = default_readout()
    # beta = -2i alpha eps/kappa with alpha=2, eps/kappa = 0.05/0.4
    assert cqr_steady_amplitude(r) == pytest.approx(-0.5j, rel=1e-12)
    assert cqr_steady_amplitude(r, alpha=math.sqrt(8.0)) == pytest.approx(
        -0.5j * math.sqrt(2.0), rel=1e-12)
    assert abs(cqr_steady_amplitude(default_readout(alpha=2.0))) == \
        pytest.approx(0.5, rel=1e-12)


def test_readout_params_validation():
    with pytest.raises(ValueError):
        ReadoutParams(eps_cqr=1.0, kappa_r=0.0, duration=1.0)
    with pytest.raises(ValueError):
        ReadoutParams(eps_cqr=1.0, kappa_r=1.0, duration=-1.0)
    with pytest.raises(ValueError):
        ReadoutParams(eps_cqr=1.0, kappa_r=1.0, duration=1.0, efficiency=1.2)
    with pytest.raises(ValueError):
        ReadoutParams(eps_cqr=1.0, kappa_r=1.0, duration=1.0, noise_sigma=-0.1)


def test_misassignment_matches_gaussian_tail():
    r = default_readout()
    snr = 0.5 / r.noise_sigma
    # independent route: one-sided Gaussian tail beyond the midpoint
    assert misassignment_probability(r) == pytest.approx(norm.sf(snr), rel=1e-9)
    assert misassignment_probability(r) == pytest.approx(1.55e-5, rel=0.05)
    quiet = ReadoutParams(eps_cqr=1.0, kappa_r=1.0, duration=1.0,
                          noise_sigma=0.0)
    assert misassignment_probability(quiet) == 0.0


def test_discrimination_geometry():
    r = default_readout()
    line = default_line(r)
    beta = cqr_steady_amplitude(r)
    plus = IQShot(i=beta.real, q=beta.imag, label_true=1)
    minus = IQShot(i=-beta.real, q=-beta.imag, label_true=-1)
    assert discriminate(plus, line) == 1
    assert discriminate(minus, line) == -1
    # ties resolve to +1
    assert discriminate(IQShot(i=0.0, q=0.0, label_true=1), line) == 1
    # an offset shifts the boundary past the + pointer
    shifted = DiscriminationLine(axis=line.axis, offset=abs(beta) * 2.0)
    assert discriminate(plus, shifted) == -1


def test_shot_validation():
    with pytest.raises(ValueError):
        IQShot(i=math.nan, q=0.0, label_true=1)
    with pytest.raises(ValueError):
        IQShot(i=0.0, q=0.0, label_true=2)
    with pytest.raises(ValueError):
        DiscriminationLine(axis=0.0)


def test_simulate_readout_deterministic_and_centered():
    r = default_readout()
    a = simulate_readout(+1, r, 0.0, 200, seed=7)
    b = simulate_readout(+1, r, 0.0, 200, seed=7)
    assert all(x.i == y.i and x.q == y.q for x, y in zip(a, b))
    shots = simulate_readout(+1, r, 0.0, 10000, seed=1)
    beta = cqr_steady_amplitude(r)
    mean = np.mean([s.z for s in shots])
    assert abs(mean - beta) < 0.01
    assert all(s.label_true == 1 for s in shots)
    # strong flipping during the window drags the averaged signal to zero
    scrambled = simulate_readout(+1, r, 20.0, 4000, seed=2)
    assert abs(np.mean([s.z for s in scrambled])) < 0.02


def test_simulate_readout_validation():
    r = default_readout()
    with pytest.raises(ValueError):
        simulate_readout(0, r, 0.0, 10, seed=0)
    with pytest.raises(ValueError):
        simulate_readout(1, r, 0.0, 0, seed=0)


def test_qndness_limits():
    quiet = ReadoutParams(eps_cqr=default_readout().eps_cqr,
                          kappa_r=default_readout().kappa_r,
                          duration=4.0, noise_sigma=0.0)
    assert qndness(quiet, 0.0, 2000, seed=3) == 1.0
    # many flips per window decorrelate the pair completely
    assert qndness(quiet, 5.0, 20000, seed=3) == pytest.approx(0.5, abs=0.02)
    # more flipping always degrades Q
    r = default_readout()
    assert qndness(r, 1.0 / 600.0, 20000, seed=5) > qndness(r, 1.0 / 50.0,
                                                            20000, seed=5)
    with pytest.raises(ValueError):
        qndness(r, 0.0, 0, seed=0)


# --------------------------------------------------------------- tomography

def test_ptm_validation():
    bad_first = np.eye(4)
    bad_first[0, 1] = 0.2
    with pytest.raises(ValueError):
        PTM(bad_first)
    big = np.eye(4)
    big[3, 3] = 1.2
    with pytest.raises(ValueError):
        PTM(big)
    with pytest.raises(ValueError):
        PTM(np.eye(3))
    with pytest.raises(ValueError):
        ptm_rotation("W", 0.1)


@settings(deadline=None, max_examples=30)
@given(axis=st.sampled_from(["X", "Y", "Z"]), angle=st.floats(0.0, 6.28))
def test_ptm_rotation_matches_unitary_conjugation(axis, angle):
    # independent route: R_ij = (1/2) Tr(P_i U P_j U†)
    U = (math.cos(angle / 2.0) * PAULI["I"]
         - 1j * math.sin(angle / 2.0) * PAULI[axis])
    labels = ["I", "X", "Y", "Z"]
    R = np.empty((4, 4))
    for j, pj in enumerate(labels):
        conj = U @ PAULI[pj] @ U.conj().T
        for i, pi in enumerate(labels):
            R[i, j] = 0.5 * np.real(np.trace(PAULI[pi] @ conj))
    assert np.allclose(ptm_rotation(axis, angle).matrix, R, atol=1e-10)


def test_apply_ptm_and_estimate_roundtrip():
    R = ptm_rotation("X", 0.7)
    ins = list(CANONICAL_PREPS.values())
    outs = [apply_ptm(R, b) for b in ins]
    est = ptm_estimate(ins, outs)
    assert np.allclose(est.matrix, R.matrix, atol=1e-12)
    with pytest.raises(SingularDesign):
        coplanar = [(1, 0, 0), (0, 1, 0), (-1, 0, 0), (0, -1, 0)]
        ptm_estimate(coplanar, coplanar)
    with pytest.raises(ValueError):
        ptm_estimate([(1.0, 0.0)], [(1.0, 0.0)])


def test_gate_fidelity_formulas():
    assert gate_fidelity(ptm_identity(), ptm_identity()) == pytest.approx(1.0)
    for p in (0.0, 0.1, 0.4):
        depolarizing = PTM(np.diag([1.0, 1.0 - p, 1.0 - p, 1.0 - p]))
        f = gate_fidelity(depolarizing, ptm_identity())
        assert f == pytest.approx(1.0 - p / 2.0, abs=1e-12)
    rot = ptm_rotation("Z", 1.1)
    assert gate_fidelity(rot, rot) == pytest.approx(1.0)


def test_spam_model_validation():
    with pytest.raises(ValueError):
        SpamModel(prep_p=0.4)
    with pytest.raises(ValueError):
        SpamModel(meas_error=0.5)
    m = SpamModel(prep_p=0.93, meas_error=0.01)
    assert m.prep_shrink == pytest.approx(0.86)
    assert m.meas_shrink == pytest.approx(0.98)


def test_tomography_pipeline_noiseless_exact():
    for channel in (ptm_identity(), ptm_rotation("X", math.pi / 2.0),
                    ptm_rotation("Z", math.pi / 2.0)):
        est = tomography_pipeline(channel)
        assert np.max(np.abs(est.matrix - channel.matrix)) < 1e-12


def test_tomography_pipeline_spam_shrink():
    # reconstructing against ideal preparations folds the preparation shrink
    # into the channel: F = (1 + (3/2)(1 + 3 s)) / 3 with s = 2 p - 1, giving
    # exactly 0.93 for p = 0.93 and any single-qubit unitary
    spam = SpamModel(prep_p=0.93)
    for name, angle in (("X", math.pi / 2.0), ("Z", math.pi / 2.0)):
        ideal = ptm_rotation(name, angle)
        est = tomography_pipeline(ideal, spam)
        assert gate_fidelity(est, ideal) == pytest.approx(0.93, abs=1e-12)
    est_id = tomography_pipeline(ptm_identity(), spam)
    assert gate_fidelity(est_id, ptm_identity()) == pytest.approx(0.93,
                                                                  abs=1e-12)


def test_canonical_preps_span_bloch_space():
    vs = np.array(list(CANONICAL_PREPS.values()))
    assert vs.shape == (4, 3)
    assert np.allclose(np.linalg.norm(vs, axis=1), 1.0)
    design = np.hstack([np.ones((4, 1)), vs])
    assert np.linalg.matrix_rank(design) == 4
