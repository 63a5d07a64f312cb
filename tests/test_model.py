"""Hamiltonian constructors, effective parameters, and spectral structure."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kerrcat import (KerrCatParams, SnailParams, Truncation, cqr_coupling,
                     default_truncation, dressed_mode_params,
                     effective_kerr_params, effective_squeezing_amplitude,
                     egap_estimate, kerr_cat_hamiltonian, number_operator,
                     spectrum, squeezing_for_cat_size, well_excitations)
from kerrcat.errors import (DegenerateModes, NotHermitian,
                            ResonantDriveSingularity, TruncationTooSmall)
from kerrcat.fock import Operator
from kerrcat.units import MHZ, TWO_PI

K = MHZ * 1.2


def snail(**kw):
    base = dict(omega_a0=MHZ * 5900.0, g3=MHZ * 15.0, g4=-K / 6.0,
                g_c=MHZ * 125.0, omega_b0=MHZ * 7100.0, omega_s=MHZ * 11800.0)
    base.update(kw)
    return SnailParams(**base)


def test_kerr_params_properties():
    p = KerrCatParams(K=K, eps2=4 * K)
    assert p.cat_size == pytest.approx(4.0)
    assert p.alpha == pytest.approx(2.0)
    with pytest.raises(ValueError):
        KerrCatParams(K=-K, eps2=K)


def test_hamiltonian_matrix_elements():
    p = KerrCatParams(K=K, eps2=2 * K, detuning=0.5 * K)
    tr = default_truncation(p.alpha)
    h = kerr_cat_hamiltonian(p, tr).mat
    n = np.arange(tr.dim)
    assert np.allclose(np.diag(h), -K * n * (n - 1) + 0.5 * K * n)
    # squeezing couples n <-> n+2 with eps2 sqrt((n+1)(n+2))
    assert h[2, 0] == pytest.approx(2 * K * math.sqrt(2))
    assert h[0, 2] == pytest.approx(2 * K * math.sqrt(2))
    assert h[3, 1] == pytest.approx(2 * K * math.sqrt(6))


def test_hamiltonian_requires_adequate_truncation():
    with pytest.raises(TruncationTooSmall):
        kerr_cat_hamiltonian(KerrCatParams(K=K, eps2=8 * K), Truncation(10))


def test_effective_kerr_from_circuit():
    s = snail()
    xi = effective_squeezing_amplitude(s)
    params, stark = effective_kerr_params(s)
    assert params.K == pytest.approx(-6 * s.g4)  # K = 2*pi*1.2
    assert params.K == pytest.approx(K)
    assert params.eps2 == pytest.approx(3 * s.g3 * xi)
    assert stark == pytest.approx(-4 * params.K * abs(xi) ** 2)


def test_squeezing_for_cat_size_round_trip():
    s = snail()
    xi = squeezing_for_cat_size(s, 4.0)
    params, _ = effective_kerr_params(
        SnailParams(omega_a0=s.omega_a0, g3=s.g3, g4=s.g4, g_c=s.g_c,
                    omega_b0=s.omega_b0, omega_s=s.omega_s, eps_s0=xi))
    # eps_s0 path is not used by effective_kerr_params; check directly
    assert abs(3 * s.g3 * xi) / (-6 * s.g4) == pytest.approx(4.0)


def test_resonant_drive_singularity():
    with pytest.raises(ResonantDriveSingularity):
        effective_squeezing_amplitude(
            snail(eps_s0=MHZ * 10.0, omega_s=MHZ * 5900.0))


def test_dressed_modes_against_two_by_two():
    s = snail()
    lam, om_a, om_b = dressed_mode_params(s)
    # exact 2x2 oracle
    h2 = np.array([[s.omega_a0, s.g_c], [s.g_c, s.omega_b0]])
    evals = np.linalg.eigvalsh(h2)
    assert om_a == pytest.approx(evals[0], rel=1e-12)
    assert om_b == pytest.approx(evals[1], rel=1e-12)
    # small-coupling limit of the mixing angle
    assert lam == pytest.approx(s.g_c / (s.omega_a0 - s.omega_b0), rel=2e-2)
    with pytest.raises(DegenerateModes):
        dressed_mode_params(snail(omega_b0=MHZ * 5900.0))


def test_cqr_formulas():
    s = snail()
    xi = 0.01 + 0.005j
    assert cqr_coupling(s, xi) == pytest.approx(
        6 * s.g3 * (s.g_c / s.mode_detuning) * xi)


def test_egap_estimate_and_true_gap_ratio():
    # frozen diagonalization oracle: the asymptotic 4*K*alpha^2 estimate
    # overshoots the true gap by 1/(2 alpha^2) + higher orders
    for a2, ratio in [(2.0, 0.6398), (4.0, 0.8182), (8.0, 0.9325)]:
        p = KerrCatParams(K=K, eps2=a2 * K)
        h = kerr_cat_hamiltonian(p, default_truncation(p.alpha))
        exc = well_excitations(h, 4)
        gap = exc[2] - 0.5 * (exc[0] + exc[1])
        assert egap_estimate(p) == pytest.approx(4 * K * a2)
        assert gap / egap_estimate(p) == pytest.approx(ratio, abs=2e-4)


def test_excited_pair_splitting_collapses_at_even_detuning():
    # at detuning = 2K the lowest excited pair re-degenerates exactly
    for delta, bound in [(1.0 * K, (0.2 * K, 0.3 * K)), (2.0 * K, (0, 1e-4 * K))]:
        p = KerrCatParams(K=K, eps2=4 * K, detuning=delta)
        h = kerr_cat_hamiltonian(p, default_truncation(p.alpha))
        exc = well_excitations(h, 4)
        split = exc[3] - exc[2]
        assert bound[0] <= split <= bound[1]


def test_spectrum_harmonic_oracle():
    tr = Truncation(12)
    sp = spectrum(number_operator(tr), k=5)
    assert np.allclose(sp.eigenvalues, np.arange(5))
    with pytest.raises(NotHermitian):
        spectrum(Operator(np.triu(np.ones((4, 4), dtype=complex)), Truncation(4)))


def test_well_excitations_ascending_from_zero():
    p = KerrCatParams(K=K, eps2=4 * K)
    exc = well_excitations(kerr_cat_hamiltonian(p, default_truncation(p.alpha)), 6)
    assert exc[0] == pytest.approx(0.0, abs=1e-12)
    assert np.all(np.diff(exc) >= -1e-12)


def test_snail_nonlinearity_warning():
    with pytest.warns(UserWarning):
        SnailParams(omega_a0=MHZ * 100.0, g3=MHZ * 10.0)


@given(st.floats(min_value=0.2, max_value=8.0))
def test_cat_size_consistency(a2):
    p = KerrCatParams(K=K, eps2=a2 * K)
    assert p.cat_size == pytest.approx(a2)
    assert egap_estimate(p) == pytest.approx(4 * K * a2)
