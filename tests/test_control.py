"""Gate protocols: pulse shapes, chevron transfer, Zeno rotations."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kerrcat import (KerrCatParams, XGateSpec, build_cat_frame,
                     cat_size_from_rabi, chevron_map, count_transfer_lobes,
                     default_truncation, effective_detuning,
                     kerr_cat_hamiltonian, phase_modulation_pulse,
                     rabi_frequency, simulate_x_gate, simulate_z_rotation,
                     x_gate_schedule, x_gate_transfer)
from kerrcat.dynamics import JumpTerm
from kerrcat.errors import OutOfWindow, ZeroDrive
from kerrcat.fock import annihilation
from kerrcat.units import MHZ

K = MHZ * 1.2


@pytest.fixture(scope="module")
def cat4():
    params = KerrCatParams(K=K, eps2=4.0 * K)
    trunc = default_truncation(params.alpha)
    return params, trunc


# ------------------------------------------------------------- pulse waveform

def test_pulse_endpoints_and_depth():
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    assert phase_modulation_pulse(spec, 0.0) == pytest.approx(0.0, abs=1e-12)
    # the sine lobe reaches full depth (sign opposite to delta0) at Tg/3
    assert phase_modulation_pulse(spec, spec.Tg / 3.0) == pytest.approx(
        -spec.delta0, rel=1e-12)
    # the relaxation branch is built to return exactly to zero at Tg
    assert phase_modulation_pulse(spec, spec.Tg) == pytest.approx(0.0, abs=1e-9)


def test_pulse_branch_continuity():
    spec = XGateSpec(Tg=0.4, delta0=-5.0)
    tb = spec.Tg / 3.0
    eps = 1e-9
    left = phase_modulation_pulse(spec, tb - eps)
    right = phase_modulation_pulse(spec, tb + eps)
    assert left == pytest.approx(right, abs=1e-5 * abs(spec.delta0))


def test_pulse_window_and_shapes():
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    with pytest.raises(OutOfWindow):
        phase_modulation_pulse(spec, -1e-6)
    with pytest.raises(OutOfWindow):
        phase_modulation_pulse(spec, spec.Tg + 1e-6)
    with pytest.raises(OutOfWindow):
        effective_detuning(spec, [0.0, spec.Tg * 1.5])
    t = np.linspace(0.0, spec.Tg, 7)
    arr = phase_modulation_pulse(spec, t)
    assert arr.shape == t.shape
    assert isinstance(phase_modulation_pulse(spec, 0.1), float)


def test_effective_detuning_matches_finite_difference():
    # -(1/2)(delta + t ddelta/dt), with the derivative checked numerically
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    h = 1e-7
    for t in (0.03, 0.08, 0.15, 0.22, 0.29):
        ddot = (phase_modulation_pulse(spec, t + h)
                - phase_modulation_pulse(spec, t - h)) / (2.0 * h)
        expect = -0.5 * (phase_modulation_pulse(spec, t) + t * ddot)
        assert effective_detuning(spec, t) == pytest.approx(expect, rel=1e-6)


def test_xgatespec_validation():
    with pytest.raises(ValueError):
        XGateSpec(Tg=0.0, delta0=-1.0)
    with pytest.raises(ValueError):
        XGateSpec(Tg=0.3, delta0=-1.0, sigma=-0.1)
    assert XGateSpec(Tg=0.4, delta0=-1.0).sigma == pytest.approx(0.1)


# ----------------------------------------------------------- chevron transfer

def test_x_gate_transfer_at_calibration(cat4):
    # frozen from this implementation at the published calibration point;
    # two successive quarter rotations move |w+> to |w-> with p ~ 0.95
    params, trunc = cat4
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    p = x_gate_transfer(spec, params, trunc, n_gates=2)
    assert p == pytest.approx(0.9477112946931845, abs=1e-5)


def test_x_gate_transfer_off_resonance_is_small(cat4):
    params, trunc = cat4
    spec = XGateSpec(Tg=0.32, delta0=-1.0 * K)
    assert x_gate_transfer(spec, params, trunc, n_gates=2) < 0.3


def test_simulate_x_gate_closed_and_open(cat4):
    params, trunc = cat4
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    res = simulate_x_gate(spec, params, trunc, frame.w_plus, n_samples=5)
    assert res.final_ket is not None
    assert res.final_ket.norm() == pytest.approx(1.0, abs=1e-7)
    assert res.times.size == 5
    jump = JumpTerm(annihilation(trunc), 1.0 / 38.5)
    res_open = simulate_x_gate(spec, params, trunc, frame.w_plus, jumps=[jump])
    assert res_open.final_ket is None
    assert np.trace(res_open.final_state.mat).real == pytest.approx(1.0, abs=1e-7)
    with pytest.raises(TypeError):
        simulate_x_gate(spec, params, trunc, np.zeros(trunc.dim))


def test_simulate_x_gate_density_matrix_equals_ket_route(cat4):
    # without jumps, CF4 on vec(rho) and on the ket take the same intervals
    # and weights, so they agree to round-off
    params, trunc = cat4
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    ket = simulate_x_gate(spec, params, trunc, frame.w_plus, n_samples=3,
                          observables={"z": frame.z})
    rho = simulate_x_gate(spec, params, trunc, frame.w_plus.to_density_matrix(),
                          n_samples=3, observables={"z": frame.z})
    psi = ket.final_ket.amp
    assert np.max(np.abs(rho.final_state.mat - np.outer(psi, psi.conj()))) < 1e-12
    assert np.max(np.abs(rho.observables["z"] - ket.observables["z"])) < 1e-12
    assert rho.nsteps == ket.nsteps


def test_chevron_map_equals_per_cell_transfer(cat4):
    # Tg = 0.30 gets 302 samples at dt = 0.99668 ns (a rounding of
    # ceil(Tg / SAMPLE_PERIOD)), so its columns take shorter intervals than
    # the others in the same series; the grid is unsorted, with a repeat
    params, trunc = cat4
    tgs = np.array([0.25, 0.12, 0.30000000000000004, 0.32, 0.25])
    d0s = np.array([-12.3, -8.2, -2.5, 0.0])
    assert x_gate_schedule(XGateSpec(Tg=tgs[2], delta0=K), params,
                           trunc).envelopes[0][0].size == 302
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    for n_gates in (1, 2, 3):
        grid = chevron_map(params, trunc, tgs, d0s, n_gates=n_gates)
        cells = np.array([[x_gate_transfer(XGateSpec(Tg=tg, delta0=d0 * K), params,
                                           trunc, n_gates, frame) for tg in tgs]
                          for d0 in d0s])
        assert np.max(np.abs(grid - cells)) < 1e-10, n_gates


def test_gate_is_invariant_under_the_phase_of_eps2(cat4):
    # a -> a e^{i phi/2} takes H_KC(|eps2| e^{i phi}) to H_KC(|eps2|) and
    # leaves n unchanged, so the transfer does not depend on phi; a complex
    # eps2 gives CF4 imaginary terms, a real one none
    params, trunc = cat4
    turned = KerrCatParams(K=K, eps2=4.0 * K * np.exp(0.7j))
    spec = XGateSpec(Tg=0.32, delta0=-8.2 * K)
    assert abs(x_gate_transfer(spec, turned, trunc, 2)
               - x_gate_transfer(spec, params, trunc, 2)) < 1e-10
    tgs, d0s = np.array([0.12, 0.32]), np.array([-8.2, -2.5, 0.0])
    assert np.max(np.abs(chevron_map(turned, trunc, tgs, d0s)
                         - chevron_map(params, trunc, tgs, d0s))) < 1e-10


def _flood_fill_lobes(mask):
    # reference: count 4-connected regions by an explicit flood fill
    seen = np.zeros_like(mask, dtype=bool)
    lobes = 0
    for r, c in zip(*np.nonzero(mask)):
        if seen[r, c]:
            continue
        lobes += 1
        stack = [(r, c)]
        seen[r, c] = True
        while stack:
            rr, cc = stack.pop()
            for r2, c2 in ((rr + 1, cc), (rr - 1, cc), (rr, cc + 1), (rr, cc - 1)):
                if 0 <= r2 < mask.shape[0] and 0 <= c2 < mask.shape[1] \
                        and mask[r2, c2] and not seen[r2, c2]:
                    seen[r2, c2] = True
                    stack.append((r2, c2))
    return lobes


@settings(deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 12),
       cols=st.integers(1, 12), fill=st.floats(0.0, 1.0))
def test_count_transfer_lobes_matches_flood_fill(seed, rows, cols, fill):
    transfer = np.random.default_rng(seed).uniform(0.0, 1.0, (rows, cols)) * fill * 2
    assert count_transfer_lobes(transfer, 0.5) == _flood_fill_lobes(transfer > 0.5)


def test_chevron_map_shape(cat4):
    params, trunc = cat4
    tgs = np.array([0.30, 0.32, 0.34])
    d0s = np.array([-9.0, -8.2])
    grid = chevron_map(params, trunc, tgs, d0s, n_gates=2)
    assert grid.shape == (2, 3)
    assert np.all((grid >= 0.0) & (grid <= 1.0))
    # the calibration point sits inside this window
    assert grid.max() > 0.9


def test_count_transfer_lobes_synthetic():
    z = np.zeros((5, 7))
    assert count_transfer_lobes(z) == 0
    z[0:2, 0:2] = 0.9
    z[3:5, 4:6] = 0.8
    assert count_transfer_lobes(z) == 2
    # diagonal contact is not 4-connected
    d = np.zeros((4, 4))
    d[0, 0] = d[1, 1] = 1.0
    assert count_transfer_lobes(d) == 2
    assert count_transfer_lobes(np.ones((3, 3))) == 1
    assert count_transfer_lobes(z, threshold=0.85) == 1


# -------------------------------------------------------------- Zeno rotation

def test_zeno_rotation_recovers_cat_size(cat4):
    params, trunc = cat4
    omega_z = MHZ * 0.1
    res = simulate_z_rotation(params, omega_z, 0.0, 4.0, trunc, n_samples=1001)
    om_c = rabi_frequency(res.times, res.observables["y"])
    assert cat_size_from_rabi(om_c, omega_z) == pytest.approx(4.0, rel=0.05)


def test_zeno_rotation_axis_phase_suppression(cat4):
    # driving in quadrature with the cat axis produces almost no rotation
    params, trunc = cat4
    omega_z = MHZ * 0.1
    frame = build_cat_frame(kerr_cat_hamiltonian(params, trunc))
    r0 = simulate_z_rotation(params, omega_z, 0.0, 2.0, trunc,
                             n_samples=501, frame=frame)
    rq = simulate_z_rotation(params, omega_z, math.pi / 2.0, 2.0, trunc,
                             n_samples=501, frame=frame)
    c0 = float(np.ptp(r0.observables["y"]))
    cq = float(np.ptp(rq.observables["y"]))
    assert cq < 0.05 * c0


def test_zeno_rotation_warns_on_strong_drive(cat4):
    params, trunc = cat4
    gap = 4.0 * params.K * params.cat_size
    with pytest.warns(UserWarning, match="gap"):
        simulate_z_rotation(params, 0.2 * gap, 0.0, 0.05, trunc, n_samples=3)


@settings(deadline=None, max_examples=12)
@given(omega=st.floats(0.8, 18.0), phase=st.floats(0.0, 6.2),
       offset=st.floats(-0.5, 0.5), amp=st.floats(0.2, 1.5))
def test_rabi_frequency_recovers_sinusoid(omega, phase, offset, amp):
    t = np.linspace(0.0, 10.0, 2001)
    y = amp * np.sin(omega * t + phase) + offset
    assert rabi_frequency(t, y) == pytest.approx(omega, rel=1e-6)


def test_rabi_frequency_is_stable_under_round_off():
    # with the analytic Jacobian a 1e-13 change of a trace that the sinusoid
    # does not fit exactly moves the fitted rate at round-off level only; a
    # finite-difference one moved it by 5e-11 here
    t = np.linspace(0.0, 10.0, 1001)
    rng = np.random.default_rng(3)
    y = (0.4 * np.sin(4.0 * t + 0.3) + 0.1 + 0.02 * np.sin(9.1 * t)
         + 0.01 * rng.standard_normal(t.size))
    bump = 1e-13 * rng.standard_normal(t.size)
    base = rabi_frequency(t, y)
    assert abs(rabi_frequency(t, y + bump) / base - 1.0) < 1e-11


def test_cat_size_from_rabi():
    assert cat_size_from_rabi(4.0, 1.0) == pytest.approx(4.0)
    assert cat_size_from_rabi(2.0 * math.sqrt(8.0), 1.0) == pytest.approx(8.0)
    with pytest.raises(ZeroDrive):
        cat_size_from_rabi(1.0, 0.0)
