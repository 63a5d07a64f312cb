"""Tests of the benchmark's own code: span arithmetic, the RHS-count
identity behind the rejected-step count, and the Liouvillian oracle.

    python3 -m pytest perfbench -q
"""
import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import spans  # noqa: E402
from kerrcat import kernels  # noqa: E402


# ----------------------------------------------------------------- spans

def test_covered_merges_overlapping_and_nested_intervals():
    assert spans.covered([]) == 0.0
    assert spans.covered([(1.0, 4.0), (3.0, 6.0), (2.0, 3.0), (8.0, 9.0)]) == 6.0


def test_self_time_on_nested_spans():
    S = spans.Span
    tree = [
        S("root", -1, 0.0, 10.0, leaf={"rhs": [3, 1.0]}),
        S("a", 0, 1.0, 4.0),
        S("c", 1, 2.0, 3.0, leaf={"rhs": [1, 0.25]}),
        S("b", 0, 5.0, 8.0),
    ]
    assert spans.self_times(tree) == pytest.approx([
        10.0 - (3.0 + 3.0) - 1.0,  # minus children a and b and its own leaf calls
        3.0 - 1.0,                 # minus child c
        1.0 - 0.25,
        3.0,
    ])


def test_tracer_records_parents_leaves_and_steps():
    ticks = iter(float(t) for t in range(100))
    tracer = spans.Tracer(clock=lambda: next(ticks))
    rhs = tracer.leaf_wrapper("kernels.lb_rhs", lambda *a: None)

    def stepper(state, t0, t1):
        rhs()
        rhs()
        return state, 0.1, 0, 5

    step = tracer.span_wrapper("kernels.lb_step", stepper)
    outer = tracer.span_wrapper("dynamics.evolve", lambda: step(None, 0.0, 2.5))
    outer()
    evolve, lb = tracer.spans
    assert (evolve.name, evolve.parent, lb.parent) == ("dynamics.evolve", -1, 0)
    assert lb.leaf["kernels.lb_rhs"] == [2, 2.0]  # two calls of one tick each
    assert lb.counts == {"steps": 5, "simulated_us": 2.5}
    # evolve 0..7 holds lb_step 1..6, which holds RHS calls 2..3 and 4..5
    assert spans.self_times(tracer.spans) == [2.0, 3.0]


def test_install_wraps_every_alias_and_uninstall_restores():
    import kerrcat
    from kerrcat import dynamics, experiments
    orig = dynamics.fit_exponential
    tracer = spans.Tracer()
    tracer.install(kerrcat)
    try:
        assert kerrcat.fit_exponential is dynamics.fit_exponential is not orig
        assert experiments.RunContext.write_csv.__name__ == "traced"
        dynamics.fit_exponential(np.arange(5.0), np.exp(-np.arange(5.0)))
        assert [s.name for s in tracer.spans] == ["dynamics.fit_exponential"]
    finally:
        tracer.uninstall()
    assert kerrcat.fit_exponential is dynamics.fit_exponential is orig


# ----------------------------------------------------------------- RHS identity

def replay_rk_calls(times):
    """Attempted and rejected steps recovered from the times at which one
    Dormand-Prince stepper call evaluated its RHS: one call on entry, six
    stages per attempt, and after a rejection one more call at the attempt's
    own start time (an accepted step moves on, so its successor starts later)."""
    t, i, attempted, rejected = times[0], 1, 0, 0
    while i < len(times):
        stages = times[i:i + 6]
        assert len(stages) == 6, "RHS calls do not split into whole attempts"
        attempted += 1
        i += 6
        if i < len(times) and times[i] == t:
            rejected += 1
            i += 1
        else:
            t = stages[-1]  # the last stage sits at t + h
    return attempted, rejected


@pytest.mark.skipif(kernels.backend() != "numpy", reason="RHS calls are compiled away")
@pytest.mark.parametrize("which", ["lb", "se"])
def test_rhs_count_identity(monkeypatch, which):
    rng = np.random.default_rng(3)
    dim = 4
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = np.ascontiguousarray(20.0 * (H + H.conj().T))
    env = (0, np.zeros((1, 2), complex), np.zeros((1, 1, 1), complex), 0.0, 0.0)
    tab = (kernels.RK_A, kernels.RK_B, kernels.RK_C, kernels.RK_E)
    # An initial step far above the accurate one forces rejections.
    tol = (1e-10, 1e-12, 1.0, 1.0)
    seen = []
    name = f"_{which}_rhs"
    orig = getattr(kernels, name)

    def recording(t, *rest):
        seen.append(t)
        return orig(t, *rest)

    monkeypatch.setattr(kernels, name, recording)
    if which == "lb":
        L = np.ascontiguousarray(rng.normal(size=(1, dim, dim)).astype(complex))
        G = np.ascontiguousarray(-1j * H - 0.5 * (L[0].conj().T @ L[0]))
        rho = np.zeros((dim, dim), complex)
        rho[0, 0] = 1.0
        out = kernels.lb_step(rho, 0.0, 1.0, G, np.ascontiguousarray(G.conj().T), L,
                              *env, *tol, *tab)
    else:
        psi = np.zeros(dim, complex)
        psi[0] = 1.0
        out = kernels.se_step(psi, 0.0, 1.0, H, *env, *tol, *tab)
    assert out[2] == 0
    attempted, rejected = replay_rk_calls(seen)
    assert attempted == out[3]
    assert rejected > 0
    assert spans.rejected_steps(len(seen), 1, out[3]) == rejected


# ----------------------------------------------------------------- oracles

def test_liouvillian_matches_lindblad_form():
    rng = np.random.default_rng(0)
    dim = 3
    H = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    H = H + H.conj().T
    J = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    JdJ = J.conj().T @ J
    direct = (-1j * (H @ rho - rho @ H) + J @ rho @ J.conj().T
              - 0.5 * (JdJ @ rho + rho @ JdJ))
    assert np.allclose(oracles.liouvillian(H, [J]) @ oracles.vec(rho), oracles.vec(direct),
                       atol=1e-12)


def test_pure_loss_photon_number_decays_as_exp():
    kappa, dim = 0.7, 4
    a = oracles.lowering(dim)
    n = a.conj().T @ a
    H = oracles.kerr_cat_h(1.0, 0.0, 0.3, dim)  # diagonal: commutes with n
    L = oracles.liouvillian(H, [math.sqrt(kappa) * a])
    times = np.linspace(0.0, 5.0, 51)
    rho1 = np.zeros((dim, dim))
    rho1[1, 1] = 1.0
    assert np.allclose(oracles.sample_expectation(L, rho1, n, times),
                       np.exp(-kappa * times), rtol=0.0, atol=1e-12)


def test_early_stop_keeps_the_first_sample_below_threshold():
    L = np.array([[-1.0]])
    times = np.linspace(0.0, 4.0, 41)
    y = oracles.sample_expectation(L, np.array([[1.0]]), np.array([[1.0]]), times, 0.5)
    assert y[-1] < 0.5 <= y[-2] and y.size == 8


@pytest.mark.parametrize("offset", [False, True])
def test_fit_recovers_time_constant(offset):
    t = np.linspace(0.0, 3.0, 40)
    y = 0.9 * np.exp(-t / 1.7) + (0.1 if offset else 0.0)
    assert oracles.fit_exp(t, y, offset=offset) == pytest.approx(1.7, rel=1e-9)


def test_closed_forms():
    assert oracles.nbar(4.0) == pytest.approx(4.0, rel=1e-6)
    assert oracles.zeno_rabi(4.0, 1.0, 0.0) == pytest.approx(4.0, rel=1e-6)
    assert np.allclose(oracles.ptm_of_rotation("Z", math.pi / 2),
                       [[1, 0, 0, 0], [0, 0, -1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], atol=1e-15)
    # a single quarter-wave open stub shorts the line at its design frequency
    stub = {"kind": "open_stub", "electrical_length_at_ref_rad": math.pi / 2,
            "impedance_ohm": 65.0, "f_ref_GHz": 5.9}
    assert oracles.stub_filter_s21_db([stub], 5.9, 50.0) < -200.0
    assert oracles.stub_filter_s21_db([stub], 11.8, 50.0) == pytest.approx(0.0, abs=1e-9)
