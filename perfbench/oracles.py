"""Reference computations made apart from kerrcat.

Every function here rebuilds its physics from closed forms with plain
numpy/scipy: the Kerr-cat Hamiltonian, the thermal bath, a Liouvillian
vectorised by column stacking and propagated with ``scipy.linalg.expm``,
exponential fits, the X(pi/2) gate integrated with ``solve_ivp`` (DOP853),
the stub filter's ABCD cascade and Pauli transfer matrices. Nothing here
imports kerrcat, so a fault in the program cannot hide in its own check.

Units follow the program's conventions: angular frequencies in rad/us,
times in us, temperatures in mK, filter frequencies in GHz.
"""
from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.optimize import least_squares

TWO_PI = 2.0 * math.pi
# k_B / hbar from the exact SI values, converted from rad/s/K to rad/us/mK.
KB_OVER_HBAR_MK = 1.380649e-23 / 1.054571817e-34 * 1e-9


# ----------------------------------------------------------------- model

def lowering(dim: int) -> np.ndarray:
    """Truncated annihilation operator a."""
    return np.diag(np.sqrt(np.arange(1.0, dim)), 1).astype(complex)


def kerr_cat_h(K: float, eps2: complex, detuning: float, dim: int) -> np.ndarray:
    """H = -K a†²a² + eps2 a†² + eps2* a² + detuning a†a, with a†²a² = n(n-1)."""
    n = np.arange(dim, dtype=float)
    a = lowering(dim)
    ad = a.conj().T
    H = np.diag(-K * n * (n - 1.0) + detuning * n).astype(complex)
    return H + eps2 * (ad @ ad) + np.conj(eps2) * (a @ a)


def cat_frame(H: np.ndarray):
    """(v_even, v_odd, w_plus, w_minus) from the top eigenpair of H.

    The even member is the one with the larger parity; v_odd's phase makes
    <v_even|(a+a†)/2|v_odd> real and positive, so w_plus sits in the +q well.
    """
    dim = H.shape[0]
    _, V = np.linalg.eigh(H)
    top, second = V[:, -1], V[:, -2]
    parity = (-1.0) ** np.arange(dim)
    if parity @ np.abs(top) ** 2 >= parity @ np.abs(second) ** 2:
        ve, vo = top, second
    else:
        ve, vo = second, top
    a = lowering(dim)
    c = np.vdot(ve, 0.5 * (a + a.conj().T) @ vo)
    vo = vo * np.exp(-1j * np.angle(c))
    return ve, vo, (ve + vo) / math.sqrt(2.0), (ve - vo) / math.sqrt(2.0)


def projector(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def bose(omega: float, T_mK: float) -> float:
    """Thermal occupation of a mode at angular frequency omega (rad/us)."""
    return 1.0 / math.expm1(omega / (KB_OVER_HBAR_MK * T_mK))


def full_bath_ops(p: dict, eps2: complex, dim: int, rate_scale: float) -> list:
    """sqrt(rate)-scaled jump matrices of the full bath.

    p holds the bath inputs (T1_us, T_half_mK, kappa_full_per_us, T_full_mK,
    kappa_phi_MHz, omega_d_MHz, g3_MHz, g4_MHz). Single-photon loss and gain at
    half the drive frequency, the two two-photon channels from the bath at
    the drive frequency with coefficients c1 = 8 g3/(3 wd) and
    c2 = 592 g3/(9 wd²) - 16 g4/(g3 wd), and white dephasing on a†a.
    """
    a = lowering(dim)
    ad = a.conj().T
    num = ad @ a
    wd = TWO_PI * p["omega_d_MHz"]
    g3, g4 = TWO_PI * p["g3_MHz"], TWO_PI * p["g4_MHz"]
    kappa_half = rate_scale / p["T1_us"]
    n_half = bose(wd / 2.0, p["T_half_mK"])
    kappa_full = rate_scale * p["kappa_full_per_us"]
    n_full = bose(wd, p["T_full_mK"])
    c1 = 8.0 * g3 / (3.0 * wd)
    c2 = 592.0 * g3 / (9.0 * wd ** 2) - 16.0 * g4 / (g3 * wd)
    terms = [
        (ad, kappa_half * n_half),
        (a, kappa_half * (1.0 + n_half)),
        (c1 * (ad @ ad) - c2 * np.conj(eps2) * num, kappa_full * n_full),
        (c1 * (a @ a) - c2 * eps2 * num, kappa_full * (1.0 + n_full)),
        (num, rate_scale * TWO_PI * p["kappa_phi_MHz"]),
    ]
    return [math.sqrt(rate) * op for op, rate in terms if rate > 0.0]


# ----------------------------------------------------------------- Liouvillian

def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorisation: vec(A X B) = (B^T kron A) vec(X)."""
    return rho.reshape(-1, order="F")


def liouvillian(H: np.ndarray, jumps: list) -> np.ndarray:
    """Generator of d vec(rho)/dt for -i[H, rho] + sum_k D[J_k] rho."""
    eye = np.eye(H.shape[0])
    L = -1j * (np.kron(eye, H) - np.kron(H.T, eye))
    for J in jumps:
        JdJ = J.conj().T @ J
        L += np.kron(J.conj(), J) - 0.5 * (np.kron(eye, JdJ) + np.kron(JdJ.T, eye))
    return L


def sample_expectation(L: np.ndarray, rho0: np.ndarray, obs: np.ndarray,
                       times: np.ndarray, stop_below: float | None = None) -> np.ndarray:
    """Re Tr(obs rho(t)) on a uniform time grid from one propagator expm(L dt).

    With stop_below set, sampling ends at the first value below it (that
    value included), the early-stop rule of the lifetime fits.
    """
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=1e-12, atol=0.0):
        raise ValueError("sample_expectation needs a uniform time grid")
    P = scipy.linalg.expm(L * dt)
    v = vec(rho0.astype(complex))
    o = vec(obs.T)  # Tr(obs rho) = sum_ij obs_ji rho_ij
    out = [float(np.real(o @ v))]
    for _ in range(times.size - 1):
        v = P @ v
        out.append(float(np.real(o @ v)))
        if stop_below is not None and out[-1] < stop_below:
            break
    return np.array(out)


# ----------------------------------------------------------------- fits

def fit_exp(t: np.ndarray, y: np.ndarray, floor: float = 0.05,
            offset: bool = False) -> float:
    """Time constant T of the least-squares fit y ~ A exp(-t/T) (+ C).

    Starts from the log-linear fit over y > floor and refines all samples
    with a trust-region least-squares solve to full precision.
    """
    m = y > floor
    slope, intercept = np.polyfit(t[m], np.log(y[m]), 1)
    x0 = [math.exp(intercept), -1.0 / slope] + ([0.0] if offset else [])

    def resid(x):
        model = x[0] * np.exp(-t / x[1])
        return model + x[2] - y if offset else model - y

    sol = least_squares(resid, x0, xtol=1e-15, ftol=1e-15, gtol=1e-15,
                        max_nfev=10000)
    return float(sol.x[1])


def t_alpha(K: float, alpha_sq: float, detuning: float, dim: int, bath: dict,
            rate_scale: float, t_max: float, nwindows: int = 160,
            stop_below: float = 0.12) -> float:
    """Pointer lifetime: <Z> of the +alpha pointer state under the full
    bath, sampled on nwindows windows up to t_max with early stop, fit by a
    single exponential without offset."""
    H = kerr_cat_h(K, alpha_sq * K, detuning, dim)
    _, _, wp, wm = cat_frame(H)
    L = liouvillian(H, full_bath_ops(bath, alpha_sq * K, dim, rate_scale))
    times = np.linspace(0.0, t_max, nwindows + 1)
    z = sample_expectation(L, projector(wp), projector(wp) - projector(wm),
                           times, stop_below)
    return fit_exp(times[:z.size], z)


def t_c(K: float, alpha_sq: float, dim: int, jumps: list, t_max: float,
        nwindows: int = 120) -> float:
    """Superposition lifetime: <X> of the even cat, fit by an exponential
    plus offset over the whole window."""
    H = kerr_cat_h(K, alpha_sq * K, 0.0, dim)
    ve, vo, _, _ = cat_frame(H)
    L = liouvillian(H, jumps)
    times = np.linspace(0.0, t_max, nwindows + 1)
    x = sample_expectation(L, projector(ve), projector(ve) - projector(vo), times)
    return fit_exp(times, x, offset=True)


def nbar(alpha_sq: float) -> float:
    """Time-averaged photon number of the decaying cat manifold,
    alpha² (1 + e^{-4 alpha²}) / (1 - e^{-4 alpha²})."""
    q = math.exp(-4.0 * alpha_sq)
    return alpha_sq * (1.0 + q) / (1.0 - q)


def t_c_pure_loss(T1: float, alpha_sq: float, rate_scale: float) -> float:
    """Closed-form phase-flip time T1 / (2 nbar) / rate_scale."""
    return T1 / (2.0 * nbar(alpha_sq)) / rate_scale


# ----------------------------------------------------------------- X(pi/2) gate

def effective_detuning(t: float, Tg: float, d0: float) -> float:
    """-(1/2)(delta + t d delta/dt) of the phase-modulation pulse: a negative
    sine lobe up to Tg/3, then a Gaussian (sigma = Tg/4) relaxing to zero
    at Tg, with its analytic derivative."""
    sig, tb = Tg / 4.0, Tg / 3.0
    if t <= tb:
        w = 3.0 * math.pi / (2.0 * Tg)
        delta = -math.sin(w * t) * d0
        ddot = -math.cos(w * t) * w * d0
    else:
        f = math.exp(-((t - tb) ** 2) / (2.0 * sig ** 2))
        fT = math.exp(-((Tg - tb) ** 2) / (2.0 * sig ** 2))
        delta = -(f / (1.0 - fT)) * (f - fT) * d0
        ddot = -(1.0 / (1.0 - fT)) * (2.0 * f - fT) * (-(t - tb) / sig ** 2) * f * d0
    return -0.5 * (delta + t * ddot)


def x_gate_transfer(K: float, alpha_sq: float, dim: int, Tg: float, d0: float,
                    n_gates: int = 2, sample_period: float | None = None,
                    rtol: float = 1e-11, atol: float = 1e-13) -> float:
    """|<w-| U^n |w+>|² for n gates H(t) = H_KC + effective_detuning(t) a†a.

    sample_period None drives the gate with the continuous pulse; otherwise
    the pulse is sampled on ceil(Tg/sample_period)+1 uniform points and
    interpolated linearly, the waveform an AWG at that period plays.
    """
    H = kerr_cat_h(K, alpha_sq * K, 0.0, dim)
    _, _, wp, wm = cat_frame(H)
    n = np.arange(dim, dtype=float)
    if sample_period is None:
        def drive(t):
            return effective_detuning(t, Tg, d0)
    else:
        nsamp = max(3, int(math.ceil(Tg / sample_period)) + 1)
        ts = np.linspace(0.0, Tg, nsamp)
        env = np.array([effective_detuning(float(s), Tg, d0) for s in ts])

        def drive(t):
            return float(np.interp(t, ts, env))

    def rhs(t, psi):
        return -1j * (H @ psi + drive(t) * n * psi)

    psi = wp
    for _ in range(n_gates):
        sol = solve_ivp(rhs, (0.0, Tg), psi, method="DOP853", rtol=rtol, atol=atol)
        if not sol.success:
            raise RuntimeError(f"solve_ivp failed: {sol.message}")
        psi = sol.y[:, -1] / np.linalg.norm(sol.y[:, -1])
    return float(abs(np.vdot(wm, psi)) ** 2)


# ----------------------------------------------------------------- Zeno rotation

def zeno_rabi(alpha_sq: float, omega_z: float, theta: float) -> float:
    """Manifold Rabi rate 2|alpha| omega_z |cos theta| / sqrt(1 - e^{-4|alpha|²})
    of a weak drive (omega_z e^{i theta}/2) a† + h.c."""
    return (2.0 * math.sqrt(alpha_sq) * omega_z * abs(math.cos(theta))
            / math.sqrt(1.0 - math.exp(-4.0 * alpha_sq)))


# ----------------------------------------------------------------- readout chain

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]]),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def ptm_of_rotation(axis: str | None, angle: float = 0.0) -> np.ndarray:
    """R_ij = Tr(P_i U P_j U†)/2 for U = exp(-i angle/2 P_axis), basis I,X,Y,Z;
    axis None is the identity channel."""
    U = (np.eye(2) if axis is None
         else scipy.linalg.expm(-0.5j * angle * PAULI[axis]))
    basis = [PAULI[k] for k in "IXYZ"]
    return np.array([[0.5 * np.real(np.trace(Pi @ U @ Pj @ U.conj().T))
                      for Pj in basis] for Pi in basis])


def stub_filter_s21_db(elements: list, f_ghz: float, z0: float) -> float:
    """|S21| in dB of a cascade of series lines and shunt open stubs.

    elements: dicts with kind, electrical_length_at_ref_rad, impedance_ohm
    and f_ref_GHz; each length scales linearly with frequency.
    """
    M = np.eye(2, dtype=complex)
    for el in elements:
        theta = el["electrical_length_at_ref_rad"] * f_ghz / el["f_ref_GHz"]
        Z = el["impedance_ohm"]
        if el["kind"] == "line_segment":
            E = np.array([[math.cos(theta), 1j * Z * math.sin(theta)],
                          [1j * math.sin(theta) / Z, math.cos(theta)]])
        else:
            E = np.array([[1.0, 0.0], [1j * math.tan(theta) / Z, 1.0]])
        M = M @ E
    (A, B), (C, D) = M
    return 20.0 * math.log10(abs(2.0 / (A + B / z0 + C * z0 + D)) + 1e-300)
