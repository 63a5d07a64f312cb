"""Qubit frame spanned by the two highest-energy eigenstates of the
stabilized-oscillator Hamiltonian.

The double well is inverted (the Kerr term enters with a negative sign), so
the quasi-degenerate cat manifold sits at the *top* of the spectrum. The
even-parity member defines +X; the symmetric/antisymmetric combinations
approximate the two coherent pointer states and define ±Z.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCat
from .fock import Ket, Operator, Truncation, expectation


@dataclass
class CatFrame:
    """Computational frame of a stabilized cat qubit.

    Attributes
    ----------
    energies : descending eigenvalues of the generating Hamiltonian.
    v_even, v_odd : parity eigenstates spanning the manifold (gauge-fixed so
        ``<v_even| (a+a†)/2 |v_odd>`` is real and positive).
    w_plus, w_minus : pointer states ``(v_even ± v_odd)/sqrt(2)``.
    z, x, y : Pauli operators embedded in the oscillator space,
        ``z = |w+><w+| - |w-><w-|``, ``x = |ve><ve| - |vo><vo|``,
        ``y = i|ve><vo| - i|vo><ve|``.
    projector : rank-2 projector onto the manifold.
    tunnel_splitting : ``|E_even - E_odd|`` of the top pair.
    gap : energy from the manifold mean to the next eigenvalue below.
    """

    trunc: Truncation
    energies: np.ndarray
    v_even: Ket
    v_odd: Ket
    w_plus: Ket
    w_minus: Ket
    z: Operator
    x: Operator
    y: Operator
    projector: Operator
    tunnel_splitting: float
    gap: float


def build_cat_frame(h: Operator) -> CatFrame:
    """Diagonalize ``h`` by photon-number parity and assemble the qubit frame
    from its top eigenpair.

    One ``eigh`` per Fock-parity sector (even and odd photon numbers):
    ``v_even`` is the top state of the even sector and ``v_odd`` that of the
    odd one, so both are exactly zero on the other sector's levels, and
    ``z`` and ``y`` (``x``) are exactly zero where row + column is even
    (odd). One ``eigh`` over both sectors would mix the quasi-degenerate top
    pair, by up to 1e-3 in weight at small alpha.

    Raises DegenerateCat when h has a nonzero entry between even and odd
    Fock states (no parity symmetry), when its two highest levels belong to
    one sector, and when the pointer gauge is undefined.
    """
    H = h.mat
    dim = H.shape[0]
    even, odd = np.arange(0, dim, 2), np.arange(1, dim, 2)
    if np.any(H[np.ix_(even, odd)]):
        raise DegenerateCat("h couples even and odd photon numbers; "
                            "cannot build a cat frame")
    (Ee, Ve), (Eo, Vo) = (np.linalg.eigh(H[np.ix_(s, s)]) for s in (even, odd))
    E = np.concatenate([Ee, Eo])
    top = np.argsort(E, kind="stable")[::-1]
    if (top[0] < Ee.size) == (top[1] < Ee.size):
        raise DegenerateCat("the two highest levels of h share one photon-number "
                            "parity; cannot build a cat frame")
    E = E[top]
    e_even, e_odd = Ee[-1], Eo[-1]
    ve = np.zeros(dim, dtype=np.complex128)
    vo = np.zeros(dim, dtype=np.complex128)
    ve[even], vo[odd] = Ve[:, -1], Vo[:, -1]

    # Gauge: rotate v_odd so <ve|(a+a†)/2|vo> is real positive, pinning the
    # pointer states to the +q / -q wells.
    n = np.arange(1, dim)
    qvo = np.zeros(dim, dtype=np.complex128)
    qvo[:-1] += 0.5 * np.sqrt(n) * vo[1:]   # a |vo>
    qvo[1:] += 0.5 * np.sqrt(n) * vo[:-1]   # a† |vo>
    c = complex(np.vdot(ve, qvo))
    if abs(c) < 1e-12:
        raise DegenerateCat("pointer gauge undefined: <ve|q|vo> = 0")
    vo = vo * np.exp(-1j * np.angle(c))

    wp = (ve + vo) / np.sqrt(2.0)
    wm = (ve - vo) / np.sqrt(2.0)

    Z = np.outer(wp, wp.conj()) - np.outer(wm, wm.conj())
    X = np.outer(ve, ve.conj()) - np.outer(vo, vo.conj())
    Y = 1j * np.outer(ve, vo.conj()) - 1j * np.outer(vo, ve.conj())
    P = np.outer(ve, ve.conj()) + np.outer(vo, vo.conj())

    gap = float(0.5 * (E[0] + E[1]) - E[2]) if dim > 2 else float("nan")
    tr = h.trunc
    return CatFrame(
        trunc=tr,
        energies=E,
        v_even=Ket(ve, tr),
        v_odd=Ket(vo, tr),
        w_plus=Ket(wp, tr),
        w_minus=Ket(wm, tr),
        z=Operator(Z, tr, hermitian_hint=True),
        x=Operator(X, tr, hermitian_hint=True),
        y=Operator(Y, tr, hermitian_hint=True),
        projector=Operator(P, tr, hermitian_hint=True),
        tunnel_splitting=float(abs(e_even - e_odd)),
        gap=gap,
    )


def _frame_state(state):
    return state.normalized() if isinstance(state, Ket) else state


def bloch_vector(frame: CatFrame, state) -> np.ndarray:
    """(⟨x⟩, ⟨y⟩, ⟨z⟩) of a Ket (normalized first) or DensityMatrix in the
    cat frame."""
    st = _frame_state(state)
    return np.array([expectation(O, st) for O in (frame.x, frame.y, frame.z)])


def manifold_population(frame: CatFrame, state) -> float:
    """Probability weight inside the two-dimensional cat manifold."""
    return expectation(frame.projector, _frame_state(state))
