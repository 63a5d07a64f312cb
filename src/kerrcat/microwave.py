"""Lossless transmission-line stub filter model: ABCD cascades, S-parameters,
and band-block synthesis.

Quarter-wave open stubs short the line at the notch frequency (input
impedance → 0) while turning transparent at even harmonics, which is what
lets a deep block at the qubit frequency coexist with a clean pass at the
stabilization-drive frequency one octave up.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Y_CLAMP = 1e12  # siemens; stub admittance bound at quarter-wave resonance


@dataclass(frozen=True)
class NetworkElement:
    """One lossless TEM element.

    kind: "line_segment" (series line) or "open_stub" (shunt open stub).
    electrical_length_at_ref: radians at f_ref; scales linearly with f.
    impedance: characteristic impedance (ohms).
    f_ref: reference frequency (GHz).
    """

    kind: str
    electrical_length_at_ref: float
    impedance: float
    f_ref: float

    def __post_init__(self):
        if self.kind not in ("line_segment", "open_stub"):
            raise ValueError(f"unknown element kind {self.kind!r}")
        if self.impedance <= 0:
            raise ValueError("impedance must be positive")
        if self.f_ref <= 0:
            raise ValueError("f_ref must be positive")


@dataclass
class TwoPortABCD:
    """Transmission (ABCD) matrix entries; each may be a frequency array."""

    a: np.ndarray | complex
    b: np.ndarray | complex
    c: np.ndarray | complex
    d: np.ndarray | complex

    def reciprocity_defect(self) -> float:
        return float(np.max(np.abs(self.a * self.d - self.b * self.c - 1.0)))


def abcd_of(element: NetworkElement, f) -> TwoPortABCD:
    """ABCD of one element at frequency f (GHz, scalar or array).

    Line: [[cos θ, jZ sin θ], [j sin θ/Z, cos θ]]. Open stub: shunt
    Y = j tan(θ)/Z with |Y| clamped at 1e12 S so quarter-wave resonance
    underflows S21 to numerical zero instead of producing NaN.
    """
    farr = np.asarray(f, dtype=float)
    if np.any(farr <= 0):
        raise ValueError("frequency must be positive")
    theta = element.electrical_length_at_ref * farr / element.f_ref
    one = np.ones_like(theta, dtype=np.complex128)
    zero = np.zeros_like(theta, dtype=np.complex128)
    if element.kind == "line_segment":
        return TwoPortABCD(a=np.cos(theta) + 0j,
                           b=1j * element.impedance * np.sin(theta),
                           c=1j * np.sin(theta) / element.impedance,
                           d=np.cos(theta) + 0j)
    y = 1j * np.tan(theta) / element.impedance
    y = np.where(np.isfinite(y), y, 1j * Y_CLAMP)
    mag = np.abs(y)
    y = np.where(mag > Y_CLAMP, 1j * Y_CLAMP * np.sign(y.imag), y)
    return TwoPortABCD(a=one, b=zero, c=y, d=one)


def cascade(elements: list, f) -> TwoPortABCD:
    """Ordered ABCD product of the element list at frequency f."""
    farr = np.asarray(f, dtype=float)
    net = TwoPortABCD(a=np.ones_like(farr, dtype=np.complex128),
                      b=np.zeros_like(farr, dtype=np.complex128),
                      c=np.zeros_like(farr, dtype=np.complex128),
                      d=np.ones_like(farr, dtype=np.complex128))
    for el in elements:
        m = abcd_of(el, farr)
        net = TwoPortABCD(a=net.a * m.a + net.b * m.c,
                          b=net.a * m.b + net.b * m.d,
                          c=net.c * m.a + net.d * m.c,
                          d=net.c * m.b + net.d * m.d)
    return net


def s21(net: TwoPortABCD, z0: float = 50.0):
    """Transmission S21 = 2/(A + B/Z0 + C*Z0 + D) for matched ports."""
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    return 2.0 / (net.a + net.b / z0 + net.c * z0 + net.d)


def s11(net: TwoPortABCD, z0: float = 50.0):
    """Reflection S11 = (A + B/Z0 - C*Z0 - D)/(A + B/Z0 + C*Z0 + D)."""
    if z0 <= 0:
        raise ValueError("z0 must be positive")
    den = net.a + net.b / z0 + net.c * z0 + net.d
    return (net.a + net.b / z0 - net.c * z0 - net.d) / den


def to_db(s) -> np.ndarray:
    return 20.0 * np.log10(np.abs(s) + 1e-300)


def design_notch_filter(f_notch: float = 5.9, n_stubs: int = 4,
                        z_stub: float = 65.0, z_line: float = 65.0) -> list:
    """Band-block topology: n quarter-wave open stubs (at f_notch) separated
    by quarter-wave connecting lines at f_notch."""
    if n_stubs < 1:
        raise ValueError("n_stubs must be >= 1")
    elements = []
    for i in range(n_stubs):
        elements.append(NetworkElement("open_stub", np.pi / 2.0, z_stub, f_notch))
        if i < n_stubs - 1:
            elements.append(NetworkElement("line_segment", np.pi / 2.0, z_line, f_notch))
    return elements


def stopband_width(f_ghz: np.ndarray, s21_db: np.ndarray, f_center: float,
                   level_db: float = -30.0) -> float:
    """Width (GHz) of the contiguous region below level_db containing f_center;
    0 when f_center itself is above the level."""
    mask = np.asarray(s21_db) < level_db
    i0 = int(np.argmin(np.abs(np.asarray(f_ghz) - f_center)))
    if not mask[i0]:
        return 0.0
    lo = i0
    while lo > 0 and mask[lo - 1]:
        lo -= 1
    hi = i0
    while hi < mask.size - 1 and mask[hi + 1]:
        hi += 1
    return float(f_ghz[hi] - f_ghz[lo])


def sweep(elements: list, f_ghz: np.ndarray, z0: float = 50.0) -> dict:
    """S-parameters over a frequency grid; returns arrays keyed
    f_ghz / s21 / s11 / s21_db / s11_db / unitarity_defect."""
    farr = np.asarray(f_ghz, dtype=float)
    net = cascade(elements, farr)
    t = s21(net, z0)
    r = s11(net, z0)
    uni = np.abs(np.abs(t) ** 2 + np.abs(r) ** 2 - 1.0)
    return {"f_ghz": farr, "s21": t, "s11": r,
            "s21_db": to_db(t), "s11_db": to_db(r),
            "unitarity_defect": uni}
