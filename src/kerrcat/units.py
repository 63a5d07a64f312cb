"""Unit conventions.

Internally everything is hbar = 1 with angular frequencies in rad/us and time
in us. A frequency quoted as f MHz enters as omega = 2*pi*f rad/us; a decay
constant quoted as a plain rate (1/T) enters untouched in 1/us.
"""
import math

TWO_PI = 2.0 * math.pi

# omega [rad/us] = f [MHz] * MHZ
MHZ = TWO_PI

# k_B/hbar expressed in rad/us per mK: the only temperature conversion in use.
KB_OVER_HBAR_MK = 130.920339  # rad/us/mK
HBAR_OVER_KB_MK = 1.0 / KB_OVER_HBAR_MK  # us*mK
