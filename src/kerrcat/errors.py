"""Exception types raised across the package."""


class KerrcatError(Exception):
    """Base class for all package errors."""


class TruncationTooSmall(KerrcatError):
    """Fock-space cutoff leaves more than the allowed tail probability."""


class DegenerateCat(KerrcatError):
    """Cat-state normalization underflows (|alpha| too small for odd parity)."""


class DimMismatch(KerrcatError):
    """Operands live in different truncated spaces."""


class NotHermitian(KerrcatError):
    """Operator flagged or required hermitian fails the symmetry check."""


class ResonantDriveSingularity(KerrcatError):
    """Drive frequency coincides with a bare mode frequency."""


class DegenerateModes(KerrcatError):
    """Bare mode frequencies coincide; hybridization angle undefined."""


class ZeroG3(KerrcatError):
    """Third-order nonlinearity is zero where a g3-mediated process is requested."""


class NonPositiveTemperature(KerrcatError):
    """Bose-Einstein occupation requested at T < 0."""


class NonFiniteState(KerrcatError):
    """Integration produced NaN/Inf entries or an infinite spectral bound."""


class FitDiverged(KerrcatError):
    """Exponential or sinusoid fit failed to converge to a usable value."""


class ZeroDrive(KerrcatError):
    """Rotation rate requested with zero drive amplitude."""


class SingularDesign(KerrcatError):
    """Tomography input states do not span the qubit operator space."""


class OutOfWindow(KerrcatError):
    """Requested evaluation time lies outside the schedule's support."""


class ConfigInvalid(KerrcatError):
    """Experiment configuration failed validation."""


class ExperimentFailed(KerrcatError):
    """Experiment raised during execution; partial artifacts quarantined."""
