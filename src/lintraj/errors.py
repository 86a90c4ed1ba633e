"""Exception types raised across the package."""


class LintrajError(Exception):
    """Base class for all package-specific errors."""


class DimensionMismatch(LintrajError):
    """Matrix or vector dimensions are inconsistent with (n_modes, n_channels)."""


class NonSymmetricG(LintrajError):
    """The Hamiltonian quadratic form G is not symmetric."""


class NonHermitianF(LintrajError):
    """The mode-operator Hamiltonian form F is not Hermitian."""


class MeasurementSettingInvalid(LintrajError):
    """M M^dag is not diagonal, or an efficiency lies outside [0, 1]."""


class ParameterOutOfRange(LintrajError):
    """A model parameter is outside its physical range, or too large for
    the generator built from it to be finite."""


class MatrixExpFailure(LintrajError):
    """A matrix exponential or another numerical result (an evolved state,
    an effect's mean or log-normalization) has non-finite entries."""


class SingularBlock(LintrajError):
    """A propagator block that must be inverted is (numerically) singular."""


class LogBranchFailure(LintrajError):
    """Principal matrix logarithm undefined: eigenvalue on the closed negative real axis."""


class TruncationOverflow(LintrajError):
    """Fock-space tail population exceeded the configured tolerance."""


class NonHermitianResult(LintrajError):
    """An evolved density matrix lost Hermiticity beyond tolerance."""


class ZeroTrace(LintrajError):
    """Cannot normalize a state with non-positive trace."""


class FilterDivergence(LintrajError):
    """Conditioned covariance lost positive semidefiniteness."""


class RiccatiBlowup(LintrajError):
    """A Riccati flow (the backward information flow or the forward
    covariance flow) produced non-finite entries."""


class CrossCheckFailure(LintrajError):
    """Two independent routes to the same quantity disagree beyond tolerance."""


class SingularInformationMatrix(LintrajError):
    """Effect carries no information in a direction where data was supplied."""


class ConfigError(LintrajError):
    """Malformed run configuration."""
