"""Exception hierarchy shared across the package."""


class MpsPrepError(Exception):
    """Base class for all package-specific errors."""


class InvalidMatrix(MpsPrepError):
    """Matrix or vector input contains NaN/Inf or has an illegal shape."""


class NumericalFailure(MpsPrepError):
    """A backend linear-algebra routine failed to converge."""


class InvalidSplit(MpsPrepError):
    """Tensor unfolding requested at an out-of-range axis position."""


class NotIsometry(MpsPrepError):
    """Columns handed to the unitary completion are not orthonormal."""


class NotNormalized(MpsPrepError):
    """Amplitude vector is not unit norm."""


class InfeasibleRanks(MpsPrepError):
    """Requested per-bond rank caps cannot yield a right-canonical MPS."""


class CorruptMps(MpsPrepError):
    """An MPS, circuit or amplitude object is inconsistent or malformed."""


class StaleStep(MpsPrepError):
    """Truncation step no longer matches the state it is applied to."""


class DimensionMismatch(MpsPrepError):
    """Two states (or a circuit and a state) disagree on register size."""


class NotCanonical(MpsPrepError):
    """Gate synthesis requires a right-canonical MPS."""


class SpanError(MpsPrepError):
    """Gate span falls outside the qubit register."""


class NotUnitary(MpsPrepError):
    """Gate matrix fails the unitarity check."""


class InvalidSpec(MpsPrepError):
    """Benchmark target specification has illegal parameters."""


class BadInput(MpsPrepError):
    """CLI input file is malformed."""
