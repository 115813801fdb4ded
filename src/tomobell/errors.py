"""Exception types shared across the library.

Every failure mode that callers are expected to catch gets its own class so
that error handling never has to parse message strings. All of them derive
from :class:`TomobellError`.
"""


class TomobellError(Exception):
    """Base class for all library errors."""


class InvalidStochasticMatrix(TomobellError):
    """A Bell matrix has an entry outside [0, 1], or a column that does not
    sum to 1 minus its tail deficit."""


class AsymmetricR(TomobellError):
    """The Hermite parameter matrix R is not symmetric within tolerance."""


class OrderOverflow(TomobellError):
    """A Hermite index exceeds the configured maximum total order."""


class NumericalNegativity(TomobellError):
    """A quantity that must be a probability evaluated to a negative value
    beyond rounding tolerance. Signals a numerics bug, not bad input."""


class UnsupportedState(TomobellError):
    """The Fock-basis oracle was handed a state it cannot represent as a
    finite superposition of two-mode coherent states."""


class DegenerateGaussian(TomobellError):
    """I - 2M is singular, so the paper's Hermite argument y is undefined.
    Only ``gaussian_y`` raises it; tables and tomograms take such states."""


class NonPhysicalSpec(TomobellError):
    """A Gaussian specification violates symmetry, positivity, or the
    uncertainty bound det M >= 1/16."""


class InvalidParameter(TomobellError):
    """A parametric state family was requested outside its domain."""


class TailTooLarge(TomobellError):
    """Truncated portrait sums left more probability mass uncaptured than
    the configured tolerance allows.

    Attributes:
        tail_deficit: the offending mass, 1 - (sum of the four cells).
    """

    def __init__(self, tail_deficit: float, message: str = ""):
        self.tail_deficit = float(tail_deficit)
        if not message:
            message = f"tail deficit {tail_deficit:.6g} exceeds tolerance"
        super().__init__(message)


class InvalidBellNumber(TomobellError):
    """A Bell number exceeded the Cirelson ceiling 2*sqrt(2) beyond
    tolerance, which no genuine two-qubit portrait can do. Signals a
    numerics bug upstream."""
