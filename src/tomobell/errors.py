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
    """A state of a kind the requested route does not handle: ``make_source``
    and the truncated route take only a ``TomogramSource``, and the named
    closed forms and ``GaussianPortraitContext`` only a library state."""


class NonPhysicalSpec(TomobellError):
    """A Gaussian specification violates symmetry, positivity, or the
    uncertainty bound det M >= 1/16."""


class InvalidParameter(TomobellError, ValueError):
    """An argument outside its domain: a count that is no integer or lies
    below its least value, an amplitude or setting that is not a finite
    number, a state family parameter out of range, a bad partition or
    search configuration. A ``ValueError`` too, so callers that catch
    either class see it."""


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
