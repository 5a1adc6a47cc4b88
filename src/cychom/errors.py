"""Error types shared across the package.

Outcome-style signals (an inconsistent linear system, an obstructed lift, a
missing stabilization certificate) are ordinary return values, not exceptions;
the exceptions below mark contract violations or refused computations.
"""


class CychomError(Exception):
    """Base class for all package errors."""


class SizeCapExceeded(CychomError):
    """A requested chain space exceeds the cell cap (mixed.CELL_CAP), or an
    orbifold component exceeds the work cap (orbifold.WORK_CAP)."""


class DegreeOutOfRange(CychomError):
    """A differential or operator was requested in a degree where undefined."""


class NotASubgroup(CychomError):
    """The given element subset is not a subgroup."""


class NotAChain(CychomError):
    """Subgroup chain is not decreasing or does not end at the trivial group."""


class NotMultiplicative(CychomError):
    """A map fails f(xy) = f(x)f(y) on some basis pair."""


class NotInjective(CychomError):
    """A stage map of a direct system fails to have full column rank."""


class NotACycle(CychomError):
    """The input chain is not a cycle for the relevant differential."""


class NoCertificate(CychomError):
    """Periodic homology was requested without a vanishing certificate."""


class OrderCapExceeded(CychomError):
    """Group closure enumeration exceeded the order cap (orbifold.ORDER_CAP)."""


class NonIntegerAverage(CychomError):
    """A character average failed to be an integer; indicates a broken input."""


class ParseError(CychomError):
    """An input file failed to parse; carries position information."""


class ValidationError(CychomError):
    """An input parsed but violates a semantic invariant."""
