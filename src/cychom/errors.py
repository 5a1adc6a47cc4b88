"""Error types shared across the package: one per outcome of a CLI report.

Outcome-style signals (an inconsistent linear system, an obstructed lift,
a non-associative triple) are ordinary return values, not exceptions.
cli.run turns each exception below into an exit code and an "error" kind:

  ParseError        exit 1, "parse"
  ValidationError   exit 1, "validation"
  SizeCapExceeded   exit 2, "size_cap"
  NoCertificate     exit 3, caught by the hp and tower commands, which
                    report status NOT_ESTABLISHED

Any other CychomError reaching cli.run is reported as "validation".
"""


class CychomError(Exception):
    """Base class for all package errors."""


class ParseError(CychomError):
    """An input file or the command line failed to parse."""


class ValidationError(CychomError):
    """An input parsed but violates a semantic invariant, such as a degree
    out of range, a non-subgroup or a map that is not multiplicative."""


class SizeCapExceeded(CychomError):
    """A requested chain space exceeds the cell cap (mixed.CELL_CAP), a group
    closure exceeds the order cap (orbifold.ORDER_CAP), or an orbifold
    component exceeds the work cap (orbifold.WORK_CAP)."""


class NoCertificate(CychomError):
    """Periodic homology was requested without a vanishing certificate."""
