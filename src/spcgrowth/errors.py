"""Exception hierarchy.

A run fails in one of two ways a caller can act on, and the command line
maps each to its own exit code:

- ``DataError`` (exit 2): the input panel is unusable. The file cannot be
  read or decoded, the header is wrong, a row does not parse (then it is a
  ``RowParseError`` with the 1-based ``.line``), a (region, year) pair
  repeats, a region's years are not century steps, every raw score is
  the same, or the scores span more than the float range.
- ``NumericalError`` (exit 3): valid data yields no usable result, for
  example too few points for a fit, a validation split or a continuity
  refit, a zero-variance bandwidth, a unimodal density, a fit whose
  objective or Jacobian is not finite, a level the curve never crosses,
  an empty bootstrap ensemble or inverted plateau thresholds.

``ParameterError`` (exit 2, also a ``ValueError``) is an argument that
violates a documented precondition, including a value that must have been
prepared first, such as an unscaled region. Each message names the
condition. The command line reports a DataError or ParameterError raised
while a panel is analysed as a DataError whose message starts with the
panel's file name.
"""


class SpcGrowthError(Exception):
    """Base class for all package errors."""


class DataError(SpcGrowthError):
    """Input data is malformed or violates the panel format."""


class RowParseError(DataError):
    """A row failed to parse; carries the 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ParameterError(SpcGrowthError, ValueError):
    """An argument violates a documented precondition."""


class NumericalError(SpcGrowthError):
    """A numeric procedure cannot produce a usable result on valid data."""
