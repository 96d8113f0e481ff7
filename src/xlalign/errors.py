"""Exception types shared across the package, and the one check that every
public function taking a matrix runs at the boundary."""

import numpy as np


class XlalignError(Exception):
    """Base class for all package errors."""


class FormatError(XlalignError):
    """A file does not conform to the expected text format."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ContractError(XlalignError, ValueError):
    """An operation was called with arguments violating its contract."""


class DegenerateInputError(XlalignError):
    """Input contains a zero vector where the math requires a direction."""


class AlignmentCollapseError(XlalignError):
    """Self-learning induced an empty dictionary; the alignment collapsed."""


class NumericalError(XlalignError):
    """A numerical routine failed or produced non-finite values."""


def _require_finite(m, name):
    """``m`` as a float64 matrix; ContractError unless it is one, naming the
    first row of ``m`` that holds a NaN or infinity."""
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ContractError(f"{name} must be a matrix, got {m.ndim} axes")
    finite = np.isfinite(m)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise ContractError(f"{name} row {row} holds a non-finite value")
    return m
