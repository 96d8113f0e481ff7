"""Exception types shared across the package, and the checks that every
public function taking a matrix or a dictionary runs at the boundary."""

from itertools import chain

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


def _require_pairs(pairs, n_src, n_trg, message):
    """``pairs`` as an n x 2 int64 array of integer pairs (bools are not) in
    [0, ``n_src``) x [0, ``n_trg``); an empty sequence is no pairs. Otherwise
    ContractError with ``message`` formatted with the first bad pair."""
    try:
        a = np.asarray(pairs)
    except ValueError:  # pairs of different lengths
        a = np.empty(0)
    if not (a.ndim == 2 and a.shape[1] == 2 and a.dtype.kind in "iu"
            and (a >= 0).all() and (a < (n_src, n_trg)).all()
            # numpy reads True as 1, so a bool is found by its type
            and (isinstance(pairs, np.ndarray)
                 or not {bool, np.bool_} & set(map(type, chain.from_iterable(pairs))))):
        for pair in pairs:
            two = isinstance(pair, (tuple, list, np.ndarray)) and len(pair) == 2
            if not two or not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                                  and 0 <= v < n for v, n in zip(pair, (n_src, n_trg))):
                raise ContractError(message.format("({}, {})".format(*pair) if two else repr(pair)))
    return a.astype(np.int64).reshape(-1, 2)  # also no pairs, or integers promoted to floats
