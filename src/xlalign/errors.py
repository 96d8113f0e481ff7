"""Exception types shared across the package, and the checks that every
public function taking a matrix or a dictionary runs at the boundary."""

import numbers
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


class NumericalError(XlalignError):
    """A numerical routine failed or produced non-finite values."""


def _require_finite(m, name):
    """``m`` as a matrix in its own float dtype if float64 holds that exactly,
    else cast to float64. ContractError naming ``name`` unless ``m`` is
    a matrix of integers or floats (not bools, complex numbers, dates,
    strings, objects or rows of different lengths) with at least one column,
    checked before any cast, and naming its first row that holds a NaN or
    infinity. The check reads ``m``'s least and greatest values, which are
    NaN if any value is, so it makes no temporary of ``m``'s size unless it
    fails."""
    try:
        m = np.asarray(m)
    except ValueError:  # numpy's "inhomogeneous shape"
        raise ContractError(f"{name} must be a matrix of real numbers, "
                            "got rows of different lengths") from None
    if m.dtype.kind not in "iuf":
        raise ContractError(f"{name} must be a matrix of real numbers, got dtype {m.dtype}")
    if m.ndim != 2:
        raise ContractError(f"{name} must be a matrix, got {m.ndim} axes")
    if m.shape[1] == 0:
        raise ContractError(f"{name} has no columns")
    if m.dtype.kind != "f" or m.dtype.itemsize > 8:
        m = m.astype(np.float64, copy=False)
    if m.size and not (np.isfinite(m.min()) and np.isfinite(m.max())):
        row = int(np.argwhere(~np.isfinite(m))[0][0])
        raise ContractError(f"{name} row {row} holds a non-finite value")
    return m


def _own_copy(m, name):
    """A C-ordered float64 copy of ``m``, checked by ``_require_finite`` under
    ``name`` before it is made: the one way a public function makes a space
    of its own to change in place, the same for any layout of ``m``."""
    return np.array(_require_finite(m, name), dtype=np.float64, order="C")


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


# what each kind of config field must be; bools are integers and real numbers in
# Python, so they are ruled out by their type
_KINDS = {"an integer": numbers.Integral, "a real number": numbers.Real, "a bool": (bool, np.bool_)}


def _require_kind(value, name, kind):
    """ContractError naming ``name`` unless ``value`` is ``kind``: "an integer"
    (Python or numpy), "a real number" (an integer or a float) or "a bool"
    (Python or numpy); only "a bool" is a bool."""
    is_bool = isinstance(value, (bool, np.bool_))
    if is_bool != (kind == "a bool") or not isinstance(value, _KINDS[kind]):
        raise ContractError(f"{name} must be {kind}, got {value!r}")


def _require_fields(cfg, kind, *names):
    """``_require_kind`` of each field of ``cfg`` in ``names``, in order."""
    for name in names:
        _require_kind(getattr(cfg, name), name, kind)
