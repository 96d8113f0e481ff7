"""Length normalization and dimension-wise mean centering.

``iterative_normalize`` alternates the two single-pass transforms until both
conditions (unit row norms, zero column means) hold simultaneously within a
tolerance. Every function rejects a NaN or infinity in its input with
ContractError naming the first bad row, before it can spread over the matrix,
and transforms one C-ordered float64 copy of it (``errors._own_copy``), so
any layout of the same values gives the same bits.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, _own_copy, _require_kind
from .retrieval import _norms, _row_norms

DEFAULT_NORM_ITERS = 5
DEFAULT_NORM_TOL = 1e-6


@dataclass
class NormalizationReport:
    iterations_run: int
    max_row_norm_deviation: float  # max over rows of | ||row|| - 1 |
    max_center_magnitude: float  # L2 norm of the column-mean vector


def _length_normalize_in_place(x):
    """Scale every row of ``x`` to unit L2 norm in place. Zero rows stay zero (warning)."""
    norms, zero = _norms(x)
    if zero is not None:
        warnings.warn(f"length_normalize: {np.count_nonzero(zero)} zero row(s) left unchanged")
    x /= norms[:, None]
    return x


def _mean_center_in_place(x):
    """Subtract the column mean from every row of ``x``, in place."""
    if x.shape[0] == 0:
        raise ContractError("mean_center requires at least one row")
    x -= x.mean(axis=0)
    return x


def length_normalize(emb):
    """Scale every row to unit L2 norm. Zero rows stay zero (warning)."""
    return _length_normalize_in_place(_own_copy(emb, "emb"))


def mean_center(emb):
    """Subtract the column mean from every row."""
    return _mean_center_in_place(_own_copy(emb, "emb"))


def iterative_normalize(emb, max_iters=DEFAULT_NORM_ITERS, tol=DEFAULT_NORM_TOL):
    """Alternate length normalization and mean centering until convergence.

    Stops when max(row-norm deviation, column-mean magnitude) < tol or after
    ``max_iters`` alternations. The returned matrix is the post-centering
    iterate, so row norms hold within tol rather than exactly. A zero row at
    the start of any alternation is an error (its direction is undefined).
    """
    _check_iterations(max_iters, tol)
    x = _own_copy(emb, "emb")
    return x, _iterative_normalize_in_place(x, max_iters, tol)


def _check_iterations(max_iters, tol, name="tol"):
    """ContractError unless the integer ``max_iters`` >= 1 and the real
    tolerance ``tol``, named ``name`` in the error, is finite and > 0."""
    _require_kind(max_iters, "max_iters", "an integer")
    _require_kind(tol, name, "a real number")
    if max_iters < 1:
        raise ContractError("max_iters must be >= 1")
    if not (tol > 0 and math.isfinite(tol)):
        raise ContractError(f"{name} must be > 0 and finite, got {tol!r}")


def _iterative_normalize_in_place(x, max_iters, tol, name="emb"):
    """``iterative_normalize`` of the float64 matrix ``x``, named ``name`` in
    errors, in place, with ``tol`` already checked (``_check_iterations``);
    returns the report, of ``x`` as given at ``max_iters`` 0. The next
    alternation divides by the row norms that checked an iterate. Dividing
    and centering in place gives the bits of the quotient and difference copies."""
    if x.shape[0] == 0:
        raise ContractError(f"iterative_normalize requires at least one row in {name}")
    iterations, norms = 0, _row_norms(x)
    while True:
        row_dev = float(np.max(np.abs(norms - 1.0)))
        center_mag = float(np.linalg.norm(x.mean(axis=0)))
        if iterations == max_iters or (iterations and max(row_dev, center_mag) < tol):
            return NormalizationReport(iterations, row_dev, center_mag)
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise DegenerateInputError(
                f"zero vector at row {zero[0]} makes length normalization undefined in {name}"
            )
        x /= norms[:, None]
        x -= x.mean(axis=0)
        norms = _row_norms(x)
        iterations += 1


def preprocess(emb):
    """Pre-mapping pipeline: unit rows, centered columns, unit rows again.

    The trailing re-normalization keeps the unit-norm property the mapping
    stage relies on. One copy of ``emb`` is made, and transformed in place.
    """
    x = _own_copy(emb, "emb")
    return _length_normalize_in_place(_mean_center_in_place(_length_normalize_in_place(x)))
