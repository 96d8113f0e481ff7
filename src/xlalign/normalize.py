"""Length normalization and dimension-wise mean centering.

``iterative_normalize`` alternates the two single-pass transforms until both
conditions (unit row norms, zero column means) hold simultaneously within a
tolerance. Every function rejects a NaN or infinity in its input with
ContractError naming the first bad row, before it can spread over the matrix.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, _require_finite

DEFAULT_NORM_ITERS = 5
DEFAULT_NORM_TOL = 1e-6


@dataclass
class NormalizationReport:
    iterations_run: int
    max_row_norm_deviation: float  # max over rows of | ||row|| - 1 |
    max_center_magnitude: float  # L2 norm of the column-mean vector


def length_normalize(emb):
    """Scale every row to unit L2 norm. Zero rows stay zero (warning)."""
    emb = _require_finite(emb, "emb")
    norms = np.linalg.norm(emb, axis=1, keepdims=True)
    zero_rows = int(np.sum(norms[:, 0] == 0.0))
    if zero_rows:
        warnings.warn(f"length_normalize: {zero_rows} zero row(s) left unchanged")
    safe = np.where(norms == 0.0, 1.0, norms)
    return emb / safe


def mean_center(emb):
    """Subtract the column mean from every row."""
    emb = _require_finite(emb, "emb")
    if emb.shape[0] == 0:
        raise ContractError("mean_center requires at least one row")
    return emb - emb.mean(axis=0)


def _deviations(emb):
    row_dev = float(np.max(np.abs(np.linalg.norm(emb, axis=1) - 1.0)))
    center_mag = float(np.linalg.norm(emb.mean(axis=0)))
    return row_dev, center_mag


def iterative_normalize(emb, max_iters=DEFAULT_NORM_ITERS, tol=DEFAULT_NORM_TOL):
    """Alternate length normalization and mean centering until convergence.

    Stops when max(row-norm deviation, column-mean magnitude) < tol or after
    ``max_iters`` alternations. The returned matrix is the post-centering
    iterate, so row norms hold within tol rather than exactly. A zero row at
    the start of any alternation is an error (its direction is undefined).
    """
    if max_iters < 1:
        raise ContractError("max_iters must be >= 1")
    if tol <= 0:
        raise ContractError("tol must be > 0")
    x = _require_finite(emb, "emb")
    if x.shape[0] == 0:
        raise ContractError("iterative_normalize requires at least one row")
    iterations = 0
    for _ in range(max_iters):
        norms = np.linalg.norm(x, axis=1)
        zero = np.nonzero(norms == 0.0)[0]
        if zero.size:
            raise DegenerateInputError(
                f"zero vector at row {zero[0]} makes length normalization undefined"
            )
        y = x / norms[:, None]
        x = y - y.mean(axis=0)
        iterations += 1
        row_dev, center_mag = _deviations(x)
        if max(row_dev, center_mag) < tol:
            break
    return x, NormalizationReport(iterations, row_dev, center_mag)


def preprocess(emb):
    """Pre-mapping pipeline: unit rows, centered columns, unit rows again.

    The trailing re-normalization keeps the unit-norm property the mapping
    stage relies on.
    """
    return length_normalize(mean_center(length_normalize(emb)))
