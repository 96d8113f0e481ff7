"""Post-alignment refinement: one fitted linear map per side, plus
re-normalization.

As in Meemi (Doval et al., 2018), each side gets the least-squares map of its
dictionary rows onto the pair midpoints, applied to every word of that side:
M_x = I + X_D⁺ (Z_D − X_D) / 2 for the dictionary rows X_D of x and Z_D of z,
and M_z likewise. Of the least-squares maps it is the one nearest the
identity, so directions the dictionary does not span stay unchanged, an
empty dictionary gives the identity, and a dictionary of independent rows
lands each pair on its midpoint. Both mapped spaces are then re-normalized
to unit rows and zero centers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import retrieval
from .errors import ContractError, _require_fields, _require_pairs
from .io import BilingualDictionary
from .normalize import (
    DEFAULT_NORM_ITERS,
    DEFAULT_NORM_TOL,
    NormalizationReport,
    _check_iterations,
    _iterative_normalize_in_place,
)
from .retrieval import _require_spaces


@dataclass(frozen=True)
class RefinementConfig:
    norm_iters: int = DEFAULT_NORM_ITERS  # 0 applies the maps only
    norm_tol: float = DEFAULT_NORM_TOL

    def __post_init__(self):
        _require_fields(self, "an integer", "norm_iters")
        _require_fields(self, "a real number", "norm_tol")
        if self.norm_iters < 0:
            raise ContractError("norm_iters must be >= 0")
        if self.norm_iters:
            _check_iterations(self.norm_iters, self.norm_tol, "norm_tol")


@dataclass
class RefinedSpaces:
    x_refined: np.ndarray
    z_refined: np.ndarray
    pairs_averaged: int  # the dictionary pairs the maps are fitted to
    x_norm_report: NormalizationReport
    z_norm_report: NormalizationReport


def _fitted_maps(x, z, src, trg):
    """M_x and M_z (module docstring) of the dictionary rows x[src], z[trg],
    from the d x d sums X_DᵀX_D, Z_DᵀZ_D and X_DᵀZ_D, gathered
    ``BLOCK_SIZE`` pairs at a time: X_D⁺ B = (X_DᵀX_D)⁺ X_Dᵀ B, which
    ``lstsq`` gives as the least-squares solution of least norm."""
    d = x.shape[1]
    g_x, g_z, c = np.zeros((d, d)), np.zeros((d, d)), np.zeros((d, d))
    for start in range(0, len(src), retrieval.BLOCK_SIZE):
        span = slice(start, start + retrieval.BLOCK_SIZE)
        a, b = x[src[span]], z[trg[span]]
        g_x += a.T @ a
        g_z += b.T @ b
        c += a.T @ b
    return [np.eye(d) + np.linalg.lstsq(g, cross - g, rcond=None)[0] / 2.0
            for g, cross in ((g_x, c), (g_z, c.T))]


def refine_pipeline(x_aligned, z_aligned, dictionary: BilingualDictionary,
                    cfg: RefinementConfig = RefinementConfig()) -> RefinedSpaces:
    """Map each space by its map fitted to every dictionary pair (module
    docstring), then re-normalize each space independently.

    With ``norm_iters`` = 0 the output is the mapped spaces. A mapped row of
    zeros, as an antipodal pair gives, has no direction: normalization
    raises DegenerateInputError naming its row and its space, x_aligned or
    z_aligned. ``cfg`` is frozen and was checked when built. Non-finite
    input raises ContractError naming its row, spaces of different
    dimensionality raise it naming both dimensions, and a pair that is not
    two integer rows raises it naming the pair.
    """
    x, z = _require_spaces(x_aligned, z_aligned, ("x_aligned", "z_aligned"))
    src, trg = _require_pairs(dictionary, len(x), len(z), "dictionary pair {} is not two "
                              f"rows in [0, {len(x)}) and [0, {len(z)})").T
    m_x, m_z = _fitted_maps(x, z, src, trg)
    # the mapped spaces are new matrices, so normalised in place
    x, z = x @ m_x, z @ m_z
    reports = [_iterative_normalize_in_place(m, cfg.norm_iters, cfg.norm_tol, name)
               for m, name in ((x, "x_aligned"), (z, "z_aligned"))]
    return RefinedSpaces(x, z, len(src), *reports)
