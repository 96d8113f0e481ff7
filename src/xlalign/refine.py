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

from .errors import ContractError, _require_fields, _require_kind, _require_pairs
from .io import BilingualDictionary
from .mapping import _map_in_place, _pair_sums
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
    """The re-normalization's budget and tolerance. At the default 5
    alternations it usually stops short of ``norm_tol``: on the first corpus
    of each bench workload both spaces end 5.3e-5 to 1.4e-4 off unit row
    norms, where 10 to 12 alternations reach 1e-6. Raise ``norm_iters`` to normalize to tolerance."""
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
    from the d x d sums X_DᵀX_D, Z_DᵀZ_D and X_DᵀZ_D (``mapping._pair_sums``):
    X_D⁺ B = (X_DᵀX_D)⁺ X_Dᵀ B, which ``lstsq`` gives as the least-squares
    solution of least norm."""
    g_x, g_z, c = _pair_sums(x, z, src, trg, grams=True)
    return [np.eye(x.shape[1]) + np.linalg.lstsq(g, cross - g, rcond=None)[0] / 2.0
            for g, cross in ((g_x, c), (g_z, c.T))]


def refine_pipeline(x_aligned, z_aligned, dictionary: BilingualDictionary,
                    cfg: RefinementConfig = RefinementConfig(), *,
                    copy: bool = True) -> RefinedSpaces:
    """Map each space by its map fitted to every dictionary pair (module
    docstring), then re-normalize each space independently.

    The maps are fitted first, from d x d sums over 256-pair tiles. Each
    space is then mapped a tile of rows at a time and normalized in place,
    so the call holds the two output spaces, one tile and d x d matrices.
    A space that is not C-ordered float64 is refined in the copy the
    boundary makes (``_require_spaces``), so any layout gives the same bits,
    and with ``copy`` (the default) any other is copied once, after the fit:
    the inputs are left unchanged. With ``copy=False``, C-ordered float64
    inputs are overwritten and returned as the outputs, so no third space is
    held; inputs that share memory (each side has its own map) or are
    read-only are not refined in place.

    With ``norm_iters`` = 0 the output is the mapped spaces. A mapped row of
    zeros, as an antipodal pair gives, has no direction: normalization
    raises DegenerateInputError naming its row and its space, x_aligned or
    z_aligned. ``cfg`` is frozen and was checked when built. A ``copy`` that
    is not a bool, non-finite input, and inputs that ``copy=False`` may not
    overwrite raise ContractError naming the fault; so do spaces of
    different dimensionality, naming both dimensions, and a pair that is not
    two integer rows, naming the pair.
    """
    _require_kind(copy, "copy", "a bool")
    names = ("x_aligned", "z_aligned")
    x, z = _require_spaces(x_aligned, z_aligned, names)
    if not copy and (np.may_share_memory(x_aligned, z_aligned)
                     or not (x.flags.writeable and z.flags.writeable)):
        raise ContractError("copy=False needs writeable x_aligned and z_aligned "
                            "in separate memory")
    src, trg = _require_pairs(dictionary, len(x), len(z), "dictionary pair {} is not two "
                              f"rows in [0, {len(x)}) and [0, {len(z)})").T
    m_x, m_z = _fitted_maps(x, z, src, trg)  # before the copies: its tiles and they never meet
    if copy:
        x, z = (m.copy() if np.may_share_memory(m, given) else m
                for m, given in ((x, x_aligned), (z, z_aligned)))
    reports = [_iterative_normalize_in_place(_map_in_place(m, w), cfg.norm_iters,
                                             cfg.norm_tol, name)
               for m, w, name in ((x, m_x, names[0]), (z, m_z, names[1]))]
    return RefinedSpaces(x, z, len(src), *reports)
