"""Post-alignment refinement: midpoint averaging plus re-normalization.

For every pair in the induced dictionary, both word vectors are replaced by
their midpoint, pulling translations together in the shared space; both
spaces are then re-normalized to unit rows and zero centers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, DegenerateInputError, _require_pairs
from .io import BilingualDictionary
from .normalize import (
    DEFAULT_NORM_ITERS,
    DEFAULT_NORM_TOL,
    NormalizationReport,
    _deviations,
    iterative_normalize,
)
from .retrieval import _argmax, _require_spaces, _score_blocks, _unit_rows


@dataclass
class RefinementConfig:
    norm_iters: int = DEFAULT_NORM_ITERS  # 0 applies averaging only
    norm_tol: float = DEFAULT_NORM_TOL
    conflict_policy: str = "first-pair"  # first-pair | mutual-only


@dataclass
class RefinedSpaces:
    x_refined: np.ndarray
    z_refined: np.ndarray
    pairs_averaged: int
    pairs_skipped: int
    x_norm_report: NormalizationReport
    z_norm_report: NormalizationReport


def _mutual_pairs(x, z, dictionary):
    """Subset of pairs (i, j) where i and j are each other's nearest neighbor."""
    ux, uz = _unit_rows(x), _unit_rows(z)
    src = np.unique(np.array([i for i, _ in dictionary], dtype=np.int64))
    trg = np.unique(np.array([j for _, j in dictionary], dtype=np.int64))
    fwd = _argmax(_score_blocks(ux, uz, src), len(src))
    bwd = _argmax(_score_blocks(uz, ux, trg), len(trg))
    fwd, bwd = dict(zip(src.tolist(), fwd.tolist())), dict(zip(trg.tolist(), bwd.tolist()))
    return {(i, j) for i, j in dictionary if fwd[i] == j and bwd[j] == i}


def average_vectors(x_aligned, z_aligned, dictionary: BilingualDictionary,
                    policy="first-pair"):
    """Set both rows of each retained pair to the pair midpoint.

    first-pair: a word participates only in its first pair in dictionary
    order; later pairs touching it are skipped. mutual-only: only mutual
    nearest-neighbor pairs are retained. Rows outside the retained pairs are
    unchanged. Returns (x_out, z_out, (averaged, skipped)). Non-finite input
    raises ContractError naming its row, spaces of different dimensionality
    raise it naming both dimensions, and a pair that is not two integer rows
    raises it naming the pair.
    """
    # copies: the midpoints are written in place
    x, z = map(np.array, _require_spaces(x_aligned, z_aligned, ("x_aligned", "z_aligned")))
    _require_pairs(dictionary, len(x), len(z), "dictionary pair {} is not two "
                   f"rows in [0, {len(x)}) and [0, {len(z)})")
    if policy == "mutual-only":
        keep = _mutual_pairs(x, z, dictionary)
    elif policy == "first-pair":
        keep = None
    else:
        raise ContractError(f"unknown conflict policy {policy!r}")

    used_src: set[int] = set()
    used_trg: set[int] = set()
    averaged = 0
    for i, j in dictionary:
        if (keep is not None and (i, j) not in keep) or i in used_src or j in used_trg:
            continue
        mid = (x[i] + z[j]) / 2.0
        x[i] = mid
        z[j] = mid
        used_src.add(i)
        used_trg.add(j)
        averaged += 1
    return x, z, (averaged, len(dictionary) - averaged)


def refine_pipeline(x_aligned, z_aligned, dictionary: BilingualDictionary,
                    cfg: RefinementConfig | None = None) -> RefinedSpaces:
    """Average dictionary pairs, then re-normalize each space independently.

    With ``norm_iters`` = 0 the output is exactly the averaging output.
    A pair of antipodal vectors averages to zero, which the normalization
    phase cannot handle; that raises with the offending pair named.
    Non-finite input raises ContractError naming its row, and spaces of
    different dimensionality raise it naming both dimensions.
    """
    cfg = cfg or RefinementConfig()
    if cfg.norm_iters < 0:
        raise ContractError("norm_iters must be >= 0")
    x, z, (averaged, skipped) = average_vectors(x_aligned, z_aligned, dictionary,
                                                cfg.conflict_policy)
    if cfg.norm_iters == 0:
        return RefinedSpaces(
            x, z, averaged, skipped,
            NormalizationReport(0, *_deviations(x)),
            NormalizationReport(0, *_deviations(z)),
        )
    for i, j in dictionary:
        if np.all(x[i] == 0.0) and np.all(z[j] == 0.0):
            raise DegenerateInputError(
                f"pair ({i}, {j}) averaged to the zero vector; "
                "length normalization is undefined"
            )
    x_out, x_report = iterative_normalize(x, cfg.norm_iters, cfg.norm_tol)
    z_out, z_report = iterative_normalize(z, cfg.norm_iters, cfg.norm_tol)
    return RefinedSpaces(x_out, z_out, averaged, skipped, x_report, z_report)
