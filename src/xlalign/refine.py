"""Post-alignment refinement: midpoint averaging plus re-normalization.

For every pair in the induced dictionary, both word vectors are replaced by
their midpoint, pulling translations together in the shared space; both
spaces are then re-normalized to unit rows and zero centers.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import retrieval
from .errors import ContractError, DegenerateInputError, _require_pairs
from .io import BilingualDictionary
from .normalize import (
    DEFAULT_NORM_ITERS,
    DEFAULT_NORM_TOL,
    NormalizationReport,
    _check_iterations,
    _deviations,
    _iterative_normalize_in_place,
)
from .retrieval import _argmax, _norms, _require_spaces, _score_blocks, _unit


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
    """Subset of pairs (i, j) where i and j are each other's nearest neighbor.
    Each pass holds the unit rows of its candidates alone."""
    nx, nz = _norms(x), _norms(z)
    src = np.unique(np.array([i for i, _ in dictionary], dtype=np.int64))
    trg = np.unique(np.array([j for _, j in dictionary], dtype=np.int64))
    fwd = _argmax(_score_blocks(x, _unit(z, nz), src, norms=nx), len(src))
    bwd = _argmax(_score_blocks(z, _unit(x, nx), trg, norms=nz), len(trg))
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
    pairs = _require_pairs(dictionary, len(x), len(z), "dictionary pair {} is not two "
                           f"rows in [0, {len(x)}) and [0, {len(z)})")
    if policy == "mutual-only":
        keep = _mutual_pairs(x, z, dictionary)
    elif policy == "first-pair":
        keep = None
    else:
        raise ContractError(f"unknown conflict policy {policy!r}")

    # a walk in dictionary order, not a first-occurrence rule: of (0, 0),
    # (0, 1), (1, 1) it keeps (0, 0) and (1, 1). A byte per row and per pair
    # marks them, not a Python int
    used_src, used_trg, kept = bytearray(len(x)), bytearray(len(z)), bytearray(len(pairs))
    for row, (i, j) in enumerate(dictionary):
        if (keep is None or (i, j) in keep) and not (used_src[i] or used_trg[j]):
            used_src[i] = used_trg[j] = kept[row] = 1
    src, trg = pairs[np.frombuffer(kept, dtype=bool)].T
    # the kept rows are distinct on each side, so every midpoint reads the
    # unchanged rows the walk above would have read; a tile of pairs at a time
    height = retrieval.BLOCK_SIZE
    for start in range(0, len(src), height):
        i, j = src[start : start + height], trg[start : start + height]
        mid = x[i]
        mid += z[j]
        mid /= 2.0
        x[i] = mid
        z[j] = mid
    return x, z, (len(src), len(pairs) - len(src))


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
    pairs = np.asarray(dictionary, dtype=np.int64).reshape(-1, 2)
    both_zero = ~x.any(axis=1)[pairs[:, 0]] & ~z.any(axis=1)[pairs[:, 1]]
    if both_zero.any():
        i, j = dictionary[int(both_zero.argmax())]
        raise DegenerateInputError(
            f"pair ({i}, {j}) averaged to the zero vector; length normalization is undefined"
        )
    # the averaged spaces are copies of the inputs, so normalised in place
    _check_iterations(cfg.norm_iters, cfg.norm_tol)
    x_report = _iterative_normalize_in_place(x, cfg.norm_iters, cfg.norm_tol)
    z_report = _iterative_normalize_in_place(z, cfg.norm_iters, cfg.norm_tol)
    return RefinedSpaces(x, z, averaged, skipped, x_report, z_report)
