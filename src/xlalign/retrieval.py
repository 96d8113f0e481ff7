"""Translation retrieval: cosine, nearest neighbor, and CSLS.

CSLS rescales cosine similarity by the mean similarity of each point to its
k nearest neighbors on the other side, which demotes hub vectors. All argmax
tie-breaking is lowest-index-wins. Every score in the package (CSLS penalties,
induction, evaluation, mutual-neighbor refinement) comes from one loop over
fixed-size query row blocks, ``_score_blocks``, so no n x n matrix is ever
built. Block size changes scores only in the last bits (BLAS rounds blocks of
different heights differently). A consumer may edit a block in place, but
every layer drops its reference (``del``) before the next block's product is
computed, so one block is alive at a time. Induction computes the CSLS
penalties once; the backward direction's are the forward ones swapped.
"""
from __future__ import annotations

import numpy as np

from .errors import ContractError
from .io import BilingualDictionary

DEFAULT_CSLS_K = 10
DEFAULT_BLOCK_SIZE = 1024


def _unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms != 0.0)


def cosine_block(queries, candidates):
    """Cosine similarity matrix between query rows and candidate rows.

    Zero-norm rows get similarity 0 against everything.
    """
    queries = np.asarray(queries, dtype=np.float64)
    candidates = np.asarray(candidates, dtype=np.float64)
    if queries.shape[1] != candidates.shape[1]:
        raise ContractError(
            f"dimension mismatch: queries d={queries.shape[1]}, candidates d={candidates.shape[1]}"
        )
    return _unit_rows(queries) @ _unit_rows(candidates).T


def nn_retrieve(sim):
    """Argmax candidate per query row; ties go to the lowest index."""
    sim = np.asarray(sim)
    if sim.shape[1] < 1:
        raise ContractError("need at least one candidate")
    return sim.argmax(axis=1).tolist()


def _score_blocks(uq, uc, block_size, rows=None, penalties=None):
    """Yield (start, block) of unit query rows ``uq[rows]`` (default: all)
    scored against all unit candidates ``uc``: cosines, or CSLS scores
    2 cos - r_q - r_c when ``penalties`` = (r_q, r_c) is given."""
    n = uq.shape[0] if rows is None else len(rows)
    for start in range(0, n, block_size):
        sel = slice(start, start + block_size) if rows is None else rows[start : start + block_size]
        q = uq[sel]
        # numpy computes a one-row product as a matrix-vector product, which
        # rounds differently from the matrix-matrix product of taller blocks
        sim = q @ uc.T if len(q) > 1 else (np.repeat(q, 2, axis=0) @ uc.T)[:1]
        if penalties is not None:
            sim *= 2.0
            sim -= penalties[0][sel][:, None]
            sim -= penalties[1]
        yield start, sim
        del q, sim


def _argmax(blocks, n, hook=None):
    """Best candidate per query row of ``n`` score rows arriving in blocks;
    ``hook(block)``, when given, may first edit each block in place."""
    out = np.empty(n, dtype=np.int64)
    for start, sim in blocks:
        if hook is not None:
            hook(sim)
        out[start : start + sim.shape[0]] = sim.argmax(axis=1)
        del sim
    return out


def _knn_means(unit_a, unit_b, k, block_size):
    """For each row of unit_a, mean cosine to its k nearest rows of unit_b."""
    out = np.empty(unit_a.shape[0])
    for start, sim in _score_blocks(unit_a, unit_b, block_size):
        # top-k values per row; order within the top-k does not matter
        sim.partition(sim.shape[1] - k, axis=1)
        out[start : start + sim.shape[0]] = sim[:, -k:].mean(axis=1)
        del sim
    return out


def _csls_penalties(ux, uz, k, block_size, directions="forward"):
    """Forward CSLS penalties (rT, rS) between unit queries ux and unit
    candidates uz; the backward direction's penalties are the two swapped."""
    if ux.shape[1] != uz.shape[1]:
        raise ContractError("query and candidate spaces must share dimensionality")
    checks = {"forward": [(ux, uz)], "backward": [(uz, ux)], "union": [(ux, uz), (uz, ux)]}
    for q, c in checks[directions]:
        if not 1 <= k <= len(c) - 1 or k > len(q):
            raise ContractError(
                f"csls k={k} out of range for {len(q)} queries and {len(c)} candidates"
            )
    return _knn_means(ux, uz, k, block_size), _knn_means(uz, ux, k, block_size)


def csls_scores(x_mapped, z_mapped, k=DEFAULT_CSLS_K, query_indices=None,
                block_size=DEFAULT_BLOCK_SIZE):
    """CSLS score rows for the selected queries against all candidates.

    score(x, z) = 2 cos(x, z) - rT(x) - rS(z), where rT(x) is the mean cosine
    of x to its k nearest candidates and rS(z) the mean cosine of z to its k
    nearest queries. Both penalties are computed over the full sets passed in,
    regardless of ``query_indices``. Yields (start, block) pairs over the
    selected queries.
    """
    ux, uz = _unit_rows(x_mapped), _unit_rows(z_mapped)
    rows = None if query_indices is None else np.asarray(query_indices)
    yield from _score_blocks(ux, uz, block_size, rows, _csls_penalties(ux, uz, k, block_size))


def csls_retrieve(x_mapped, z_mapped, k=DEFAULT_CSLS_K, query_indices=None,
                  block_size=DEFAULT_BLOCK_SIZE):
    """CSLS argmax candidate per query; ties go to the lowest index."""
    n = np.asarray(x_mapped).shape[0] if query_indices is None else len(query_indices)
    return _argmax(csls_scores(x_mapped, z_mapped, k, query_indices, block_size), n).tolist()


def induce_dictionary(x_mapped, z_mapped, method="csls", k=DEFAULT_CSLS_K,
                      directions="union", block_size=DEFAULT_BLOCK_SIZE) -> BilingualDictionary:
    """Induce translation pairs between two mapped spaces.

    forward: (i, retrieve(i)) for every source i. backward: (retrieve(j), j)
    for every target j. union: both, deduplicated and sorted by source then
    target index.
    """
    return _induce(x_mapped, z_mapped, method, k, directions, block_size)


def _induce(x, z, method, k, directions, block_size, hook=None):
    """induce_dictionary, with ``hook`` applied to every score block before
    its argmax: forward blocks in row order, then backward blocks."""
    if directions not in ("forward", "backward", "union"):
        raise ContractError(f"unknown directions {directions!r}")
    if method not in ("nn", "csls"):
        raise ContractError(f"unknown retrieval method {method!r}")
    ux, uz = _unit_rows(x), _unit_rows(z)
    fwd = _csls_penalties(ux, uz, k, block_size, directions) if method == "csls" else None
    bwd = None if fwd is None else fwd[::-1]
    pairs: list[tuple[int, int]] = []
    if directions != "backward":
        best = _argmax(_score_blocks(ux, uz, block_size, penalties=fwd), len(ux), hook)
        pairs += enumerate(best.tolist())
    if directions != "forward":
        best = _argmax(_score_blocks(uz, ux, block_size, penalties=bwd), len(uz), hook)
        pairs += [(i, j) for j, i in enumerate(best.tolist())]
    return sorted(set(pairs)) if directions == "union" else pairs
