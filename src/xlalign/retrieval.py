"""Translation retrieval: cosine, nearest neighbor, and CSLS.

CSLS rescales cosine similarity by the mean similarity of each point to its
k nearest neighbors on the other side, which demotes hub vectors. All argmax
tie-breaking is lowest-index-wins. Every score in the package (CSLS penalties,
induction, evaluation, mutual-neighbor refinement, the unsupervised init's
similarities) comes from one loop over fixed-size query row blocks,
``_score_blocks``, so no n x n score matrix is ever built; the init keeps one
n x n matrix, the sorted target similarities, as its candidates. Block size
changes scores only in the last bits (BLAS rounds blocks of different heights
differently). A consumer may edit a block in place, but every layer drops its
reference (``del``) before the next block's product is computed, so one block
is alive at a time.

Induction and evaluation only rank the candidates of each query row, so they
score rank-only: a query's own penalty is the same along its row and cannot
change the row's order, so forward rows score cos - rS/2 and backward rows
cos - rT/2. Halving is exact in binary, so these order bit for bit like
2 cos - r. Each penalty is computed once, and only the ones the directions
rank by: evaluation is forward only and makes one ``_knn_means`` pass. The
public ``csls_scores`` and ``csls_retrieve`` keep the full CSLS values.
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


def _require_finite(m, name):
    """``m`` as a float64 array; ContractError naming the first row of ``m``
    that holds a NaN or infinity."""
    m = np.asarray(m, dtype=np.float64)
    finite = np.isfinite(m)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise ContractError(f"{name} row {row} holds a non-finite value")
    return m


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


def _score_blocks(uq, uc, block_size, rows=None, shift=None):
    """Yield (start, block) of unit query rows ``uq[rows]`` (default: all)
    scored against all unit candidates ``uc``: cosines, less ``shift[j]`` in
    candidate column j when ``shift`` is given."""
    n = uq.shape[0] if rows is None else len(rows)
    for start in range(0, n, block_size):
        sel = slice(start, start + block_size) if rows is None else rows[start : start + block_size]
        q = uq[sel]
        # numpy computes a one-row product as a matrix-vector product, which
        # rounds differently from the matrix-matrix product of taller blocks
        sim = q @ uc.T if len(q) > 1 else (np.repeat(q, 2, axis=0) @ uc.T)[:1]
        del q  # with ``rows``, a copy: not held while the consumer uses the block
        if shift is not None:
            sim -= shift
        yield start, sim
        del sim


def _argmax(blocks, n, pick=None):
    """Chosen candidate per query row of ``n`` score rows arriving in blocks:
    the row argmax, or ``pick(block)`` when given."""
    out = np.empty(n, dtype=np.int64)
    for start, sim in blocks:
        out[start : start + sim.shape[0]] = sim.argmax(axis=1) if pick is None else pick(sim)
        del sim
    return out


def _nth_best(sim, g, top):
    """Per row r of ``sim``, the index of its g[r]-th best score, ranking
    equal scores by index; 0 where g[r] exceeds the row length.

    The ``top`` best values of each row are found by one partition and sorted;
    the g-th best value is read from them and located in the row, and the
    rank among equal values picks the tie. Only rows with g > ``top`` are
    sorted in full.
    """
    b, m = sim.shape
    top = min(top, m)
    best = np.partition(sim, m - top, axis=1)[:, m - top :]
    best.sort(axis=1)
    rows = np.arange(b)
    value = best[rows, top - np.minimum(g, top)]
    equal = sim == value[:, None]
    out = equal.argmax(axis=1)
    # the g-th best is the t-th lowest index holding its value, t = g - (count
    # of greater values); every greater value is among the top
    tie = g - (best > value[:, None]).sum(axis=1)
    for r in np.flatnonzero((tie > 1) & (g <= top)):
        out[r] = np.flatnonzero(equal[r])[tie[r] - 1]
    for r in np.flatnonzero(g > top):
        out[r] = np.argsort(-sim[r], kind="stable")[g[r] - 1] if g[r] <= m else 0
    return out


def _argmax_both(blocks, n, m):
    """Best candidate per query row and best query per candidate column of an
    ``n`` x ``m`` score matrix arriving in row blocks; ties go to the lowest
    index both ways, as a later block takes a column only when strictly greater."""
    rows = np.empty(n, dtype=np.int64)
    cols = np.zeros(m, dtype=np.int64)
    col_max = np.full(m, -np.inf)
    for start, sim in blocks:
        rows[start : start + sim.shape[0]] = sim.argmax(axis=1)
        best = sim.argmax(axis=0)
        top = sim[best, np.arange(m)]
        del sim
        better = top > col_max
        cols[better] = best[better] + start
        col_max[better] = top[better]
    return rows, cols


def _knn_means(unit_a, unit_b, k, block_size):
    """For each row of unit_a, mean cosine to its k nearest rows of unit_b."""
    out = np.empty(unit_a.shape[0])
    for start, sim in _score_blocks(unit_a, unit_b, block_size):
        # top-k values per row; order within the top-k does not matter
        sim.partition(sim.shape[1] - k, axis=1)
        out[start : start + sim.shape[0]] = sim[:, -k:].mean(axis=1)
        del sim
    return out


def _check_csls(ux, uz, k, directions):
    """ContractError unless the spaces share dimensionality and every query
    side of ``directions`` has k nearest neighbors to average."""
    if ux.shape[1] != uz.shape[1]:
        raise ContractError("query and candidate spaces must share dimensionality")
    checks = {"forward": [(ux, uz)], "backward": [(uz, ux)], "union": [(ux, uz), (uz, ux)]}
    for q, c in checks[directions]:
        if not 1 <= k <= len(c) - 1 or k > len(q):
            raise ContractError(
                f"csls k={k} out of range for {len(q)} queries and {len(c)} candidates"
            )


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
    _check_csls(ux, uz, k, "forward")
    r_t, r_s = _knn_means(ux, uz, k, block_size), _knn_means(uz, ux, k, block_size)
    rows = None if query_indices is None else np.asarray(query_indices)
    if rows is not None:
        r_t = r_t[rows]
    for start, sim in _score_blocks(ux, uz, block_size, rows):
        sim *= 2.0
        sim -= r_t[start : start + sim.shape[0], None]
        sim -= r_s
        yield start, sim
        del sim


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
    target index. Non-finite input raises ContractError naming its row.
    """
    x = _require_finite(x_mapped, "x_mapped")
    z = _require_finite(z_mapped, "z_mapped")
    return _induce(x, z, method, k, directions, block_size)


def _induce(x, z, method, k, directions, block_size, pick=None):
    """induce_dictionary, with ``pick(block)`` choosing each score row's
    candidate in place of its argmax: forward blocks in row order, then
    backward blocks. CSLS blocks hold rank-only scores (module docstring)."""
    if directions not in ("forward", "backward", "union"):
        raise ContractError(f"unknown directions {directions!r}")
    if method not in ("nn", "csls"):
        raise ContractError(f"unknown retrieval method {method!r}")
    ux, uz = _unit_rows(x), _unit_rows(z)
    shift_x = shift_z = None
    if method == "csls":
        _check_csls(ux, uz, k, directions)
        if directions != "backward":
            shift_z = _knn_means(uz, ux, k, block_size) / 2.0
        if directions != "forward":
            shift_x = _knn_means(ux, uz, k, block_size) / 2.0
    pairs: list[tuple[int, int]] = []
    if directions != "backward":
        best = _argmax(_score_blocks(ux, uz, block_size, shift=shift_z), len(ux), pick)
        pairs += enumerate(best.tolist())
    if directions != "forward":
        best = _argmax(_score_blocks(uz, ux, block_size, shift=shift_x), len(uz), pick)
        pairs += [(i, j) for j, i in enumerate(best.tolist())]
    return sorted(set(pairs)) if directions == "union" else pairs
