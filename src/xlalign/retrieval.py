"""Translation retrieval: cosine, nearest neighbor, and CSLS.

CSLS rescales cosine similarity by the mean similarity of each point to its
k nearest neighbors on the other side, which demotes hub vectors. All argmax
tie-breaking is lowest-index-wins. Every score in the package (CSLS penalties,
induction, evaluation, mutual-neighbor refinement, the unsupervised init's
similarities) comes from one loop over fixed-size query row blocks,
``_score_blocks``, so no n x n score matrix is ever built; the init keeps one
n x n float32 matrix, the sorted target similarities, as its candidates.
``_score_blocks`` and the argmax helpers keep their input's dtype: the init
scores in float32, every other layer in float64. Block size changes scores
only in the last bits (BLAS rounds blocks of different heights differently).
A consumer may edit a block in place, but every layer drops its reference
(``del``) before the next block's product is computed, so one block is alive
at a time.

Blocks are ``BLOCK_SIZE`` = 256 rows. Consumers hold two or three blocks at
once (the init a float64 similarity block and its float32 sorted copy, then
that copy and a score block; ``_nth_best`` a partition copy and a mask beside
its block), so the height sets most of the memory above the init's n x n
matrix. A sweep over 128, 256, 512 and 1024 rows on the three perfbench
workloads (table in CHANGES.md) chose 256. Against 1024 it lowered peak RSS
by 30% on initheavy, 23% on selflearn and 16% on bigvocab, gave the same
outputs, and moved no end-to-end time beyond the run-to-run spread. 128
saved 7% more on initheavy but ran the loop slower than 256 on selflearn and
initheavy.

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
BLOCK_SIZE = 256


def _unit_rows(m):
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms != 0.0)


def _require_finite(m, name):
    """``m`` as a float64 matrix; ContractError unless it is one, naming the
    first row of ``m`` that holds a NaN or infinity."""
    m = np.asarray(m, dtype=np.float64)
    _require_matrix(m, name)
    finite = np.isfinite(m)
    if not finite.all():
        row = int(np.argwhere(~finite)[0][0])
        raise ContractError(f"{name} row {row} holds a non-finite value")
    return m


def _check_dims(x, z, names):
    """ContractError unless the spaces ``names`` are matrices of one
    dimensionality, naming both dimensions; called before any product."""
    for m, name in zip((x, z), names):
        _require_matrix(m, name)
    dx, dz = np.shape(x)[1], np.shape(z)[1]
    if dx != dz:
        raise ContractError(f"dimension mismatch: {names[0]} d={dx}, {names[1]} d={dz}")


def _require_matrix(m, name):
    if np.ndim(m) != 2:
        raise ContractError(f"{name} must be a matrix, got {np.ndim(m)} axes")


def cosine_block(queries, candidates):
    """Cosine similarity matrix between query rows and candidate rows.

    Zero-norm rows get similarity 0 against everything. Non-finite input
    raises ContractError naming its row, and rows of different
    dimensionality raise it naming both dimensions.
    """
    queries = _require_finite(queries, "queries")
    candidates = _require_finite(candidates, "candidates")
    _check_dims(queries, candidates, ("queries", "candidates"))
    return _unit_rows(queries) @ _unit_rows(candidates).T


def nn_retrieve(sim):
    """Argmax candidate per query row of the score matrix ``sim``; ties go to
    the lowest index. A non-finite score raises ContractError naming its row."""
    sim = _require_finite(sim, "sim")
    if sim.shape[1] < 1:
        raise ContractError("need at least one candidate")
    return sim.argmax(axis=1).tolist()


def _score_blocks(uq, uc, rows=None, shift=None):
    """Yield (start, block) of unit query rows ``uq[rows]`` (default: all)
    scored against all unit candidates ``uc``: cosines, less ``shift[j]`` in
    candidate column j when ``shift`` is given; ``BLOCK_SIZE`` rows a block."""
    n = uq.shape[0] if rows is None else len(rows)
    height = BLOCK_SIZE
    for start in range(0, n, height):
        sel = slice(start, start + height) if rows is None else rows[start : start + height]
        # yielded unnamed, so a consumer's ``del`` frees the block at once
        yield start, _block_scores(uq, sel, uc, shift)


def _block_scores(uq, sel, uc, shift):
    q = uq[sel]
    # numpy computes a one-row product as a matrix-vector product, which
    # rounds differently from the matrix-matrix product of taller blocks
    sim = q @ uc.T if len(q) > 1 else (np.repeat(q, 2, axis=0) @ uc.T)[:1]
    del q  # with ``rows``, a copy: not held while the consumer uses the block
    if shift is not None:
        sim -= shift
    return sim


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


def _knn_means(unit_a, unit_b, k):
    """For each row of unit_a, mean cosine to its k nearest rows of unit_b."""
    out = np.empty(unit_a.shape[0])
    for start, sim in _score_blocks(unit_a, unit_b):
        # top-k values per row; order within the top-k does not matter
        sim.partition(sim.shape[1] - k, axis=1)
        out[start : start + sim.shape[0]] = sim[:, -k:].mean(axis=1)
        del sim
    return out


def _check_csls(ux, uz, k, directions):
    """ContractError unless every query side of ``directions`` has k nearest
    neighbors to average; the caller checks dimensions (``_check_dims``)."""
    checks = {"forward": [(ux, uz)], "backward": [(uz, ux)], "union": [(ux, uz), (uz, ux)]}
    for q, c in checks[directions]:
        if not 1 <= k <= len(c) - 1 or k > len(q):
            raise ContractError(
                f"csls k={k} out of range for {len(q)} queries and {len(c)} candidates"
            )


def csls_scores(x_mapped, z_mapped, k=DEFAULT_CSLS_K, query_indices=None):
    """CSLS score rows for the selected queries against all candidates.

    score(x, z) = 2 cos(x, z) - rT(x) - rS(z), where rT(x) is the mean cosine
    of x to its k nearest candidates and rS(z) the mean cosine of z to its k
    nearest queries. Both penalties are computed over the full sets passed in,
    regardless of ``query_indices``. Yields (start, block) pairs over the
    selected queries. Non-finite input and a query index outside the query
    rows raise ContractError naming the first one.
    """
    x = _require_finite(x_mapped, "x_mapped")
    z = _require_finite(z_mapped, "z_mapped")
    _check_dims(x, z, ("x_mapped", "z_mapped"))
    ux, uz = _unit_rows(x), _unit_rows(z)
    _check_csls(ux, uz, k, "forward")
    rows = None if query_indices is None else _query_rows(query_indices, len(ux))
    r_t, r_s = _knn_means(ux, uz, k), _knn_means(uz, ux, k)
    if rows is not None:
        r_t = r_t[rows]
    for start, sim in _score_blocks(ux, uz, rows):
        sim *= 2.0
        sim -= r_t[start : start + sim.shape[0], None]
        sim -= r_s
        yield start, sim
        del sim


def _query_rows(query_indices, n):
    """``query_indices`` as an int64 array; ContractError unless it lists
    integers in [0, n), naming the first that is not."""
    rows = np.asarray(query_indices)
    if rows.ndim != 1 or (rows.size and rows.dtype.kind not in "iu"):
        raise ContractError("query_indices must be a sequence of integers")
    bad = np.flatnonzero((rows < 0) | (rows >= n))
    if bad.size:
        raise ContractError(
            f"query index {rows[bad[0]]} (entry {bad[0]}) out of range for {n} query rows"
        )
    return rows.astype(np.int64)


def csls_retrieve(x_mapped, z_mapped, k=DEFAULT_CSLS_K, query_indices=None):
    """CSLS argmax candidate per query; ties go to the lowest index."""
    n = np.asarray(x_mapped).shape[0] if query_indices is None else len(query_indices)
    return _argmax(csls_scores(x_mapped, z_mapped, k, query_indices), n).tolist()


def induce_dictionary(x_mapped, z_mapped, method="csls", k=DEFAULT_CSLS_K,
                      directions="union") -> BilingualDictionary:
    """Induce translation pairs between two mapped spaces.

    forward: (i, retrieve(i)) for every source i. backward: (retrieve(j), j)
    for every target j. union: both, deduplicated and sorted by source then
    target index. Non-finite input raises ContractError naming its row, and
    spaces of different dimensionality raise it naming both dimensions.
    """
    x = _require_finite(x_mapped, "x_mapped")
    z = _require_finite(z_mapped, "z_mapped")
    _check_dims(x, z, ("x_mapped", "z_mapped"))
    return _induce(x, z, method, k, directions)


def _induce(x, z, method, k, directions, pick=None):
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
            shift_z = _knn_means(uz, ux, k) / 2.0
        if directions != "forward":
            shift_x = _knn_means(ux, uz, k) / 2.0
    pairs: list[tuple[int, int]] = []
    if directions != "backward":
        best = _argmax(_score_blocks(ux, uz, shift=shift_z), len(ux), pick)
        pairs += enumerate(best.tolist())
    if directions != "forward":
        best = _argmax(_score_blocks(uz, ux, shift=shift_x), len(uz), pick)
        pairs += [(i, j) for j, i in enumerate(best.tolist())]
    return sorted(set(pairs)) if directions == "union" else pairs
