"""Translation retrieval: cosine, nearest neighbor, and CSLS.

CSLS rescales cosine similarity by the mean similarity of each point to its
k nearest neighbors on the other side, which demotes hub vectors. All argmax
tie-breaking is lowest-index-wins. Every score in the package (CSLS penalties,
induction, evaluation, mutual-neighbor refinement, the unsupervised init's
similarities) comes from one loop over fixed-size query row blocks,
``_score_blocks``, so no n x n score matrix is ever built; the init keeps one
n x n float32 matrix, the sorted target similarities, as its candidates.
``_score_blocks``, ``_unit_rows``, ``_knn_means`` and the argmax helpers keep
their input's dtype; only the public functions cast, to float64
(``_require_finite``). The init and the self-learning loop's induction score
in float32, every other layer in float64. Block size changes scores
only in the last bits (BLAS rounds blocks of different heights differently).
A consumer may edit a block in place, but every layer drops its reference
(``del``) before the next block's product is computed, so one block is alive
at a time.

Blocks are ``BLOCK_SIZE`` = 256 rows. The init holds two blocks at once (a
float64 similarity block and its float32 sorted copy, then that copy and a
score block). Induction shifts its forward tiles in place; its backward
tiles also give penalties, so their picks rank shifted copies of 8 rows (32
under dropout). The height thus sets most of the memory above the
init's n x n matrix. A sweep over 128, 256, 512 and 1024 rows on the three perfbench
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
rank by: evaluation and ``csls_retrieve`` are forward only and make one
``_knn_means`` pass (``_rank_shift``) before their scoring pass. Induction
(``_induce``) shares one product between the two directions: the uz·uxᵀ
tile that gives the backward picks also gives the target penalties rS the
forward picks need, so a union CSLS induction makes three score products,
not four. Induction also owns the self-learning loop's similarity dropout
(its docstring).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, _require_finite
from .io import BilingualDictionary

DEFAULT_CSLS_K = 10
BLOCK_SIZE = 256


def _unit_rows(m):
    """Rows of ``m`` scaled to unit length, in ``m``'s dtype; zero rows stay 0."""
    m = np.asarray(m)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms != 0.0)


def _require_spaces(x, z, names):
    """``x`` and ``z`` as float64 matrices, each checked by ``_require_finite``
    under its name in ``names``; ContractError naming both dimensions unless
    they are equal. Called before any product."""
    x, z = _require_finite(x, names[0]), _require_finite(z, names[1])
    if x.shape[1] != z.shape[1]:
        raise ContractError(
            f"dimension mismatch: {names[0]} d={x.shape[1]}, {names[1]} d={z.shape[1]}"
        )
    return x, z


def cosine_block(queries, candidates):
    """Cosine similarity matrix between query rows and candidate rows.

    Zero-norm rows get similarity 0 against everything. Non-finite input
    raises ContractError naming its row, and rows of different
    dimensionality raise it naming both dimensions.
    """
    queries, candidates = _require_spaces(queries, candidates, ("queries", "candidates"))
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


def _argmax(blocks, n):
    """Argmax candidate per query row of ``n`` score rows arriving in blocks."""
    out = np.empty(n, dtype=np.int64)
    for start, sim in blocks:
        out[start : start + sim.shape[0]] = sim.argmax(axis=1)
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
    """For each row of unit_a, mean cosine to its k nearest rows of unit_b,
    in unit_a's dtype."""
    out = np.empty(unit_a.shape[0], dtype=unit_a.dtype)
    for start, sim in _score_blocks(unit_a, unit_b):
        out[start : start + sim.shape[0]] = _top_k_means(sim, k)
        del sim
    return out


def _top_k_means(sim, k):
    """Mean of the k largest values of each row of ``sim``, which is
    partitioned in place: order within the top k does not matter."""
    sim.partition(sim.shape[1] - k, axis=1)
    return sim[:, -k:].mean(axis=1)


def _check_method(sides, method, k):
    """ContractError for an unknown method, or for csls, a k without k
    nearest neighbors on every (unit query rows, unit candidate rows) side."""
    if method not in ("nn", "csls"):
        raise ContractError(f"unknown retrieval method {method!r}")
    for q, c in sides if method == "csls" else ():
        if not 1 <= k <= len(c) - 1 or k > len(q):
            raise ContractError(
                f"csls k={k} out of range for {len(q)} queries and {len(c)} candidates"
            )


def _rank_shift(uq, uc, method, k):
    """Rank-only shift of unit candidates ``uc`` for unit queries ``uq``
    (module docstring), checked first: None for nn, and for csls half of each
    candidate's penalty, its mean cosine to its k nearest queries."""
    _check_method([(uq, uc)], method, k)
    return None if method == "nn" else _knn_means(uc, uq, k) / 2.0


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
    """CSLS argmax candidate per query; ties go to the lowest index. Ranks by
    the rank-only score cos - rS/2 as induction does, with rS over all query
    rows. Non-finite input, a dimension mismatch, a bad k and a query index
    out of range raise ContractError before any score product."""
    x, z = _require_spaces(x_mapped, z_mapped, ("x_mapped", "z_mapped"))
    ux, uz = _unit_rows(x), _unit_rows(z)
    rows = None if query_indices is None else _query_rows(query_indices, len(ux))
    shift = _rank_shift(ux, uz, "csls", k)
    return _argmax(_score_blocks(ux, uz, rows, shift), len(ux if rows is None else rows)).tolist()


def induce_dictionary(x_mapped, z_mapped, method="csls", k=DEFAULT_CSLS_K,
                      directions="union") -> BilingualDictionary:
    """Induce translation pairs between two mapped spaces.

    forward: (i, retrieve(i)) for every source i. backward: (retrieve(j), j)
    for every target j. union: both, deduplicated and sorted by source then
    target index. Non-finite input raises ContractError naming its row, and
    spaces of different dimensionality raise it naming both dimensions.
    """
    x, z = _require_spaces(x_mapped, z_mapped, ("x_mapped", "z_mapped"))
    pairs = _induce(_unit_rows(x), _unit_rows(z), method, k, directions)
    return list(zip(*pairs.T.tolist()))


def _induce(ux, uz, method, k, directions, keep_prob=1.0, rng=None):
    """``induce_dictionary`` of unit rows ``ux``, ``uz`` in their dtype, as
    rows of an n x 2 int64 array, in three passes (module docstring):

    1. ux·uzᵀ gives rT (csls with backward);
    2. uz·uxᵀ gives, tile by tile, the backward picks at shift rT/2 and then
       the tile's rS (backward, or csls with forward);
    3. ux·uzᵀ gives the forward picks at shift rS/2 (forward).

    Below ``keep_prob`` 1, as in VecMap's stochastic induction (Artetxe,
    Labaka & Agirre, 2018), each score is kept with probability keep_prob
    and a row takes the argmax of its kept scores. That is sampled exactly,
    with no mask: it is the row's g-th best candidate (``_dropout_pick``;
    equal scores ranked by index, 0 when g exceeds the row, as when all are
    dropped), g ~ Geometric(keep_prob) drawn from ``rng`` for every query
    row of each picking direction before any product, forward first, so the
    draws depend on neither the tile height nor the pass order. At
    keep_prob 1 nothing is drawn and a row takes its argmax.
    """
    if directions not in ("forward", "backward", "union"):
        raise ContractError(f"unknown directions {directions!r}")
    forward, backward = directions != "backward", directions != "forward"
    sides = [(ux, uz)] * forward + [(uz, ux)] * backward
    _check_method(sides, method, k)
    draws = [rng.geometric(keep_prob, size=len(q)) if keep_prob < 1.0 else None
             for q, _ in sides]
    csls = method == "csls"
    r_s = None
    if backward or (csls and forward):
        bwd_shift = _knn_means(ux, uz, k) / 2.0 if csls and backward else None
        bwd = np.empty(len(uz), dtype=np.int64) if backward else None
        r_s = np.empty(len(uz), dtype=uz.dtype) if csls and forward else None
        for start, sim in _score_blocks(uz, ux):
            if backward:
                _pick_rows(sim, bwd_shift, draws[-1], keep_prob, bwd, start)
            if r_s is not None:
                r_s[start : start + sim.shape[0]] = _top_k_means(sim, k)
            del sim
    if forward:
        fwd = np.empty(len(ux), dtype=np.int64)
        fwd_shift = None if r_s is None else r_s / 2.0
        # shifted in place: the tile is dropped after its picks
        for start, sim in _score_blocks(ux, uz, shift=fwd_shift):
            _pick_rows(sim, None, draws[0], keep_prob, fwd, start)
            del sim
    if forward and backward:
        m = len(uz)
        # i m + j sorts as (i, j) does, since j < m
        keys = np.unique(np.concatenate([np.arange(len(ux)) * m + fwd, bwd * m + np.arange(m)]))
        return np.column_stack([keys // m, keys % m])
    return np.column_stack([np.arange(len(ux)), fwd] if forward else [bwd, np.arange(len(uz))])


# rows of a score tile picked at a time: a dropout pick partitions a copy of
# them and an argmax pick at a shift ranks a shifted copy, far below a tile
_PICK_ROWS = 32
_ARGMAX_ROWS = 8


def _pick_rows(sim, shift, g, keep_prob, out, start):
    """``out[start + r]`` = the argmax of score row r of ``sim`` less ``shift``,
    or with draws ``g`` its ``g[start + r]``-th best (``_dropout_pick``), from
    ``_ARGMAX_ROWS`` or ``_PICK_ROWS`` rows at a time, shifted copies of them
    when ``shift`` is given; ``sim`` is left unchanged."""
    height = _ARGMAX_ROWS if g is None else _PICK_ROWS
    for lo in range(0, sim.shape[0], height):
        rows = sim[lo : lo + height]
        if shift is not None:
            rows = rows - shift
        span = slice(start + lo, start + lo + rows.shape[0])
        out[span] = rows.argmax(axis=1) if g is None else _dropout_pick(rows, g[span], keep_prob)


def _dropout_pick(sim, g, keep_prob):
    """Per row r of ``sim``, its ``g[r]``-th best candidate (``_nth_best``),
    ranking the best ``top`` scores of each row: the smallest top with
    (1 - keep_prob)^top <= 2^-10, capped at the row length, so fewer than
    one row in 1024 is sorted in full."""
    # infinite for a subnormal keep_prob, so capped before rounding up
    top = math.ceil(min(10 * math.log(2) / -math.log1p(-keep_prob), sim.shape[1]))
    return _nth_best(sim, g, top)
