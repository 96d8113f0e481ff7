"""Translation retrieval: cosine, nearest neighbor, and CSLS.

CSLS rescales cosine similarity by the mean similarity of each point to its
k nearest neighbors on the other side, which demotes hub vectors. All argmax
tie-breaking is lowest-index-wins. Every score in the package (CSLS penalties,
induction, evaluation, the unsupervised init's similarities) comes from one
loop over fixed-size query row blocks, ``_score_blocks``, so no n x n score
matrix is ever built; the init keeps one n x n float32 matrix, the sorted
target similarities, as its candidates. The one whole-matrix scorer is the
public ``cosine_block``, which no layer calls: it is kept as the plain
reference that tests compare the blocked scores against.
``_score_blocks``, ``_knn_means``, ``_induce`` and the argmax helpers score
in their candidates' dtype; only the public functions cast, to float64
(``_require_finite``), and ``induce_dictionary`` keeps two float32 spaces as
they are. The init, the self-learning loop's induction and the final refit
score in float32, every other layer in float64. Block size changes scores
only in the last bits (BLAS rounds blocks of different heights differently).
A consumer may edit a block in place, but every layer drops its reference
(``del``) before the next block's product is computed, so one block is alive
at a time.

Cosines are products of unit rows. Each side's row norms are taken once
(``_norms``, over ``_row_norms``, which squares a block of rows at a time).
A scoring pass makes no copy of either space: ``_score_blocks`` scales its
query rows one block at a time and divides each column of the block's
product with the raw candidate rows by that candidate's norm, before any
shift, so induction and evaluation hold one score block beside their
inputs. The float32 unit copies that the self-learning loop and the final
refit score are built in ``mapping``, a tile of rows at a time. Each unit
row is the float64 quotient of the row by its norm rounded once to float32,
zero rows +0.0 (``_unit``), so a block of scaled query rows has the bits of
the same rows of a whole unit copy; a zero candidate row scores +0.0 against
every query either way. The loop scores the copies as they are; the refit's
``induce_dictionary`` divides every query tile and score column by their
float32 norms, so it scores rows within float32 rounding of those quotients.
The init scores its raw rows.

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
rank by, each in its own ``_knn_means`` pass before the scoring pass that
ranks by it: evaluation (forward only) and ``csls_retrieve`` (the forward
induction's picks, for every source row: the penalties take in every row,
so a caller wanting some rows indexes the list) make the same two passes.
The one exception is a union induction (``_induce``), which shares one
product between the directions: the uz·uxᵀ tile that gives the backward
picks also gives the rS the forward picks need, so it makes three score
products, not four. Induction also owns
the self-learning loop's similarity dropout (its docstring).
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ContractError, _require_finite, _require_kind
from .io import BilingualDictionary

DEFAULT_CSLS_K = 10
BLOCK_SIZE = 256
DIRECTIONS = ("forward", "backward", "union")


def _row_norms(m):
    """Euclidean norm of each row of the float matrix ``m``, in its dtype: bit
    for bit ``np.linalg.norm(m, axis=1)``, which squares all of ``m`` at once,
    while this squares ``BLOCK_SIZE`` rows at a time. A matrix that is not
    C-contiguous goes to ``np.linalg.norm``, whose order of summation
    follows the layout."""
    if not m.flags.c_contiguous:
        return np.linalg.norm(m, axis=1)
    out = np.empty(len(m), dtype=m.dtype)
    for start in range(0, len(m), BLOCK_SIZE):
        rows = m[start : start + BLOCK_SIZE]
        np.sqrt(np.add.reduce(rows * rows, axis=1), out=out[start : start + BLOCK_SIZE])
    return out


def _norms(m):
    """The divisors that scale the rows of ``m`` to unit length, its row norms
    with 1 for a zero row, and a mask of the zero rows (None if there is none)."""
    norms = _row_norms(m)
    zero = norms == 0.0
    if not zero.any():
        return norms, None
    norms[zero] = 1.0
    return norms, zero


def _unit(m, norms, sel=slice(None), dtype=np.float64):
    """Rows ``m[sel]`` scaled to unit length by their ``norms`` (``_norms``),
    in ``dtype``, zero rows +0.0: bit for bit ``_unit_rows(m)[sel].astype(dtype)``,
    as each quotient is taken in ``m``'s dtype and rounded once."""
    divisors, zero = norms
    rows = m[sel]
    out = np.divide(rows, divisors[sel, None], out=np.empty(rows.shape, dtype=dtype))
    if zero is not None:
        out[zero[sel]] = 0.0  # a zero row divided by 1 keeps the signs of its zeros
    return out


def _unit_rows(m):
    """Rows of ``m`` scaled to unit length, in ``m``'s dtype; zero rows stay 0."""
    m = np.asarray(m)
    return _unit(m, _norms(m), dtype=m.dtype)


def _require_spaces(x, z, names, cast=True):
    """``x`` and ``z`` as float64 matrices (without ``cast``, float dtypes
    float64 holds exactly are kept), each checked by ``_require_finite``
    under its name in ``names``; ContractError naming both dimensions unless
    they are equal. Called before any product."""
    x = _require_finite(x, names[0], cast)
    z = _require_finite(z, names[1], cast)
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


def _score_blocks(q, c, rows=None, shift=None, norms=(None, None)):
    """Yield (start, block) of query rows ``q[rows]`` (default: all) scored
    against all candidate rows ``c`` in ``c``'s dtype, less ``shift[j]`` in
    candidate column j when ``shift`` is given; ``BLOCK_SIZE`` rows a block.
    ``norms`` holds ``_norms`` of ``q`` and of ``c``, None for a side that
    holds unit rows already (or the raw rows of the init). Given the query
    norms, each block's query rows are scaled to unit length first
    (``_unit``); given the candidates', column j of each block is divided by
    candidate j's norm before the shift, zero rows' columns +0.0, so raw
    candidates score cosines without a unit copy of them."""
    n = q.shape[0] if rows is None else len(rows)
    height = BLOCK_SIZE
    for start in range(0, n, height):
        sel = slice(start, start + height) if rows is None else rows[start : start + height]
        # yielded unnamed, so a consumer's ``del`` frees the block at once
        yield start, _block_scores(q, sel, c, shift, norms)


def _block_scores(q, sel, c, shift, norms):
    q_norms, c_norms = norms
    q = q[sel] if q_norms is None else _unit(q, q_norms, sel, c.dtype)
    # numpy computes a one-row product as a matrix-vector product, which
    # rounds differently from the matrix-matrix product of taller blocks
    sim = q @ c.T if len(q) > 1 else (np.repeat(q, 2, axis=0) @ c.T)[:1]
    del q  # a copy (scaled, or with ``rows``): not held while the consumer uses the block
    if c_norms is not None:
        divisors, zero = c_norms
        sim /= divisors
        if zero is not None:
            sim[:, zero] = 0.0  # also a row whose squares underflow, as ``_unit`` zeroes it
    if shift is not None:
        sim -= shift
    return sim


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


def _knn_means(a, b, norms, k):
    """For each row of ``a``, mean cosine to its k nearest rows of ``b``, in
    ``b``'s dtype; ``norms`` as ``_score_blocks`` takes them."""
    out = np.empty(a.shape[0], dtype=b.dtype)
    for start, sim in _score_blocks(a, b, norms=norms):
        out[start : start + sim.shape[0]] = _top_k_means(sim, k)
        del sim
    return out


def _top_k_means(sim, k):
    """Mean of the k largest values of each row of ``sim``, which is
    partitioned in place: order within the top k does not matter."""
    sim.partition(sim.shape[1] - k, axis=1)
    return sim[:, -k:].mean(axis=1)


def _check_method(sides, method, k):
    """ContractError for an unknown method, or for csls, a k that is not an integer
    with k nearest neighbors on every (unit query rows, unit candidate rows) side."""
    if method not in ("nn", "csls"):
        raise ContractError(f"unknown retrieval method {method!r}")
    if method == "csls":
        _require_kind(k, "csls k", "an integer")
    for q, c in sides if method == "csls" else ():
        if not 1 <= k <= len(c) - 1 or k > len(q):
            raise ContractError(
                f"csls k={k} out of range for {len(q)} queries and {len(c)} candidates"
            )


def csls_retrieve(x_mapped, z_mapped, k=DEFAULT_CSLS_K):
    """The forward CSLS induction's picks (``_induce``), one per row of
    ``x_mapped`` in row order; ties go to the lowest index. A row's pick does
    not depend on which rows a caller reads, so a caller indexes the list.
    Non-finite input, a dimension mismatch and a bad k raise ContractError
    before any score product."""
    x, z = _require_spaces(x_mapped, z_mapped, ("x_mapped", "z_mapped"))
    return _induce(x, z, "csls", k, "forward")[:, 1].tolist()


def induce_dictionary(x_mapped, z_mapped, method="csls", k=DEFAULT_CSLS_K,
                      directions="union") -> BilingualDictionary:
    """Induce translation pairs between two mapped spaces.

    forward: (i, retrieve(i)) for every source i. backward: (retrieve(j), j)
    for every target j. union: both, deduplicated and sorted by source then
    target index. Two float32 spaces are scored in float32 as they are;
    anything else is cast to float64 and scored there (``_induce``).
    Non-finite input raises ContractError naming its row, and spaces of
    different dimensionality raise it naming both dimensions.
    """
    x, z = np.asarray(x_mapped), np.asarray(z_mapped)
    x, z = _require_spaces(x, z, ("x_mapped", "z_mapped"),
                           cast=not x.dtype == z.dtype == np.float32)
    pairs = _induce(x, z, method, k, directions)
    return list(zip(*pairs.T.tolist()))


def _induce(x, z, method, k, directions, keep_prob=1.0, rng=None, norms=None):
    """``induce_dictionary`` of rows ``x``, ``z`` scored in their dtype, as
    rows of an n x 2 int64 array, in three passes (module docstring):

    1. x·zᵀ gives rT (csls with backward), or z·xᵀ rS (csls forward only);
    2. z·xᵀ gives, tile by tile, the backward picks at shift rT/2 and then
       the tile's rS (backward; rS for a csls union);
    3. x·zᵀ gives the forward picks at shift rS/2 (forward).

    ``norms`` holds each side's ``_norms`` as ``_score_blocks`` takes them,
    None for a side of unit rows (the self-learning loop's unit copies); by
    default each side's are taken once. A pass scales its query rows one
    tile at a time and divides the tile's columns by its candidates' norms,
    so it copies neither side.

    Below ``keep_prob`` 1, as in VecMap's stochastic induction (Artetxe,
    Labaka & Agirre, 2018), each score is kept with probability keep_prob
    and a row takes the argmax of its kept scores. That is sampled exactly,
    with no mask: it is the row's g-th best candidate (``_pick_rows``;
    equal scores ranked by index, 0 when g exceeds the row, as when all are
    dropped), g ~ Geometric(keep_prob) drawn from ``rng`` for every query
    row of each picking direction before any product, forward first, so the
    draws depend on neither the tile height nor the pass order. At
    keep_prob 1 nothing is drawn and a row takes its argmax.
    """
    if directions not in DIRECTIONS:
        raise ContractError(f"unknown directions {directions!r}")
    forward, backward = directions != "backward", directions != "forward"
    sides = [(x, z)] * forward + [(z, x)] * backward
    _check_method(sides, method, k)
    draws = [rng.geometric(keep_prob, size=len(q)) if keep_prob < 1.0 else None
             for q, _ in sides]
    csls = method == "csls"
    nx, nz = (_norms(x), _norms(z)) if norms is None else norms
    r_s = None
    if backward:
        bwd_shift = _knn_means(x, z, (nx, nz), k) / 2.0 if csls else None
        bwd = np.empty(len(z), dtype=np.int64)
        r_s = np.empty(len(z), dtype=x.dtype) if csls and forward else None
        for start, sim in _score_blocks(z, x, norms=(nz, nx)):
            _pick_rows(sim, bwd_shift, draws[-1], keep_prob, bwd, start)
            if r_s is not None:
                r_s[start : start + sim.shape[0]] = _top_k_means(sim, k)
            del sim
    elif csls:
        r_s = _knn_means(z, x, (nz, nx), k)
    if forward:
        fwd = np.empty(len(x), dtype=np.int64)
        fwd_shift = None if r_s is None else r_s / 2.0
        # shifted in place: the tile is dropped after its picks
        for start, sim in _score_blocks(x, z, shift=fwd_shift, norms=(nx, nz)):
            _pick_rows(sim, None, draws[0], keep_prob, fwd, start)
            del sim
    if forward and backward:
        return _union(fwd, bwd)
    return np.column_stack([np.arange(len(x)), fwd] if forward else [bwd, np.arange(len(z))])


def _union(fwd, bwd):
    """The pairs (i, ``fwd[i]``) and (``bwd[j]``, j), deduplicated and sorted
    by source then target index, as rows of an n x 2 int64 array."""
    m = len(bwd)
    # i m + j sorts as (i, j) does, since j < m; a sort and a neighbour
    # comparison give np.unique's keys without its import of numpy.ma
    keys = np.concatenate([np.arange(len(fwd)) * m + fwd, bwd * m + np.arange(m)])
    keys.sort()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    return np.column_stack([keys // m, keys % m])


# rows of a score tile picked at a time: a dropout pick partitions a copy of
# them and an argmax pick at a shift ranks a shifted copy, far below a tile
_PICK_ROWS = 32
_ARGMAX_ROWS = 8


def _pick_rows(sim, shift, g, keep_prob, out, start):
    """``out[start + r]`` = the argmax of score row r of ``sim`` less ``shift``,
    or with draws ``g`` its ``g[start + r]``-th best (``_nth_best`` of the row's
    best ``top``, the least top with (1 - keep_prob)^top <= 2^-10 up to the row
    length: under one row in 1024 is sorted in full), ``_ARGMAX_ROWS`` or
    ``_PICK_ROWS`` rows at a time, shifted copies of them when ``shift`` is
    given; ``sim`` is left unchanged."""
    height = _ARGMAX_ROWS if g is None else _PICK_ROWS
    if g is not None:
        # infinite for a subnormal keep_prob, so capped before rounding up
        top = math.ceil(min(10 * math.log(2) / -math.log1p(-keep_prob), sim.shape[1]))
    for lo in range(0, sim.shape[0], height):
        rows = sim[lo : lo + height]
        if shift is not None:
            rows = rows - shift
        span = slice(start + lo, start + lo + rows.shape[0])
        out[span] = rows.argmax(axis=1) if g is None else _nth_best(rows, g[span], top)
