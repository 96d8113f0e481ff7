"""Unsupervised alignment of two embedding spaces.

Seeds a dictionary from intra-language similarity distributions, then
alternates orthogonal Procrustes solves with CSLS dictionary induction until
the mean-cosine objective stops improving. Induction is stochastic, as in
VecMap (Artetxe, Labaka & Agirre, 2018): each similarity is kept with
probability keep_prob, sampled exactly by rank in ``retrieval._induce``
(its docstring), which keeps the search from locking in early. The loop
and the final full-vocabulary refit induce in float32, VecMap's precision,
from float32 unit copies of x W_x and z W_z that ``_unit_rows32`` builds a
tile of rows at a time (the refit's ``induce_dictionary`` divides them again
by their float32 norms); the solves, the objective and this module's public
functions stay float64. Each loop dictionary's d x d product X_D^T Z_D gives
both its objective and the next solve. The loop, the refit and refinement
all sum their products over tiles of pairs (``_pair_sums``), so no
dictionary's rows are ever gathered whole. ``_mapped_tiles`` is the one
product of a space and a transform: ``_map_in_place`` maps a space the
caller owns a tile of rows at a time, as the CLI maps its preprocessed
spaces, and ``MappingResult.map_src``/``map_trg`` map a float64 copy the
same way, so the library and the CLI give the same bits.

A ``MappingConfig`` is frozen and checked when built; its cutoff (``cutoff``)
and each CSLS k (``csls_k_between``) follow the vocabulary sizes.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import retrieval
from .errors import (
    ContractError, NumericalError, _require_fields, _require_finite, _require_pairs,
)
from .io import BilingualDictionary
from .retrieval import (
    DEFAULT_CSLS_K, _argmax_both, _induce, _norms, _require_spaces, _score_blocks, _union,
    _unit, induce_dictionary,
)


@dataclass(frozen=True)
class MappingConfig:
    vocab_cutoff: int = 20000
    csls_k: int = DEFAULT_CSLS_K
    keep_prob: float = 0.1  # the loop's first similarity keep probability
    stall_patience: int = 50
    max_iterations: int = 10000
    direction: str = "union"  # one of retrieval.DIRECTIONS
    seed: int = 0
    reweight: bool = False  # scale mapped spaces by sqrt of singular values

    def __post_init__(self):
        _require_fields(self, "an integer", "vocab_cutoff", "csls_k", "stall_patience",
                        "max_iterations", "seed")
        _require_fields(self, "a real number", "keep_prob")
        _require_fields(self, "a bool", "reweight")
        for ok, rule in (
            (self.vocab_cutoff >= 2, "vocab_cutoff must be >= 2"),
            (self.csls_k >= 1, "csls_k must be >= 1"),
            (0.0 < self.keep_prob <= 1.0, "keep_prob must be in (0, 1]"),
            (self.direction in retrieval.DIRECTIONS, f"unknown direction {self.direction!r}"),
            (self.stall_patience >= 1, "stall_patience must be >= 1"),
            (self.max_iterations >= 1, "max_iterations must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
        ):
            if not ok:
                raise ContractError(rule)

    def cutoff(self, x, z):
        """min(vocab_cutoff, len(x), len(z)), the rows of ``x`` and ``z`` the init and
        the loop align; ContractError naming both sizes if either is under 2."""
        if min(len(x), len(z)) < 2:
            raise ContractError(f"alignment needs 2 rows per space, got x {len(x)}, z {len(z)}")
        return min(self.vocab_cutoff, len(x), len(z))


def csls_k_between(csls_k, x, z):
    """``csls_k``, capped at the neighbours a row of the smaller of ``x``, ``z`` has."""
    return min(csls_k, min(len(x), len(z)) - 1)


@dataclass
class MappingResult:
    w_src: np.ndarray  # d x d orthogonal
    w_trg: np.ndarray  # d x d orthogonal
    dictionary: BilingualDictionary
    objective: float
    iterations: int
    converged: bool
    # set only when cfg.reweight: per-dimension sqrt-singular-value scaling,
    # applied on top of the orthogonal transforms when mapping
    reweight_scale: np.ndarray | None = field(default=None, repr=False)

    def map_src(self, x):
        return self._map(x, self.w_src, "x")

    def map_trg(self, z):
        return self._map(z, self.w_trg, "z")

    def _map(self, m, w, name):
        """A new float64 space ``m @ w``, scaled under ``reweight``: a copy of
        ``m`` in C order (BLAS rounds another layout's rows differently),
        mapped in place (``_map_in_place``), bit for bit the CLI's mapped
        space, then scaled whole once its tile is freed, as scaling each tile
        would hold numpy's broadcast buffer beside the tile. Non-finite input
        raises ContractError naming its row, and rows of another
        dimensionality than ``w`` raise it naming both dimensions."""
        mapped = _require_finite(np.array(m, dtype=np.float64, order="C"), name)
        if mapped.shape[1] != w.shape[0]:
            raise ContractError(f"dimension mismatch: {name} d={mapped.shape[1]}, "
                                f"transform d={w.shape[0]}")
        _map_in_place(mapped, w)
        if self.reweight_scale is not None:
            mapped *= self.reweight_scale
        return mapped


def procrustes_solve(x_pairs, z_pairs):
    """Orthogonal W minimizing ||XW - Z||_F, via SVD of X^T Z. Non-finite
    input raises ContractError naming its row, before the SVD."""
    x, z = _require_finite(x_pairs, "x_pairs"), _require_finite(z_pairs, "z_pairs")
    if x.shape != z.shape:
        raise ContractError(f"shape mismatch: {x.shape} vs {z.shape}")
    if x.shape[0] < 1:
        raise ContractError("need at least one pair")
    u, v, _ = _symmetric_solve(x.T @ z)
    return u @ v.T


def _symmetric_solve(cross):
    """Per-language orthogonal transforms maximizing the pair similarity.

    With the d x d cross product X_D^T Z_D = U S V^T of the dictionary rows,
    mapping X by U and Z by V puts both spaces in the shared basis, where the
    pairs' summed similarity is sum(S); U V^T is the single-sided solution.
    """
    try:
        u, s, vt = np.linalg.svd(cross)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD failed: {e}") from e
    return u, vt.T, s


def unsupervised_init(x, z, cfg: MappingConfig) -> BilingualDictionary:
    """Seed dictionary from similarity-distribution matching.

    Words with similar meanings have similar distributions of similarities to
    the rest of their own language, so the sorted rows of the intra-language
    similarity matrices are comparable across languages. Nearest-neighbor
    retrieval between the (length-normalized) sorted rows, both directions,
    union, gives the initial dictionary over the cutoff vocabulary.

    The cutoff^3 product of the sorted rows runs in float32, VecMap's
    default precision: the init only seeds the self-learning loop, which
    re-derives every pair. The similarities and their sort stay
    float64 (cutoff^2 d and cutoff^2 log cutoff work), so no input scale
    overflows float32, and the sorted unit rows are then rounded to float32.
    Those rows are nearly parallel (their cosines lie near 1), so a float32
    product of them would round away the differences that pick each argmax.
    The source rows are therefore scored less c, the mean sorted target row,
    and target column j gets <c, u_j - c> back: every score is
    <v_i, u_j> - |c|^2, a constant shift that moves neither argmax, computed
    from residuals v_i - c of median length about 0.07 on generated spaces.

    Only the target side's sorted rows are held in full (4 cutoff^2 bytes);
    the source side is built, sorted and scored one row block at a time, and
    one product per block answers both directions, 256 rows a block. Peak
    memory is about 4 (cutoff² + 3 · 256 · cutoff) bytes: 1.7 GB at cutoff
    20000 (the cutoff is ``cfg.cutoff``). Non-finite input raises ContractError
    naming its row, and spaces of different dimensionality raise it naming both
    dimensions.
    """
    x, z = _require_spaces(x, z, ("x", "z"))
    cutoff = cfg.cutoff(x, z)
    xc, zc = x[:cutoff], z[:cutoff]
    mz = np.empty((cutoff, cutoff), dtype=np.float32)
    for start, sim in _score_blocks(zc, zc):
        mz[start : start + sim.shape[0]] = _sorted_unit_rows(sim)
        del sim
    center = mz.mean(axis=0, dtype=np.float64).astype(np.float32)
    height = retrieval.BLOCK_SIZE
    shift = np.concatenate([(center - mz[start : start + height]) @ center
                            for start in range(0, cutoff, height)])

    def scores():
        # sorted source rows, one block at a time, against all sorted target rows
        for start, sim in _score_blocks(xc, xc):
            rows = _sorted_unit_rows(sim).astype(np.float32)
            del sim
            rows -= center
            for _, block in _score_blocks(rows, mz, shift=shift):
                yield start, block
            del rows, block

    pairs = _union(*_argmax_both(scores(), cutoff, cutoff))
    return list(zip(*pairs.T.tolist()))


def _sorted_unit_rows(sim):
    """Sort each row of ``sim`` ascending and scale it to unit length, in place."""
    sim.sort(axis=1)
    # einsum sums the squares without a temporary the size of ``sim``, which
    # retrieval._row_norms would square whole, as it is one block
    norms = np.sqrt(np.einsum("ij,ij->i", sim, sim))[:, None]
    return np.divide(sim, norms, out=sim, where=norms != 0.0)


# VecMap's --stochastic_multiplier and --threshold defaults: keep_prob's growth
# after stall_patience stalls, and the least gain over the best that is no stall
_KEEP_PROB_GROWTH = 2.0
_CONVERGENCE_TOL = 1e-6


def self_learning_align(x, z, init: BilingualDictionary,
                        cfg: MappingConfig) -> MappingResult:
    """Alternate Procrustes solves and stochastic CSLS induction to converge.

    The objective is the mean cosine of the current dictionary pairs in the
    mapped space, trace(W_x^T X_D^T Z_D W_z) / |D|; the result's is the
    refit's, sum(S) / |D| (``_symmetric_solve``), which ``reweight`` does not
    scale. After ``stall_patience`` consecutive stalls (a gain under
    ``_CONVERGENCE_TOL`` over the best objective) the similarity dropout keep
    probability doubles, up to 1; at 1 a stall ends the loop. All randomness
    comes from ``cfg.seed``, so a run is reproducible bit for bit. Non-finite
    input raises ContractError naming its row, spaces of different
    dimensionality raise it naming both dimensions, and an ``init`` pair that
    is not two integer rows below the cutoff raises it naming the pair, before
    any solve.
    """
    if len(init) == 0:
        raise ContractError("initial dictionary must be non-empty")
    x, z = _require_spaces(x, z, ("x", "z"))
    cutoff = cfg.cutoff(x, z)
    src, trg = _require_pairs(init, cutoff, cutoff, "init pair {} is not two rows in "
                              f"[0, {cutoff}), the vocabulary cutoff").T
    xc, zc = x[:cutoff], z[:cutoff]
    k = csls_k_between(cfg.csls_k, xc, zc)
    rng = np.random.default_rng(cfg.seed)

    keep_prob = cfg.keep_prob
    best_objective = -np.inf
    stall = 0
    converged = False

    cross = _pair_sums(xc, zc, src, trg)[-1]
    for iterations in range(1, cfg.max_iterations + 1):
        w_x, w_z, _ = _symmetric_solve(cross)
        pairs = _induce(_unit_rows32(xc, w_x), _unit_rows32(zc, w_z), "csls", k,
                        cfg.direction, keep_prob, rng, norms=(None, None))
        cross = _pair_sums(xc, zc, *pairs.T)[-1]
        objective = float(np.sum(w_x * (cross @ w_z))) / len(pairs)
        if not np.isfinite(objective):
            raise NumericalError(f"non-finite objective at iteration {iterations}")

        if objective - best_objective >= _CONVERGENCE_TOL:
            best_objective = objective
            stall = 0
        elif keep_prob >= 1.0:
            converged = True
            break
        else:
            stall += 1
            if stall >= cfg.stall_patience:
                keep_prob = min(1.0, keep_prob * _KEEP_PROB_GROWTH)
                stall = 0

    # re-fit once over the full vocabulary: the cutoff exists to bound
    # induction cost, not to restrict the final solve
    dictionary = induce_dictionary(_unit_rows32(x, w_x), _unit_rows32(z, w_z), method="csls",
                                   directions=cfg.direction, k=csls_k_between(cfg.csls_k, x, z))
    src, trg = np.array(dictionary, dtype=np.int64).T
    w_x, w_z, s = _symmetric_solve(_pair_sums(x, z, src, trg)[-1])
    return MappingResult(
        w_src=w_x, w_trg=w_z, dictionary=dictionary, objective=float(np.sum(s)) / len(src),
        iterations=iterations, converged=converged,
        reweight_scale=np.sqrt(s) if cfg.reweight else None,
    )


def _mapped_tiles(m, w):
    """Yield (start, rows ``start`` onward of ``m @ w``), ``BLOCK_SIZE`` rows
    a tile, each product written into one reused float64 buffer, which the
    next tile overwrites. Tile rows may differ from those of the whole
    product in the last bits, so this is the package's one product of a
    space and a transform."""
    height = retrieval.BLOCK_SIZE
    buf = np.empty((min(len(m), height), w.shape[1]))
    for start in range(0, len(m), height):
        rows = m[start : start + height]
        yield start, np.matmul(rows, w, out=buf[: len(rows)])


def _map_in_place(m, w, scale=None):
    """The float64 matrix ``m`` overwritten by ``m @ w``, times ``scale`` per
    column when given (``MappingResult.reweight_scale``), a tile of rows at a
    time (``_mapped_tiles``), so no second space is ever held; returns ``m``."""
    for start, rows in _mapped_tiles(m, w):
        if scale is not None:
            rows *= scale
        m[start : start + len(rows)] = rows
    return m


def _unit_rows32(m, w):
    """Rows of ``m @ w`` scaled to unit length in float32, each rounded once
    from its float64 quotient (``retrieval._unit``); mapped and scaled a tile
    of rows at a time (``_mapped_tiles``), so no float64 copy of ``m @ w`` is
    ever whole."""
    out = np.empty((len(m), w.shape[1]), dtype=np.float32)
    for start, rows in _mapped_tiles(m, w):
        out[start : start + len(rows)] = _unit(rows, _norms(rows), dtype=np.float32)
    return out


# pairs per tile of ``_pair_sums``. Its height moves the sums' last bits, so it
# is its own constant: the score tiles' height (``retrieval.BLOCK_SIZE``)
# moves no bit of an alignment's transforms
_PAIR_TILE = 256


def _pair_sums(x, z, src, trg, grams=False):
    """[X_DᵀZ_D] of the dictionary rows X_D = x[src], Z_D = z[trg], or with
    ``grams`` [X_DᵀX_D, Z_DᵀZ_D, X_DᵀZ_D]: d x d sums over ``_PAIR_TILE``
    pairs at a time, so no |D| x d gather of the rows is ever whole. The one
    product of dictionary rows: the loop, the refit and refinement call it."""
    d = x.shape[1]
    sums = [np.zeros((d, d)) for _ in range(3 if grams else 1)]
    for start in range(0, len(src), _PAIR_TILE):
        span = slice(start, start + _PAIR_TILE)
        a, b = x[src[span]], z[trg[span]]
        if grams:
            sums[0] += a.T @ a
            sums[1] += b.T @ b
        sums[-1] += a.T @ b
    return sums


def align(x, z, cfg: MappingConfig) -> MappingResult:
    """Full unsupervised alignment: heuristic init then self-learning.

    Both spaces are checked for finite values, one dimensionality and 2 or
    more rows (``cfg.cutoff``) before the cutoff-squared init runs; errors
    name the spaces x and z. The cutoff and CSLS k follow the vocabulary
    sizes, so the default config aligns any vocabulary of 2 or more words.
    """
    x, z = _require_spaces(x, z, ("x", "z"))
    cfg.cutoff(x, z)
    return self_learning_align(x, z, unsupervised_init(x, z, cfg), cfg)
