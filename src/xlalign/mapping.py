"""Unsupervised alignment of two embedding spaces.

Seeds a dictionary from intra-language similarity distributions, then
alternates orthogonal Procrustes solves with CSLS dictionary induction until
the mean-cosine objective stops improving. Induction is stochastic, as in
VecMap (Artetxe, Labaka & Agirre, 2018): each similarity is kept with
probability keep_prob, sampled exactly by rank in ``retrieval._induce``
(its docstring), which keeps the search from locking in early. The loop
induces in float32, VecMap's precision, from unit rows normalised in
float64; its solve and objective, the final full-vocabulary refit and every
public function stay float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import retrieval
from .errors import (
    AlignmentCollapseError, ContractError, NumericalError, _require_finite, _require_pairs,
)
from .io import BilingualDictionary
from .retrieval import (
    DEFAULT_CSLS_K, _argmax_both, _induce, _require_spaces, _score_blocks, _unit_rows,
    induce_dictionary,
)


@dataclass
class MappingConfig:
    vocab_cutoff: int = 20000
    csls_k: int = DEFAULT_CSLS_K
    keep_prob_initial: float = 0.1
    keep_prob_growth: float = 2.0
    stall_patience: int = 50
    convergence_tol: float = 1e-6
    max_iterations: int = 10000
    direction: str = "union"  # forward | backward | union
    seed: int = 0
    reweight: bool = False  # scale mapped spaces by sqrt of singular values

    def validate(self):
        if self.vocab_cutoff < 2:
            raise ContractError("vocab_cutoff must be >= 2")
        if self.csls_k < 1:
            raise ContractError("csls_k must be >= 1")
        if not 0.0 < self.keep_prob_initial <= 1.0:
            raise ContractError("keep_prob_initial must be in (0, 1]")
        if self.keep_prob_growth <= 1.0:
            raise ContractError("keep_prob_growth must be > 1")
        if self.direction not in ("forward", "backward", "union"):
            raise ContractError(f"unknown direction {self.direction!r}")
        if self.stall_patience < 1:
            raise ContractError("stall_patience must be >= 1")
        if not (math.isfinite(self.convergence_tol) and self.convergence_tol >= 0.0):
            raise ContractError("convergence_tol must be finite and >= 0")
        if self.max_iterations < 1:
            raise ContractError("max_iterations must be >= 1")


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
        mapped = np.asarray(x) @ self.w_src
        return mapped * self.reweight_scale if self.reweight_scale is not None else mapped

    def map_trg(self, z):
        mapped = np.asarray(z) @ self.w_trg
        return mapped * self.reweight_scale if self.reweight_scale is not None else mapped


def procrustes_solve(x_pairs, z_pairs):
    """Orthogonal W minimizing ||XW - Z||_F, via SVD of X^T Z."""
    x = np.asarray(x_pairs, dtype=np.float64)
    z = np.asarray(z_pairs, dtype=np.float64)
    if x.shape != z.shape:
        raise ContractError(f"shape mismatch: {x.shape} vs {z.shape}")
    if x.shape[0] < 1:
        raise ContractError("need at least one pair")
    u, v, _ = _symmetric_solve(x, z)
    return u @ v.T


def _symmetric_solve(x_pairs, z_pairs):
    """Per-language orthogonal transforms maximizing the pair similarity.

    With X^T Z = U S V^T, mapping X by U and Z by V puts both spaces in the
    shared basis; U V^T is the corresponding single-sided Procrustes solution.
    """
    try:
        u, s, vt = np.linalg.svd(np.asarray(x_pairs).T @ np.asarray(z_pairs))
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
    20000. Non-finite input raises ContractError naming its row.
    """
    cfg.validate()
    x, z = _require_finite(x, "x"), _require_finite(z, "z")
    cutoff = cfg.vocab_cutoff
    if cutoff > min(x.shape[0], z.shape[0]):
        raise ContractError(
            f"vocab_cutoff {cutoff} exceeds vocabulary sizes {x.shape[0]}, {z.shape[0]}"
        )
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

    fwd, bwd = _argmax_both(scores(), cutoff, cutoff)
    return sorted(set(enumerate(fwd.tolist())) | {(i, j) for j, i in enumerate(bwd.tolist())})


def _sorted_unit_rows(sim):
    """Sort each row of ``sim`` ascending and scale it to unit length, in place."""
    sim.sort(axis=1)
    # einsum sums the squares without a temporary the size of ``sim``
    norms = np.sqrt(np.einsum("ij,ij->i", sim, sim))[:, None]
    return np.divide(sim, norms, out=sim, where=norms != 0.0)


def self_learning_align(x, z, init: BilingualDictionary,
                        cfg: MappingConfig) -> MappingResult:
    """Alternate Procrustes solves and stochastic CSLS induction to converge.

    The objective is the mean cosine of the current dictionary pairs in the
    mapped space. When it stalls for ``stall_patience`` iterations the
    similarity dropout keep probability grows; once keep_prob reaches 1 a
    stalled objective terminates the loop. All randomness comes from
    ``cfg.seed``, so a run is reproducible bit for bit. Non-finite input
    raises ContractError naming its row, spaces of different dimensionality
    raise it naming both dimensions, and an ``init`` pair that is not two
    integer rows below the cutoff raises it naming the pair, before any solve.
    """
    cfg.validate()
    if len(init) == 0:
        raise ContractError("initial dictionary must be non-empty")
    x, z = _require_spaces(x, z, ("x", "z"))
    cutoff = min(cfg.vocab_cutoff, x.shape[0], z.shape[0])
    src, trg = _require_pairs(init, cutoff, cutoff, "init pair {} is not two rows in "
                              f"[0, {cutoff}), the vocabulary cutoff").T
    xc, zc = x[:cutoff], z[:cutoff]
    rng = np.random.default_rng(cfg.seed)

    keep_prob = cfg.keep_prob_initial
    best_objective = -np.inf
    stall = 0
    converged = False
    iterations = 0
    w_x = w_z = np.eye(x.shape[1])

    for iterations in range(1, cfg.max_iterations + 1):
        w_x, w_z, _ = _symmetric_solve(xc[src], zc[trg])
        xw, zw = xc @ w_x, zc @ w_z

        pairs = _induce_with_dropout(xw, zw, cfg, keep_prob, rng)
        if not len(pairs):
            raise AlignmentCollapseError(f"empty dictionary at iteration {iterations}")
        src, trg = pairs.T
        objective = _objective(xw, zw, src, trg)
        if not np.isfinite(objective):
            raise NumericalError(f"non-finite objective at iteration {iterations}")

        improved = objective - best_objective >= cfg.convergence_tol
        if improved:
            best_objective = objective
            stall = 0
        elif keep_prob >= 1.0:
            converged = True
            break
        else:
            stall += 1
            if stall >= cfg.stall_patience:
                keep_prob = min(1.0, keep_prob * cfg.keep_prob_growth)
                stall = 0

    # re-fit once over the full vocabulary: the cutoff exists to bound
    # induction cost, not to restrict the final solve
    x_full, z_full = x @ w_x, z @ w_z
    dictionary = induce_dictionary(
        x_full, z_full, method="csls", k=cfg.csls_k, directions=cfg.direction,
    )
    src, trg = np.array(dictionary, dtype=np.int64).T
    w_x, w_z, s = _symmetric_solve(x[src], z[trg])
    scale = np.sqrt(s) if cfg.reweight else None
    xw, zw = x @ w_x, z @ w_z  # rebinding frees the loop's mapped cutoff rows
    return MappingResult(
        w_src=w_x, w_trg=w_z, dictionary=dictionary, objective=_objective(xw, zw, src, trg),
        iterations=iterations, converged=converged, reweight_scale=scale,
    )


def _objective(xw, zw, src, trg):
    """Mean dot product of the mapped pair rows ``xw[src]``, ``zw[trg]``."""
    return float(np.mean(np.sum(xw[src] * zw[trg], axis=1)))


def _induce_with_dropout(xw, zw, cfg, keep_prob, rng):
    """CSLS induction with similarity dropout (``retrieval._induce``) of the
    mapped rows scaled to unit length in float64 and rounded to float32,
    VecMap's precision: induction only picks pairs, and the solve and
    objective stay float64. Returns (source, target) rows of an n x 2 array."""
    ux, uz = (_unit_rows(m).astype(np.float32) for m in (xw, zw))
    k = min(cfg.csls_k, len(uz) - 1, len(ux))
    return _induce(ux, uz, "csls", k, cfg.direction, keep_prob, rng)


def align(x, z, cfg: MappingConfig) -> MappingResult:
    """Full unsupervised alignment: heuristic init then self-learning.

    The configuration is checked, and both spaces for finite values and one
    dimensionality, before the cutoff-squared init runs; errors name the
    spaces x and z.
    """
    cfg.validate()
    x, z = _require_spaces(x, z, ("x", "z"))
    return self_learning_align(x, z, unsupervised_init(x, z, cfg), cfg)
