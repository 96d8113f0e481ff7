"""Unsupervised alignment of two embedding spaces.

Seeds a dictionary from intra-language similarity distributions, then
alternates orthogonal Procrustes solves with CSLS dictionary induction
(stochastic dropout on similarities keeps the search from locking in early)
until the mean-cosine objective stops improving.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import AlignmentCollapseError, ContractError, NumericalError
from .io import BilingualDictionary
from .retrieval import DEFAULT_BLOCK_SIZE, DEFAULT_CSLS_K, _induce, _unit_rows, induce_dictionary


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
    try:
        u, _, vt = np.linalg.svd(x.T @ z)
    except np.linalg.LinAlgError as e:
        raise NumericalError(f"SVD failed: {e}") from e
    return u @ vt


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
    """
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    cutoff = cfg.vocab_cutoff
    # cutoff 1 is the degenerate single-candidate case: only (0, 0) exists
    if cutoff < 1:
        raise ContractError("vocab_cutoff must be >= 1")
    if cutoff > min(x.shape[0], z.shape[0]):
        raise ContractError(
            f"vocab_cutoff {cutoff} exceeds vocabulary sizes {x.shape[0]}, {z.shape[0]}"
        )
    xc, zc = x[:cutoff], z[:cutoff]
    mx = _unit_rows(np.sort(xc @ xc.T, axis=1))
    mz = _unit_rows(np.sort(zc @ zc.T, axis=1))
    if cutoff == 1:
        return [(0, 0)]
    return induce_dictionary(mx, mz, method="nn", directions="union")


def self_learning_align(x, z, init: BilingualDictionary, cfg: MappingConfig,
                        block_size=DEFAULT_BLOCK_SIZE) -> MappingResult:
    """Alternate Procrustes solves and stochastic CSLS induction to converge.

    The objective is the mean cosine of the current dictionary pairs in the
    mapped space. When it stalls for ``stall_patience`` iterations the
    similarity dropout keep probability grows; once keep_prob reaches 1 a
    stalled objective terminates the loop. All randomness comes from
    ``cfg.seed``, so a run is reproducible bit for bit.
    """
    cfg.validate()
    if not init:
        raise ContractError("initial dictionary must be non-empty")
    x = np.asarray(x, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    cutoff = min(cfg.vocab_cutoff, x.shape[0], z.shape[0])
    xc, zc = x[:cutoff], z[:cutoff]
    rng = np.random.default_rng(cfg.seed)

    dictionary = list(init)
    keep_prob = cfg.keep_prob_initial
    best_objective = -np.inf
    stall = 0
    converged = False
    iterations = 0
    w_x = w_z = np.eye(x.shape[1])

    for iterations in range(1, cfg.max_iterations + 1):
        src = np.fromiter((p[0] for p in dictionary), dtype=np.int64)
        trg = np.fromiter((p[1] for p in dictionary), dtype=np.int64)
        w_x, w_z, _ = _symmetric_solve(xc[src], zc[trg])
        xw, zw = xc @ w_x, zc @ w_z

        dictionary = _induce_with_dropout(xw, zw, cfg, keep_prob, rng, block_size)
        if not dictionary:
            raise AlignmentCollapseError(f"empty dictionary at iteration {iterations}")
        src = np.fromiter((p[0] for p in dictionary), dtype=np.int64)
        trg = np.fromiter((p[1] for p in dictionary), dtype=np.int64)
        objective = float(np.mean(np.sum(xw[src] * zw[trg], axis=1)))
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
        x_full, z_full, method="csls", k=cfg.csls_k,
        directions=cfg.direction, block_size=block_size,
    )
    src = np.fromiter((p[0] for p in dictionary), dtype=np.int64)
    trg = np.fromiter((p[1] for p in dictionary), dtype=np.int64)
    w_x, w_z, s = _symmetric_solve(x[src], z[trg])
    scale = np.sqrt(s) if cfg.reweight else None
    xw, zw = x @ w_x, z @ w_z
    objective = float(np.mean(np.sum(xw[src] * zw[trg], axis=1)))
    return MappingResult(
        w_src=w_x, w_trg=w_z, dictionary=dictionary, objective=objective,
        iterations=iterations, converged=converged, reweight_scale=scale,
    )


def _induce_with_dropout(xw, zw, cfg, keep_prob, rng, block_size):
    """CSLS induction with each score retained with probability keep_prob.

    The dropout mask is drawn block by block in query-row order, forward
    before backward, so the draws do not depend on the block partitioning.
    """
    k = min(cfg.csls_k, zw.shape[0] - 1, xw.shape[0])

    def dropout(sim):
        sim[rng.random(sim.shape) >= keep_prob] = -np.inf

    return _induce(xw, zw, "csls", k, cfg.direction, block_size,
                   hook=dropout if keep_prob < 1.0 else None)


def align(x, z, cfg: MappingConfig, block_size=DEFAULT_BLOCK_SIZE) -> MappingResult:
    """Full unsupervised alignment: heuristic init then self-learning.

    The configuration and the two spaces' dimensions are checked before the
    cutoff-squared init runs.
    """
    cfg.validate()
    if np.shape(x)[1] != np.shape(z)[1]:
        raise ContractError(
            f"dimension mismatch: source d={np.shape(x)[1]}, target d={np.shape(z)[1]}"
        )
    init = unsupervised_init(x, z, cfg)
    return self_learning_align(x, z, init, cfg, block_size=block_size)
