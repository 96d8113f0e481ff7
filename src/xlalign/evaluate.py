"""Bilingual lexicon induction scoring: precision at k.

A gold source word counts as correct at k when any of its gold translations
appears among the k highest-scoring target words. Retrieval is forward only
(source to target).

Ranks are counted, not sorted: in a score row s, target j has rank
#{i : s_i > s_j} + #{i < j : s_i = s_j}, its position in a stable descending
sort of the row, so equal scores go to the lowest index. A source hits at k
when its best-ranked gold target has rank < k: its highest-scoring one, the
lowest index among equal scores, so each score tile is ranked once, for one
target per source, whatever the gold lists. CSLS ranks by cos - rS/2, the
rank-only score of ``retrieval`` (its module docstring): the query penalty is
the same along a row, so evaluation makes one ``_knn_means`` pass for rS, as
a forward induction does, and ranks by the same scores.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, _require_kind
from .io import GoldDictionary
from .retrieval import (
    DEFAULT_CSLS_K, _check_method, _knn_means, _norms, _require_spaces, _score_blocks,
)

DEFAULT_KS = (1, 5, 10)
# score rows compared at a time: bounds the boolean temporaries of _ranks
_RANK_CHUNK = 16


@dataclass
class EvalReport:
    precision_at: dict[int, float]
    evaluated_sources: int
    oov_sources: int

    def __post_init__(self):
        # a report read back from JSON has its k values as strings
        self.precision_at = {int(k): v for k, v in self.precision_at.items()}

    @property
    def coverage(self):
        total = self.evaluated_sources + self.oov_sources
        return self.evaluated_sources / total if total else 0.0


def precision_at_k(x_space, z_space, gold: GoldDictionary, ks=DEFAULT_KS,
                   method="nn", csls_k=DEFAULT_CSLS_K) -> EvalReport:
    """Score a shared space against a gold dictionary at each k in ``ks``.

    Non-finite input, spaces of different dimensionality, and a gold source
    or target outside its space raise ContractError naming the row, the
    dimensions or the index. A source with no gold targets is
    evaluated and misses at every k.
    """
    if not gold.entries:
        raise ContractError("gold dictionary is empty")
    x, z = _require_spaces(x_space, z_space, ("x_space", "z_space"))
    ks = tuple(ks)  # read once, as a generator is consumed by the first pass
    for k in ks:
        _require_kind(k, "each of ks", "an integer")
    ks = sorted(set(map(int, ks)))
    if not ks or ks[0] < 1 or ks[-1] > z.shape[0]:
        raise ContractError(f"k values {ks} out of range for {z.shape[0]} targets")
    sources, targets, counts = _gold_arrays(gold, x.shape[0], z.shape[0])
    _check_method([(x, z)], method, csls_k)
    norms = _norms(x), _norms(z)
    shift = _knn_means(z, x, norms[::-1], csls_k) / 2.0 if method == "csls" else None
    best = np.empty(len(sources), dtype=np.int64)
    for start, block in _score_blocks(x, z, sources, shift, norms):
        target = targets[start : start + len(block)]
        # each source's best-ranked gold target, the first of its highest scores
        pick = np.take_along_axis(block, target, axis=1).argmax(axis=1)[:, None]
        top = np.take_along_axis(target, pick, axis=1)[:, 0]
        best[start : start + len(block)] = _ranks(block, top)
        del block
    best[counts == 0] = z.shape[0]  # no gold target: a miss at every k
    n = len(sources)
    return EvalReport(
        precision_at={k: int(np.count_nonzero(best < k)) / n for k in ks},
        evaluated_sources=n,
        oov_sources=gold.oov_sources,
    )


def _gold_arrays(gold, n_sources, n_targets):
    """Sorted gold sources, their sorted targets as rows, each padded with its
    first (lowest) target (a row of no targets with 0), and each source's
    target count; ContractError naming the first source or target outside its
    space."""
    sources = sorted(gold.entries)
    counts = np.array([len(gold.entries[s]) for s in sources])
    targets = np.zeros((len(sources), max(counts.max(), 1)), dtype=np.int64)
    for row, s in enumerate(sources):
        if not 0 <= s < n_sources:
            raise ContractError(f"gold source {s} out of range for {n_sources} source rows")
        listed = sorted(gold.entries[s])
        for t in listed:
            if not 0 <= t < n_targets:
                raise ContractError(
                    f"gold target {t} of source {s} out of range for {n_targets} target rows"
                )
        targets[row, : len(listed)] = listed
        targets[row, len(listed) :] = targets[row, 0]  # padding that is no other target
    return np.array(sources, dtype=np.int64), targets, counts


def _ranks(sim, targets):
    """Rank of ``targets[r]`` in score row r of ``sim`` (module docstring).

    Rows are compared in chunks of ``_RANK_CHUNK`` against their target's
    score; only the rare rows where another score equals it count the equal
    scores before the target.
    """
    value = sim[np.arange(len(targets)), targets]
    out = np.empty(len(targets), dtype=np.int64)
    for lo in range(0, len(targets), _RANK_CHUNK):
        chunk, v = sim[lo : lo + _RANK_CHUNK], value[lo : lo + _RANK_CHUNK, None]
        out[lo : lo + len(chunk)] = (chunk > v).sum(axis=1)
        for r in np.flatnonzero((chunk == v).sum(axis=1) > 1):
            out[lo + r] += np.count_nonzero(chunk[r, : targets[lo + r]] == v[r])
    return out


def compare_reports(reports: dict[str, EvalReport], baseline: str) -> str:
    """Tabulate P@k x 100 per system with deltas against a named baseline."""
    if baseline not in reports:
        raise ContractError(f"unknown baseline {baseline!r}")
    k_sets = {tuple(sorted(r.precision_at)) for r in reports.values()}
    if len(k_sets) != 1:
        raise ContractError("all reports must share the same k set")
    ks = sorted(next(iter(reports.values())).precision_at)
    base = reports[baseline]
    width = max(len(name) for name in reports) + 2
    header = "system".ljust(width) + "".join(f"P@{k}".rjust(10) + f"Δ@{k}".rjust(10) for k in ks)
    lines = [header]
    for name, rep in reports.items():
        row = name.ljust(width)
        for k in ks:
            val = rep.precision_at[k] * 100.0
            delta = (rep.precision_at[k] - base.precision_at[k]) * 100.0
            row += f"{val:.2f}".rjust(10) + f"{delta:+.2f}".rjust(10)
        lines.append(row)
    return "\n".join(lines)


def report_lines(name: str, report: EvalReport) -> list[str]:
    """Machine-readable key-value lines, one 'system.k=value' per k."""
    lines = [f"{name}.{k}={report.precision_at[k]:.6f}" for k in sorted(report.precision_at)]
    lines.append(f"{name}.evaluated={report.evaluated_sources}")
    lines.append(f"{name}.oov={report.oov_sources}")
    lines.append(f"{name}.coverage={report.coverage:.6f}")
    return lines
