"""Bilingual lexicon induction scoring: precision at k.

A gold source word counts as correct at k when any of its gold translations
appears among the k highest-scoring target words. Retrieval is forward only
(source to target).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .io import GoldDictionary
from .retrieval import (
    DEFAULT_BLOCK_SIZE, DEFAULT_CSLS_K, _require_finite, _score_blocks, _unit_rows, csls_scores,
)

DEFAULT_KS = (1, 5, 10)


@dataclass
class EvalReport:
    precision_at: dict[int, float]
    evaluated_sources: int
    oov_sources: int

    @property
    def coverage(self):
        total = self.evaluated_sources + self.oov_sources
        return self.evaluated_sources / total if total else 0.0


def precision_at_k(x_space, z_space, gold: GoldDictionary, ks=DEFAULT_KS,
                   method="nn", csls_k=DEFAULT_CSLS_K,
                   block_size=DEFAULT_BLOCK_SIZE) -> EvalReport:
    """Score a shared space against a gold dictionary at each k in ``ks``.

    Non-finite input raises ContractError naming its row.
    """
    if not gold.entries:
        raise ContractError("gold dictionary is empty")
    x = _require_finite(x_space, "x_space")
    z = _require_finite(z_space, "z_space")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 1 or ks[-1] > z.shape[0]:
        raise ContractError(f"k values {ks} out of range for {z.shape[0]} targets")
    sources = sorted(gold.entries)
    kmax = ks[-1]
    if method == "nn":
        blocks = _score_blocks(_unit_rows(x), _unit_rows(z), block_size, np.asarray(sources))
    elif method == "csls":
        blocks = csls_scores(x, z, csls_k, query_indices=sources, block_size=block_size)
    else:
        raise ContractError(f"unknown retrieval method {method!r}")
    correct = {k: 0 for k in ks}
    for start, block in blocks:
        for row, sim in zip(sources[start:], block):
            # stable sort on the negated row: ties resolve to the lowest index
            top = np.argsort(-sim, kind="stable")[:kmax]
            targets = gold.entries[row]
            for k in ks:
                if any(int(j) in targets for j in top[:k]):
                    correct[k] += 1
        del block, sim  # a row view keeps the whole block alive
    n = len(sources)
    return EvalReport(
        precision_at={k: correct[k] / n for k in ks},
        evaluated_sources=n,
        oov_sources=gold.oov_sources,
    )


def compare_reports(reports: dict[str, EvalReport], baseline: str,
                    decimals=2) -> str:
    """Tabulate P@k x 100 per system with deltas against a named baseline."""
    if baseline not in reports:
        raise ContractError(f"unknown baseline {baseline!r}")
    k_sets = {tuple(sorted(r.precision_at)) for r in reports.values()}
    if len(k_sets) != 1:
        raise ContractError("all reports must share the same k set")
    ks = sorted(next(iter(reports.values())).precision_at)
    base = reports[baseline]
    width = max(len(name) for name in reports) + 2
    cell = 8 + decimals
    header = "system".ljust(width) + "".join(
        f"P@{k}".rjust(cell) + f"Δ@{k}".rjust(cell) for k in ks
    )
    lines = [header]
    for name, rep in reports.items():
        row = name.ljust(width)
        for k in ks:
            val = rep.precision_at[k] * 100.0
            delta = (rep.precision_at[k] - base.precision_at[k]) * 100.0
            row += f"{val:.{decimals}f}".rjust(cell)
            row += f"{delta:+.{decimals}f}".rjust(cell)
        lines.append(row)
    return "\n".join(lines)


def report_lines(name: str, report: EvalReport) -> list[str]:
    """Machine-readable key-value lines, one 'system.k=value' per k."""
    lines = [f"{name}.{k}={report.precision_at[k]:.6f}" for k in sorted(report.precision_at)]
    lines.append(f"{name}.evaluated={report.evaluated_sources}")
    lines.append(f"{name}.oov={report.oov_sources}")
    lines.append(f"{name}.coverage={report.coverage:.6f}")
    return lines
