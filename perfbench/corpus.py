"""Synthetic bilingual corpora for the benchmark.

The target space is a rotated, vocabulary-permuted, noisy copy of the source
space, so the correct lexicon is known. Three things differ from the plain
rotated-pair recipe used by the unit tests, each needed to make an
unsupervised run recover that lexicon:

* a power-law column spectrum (column k scaled by 1/k) before preprocessing.
  Isotropic Gaussian spaces have no similarity-distribution signal for the
  unsupervised init to match: at 2000 x 300 with noise 0.02 its dictionary
  was 1-4% correct, against 0.86-0.90 with the spectrum, and at 3000 x 100
  with noise 0.05 the whole pipeline reached a P@1 of 0.001;
* an optional bound on how far the permutation moves a word from its rank,
  as in real frequency-sorted vocabularies, so that the frequent-word cutoff
  of both languages covers mostly the same words;
* a gold dictionary for every 4th source word.

The generator is self-contained (it does not call the package under test), so
the inputs for a seed stay the same when the package changes.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

GOLD_STRIDE = 4
NOISE = 0.02  # standard deviation of the Gaussian noise added to every target entry


@dataclass(frozen=True)
class CorpusSpec:
    n: int
    d: int
    # None: a full random permutation; otherwise no word moves this many ranks
    max_displacement: int | None = None


@dataclass
class Corpus:
    x: np.ndarray
    z: np.ndarray
    gold: np.ndarray  # gold[i] is the row of z that translates source row i


def _unit_center_unit(m):
    m = m / np.linalg.norm(m, axis=1, keepdims=True)
    m = m - m.mean(axis=0)
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def _random_orthogonal(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def bounded_permutation(n, max_displacement, rng):
    """Permutation of range(n) in which no element moves max_displacement ranks.

    Sorting i + u_i with u_i uniform in [0, D) can only swap elements whose
    ranks differ by less than D.
    """
    return np.argsort(np.arange(n) + rng.uniform(0.0, max_displacement, n), kind="stable")


def make_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    spectrum = 1.0 / np.arange(1, spec.d + 1)
    x = _unit_center_unit(rng.standard_normal((spec.n, spec.d)) * spectrum)
    rot = _random_orthogonal(spec.d, rng)
    if spec.max_displacement is None:
        perm = rng.permutation(spec.n)
    else:
        perm = bounded_permutation(spec.n, spec.max_displacement, rng)
    z = (x @ rot)[perm]
    z = z + rng.normal(0.0, NOISE, size=z.shape)
    z = z / np.linalg.norm(z, axis=1, keepdims=True)
    gold = np.empty(spec.n, dtype=np.int64)
    gold[perm] = np.arange(spec.n)
    return Corpus(x, z, gold)


def _write_vec(path, prefix, m):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m.shape[0]} {m.shape[1]}\n")
        for i, row in enumerate(m):
            fh.write(f"{prefix}{i} " + " ".join(map("{:.9g}".format, row)) + "\n")
        # write back now rather than while the first measured run reads it
        fh.flush()
        os.fsync(fh.fileno())


def write_corpus(corpus: Corpus, out_dir) -> dict[str, Path]:
    """Write src.vec, trg.vec and gold.txt; return their paths by role."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {"src": out / "src.vec", "trg": out / "trg.vec", "gold": out / "gold.txt"}
    _write_vec(paths["src"], "s", corpus.x)
    _write_vec(paths["trg"], "t", corpus.z)
    with open(paths["gold"], "w", encoding="utf-8") as fh:
        for i in range(0, corpus.x.shape[0], GOLD_STRIDE):
            fh.write(f"s{i} t{corpus.gold[i]}\n")
    return paths
