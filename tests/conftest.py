import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from xlalign import retrieval  # noqa: E402
from xlalign.normalize import preprocess  # noqa: E402

from oracles import random_orthogonal  # noqa: E402


def make_rotated_pair(n=1000, d=20, seed=0, noise=0.0):
    """Source matrix plus a rotated, vocabulary-permuted copy.

    Returns (x, z, gold) where gold[i] is the row of z translating word i.
    """
    rng = np.random.default_rng(seed)
    x = preprocess(rng.standard_normal((n, d)))
    rot = random_orthogonal(d, rng)
    perm = rng.permutation(n)
    z = (x @ rot)[perm]
    if noise:
        z = z + rng.normal(0.0, noise, size=z.shape)
        z = z / np.linalg.norm(z, axis=1, keepdims=True)
    gold = np.empty(n, dtype=int)
    gold[perm] = np.arange(n)
    return x, z, gold


def make_warped_pair(n=1200, d=50, seed=0, warp=0.3, noise=0.1):
    """Source matrix plus a rotated copy that is not isomorphic to it.

    The source has a 1/k column spectrum (isotropic spaces give the
    unsupervised init nothing to match). The target is
    preprocess(x R + warp tanh(10 x A) R + noise), with R random orthogonal
    and A Gaussian with entry variance 1/d: the warp bends the space
    nonlinearly, so no rotation maps one side onto the other and CSLS P@1
    stays below 1. The vocabulary is not permuted, so word i translates
    word i. Returns (x, z).
    """
    rng = np.random.default_rng(seed)
    x = preprocess(rng.standard_normal((n, d)) / np.arange(1, d + 1))
    rot = random_orthogonal(d, rng)
    bend = rng.standard_normal((d, d)) / np.sqrt(d)
    z = (x + warp * np.tanh(10.0 * (x @ bend))) @ rot
    return x, preprocess(z + rng.normal(0.0, noise, size=z.shape))


@contextmanager
def tile_rows(n):
    """Score tiles of ``n`` query rows (``retrieval.BLOCK_SIZE``) inside the
    ``with`` statement. Not the ``monkeypatch`` fixture: it is not reset
    between the examples of a ``@given`` test, which Hypothesis rejects."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(retrieval, "BLOCK_SIZE", n)
        yield


@pytest.fixture
def rotated_pair():
    return make_rotated_pair()
