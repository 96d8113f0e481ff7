import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign import retrieval
from xlalign.errors import ContractError

from oracles import csls_bruteforce


class TestCosineBlock:
    def test_orthonormal_axes(self):
        out = retrieval.cosine_block([[1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_allclose(out, [[1, 0]])

    def test_45_degrees(self):
        out = retrieval.cosine_block([[1.0, 1.0]], [[1.0, 0.0]])
        np.testing.assert_allclose(out, [[0.7071067811865475]], atol=1e-6)

    def test_zero_row(self):
        out = retrieval.cosine_block([[0.0, 0.0]], [[1.0, 0.0]])
        np.testing.assert_array_equal(out, [[0]])

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            retrieval.cosine_block([[1.0, 0.0]], [[1.0, 0.0, 0.0]])

    def test_unit_diagonal(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 6))
        m /= np.linalg.norm(m, axis=1, keepdims=True)
        np.testing.assert_allclose(np.diag(retrieval.cosine_block(m, m)), 1.0, atol=1e-9)

    def test_values_bounded(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal((15, 4))
        c = rng.standard_normal((9, 4))
        out = retrieval.cosine_block(q, c)
        assert np.all(out >= -1 - 1e-9) and np.all(out <= 1 + 1e-9)


class TestNnRetrieve:
    def test_basic(self):
        assert retrieval.nn_retrieve(np.array([[0.2, 0.9]])) == [1]

    def test_tie_lowest_index(self):
        assert retrieval.nn_retrieve(np.array([[0.5, 0.5]])) == [0]

    def test_identity(self):
        assert retrieval.nn_retrieve(np.eye(3)) == [0, 1, 2]

    def test_permutation_equivariance(self):
        rng = np.random.default_rng(2)
        q = rng.standard_normal((10, 5))
        c = rng.standard_normal((8, 5))
        sim = retrieval.cosine_block(q, c)
        base = retrieval.nn_retrieve(sim)
        perm = rng.permutation(8)
        permuted = retrieval.nn_retrieve(sim[:, perm])
        inv = np.argsort(perm)
        assert [int(inv[j]) for j in base] == permuted


class TestCslsRetrieve:
    def test_two_by_two_hand_computed(self):
        x = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, scores = next(retrieval.csls_scores(x, x, k=1))
        # 2*1 - 1 - 1 = 0 on the diagonal, 2*0 - 1 - 1 = -2 off it
        np.testing.assert_allclose(scores, [[0, -2], [-2, 0]], atol=1e-12)
        assert retrieval.csls_retrieve(x, x, k=1) == [0, 1]

    def test_uniform_penalties_match_nn(self):
        # cyclic shifts of one vector: every query row and candidate column
        # holds the same multiset of cosines, so both penalties are constant
        # and CSLS ranks like plain cosine
        v = np.array([5.0, 3.0, 1.0, 0.5, 0.25, 0.1])
        n = len(v)
        queries = np.array([np.roll(v, i) for i in range(n)])
        candidates = np.eye(n)
        k = n - 1
        got = retrieval.csls_retrieve(queries, candidates, k=k)
        sim = retrieval.cosine_block(queries, candidates)
        assert got == retrieval.nn_retrieve(sim)

    def test_hub_scenario_frozen(self):
        candidates = np.array([[1.0, 0.0],
                               np.array([0.9, 0.1]) / np.linalg.norm([0.9, 0.1]),
                               [0.0, 1.0]])
        queries = np.array([[1.0, 0.0], [0.0, 1.0]])
        _, scores = next(retrieval.csls_scores(queries, candidates, k=1))
        # frozen from the brute-force script: the hub (candidate 1) is pushed
        # below zero for both queries
        expected = np.array([
            [0.0, -0.0061162653263811, -2.0],
            [-2.0, -1.7730206825239259, 0.0],
        ])
        np.testing.assert_allclose(scores, expected, atol=1e-12)
        assert retrieval.csls_retrieve(queries, candidates, k=1) == [0, 2]

    def test_k_out_of_range(self):
        x = np.eye(3)
        with pytest.raises(ContractError):
            retrieval.csls_retrieve(x, x, k=3)  # k must be <= n_z - 1
        with pytest.raises(ContractError):
            retrieval.csls_retrieve(x, x, k=0)

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce(self, seed):
        rng = np.random.default_rng(seed)
        nx = int(rng.integers(5, 40))
        nz = int(rng.integers(5, 40))
        d = int(rng.integers(2, 8))
        k = int(rng.integers(1, min(nx, nz - 1) + 1))
        x = rng.standard_normal((nx, d))
        z = rng.standard_normal((nz, d))
        expected, _ = csls_bruteforce(x, z, k)
        assert retrieval.csls_retrieve(x, z, k) == expected

    def test_bruteforce_with_ties(self):
        # duplicated candidate rows force exact ties; lowest index must win
        z = np.array([[1.0, 0.0], [0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        x = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
        expected, _ = csls_bruteforce(x, z, k=2)
        assert retrieval.csls_retrieve(x, z, k=2) == expected

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((12, 5))
        z = rng.standard_normal((15, 5))
        _, s1 = next(retrieval.csls_scores(x, z, k=3))
        _, s2 = next(retrieval.csls_scores(7.5 * x, 7.5 * z, k=3))
        np.testing.assert_allclose(s1, s2, atol=1e-9)
        assert retrieval.csls_retrieve(x, z, k=3) == retrieval.csls_retrieve(7.5 * x, 7.5 * z, k=3)

    def test_block_size_independence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((37, 6))
        z = rng.standard_normal((23, 6))
        full = retrieval.csls_retrieve(x, z, k=5, block_size=1024)
        for bs in (1, 3, 7, 16):
            assert retrieval.csls_retrieve(x, z, k=5, block_size=bs) == full

    def test_query_indices_subset(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 4))
        z = rng.standard_normal((18, 4))
        all_out = retrieval.csls_retrieve(x, z, k=3)
        subset = [2, 5, 11]
        assert retrieval.csls_retrieve(x, z, k=3, query_indices=subset) == \
            [all_out[i] for i in subset]


class TestInduceDictionary:
    def test_identical_spaces_nn_forward(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((3, 4))
        assert retrieval.induce_dictionary(m, m, method="nn", directions="forward") == \
            [(0, 0), (1, 1), (2, 2)]

    def test_forward_cardinality(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal((2, 4))
        c = rng.standard_normal((5, 4))
        pairs = retrieval.induce_dictionary(q, c, method="nn", directions="forward")
        assert len(pairs) == 2
        assert len({i for i, _ in pairs}) == 2

    def test_union_on_identical_spaces_dedups(self):
        rng = np.random.default_rng(8)
        m = rng.standard_normal((4, 3))
        fwd = retrieval.induce_dictionary(m, m, method="nn", directions="forward")
        union = retrieval.induce_dictionary(m, m, method="nn", directions="union")
        assert union == fwd

    def test_unknown_direction(self):
        with pytest.raises(ContractError):
            retrieval.induce_dictionary(np.eye(2), np.eye(2), method="nn", directions="sideways")


@st.composite
def csls_induction_case(draw):
    """Random spaces with some duplicated rows (exact score ties), plus a
    direction, a k valid for it and a block size."""
    nx, nz = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, z = rng.standard_normal((nx, d)), rng.standard_normal((nz, d))
    for m in (x, z):
        for dst, src in draw(st.lists(st.tuples(st.integers(0, len(m) - 1),
                                                st.integers(0, len(m) - 1)), max_size=3)):
            m[dst] = m[src]
    directions = draw(st.sampled_from(["forward", "backward", "union"]))
    k_max = {"forward": min(nz - 1, nx), "backward": min(nx - 1, nz),
             "union": min(nx, nz) - 1}[directions]
    k = draw(st.integers(1, k_max))
    return x, z, directions, k, draw(st.sampled_from([1, 3, 7, 1024]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(csls_induction_case())
def test_csls_induction_matches_bruteforce(case):
    x, z, directions, k, block_size = case
    forward = list(enumerate(csls_bruteforce(x, z, k)[0]))
    backward = [(i, j) for j, i in enumerate(csls_bruteforce(z, x, k)[0])]
    expected = {"forward": forward, "backward": backward,
                "union": sorted(set(forward + backward))}[directions]
    assert retrieval.induce_dictionary(x, z, method="csls", k=k, directions=directions,
                                       block_size=block_size) == expected


def test_union_csls_computes_penalties_once(monkeypatch):
    calls = []
    knn_means = retrieval._knn_means
    monkeypatch.setattr(retrieval, "_knn_means", lambda *a: calls.append(a) or knn_means(*a))
    rng = np.random.default_rng(9)
    retrieval.induce_dictionary(rng.standard_normal((30, 5)), rng.standard_normal((25, 5)),
                                method="csls", k=3, directions="union", block_size=7)
    assert len(calls) == 2
