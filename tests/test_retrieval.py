
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xlalign import evaluate, retrieval
from xlalign.errors import ContractError
from xlalign.evaluate import precision_at_k
from xlalign.io import GoldDictionary

from conftest import make_rotated_pair, tile_rows, traced_peak
from oracles import csls_bruteforce, ranked_literal


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
        # 2*1 - 1 - 1 = 0 on the diagonal, 2*0 - 1 - 1 = -2 off it
        np.testing.assert_allclose(csls_bruteforce(x, x, 1)[1], [[0, -2], [-2, 0]], atol=1e-12)
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
        # frozen from the brute-force script: the hub (candidate 1) is pushed
        # below zero for both queries
        expected = np.array([
            [0.0, -0.0061162653263811, -2.0],
            [-2.0, -1.7730206825239259, 0.0],
        ])
        np.testing.assert_allclose(csls_bruteforce(queries, candidates, 1)[1], expected,
                                   atol=1e-12)
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
        assert retrieval.csls_retrieve(x, z, k=3) == retrieval.csls_retrieve(7.5 * x, 7.5 * z, k=3)

    def test_block_size_independence(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((37, 6))
        z = rng.standard_normal((23, 6))
        with tile_rows(1024):
            full = retrieval.csls_retrieve(x, z, k=5)
        for rows in (1, 3, 7, 16):
            with tile_rows(rows):
                assert retrieval.csls_retrieve(x, z, k=5) == full


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

    def test_unknown_method(self):
        with pytest.raises(ContractError, match="^unknown retrieval method 'cosine'$"):
            retrieval.induce_dictionary(np.eye(2), np.eye(2), method="cosine")

    def test_float32_spaces_are_scored_in_float32(self, score_passes):
        # a noisy rotation: no pick is within float32 rounding of another
        x, z, _ = make_rotated_pair(n=120, d=8, seed=3, noise=0.05)
        forward = list(enumerate(csls_bruteforce(x, z, 5)[0]))
        backward = [(i, j) for j, i in enumerate(csls_bruteforce(z, x, 5)[0])]
        got = retrieval.induce_dictionary(x.astype(np.float32), z.astype(np.float32), k=5)
        assert got == sorted(set(forward + backward))
        assert [q.dtype for q in score_passes] == [np.float32] * 3

    def test_float32_spaces_hold_one_float32_tile(self):
        # neither space is copied and a score tile is 4 . 256 n bytes with
        # its query rows; a float64 tile alone is 6.1 MB here, and float64
        # casts of both spaces 2.4 MB more
        n, d = 3000, 50
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        x, z = x.astype(np.float32), z.astype(np.float32)
        retrieval.induce_dictionary(x, z)  # lazy imports are not the induction's
        assert traced_peak(retrieval.induce_dictionary, x, z) < \
            4 * 256 * (n + d) + 64 * n + 256 * 1024

    @pytest.mark.parametrize("dtypes", [(np.float64, np.float64), (np.int64, np.int64),
                                        (np.float16, np.float16), (np.float32, np.float64)],
                             ids=["float64", "int64", "float16", "float32-float64"])
    def test_other_spaces_are_scored_in_float64(self, score_passes, dtypes):
        rng = np.random.default_rng(11)
        x, z = (rng.integers(-4, 5, size=(30, 5)).astype(t) for t in dtypes)
        want = retrieval.induce_dictionary(x.astype(np.float64), z.astype(np.float64), k=3)
        score_passes.clear()
        assert retrieval.induce_dictionary(x, z, k=3) == want
        assert [q.dtype for q in score_passes] == [np.float64] * 3


@st.composite
def csls_induction_case(draw):
    """Random spaces with some duplicated rows (exact score ties) and some
    zero rows, which score 0 as candidates and as queries, plus a direction,
    a k valid for it and a score tile height."""
    nx, nz = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    d = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x, z = rng.standard_normal((nx, d)), rng.standard_normal((nz, d))
    for m in (x, z):
        for dst, src in draw(st.lists(st.tuples(st.integers(0, len(m) - 1),
                                                st.integers(0, len(m) - 1)), max_size=3)):
            m[dst] = m[src]
        m[draw(st.lists(st.integers(0, len(m) - 1), max_size=2))] = 0.0
    directions = draw(st.sampled_from(["forward", "backward", "union"]))
    k_max = {"forward": min(nz - 1, nx), "backward": min(nx - 1, nz),
             "union": min(nx, nz) - 1}[directions]
    k = draw(st.integers(1, k_max))
    return x, z, directions, k, draw(st.sampled_from([1, 3, 7, 1024]))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(csls_induction_case())
def test_csls_induction_matches_bruteforce(case):
    x, z, directions, k, rows = case
    forward = list(enumerate(csls_bruteforce(x, z, k)[0]))
    backward = [(i, j) for j, i in enumerate(csls_bruteforce(z, x, k)[0])]
    expected = {"forward": forward, "backward": backward,
                "union": sorted(set(forward + backward))}[directions]
    with tile_rows(rows):
        assert retrieval.induce_dictionary(x, z, method="csls", k=k,
                                           directions=directions) == expected
        if directions == "forward":
            # csls_retrieve ranks by the same rank-only scores
            assert retrieval.csls_retrieve(x, z, k) == [j for _, j in forward]


@pytest.mark.parametrize("call, passes", [
    # rT, then rS with the backward picks, then the forward picks
    (lambda x, z: retrieval.induce_dictionary(x, z, method="csls", k=3, directions="union"), 3),
    (lambda x, z: retrieval.csls_retrieve(x, z, k=3), 2),
    (lambda x, z: precision_at_k(x, z, GoldDictionary({0: {0}}, 0), method="csls", csls_k=3), 2),
], ids=["induce_dictionary-union", "csls_retrieve", "precision_at_k-csls"])
def test_union_csls_computes_penalties_once(score_passes, call, passes):
    # each penalty the call ranks by comes from one score product, and the
    # backward penalty pass and backward pick pass are one product
    rng = np.random.default_rng(9)
    with tile_rows(7):
        call(rng.standard_normal((30, 5)), rng.standard_normal((25, 5)))
    assert len(score_passes) == passes


@pytest.mark.parametrize("height", [11, 22, 256])
@pytest.mark.parametrize("method", ["nn", "csls"])
def test_evaluation_ranks_by_the_forward_induction_scores(method, height):
    # with every source's forward pick as its gold target, P@1 is exactly 1:
    # evaluation ranks by the scores, penalties and ties induction picks by.
    # Height 11 leaves a 1-row tail of the 23 source rows and of the 12 target
    # rows (the rS pass's queries), height 22 of the source rows only
    rng = np.random.default_rng(11)
    z = rng.standard_normal((10, 5))
    z = np.concatenate([z, z[[4]], 2.0 * z[[7]]])  # a duplicated row and a scaled one
    x = np.concatenate([rng.standard_normal((19, 5)), z[[4, 4, 7, 11]]])
    with tile_rows(height):
        if method == "csls":
            picks = retrieval.csls_retrieve(x, z, k=3)
        else:
            pairs = retrieval.induce_dictionary(x, z, method="nn", directions="forward")
            picks = [j for _, j in pairs]
        gold = GoldDictionary({i: {j} for i, j in enumerate(picks)}, 0)
        report = precision_at_k(x, z, gold, ks=(1,), method=method, csls_k=3)
    assert {4, 7} <= set(picks)
    assert report.precision_at == {1: 1.0}


@pytest.mark.parametrize("call", [
    # k=25 has 25 neighbors forward but only 24 backward
    lambda x, z: retrieval.induce_dictionary(x, z, method="csls", k=25, directions="union"),
    lambda x, z: retrieval.csls_retrieve(x, z, k=0),
    lambda x, z: precision_at_k(x, z, GoldDictionary({0: {0}}, 0), method="csls", csls_k=30),
], ids=["induce_dictionary-union", "csls_retrieve", "precision_at_k-csls"])
def test_bad_csls_input_raises_before_any_penalty_pass(score_passes, call):
    rng = np.random.default_rng(9)
    with pytest.raises(ContractError):
        call(rng.standard_normal((25, 5)), rng.standard_normal((30, 5)))
    assert score_passes == []


@pytest.fixture
def score_passes(monkeypatch):
    """The query rows of every score product (``_score_blocks`` pass) made
    while the test runs, in retrieval and in evaluation."""
    calls = []
    score_blocks = retrieval._score_blocks
    for module in (retrieval, evaluate):
        monkeypatch.setattr(module, "_score_blocks",
                            lambda uq, *a, **kw: calls.append(uq) or score_blocks(uq, *a, **kw))
    return calls


@pytest.mark.parametrize("height", [1, 3, 7, 64])
def test_argmax_both_matches_full_argmax_with_ties(height):
    # few distinct values: most rows and columns hold ties, some across blocks
    sim = np.random.default_rng(10).integers(0, 3, size=(23, 17)).astype(np.float64)
    with tile_rows(height):
        rows, cols = retrieval._argmax_both(retrieval._score_blocks(sim, np.eye(17)), 23, 17)
    np.testing.assert_array_equal(rows, sim.argmax(axis=1))
    np.testing.assert_array_equal(cols, sim.argmax(axis=0))


@pytest.mark.parametrize("height", [1, 3, 7, 64])
def test_argmax_both_compares_float32_blocks_exactly(height):
    # values one float32 ulp apart, and ties, across blocks: the float64
    # column maxima hold every float32 value exactly, so no comparison rounds
    ulps = np.random.default_rng(13).integers(0, 3, size=(23, 17))
    sim = (1.0 - ulps * np.finfo(np.float32).epsneg).astype(np.float32)
    assert len(np.unique(sim)) == 3
    with tile_rows(height):
        rows, cols = retrieval._argmax_both(
            retrieval._score_blocks(sim, np.eye(17, dtype=np.float32)), 23, 17)
    np.testing.assert_array_equal(rows, sim.argmax(axis=1))
    np.testing.assert_array_equal(cols, sim.argmax(axis=0))


@pytest.mark.parametrize("height", [1, 31, 32, 33, 64, 256])
def test_argmax_both_takes_the_lowest_index_across_slices_and_blocks(height):
    # duplicated rows and columns of few values: equal maxima lie in other
    # 32-row slices (retrieval._PICK_ROWS) and other blocks of one column
    rng = np.random.default_rng(14)
    base = rng.integers(0, 4, size=(40, 12)).astype(np.float64)
    sim = base[rng.integers(0, 40, size=300)][:, rng.integers(0, 12, size=30)]
    sim[[40, 100, 290]] = sim[8]
    n, m = sim.shape
    with tile_rows(height):
        rows, cols = retrieval._argmax_both(retrieval._score_blocks(sim, np.eye(m)), n, m)
    values = sim.tolist()
    want_rows = [max(range(m), key=lambda j: (values[i][j], -j)) for i in range(n)]
    want_cols = [max(range(n), key=lambda i: (values[i][j], -i)) for j in range(m)]
    assert (rows.tolist(), cols.tolist()) == (want_rows, want_cols)


@pytest.mark.parametrize("side", ["x", "z"])
@pytest.mark.parametrize("call", ["csls_retrieve"])
def test_csls_rejects_non_finite_input(call, side):
    # a NaN row scores NaN everywhere, and its argmax would silently be candidate 0
    x, z = np.eye(4), np.eye(4)
    (x if side == "x" else z)[2, 1] = np.nan
    with pytest.raises(ContractError, match=f"{side}_mapped row 2 "):
        getattr(retrieval, call)(x, z, k=1)


@pytest.mark.parametrize("method", ["nn", "csls"])
def test_induce_rejects_dimension_mismatch(method):
    # nn used to reach the first block product and raise numpy's matmul error
    with pytest.raises(ContractError, match="x_mapped d=4, z_mapped d=3"):
        retrieval.induce_dictionary(np.eye(4), np.eye(4)[:, :3], method=method, k=2)
    with pytest.raises(ContractError, match="x_mapped must be a matrix, got 1 axes"):
        retrieval.induce_dictionary(np.ones(4), np.eye(4), method=method, k=2)


@pytest.mark.parametrize("call", [
    lambda x, z, gold: retrieval.induce_dictionary(x, z, method="csls", k=10, directions="union"),
    lambda x, z, gold: retrieval.csls_retrieve(x, z, k=10),
    lambda x, z, gold: precision_at_k(x, z, gold, ks=(1, 10), method="csls", csls_k=10),
], ids=["induce_dictionary-union", "csls_retrieve", "precision_at_k-csls"])
def test_float64_scoring_holds_no_copy_of_a_space(call):
    # one 256-row float64 score tile (8 . 256 n bytes) with its scaled query
    # rows (8 . 256 d); the slack holds the backward picks' 8-row shifted
    # copies, the penalties and the picks. A unit copy of either space, as
    # each pass held, is 8 n d = 1.6 MB more, a 1024-row tile 12 MB more
    n, d = 2000, 100
    x, z, rows = make_rotated_pair(n=n, d=d, seed=7)
    gold = GoldDictionary({i: {int(rows[i])} for i in range(n)}, 0)
    call(x, z, gold)  # lazy imports are not the call's
    assert traced_peak(call, x, z, gold) < 8 * 256 * (n + d) + 64 * n + 256 * 1024


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("n", [1, 255, 256, 257, 1000])
def test_row_norms_match_linalg_norm_bit_for_bit(n, dtype):
    # squared a tile at a time, the last of 257 rows alone; only C-ordered
    # rows reach it (the boundary copies any other layout)
    m = (np.random.default_rng(n).standard_normal((n, 300)) * 3).astype(dtype)
    want = np.linalg.norm(m, axis=1)
    got = retrieval._row_norms(m)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_scaled_rows_match_the_cast_unit_copy_bit_for_bit(dtype):
    # a query tile scaled on its own equals the same rows of a float64 unit
    # copy rounded to the scoring dtype, zero rows +0.0, as the loop used to
    # build its float32 copies
    rng = np.random.default_rng(41)
    m = rng.standard_normal((600, 30)) * rng.uniform(0.1, 10.0, size=(600, 1))
    m[3] = -0.0  # a zero row of negative zeros
    m[300] = 0.0
    m[301] = 1e-170  # its squares underflow, so its norm is 0 and it scores as a zero row
    norms = retrieval._norms(m)
    want = retrieval._unit_rows(m).astype(dtype)
    assert not np.signbit(want[[3, 300, 301]]).any()
    rows = rng.permutation(600)[:100]
    for sel in (slice(None), slice(0, 256), slice(256, 512), slice(512, 600), rows):
        assert retrieval._unit(m, norms, sel, dtype).tobytes() == want[sel].tobytes()


@pytest.mark.parametrize("height", [1, 7, 256])
def test_streamed_induction_matches_the_oracle_union(height):
    # more rows than one default tile, and a zero row on each side; each pass
    # scales its query tiles and divides the tile's columns by the candidates' norms
    rng = np.random.default_rng(42)
    x, z = rng.standard_normal((270, 5)), rng.standard_normal((260, 5))
    x[17], z[200] = 0.0, 0.0
    forward = list(enumerate(csls_bruteforce(x, z, 4)[0]))
    backward = [(i, j) for j, i in enumerate(csls_bruteforce(z, x, 4)[0])]
    with tile_rows(height):
        got = retrieval.induce_dictionary(x, z, method="csls", k=4, directions="union")
    assert got == sorted(set(forward + backward))


@pytest.mark.parametrize("top", [1, 3, 12, 40])
def test_nth_best_matches_literal_ranking(top):
    # few distinct values: exact ties inside the top values, across their
    # boundary and past it; g runs past the row length, which gives index 0
    sim = np.random.default_rng(12).integers(0, 4, size=(9, 12)).astype(np.float64)
    m = sim.shape[1]
    for g in range(1, m + 3):
        want = [ranked_literal(row)[g - 1] if g <= m else 0 for row in sim]
        np.testing.assert_array_equal(retrieval._nth_best(sim, np.full(9, g), top), want)


def test_nth_best_tie_goes_to_lower_index():
    sim = np.array([[1.0, 3.0, 2.0, 3.0]] * 2)
    for top in (1, 2, 4):
        np.testing.assert_array_equal(retrieval._nth_best(sim, np.array([1, 2]), top), [1, 3])
