import numpy as np
import pytest

from xlalign import refine
from xlalign.errors import ContractError, DegenerateInputError
from xlalign.normalize import preprocess

from conftest import make_rotated_pair, tile_rows, traced_peak
from oracles import refine_literal, unit


class TestAverageVectors:
    def test_midpoint(self):
        x, z, counts = refine.average_vectors([[1.0, 0.0]], [[0.0, 1.0]], [(0, 0)])
        np.testing.assert_array_equal(x, [[0.5, 0.5]])
        np.testing.assert_array_equal(z, [[0.5, 0.5]])
        assert counts == (1, 0)

    def test_equal_vectors_unchanged(self):
        v = [[0.6, 0.8]]
        x, z, _ = refine.average_vectors(v, v, [(0, 0)])
        np.testing.assert_array_equal(x, v)
        np.testing.assert_array_equal(z, v)

    def test_uncovered_rows_bitwise_unchanged(self):
        rng = np.random.default_rng(0)
        xin = rng.standard_normal((5, 3))
        zin = rng.standard_normal((5, 3))
        x, z, _ = refine.average_vectors(xin, zin, [(1, 2)])
        for i in range(5):
            if i != 1:
                assert x[i].tobytes() == xin[i].tobytes()
            if i != 2:
                assert z[i].tobytes() == zin[i].tobytes()

    def test_first_pair_policy(self):
        xin = np.array([[1.0, 0.0], [0.0, 0.0]])
        zin = np.array([[0.0, 1.0], [1.0, 1.0]])
        x, z, counts = refine.average_vectors(xin, zin, [(0, 0), (0, 1)])
        assert counts == (1, 1)
        np.testing.assert_array_equal(x[0], [0.5, 0.5])
        np.testing.assert_array_equal(z[0], [0.5, 0.5])
        assert z[1].tobytes() == zin[1].tobytes()

    def test_first_pair_is_a_walk_in_dictionary_order(self):
        # (0, 1) is skipped as source 0 is taken, so target 1 is still free
        # for (1, 1): not the first occurrence of each word
        xin = np.array([[1.0, 0.0], [0.0, 1.0]])
        zin = np.array([[0.0, 1.0], [1.0, 1.0]])
        x, z, counts = refine.average_vectors(xin, zin, [(0, 0), (0, 1), (1, 1)])
        assert counts == (2, 1)
        np.testing.assert_array_equal(x, [[0.5, 0.5], [0.5, 1.0]])
        np.testing.assert_array_equal(z, x)

    def test_mutual_only_policy(self):
        # rows 0<->0 are mutual nearest neighbors; (1, 0) is not mutual
        xin = np.array([[1.0, 0.0], [0.9, 0.1]])
        zin = np.array([[1.0, 0.0], [0.0, 1.0]])
        x, z, counts = refine.average_vectors(xin, zin, [(0, 0), (1, 0)],
                                              policy="mutual-only")
        assert counts == (1, 1)
        assert x[1].tobytes() == xin[1].tobytes()

    def test_mutual_pairs_match_literal_nearest_neighbors(self):
        rng = np.random.default_rng(3)
        xin, zin = rng.standard_normal((60, 5)), rng.standard_normal((70, 5))

        def nearest(v, m):
            return int(np.argmax([np.dot(unit(v), unit(r)) for r in m]))

        # every source with its nearest target, so about half are mutual,
        # plus random pairs that almost never are
        pairs = [(i, nearest(xin[i], zin)) for i in range(60)]
        pairs += [(int(i), int(j)) for i, j in zip(rng.integers(0, 60, 30), rng.integers(0, 70, 30))]
        expected = {(i, j) for i, j in pairs
                    if nearest(xin[i], zin) == j and nearest(zin[j], xin) == i}
        assert 0 < len(expected) < len(set(pairs))
        assert refine._mutual_pairs(xin, zin, pairs) == expected
        assert refine._mutual_pairs(xin, zin, []) == set()

    @pytest.mark.parametrize("height", [1, 7, 256])
    def test_matches_the_pairwise_loop_bit_for_bit(self, height):
        # random pairs over more rows than a tile, most words in several
        # pairs: the midpoints, written a tile at a time, are the loop's
        rng = np.random.default_rng(9)
        xin, zin = rng.standard_normal((600, 5)), rng.standard_normal((500, 5))
        pairs = list(zip(rng.integers(0, 600, 900).tolist(), rng.integers(0, 500, 900).tolist()))
        want_x, want_z = refine_literal(xin, zin, pairs, norm_iters=0)
        with tile_rows(height):
            x, z, (averaged, skipped) = refine.average_vectors(xin, zin, pairs)
        assert x.tobytes() == want_x.tobytes() and z.tobytes() == want_z.tobytes()
        assert averaged > 256 and skipped > 0  # more than one tile of midpoints

    def test_pair_rows_bitwise_equal(self):
        rng = np.random.default_rng(1)
        xin = rng.standard_normal((50, 6))
        zin = rng.standard_normal((50, 6))
        pairs = [(i, (i + 3) % 50) for i in range(50)]
        x, z, _ = refine.average_vectors(xin, zin, pairs)
        for i, j in pairs:
            assert x[i].tobytes() == z[j].tobytes()

    def test_displacement_symmetry(self):
        rng = np.random.default_rng(2)
        xin = rng.standard_normal((30, 4))
        zin = rng.standard_normal((30, 4))
        pairs = [(i, i) for i in range(30)]
        x, z, _ = refine.average_vectors(xin, zin, pairs)
        for i, j in pairs:
            mid = x[i]
            gap = np.linalg.norm(xin[i] - zin[j])
            assert abs(np.linalg.norm(xin[i] - mid) - gap / 2) < 1e-9
            assert abs(np.linalg.norm(zin[j] - mid) - gap / 2) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(3)
        xin = rng.standard_normal((10, 3))
        zin = rng.standard_normal((10, 3))
        pairs = [(i, i) for i in range(10)]
        x1, z1, _ = refine.average_vectors(xin, zin, pairs)
        x2, z2, _ = refine.average_vectors(x1, z1, pairs)
        np.testing.assert_array_equal(x1, x2)
        np.testing.assert_array_equal(z1, z2)

    def test_out_of_range_pair(self):
        with pytest.raises(ContractError):
            refine.average_vectors(np.eye(2), np.eye(2), [(0, 5)])

    def test_unknown_policy(self):
        with pytest.raises(ContractError):
            refine.average_vectors(np.eye(2), np.eye(2), [(0, 0)], policy="last-pair")


class TestRefinePipeline:
    def test_norm_iters_zero_is_averaging_only(self):
        cfg = refine.RefinementConfig(norm_iters=0)
        out = refine.refine_pipeline([[1.0, 0.0]], [[0.0, 1.0]], [(0, 0)], cfg)
        np.testing.assert_array_equal(out.x_refined, [[0.5, 0.5]])
        np.testing.assert_array_equal(out.z_refined, [[0.5, 0.5]])
        assert out.x_norm_report.iterations_run == 0

    def test_antipodal_pair_degenerate(self):
        cfg = refine.RefinementConfig(norm_iters=5)
        with pytest.raises(DegenerateInputError, match=r"\(0, 0\)"):
            refine.refine_pipeline([[1.0, 0.0], [0.0, 1.0]],
                                   [[-1.0, 0.0], [0.0, 1.0]], [(0, 0)], cfg)

    def test_first_zero_pair_in_dictionary_order_is_named(self):
        # (1, 1) and (0, 0) both average to zero; (1, 1) comes first
        cfg = refine.RefinementConfig(norm_iters=5)
        x = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        z = [[-1.0, 0.0], [0.0, -1.0], [1.0, 0.0]]
        message = r"^pair \(1, 1\) averaged to the zero vector; length normalization is undefined$"
        with pytest.raises(DegenerateInputError, match=message):
            refine.refine_pipeline(x, z, [(2, 2), (1, 1), (0, 0)], cfg)

    @pytest.mark.parametrize("policy", ["first-pair", "mutual-only"])
    def test_peak_memory_two_outputs(self, policy):
        # the averaged copies, normalised in place, are the outputs (16 n d
        # bytes), beside two 256-row tiles of midpoints; mutual-only adds the
        # unit rows of one side (8 n d) and a score tile. Normalising into
        # new copies, or the midpoints of all pairs at once, is 8 n d more
        # (1.6 MB)
        n, d = 2000, 100
        x, z, _ = make_rotated_pair(n=n, d=d, seed=3)
        pairs = [(i, i) for i in range(n)]
        cfg = refine.RefinementConfig(conflict_policy=policy)
        refine.refine_pipeline(x, z, pairs, cfg)  # lazy imports are not the call's
        peak = traced_peak(refine.refine_pipeline, x, z, pairs, cfg)
        unit_copy_and_tile = 8 * n * d + 8 * 256 * (n + d) if policy == "mutual-only" else 0
        assert peak < 16 * n * d + 16 * 256 * d + unit_copy_and_tile + 256 * 1024

    def test_matches_literal_oracle(self):
        rng = np.random.default_rng(4)
        x = preprocess(rng.standard_normal((6, 4)))
        z = preprocess(rng.standard_normal((6, 4)))
        pairs = [(0, 1), (2, 3), (4, 5)]
        cfg = refine.RefinementConfig(norm_iters=5, norm_tol=1e-6)
        out = refine.refine_pipeline(x, z, pairs, cfg)
        ox, oz = refine_literal(x, z, pairs, norm_iters=5, tol=1e-6)
        np.testing.assert_allclose(out.x_refined, ox, atol=1e-9)
        np.testing.assert_allclose(out.z_refined, oz, atol=1e-9)

    def test_counts_partition_dictionary(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3))
        z = rng.standard_normal((8, 3))
        pairs = [(0, 0), (0, 1), (2, 2), (3, 2)]
        out = refine.refine_pipeline(x, z, pairs, refine.RefinementConfig(norm_iters=0))
        assert out.pairs_averaged + out.pairs_skipped == len(pairs)
        assert (out.pairs_averaged, out.pairs_skipped) == (2, 2)

    def test_both_spaces_satisfy_conditions_after_norm(self):
        rng = np.random.default_rng(6)
        x = preprocess(rng.standard_normal((40, 8)))
        z = preprocess(rng.standard_normal((40, 8)))
        pairs = [(i, i) for i in range(0, 40, 2)]
        cfg = refine.RefinementConfig(norm_iters=20, norm_tol=1e-6)
        out = refine.refine_pipeline(x, z, pairs, cfg)
        for m in (out.x_refined, out.z_refined):
            assert np.max(np.abs(np.linalg.norm(m, axis=1) - 1)) < 1e-6
            assert np.max(np.abs(m.mean(axis=0))) < 1e-6

    def test_negative_norm_iters_rejected(self):
        with pytest.raises(ContractError):
            refine.refine_pipeline(np.eye(2), np.eye(2), [(0, 0)],
                                   refine.RefinementConfig(norm_iters=-1))

    @pytest.mark.parametrize("policy", ["first-pair", "mutual-only"])
    def test_dimension_mismatch(self, policy):
        # raised numpy's broadcast error (first-pair) or matmul error (mutual-only)
        with pytest.raises(ContractError, match="x_aligned d=4, z_aligned d=3"):
            refine.refine_pipeline(np.eye(4), np.eye(4)[:, :3], [(0, 0), (1, 1)],
                                   refine.RefinementConfig(conflict_policy=policy))
