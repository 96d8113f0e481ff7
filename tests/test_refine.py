from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from xlalign import mapping, refine
from xlalign.errors import ContractError, DegenerateInputError
from xlalign.normalize import iterative_normalize, preprocess

from conftest import make_rotated_pair, tile_rows, traced_peak
from oracles import refine_literal


class TestFittedMaps:
    def test_equal_spaces_unchanged(self):
        # every word paired with itself, so Z_D = X_D and both maps are the identity
        rng = np.random.default_rng(0)
        v = rng.standard_normal((20, 4))
        out = refine.refine_pipeline(v, v, [(i, i) for i in range(0, 20, 3)],
                                     refine.RefinementConfig(norm_iters=0))
        np.testing.assert_allclose(out.x_refined, v, rtol=0, atol=1e-12)
        np.testing.assert_allclose(out.z_refined, v, rtol=0, atol=1e-12)

    def test_directions_outside_the_dictionary_span_unchanged(self):
        # the pair rows span the first 3 of 6 coordinates on each side, and
        # the other rows the last 3, which the maps leave where they are
        rng = np.random.default_rng(1)
        x, z = rng.standard_normal((12, 6)), rng.standard_normal((12, 6))
        x[:8, 3:] = z[:8, 3:] = x[8:, :3] = z[8:, :3] = 0.0
        out = refine.refine_pipeline(x, z, [(i, 7 - i) for i in range(8)],
                                     refine.RefinementConfig(norm_iters=0))
        for before, after in ((x, out.x_refined), (z, out.z_refined)):
            np.testing.assert_allclose(after[8:], before[8:], rtol=0, atol=1e-12)
            assert np.abs(after[:8] - before[:8]).max() > 0.1

    def test_empty_dictionary_is_the_identity_map(self):
        rng = np.random.default_rng(2)
        x, z = rng.standard_normal((30, 5)), rng.standard_normal((25, 5))
        out = refine.refine_pipeline(x, z, [])
        assert out.pairs_averaged == 0
        np.testing.assert_array_equal(out.x_refined, iterative_normalize(x)[0])
        np.testing.assert_array_equal(out.z_refined, iterative_normalize(z)[0])


class TestRefinePipeline:
    def test_norm_iters_zero_is_averaging_only(self):
        cfg = refine.RefinementConfig(norm_iters=0)
        out = refine.refine_pipeline([[1.0, 0.0]], [[0.0, 1.0]], [(0, 0)], cfg)
        np.testing.assert_array_equal(out.x_refined, [[0.5, 0.5]])
        np.testing.assert_array_equal(out.z_refined, [[0.5, 0.5]])
        assert out.x_norm_report.iterations_run == 0

    def test_antipodal_pair_degenerate(self):
        cfg = refine.RefinementConfig(norm_iters=5)
        # the pair's midpoint is zero, and so is row 0 of each mapped space
        with pytest.raises(DegenerateInputError, match="^zero vector at row 0 makes"):
            refine.refine_pipeline([[1.0, 0.0], [0.0, 1.0]],
                                   [[-1.0, 0.0], [0.0, 1.0]], [(0, 0)], cfg)

    def test_zero_row_names_its_space(self):
        # named only its row, not which of the two mapped spaces holds it
        cfg = refine.RefinementConfig(norm_iters=5)
        with pytest.raises(DegenerateInputError, match="^zero vector at row 0 .* in x_aligned$"):
            refine.refine_pipeline([[1.0, 0.0], [0.0, 1.0]],
                                   [[-1.0, 0.0], [0.0, 1.0]], [(0, 0)], cfg)
        # a zero row of z outside the dictionary stays zero under the map
        with pytest.raises(DegenerateInputError, match="^zero vector at row 1 .* in z_aligned$"):
            refine.refine_pipeline([[1.0, 0.0], [0.0, 1.0]],
                                   [[0.0, 1.0], [0.0, 0.0]], [(0, 0)], cfg)

    @pytest.mark.parametrize("norm_iters", [0, 5])
    def test_empty_space_names_it(self, norm_iters):
        # norm_iters 0 raised numpy's ValueError for a zero-size maximum
        cfg = refine.RefinementConfig(norm_iters=norm_iters)
        with pytest.raises(ContractError, match="at least one row in x_aligned$"):
            refine.refine_pipeline(np.empty((0, 4)), np.eye(4), [], cfg)
        with pytest.raises(ContractError, match="at least one row in z_aligned$"):
            refine.refine_pipeline(np.eye(4), np.empty((0, 4)), [], cfg)

    def test_peak_memory_two_outputs(self):
        # the mapped spaces, normalised in place, are the outputs (16 n d
        # bytes); the maps come from d x d sums over 256-pair tiles, which
        # are dropped before the outputs are made. Normalising into new
        # copies is 8 n d more (1.6 MB)
        n, d = 2000, 100
        x, z, _ = make_rotated_pair(n=n, d=d, seed=3)
        pairs = [(i, i) for i in range(n)]
        refine.refine_pipeline(x, z, pairs)  # lazy imports are not the call's
        peak = traced_peak(refine.refine_pipeline, x, z, pairs)
        assert peak < 16 * n * d + 16 * 256 * d + 256 * 1024

    def test_float32_pair_holds_two_new_spaces(self):
        # the boundary casts each space to float64 and refines that cast: one
        # more copy of each, as made before, was four spaces (6.4 MB here)
        n, d = 2000, 100
        x, z, rows = make_rotated_pair(n=n, d=d, seed=3)
        x, z = x.astype(np.float32), z.astype(np.float32)
        pairs = [(i, int(rows[i])) for i in range(n)]
        refine.refine_pipeline(x, z, pairs)  # lazy imports are not the call's
        assert traced_peak(refine.refine_pipeline, x, z, pairs) < 3 * 8 * n * d

    def test_copy_false_refines_the_inputs_in_place(self):
        # the in-place path the CLI takes maps each space a tile at a time, so
        # its rows may differ from the copies' in the last bits
        rng = np.random.default_rng(10)
        x = preprocess(rng.standard_normal((700, 20)))
        z = preprocess(rng.standard_normal((600, 20)))
        pairs = list(zip(rng.integers(0, 700, 500).tolist(), rng.integers(0, 600, 500).tolist()))
        before = x.tobytes(), z.tobytes()
        copied = refine.refine_pipeline(x, z, pairs)
        assert (x.tobytes(), z.tobytes()) == before  # copy=True leaves its inputs unchanged
        in_place = refine.refine_pipeline(x, z, pairs, copy=False)
        assert in_place.x_refined is x and in_place.z_refined is z
        np.testing.assert_allclose(x, copied.x_refined, rtol=0, atol=1e-12)
        np.testing.assert_allclose(z, copied.z_refined, rtol=0, atol=1e-12)
        assert in_place.x_norm_report == copied.x_norm_report
        assert in_place.z_norm_report == copied.z_norm_report

    def test_copy_false_needs_spaces_it_may_overwrite(self):
        # one array as both spaces would be mapped by M_x, then by M_z
        x = np.random.default_rng(11).standard_normal((10, 3))
        pairs = [(0, 1), (2, 3)]
        with pytest.raises(ContractError, match="^copy=False needs writeable"):
            refine.refine_pipeline(x, x[::-1], pairs, copy=False)
        frozen = x.copy()
        frozen.flags.writeable = False
        with pytest.raises(ContractError, match="^copy=False needs writeable"):
            refine.refine_pipeline(x, frozen, pairs, copy=False)
        out = refine.refine_pipeline(x, frozen, pairs)  # copies: allowed
        assert out.z_refined is not frozen

    def test_matches_literal_oracle(self):
        # three pairs in four dimensions: the dictionary rows have rank 3
        rng = np.random.default_rng(4)
        x = preprocess(rng.standard_normal((6, 4)))
        z = preprocess(rng.standard_normal((6, 4)))
        pairs = [(0, 1), (2, 3), (4, 5)]
        cfg = refine.RefinementConfig(norm_iters=5, norm_tol=1e-6)
        out = refine.refine_pipeline(x, z, pairs, cfg)
        ox, oz = refine_literal(x, z, pairs, norm_iters=5, tol=1e-6)
        np.testing.assert_allclose(out.x_refined, ox, atol=1e-9)
        np.testing.assert_allclose(out.z_refined, oz, atol=1e-9)

    @pytest.mark.parametrize("rows, d", [(600, 5), (9, 12)], ids=["full-rank", "rank-deficient"])
    @pytest.mark.parametrize("height", [1, 7, 256])
    def test_matches_literal_oracle_at_every_tile_height(self, height, rows, d):
        # random pairs, most words in several: 900 over 600 x 500 rows, or
        # 20 over 9 x 7 rows in 12 dimensions, which span at most 9
        rng = np.random.default_rng(9)
        x = preprocess(rng.standard_normal((rows, d)))
        z = preprocess(rng.standard_normal((rows * 5 // 6, d)))
        n_pairs = 900 if rows > d else 20
        pairs = list(zip(rng.integers(0, len(x), n_pairs).tolist(),
                         rng.integers(0, len(z), n_pairs).tolist()))
        cfg = refine.RefinementConfig(norm_iters=5, norm_tol=1e-6)
        with tile_rows(height), pytest.MonkeyPatch.context() as patch:
            patch.setattr(mapping, "_PAIR_TILE", height)  # the maps' sums
            out = refine.refine_pipeline(x, z, pairs, cfg)
        ox, oz = refine_literal(x, z, pairs, norm_iters=5, tol=1e-6)
        np.testing.assert_allclose(out.x_refined, ox, atol=1e-9)
        np.testing.assert_allclose(out.z_refined, oz, atol=1e-9)
        assert out.pairs_averaged == n_pairs

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

    def test_config_is_checked_when_built_and_frozen(self):
        with pytest.raises(ContractError, match="norm_iters must be >= 0"):
            refine.RefinementConfig(norm_iters=-1)
        with pytest.raises(ContractError, match="tol must be > 0"):
            refine.RefinementConfig(norm_tol=0.0)
        refine.RefinementConfig(norm_iters=0, norm_tol=0.0)  # no normalization, no tolerance
        # "x" raised TypeError inside the run; NaN, infinity and True were accepted
        for value in ("x", None, True, float("nan"), float("inf")):
            with pytest.raises(ContractError, match="norm_tol must be"):
                refine.RefinementConfig(norm_tol=value)
        assert refine.RefinementConfig(norm_tol=np.float32(1e-3)).norm_tol == np.float32(1e-3)
        assert refine.RefinementConfig(norm_tol=np.int64(1)).norm_tol == 1
        for value in (2.5, 3.0, True):  # 2.5 raised TypeError inside the run
            with pytest.raises(ContractError, match="norm_iters must be an integer"):
                refine.RefinementConfig(norm_iters=value)
        assert refine.RefinementConfig(norm_iters=np.int64(3)).norm_iters == 3
        with pytest.raises(FrozenInstanceError):
            refine.RefinementConfig().norm_iters = 3

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError, match="x_aligned d=4, z_aligned d=3"):
            refine.refine_pipeline(np.eye(4), np.eye(4)[:, :3], [(0, 0), (1, 1)])
