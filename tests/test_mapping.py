import tracemalloc
import warnings

import numpy as np
import pytest

from xlalign import mapping, retrieval
from xlalign.errors import ContractError
from xlalign.normalize import preprocess

from conftest import make_rotated_pair, make_warped_pair, tile_rows
from oracles import (
    csls_bruteforce, dropout_argmax_literal, init_bruteforce, random_orthogonal, ranked_literal,
)


class TestProcrustesSolve:
    def test_recovers_rotation(self):
        rot90 = np.array([[0.0, 1.0], [-1.0, 0.0]])
        w = mapping.procrustes_solve(np.eye(2), rot90)
        np.testing.assert_allclose(w, rot90, atol=1e-9)

    def test_identity_on_equal_inputs(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((10, 4))
        np.testing.assert_allclose(mapping.procrustes_solve(x, x), np.eye(4), atol=1e-9)

    def test_recovers_random_orthogonal_and_beats_candidates(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((50, 4))
        r = random_orthogonal(4, rng)
        z = x @ r
        w = mapping.procrustes_solve(x, z)
        np.testing.assert_allclose(w, r, atol=1e-6)
        residual = np.linalg.norm(x @ w - z)
        for _ in range(100):
            cand = random_orthogonal(4, rng)
            assert residual <= np.linalg.norm(x @ cand - z) + 1e-12

    def test_orthogonality(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            w = mapping.procrustes_solve(rng.standard_normal((8, 5)),
                                         rng.standard_normal((8, 5)))
            np.testing.assert_allclose(w.T @ w, np.eye(5), atol=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(ContractError):
            mapping.procrustes_solve(np.eye(2), np.eye(3))


class TestUnsupervisedInit:
    def test_permuted_twin_recovery(self):
        rng = np.random.default_rng(3)
        n, d = 120, 10
        x = preprocess(rng.standard_normal((n, d)))
        perm = rng.permutation(n)
        z = x[perm]
        gold = np.empty(n, dtype=int)
        gold[perm] = np.arange(n)
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        pairs = mapping.unsupervised_init(x, z, cfg)
        assert pairs
        correct = sum(1 for i, j in pairs if gold[i] == j)
        assert correct / len(pairs) >= 0.95

    def test_identical_spaces_self_match(self):
        rng = np.random.default_rng(4)
        n = 40
        x = preprocess(rng.standard_normal((n, 8)))
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        pairs = mapping.unsupervised_init(x, x, cfg)
        assert set(pairs) >= {(i, i) for i in range(n)}
        assert pairs == [(i, i) for i in range(n)]

    def test_cutoff_one_single_pair(self):
        # same contract as align: MappingConfig.validate rejects cutoff 1
        rng = np.random.default_rng(5)
        x = preprocess(rng.standard_normal((5, 4)))
        cfg = mapping.MappingConfig(vocab_cutoff=1)
        with pytest.raises(ContractError):
            mapping.unsupervised_init(x, x, cfg)

    def test_cutoff_too_large(self):
        rng = np.random.default_rng(6)
        x = preprocess(rng.standard_normal((5, 4)))
        cfg = mapping.MappingConfig(vocab_cutoff=10)
        with pytest.raises(ContractError):
            mapping.unsupervised_init(x, x, cfg)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("height", [1, 7, 1024])
    def test_matches_bruteforce(self, seed, height):
        x, z, _ = make_rotated_pair(n=60, d=6, seed=seed, noise=0.05)
        cfg = mapping.MappingConfig(vocab_cutoff=50)
        with tile_rows(height):
            assert mapping.unsupervised_init(x, z, cfg) == init_bruteforce(x, z, 50)

    def test_peak_memory_one_cutoff_squared_matrix(self):
        # the sorted target rows (8 n^2 bytes) plus a few row blocks; holding
        # both sides' sorted matrices, or a copy of one, is 8 n^2 more
        n, block = 1200, 128
        x, z, _ = make_rotated_pair(n=n, d=20, seed=7)
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        with tile_rows(block):
            tracemalloc.start()
            try:
                mapping.unsupervised_init(x, z, cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 8 * n * n + 4 * 8 * block * n + 256 * 1024

    def test_peak_memory_at_the_default_block_size(self):
        # the sorted target rows plus three 256-row blocks; 1024-row blocks
        # are 27 MB more at this cutoff
        n = 1500
        x, z, _ = make_rotated_pair(n=n, d=20, seed=7)
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        tracemalloc.start()
        try:
            mapping.unsupervised_init(x, z, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n + 3 * 8 * 256 * n + 256 * 1024

    def test_peak_memory_in_float32(self):
        # the float32 sorted target rows (4 n^2 bytes) plus three float32
        # 256-row blocks: a float64 similarity block and its float32 sorted
        # copy, or that copy and its score block; in float64 the init peaks
        # at 27.3 MB here, against this bound of 14.1 MB
        n, d = 1500, 20
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        tracemalloc.start()
        try:
            mapping.unsupervised_init(x, z, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * n * n + 3 * 4 * 256 * n + 8 * n * d + 256 * 1024

    @pytest.mark.parametrize("seed", range(1, 8))
    def test_matches_bruteforce_on_nearly_parallel_sorted_rows(self, seed):
        # the warped pair's sorted rows have cosines near 1, where a plain
        # float32 product rounds away the differences that pick the argmax
        x, z = make_warped_pair(n=300, seed=seed)
        cfg = mapping.MappingConfig(vocab_cutoff=300)
        assert mapping.unsupervised_init(x, z, cfg) == init_bruteforce(x, z, 300)

    @pytest.mark.parametrize("scale", [1e-30, 1e-20, 1e20, 1e30])
    def test_scale_invariance(self, scale):
        # a float32 cast of the input would underflow the similarities at the
        # small scales and overflow them at the large ones
        x, z, _ = make_rotated_pair(n=120, d=8, seed=0, noise=0.05)
        cfg = mapping.MappingConfig(vocab_cutoff=100)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert mapping.unsupervised_init(scale * x, scale * z, cfg) == \
                mapping.unsupervised_init(x, z, cfg)


class TestSelfLearningAlign:
    def fast_cfg(self, n, **kw):
        defaults = dict(vocab_cutoff=n, csls_k=10, stall_patience=3, seed=0)
        defaults.update(kw)
        return mapping.MappingConfig(**defaults)

    def test_end_to_end_permutation_recovery(self):
        x, z, gold = make_rotated_pair(n=1000, d=20, seed=0)
        cfg = self.fast_cfg(1000)
        result = mapping.align(x, z, cfg)
        assert result.converged
        correct = sum(1 for i, j in result.dictionary if gold[i] == j)
        assert correct / len(result.dictionary) >= 0.95

    def test_perfect_init_converges_fast(self):
        rng = np.random.default_rng(7)
        n, d = 200, 12
        x = preprocess(rng.standard_normal((n, d)))
        z = x @ random_orthogonal(d, rng)
        init = [(i, i) for i in range(n)]
        cfg = self.fast_cfg(n, keep_prob_initial=1.0)
        result = mapping.self_learning_align(x, z, init, cfg)
        assert result.converged
        assert result.iterations <= 3
        assert result.objective >= 0.999

    def test_single_iteration_deterministic(self):
        x, z, _ = make_rotated_pair(n=150, d=8, seed=8)
        init = [(i, i) for i in range(150)]
        cfg = self.fast_cfg(150, keep_prob_initial=1.0, max_iterations=1)
        r1 = mapping.self_learning_align(x, z, init, cfg)
        r2 = mapping.self_learning_align(x, z, init, cfg)
        assert not r1.converged
        assert r1.dictionary == r2.dictionary
        assert r1.objective == r2.objective
        assert r1.w_src.tobytes() == r2.w_src.tobytes()
        assert r1.w_trg.tobytes() == r2.w_trg.tobytes()

    def test_seed_fixes_whole_trace(self):
        x, z, _ = make_rotated_pair(n=200, d=10, seed=9)
        cfg = self.fast_cfg(200, seed=42)
        r1 = mapping.align(x, z, cfg)
        r2 = mapping.align(x, z, cfg)
        assert r1.dictionary == r2.dictionary
        assert r1.objective == r2.objective
        assert r1.iterations == r2.iterations
        assert r1.w_src.tobytes() == r2.w_src.tobytes()
        assert r1.w_trg.tobytes() == r2.w_trg.tobytes()

    def test_transforms_orthogonal_even_when_not_converged(self):
        x, z, _ = make_rotated_pair(n=150, d=8, seed=10)
        cfg = self.fast_cfg(150, max_iterations=1)
        result = mapping.self_learning_align(x, z, [(i, i) for i in range(150)], cfg)
        assert not result.converged
        for w in (result.w_src, result.w_trg):
            assert np.max(np.abs(w.T @ w - np.eye(8))) < 1e-6

    def test_orthogonal_transform_preserves_norms(self):
        x, z, _ = make_rotated_pair(n=150, d=8, seed=11)
        result = mapping.align(x, z, self.fast_cfg(150))
        xw = x @ result.w_src
        np.testing.assert_allclose(np.linalg.norm(xw, axis=1),
                                   np.linalg.norm(x, axis=1), atol=1e-9)

    def test_solve_step_never_decreases_objective(self):
        # for a fixed dictionary, the Procrustes solve maximizes the mean
        # cosine, so re-solving can only improve it
        rng = np.random.default_rng(12)
        n, d = 200, 10
        x = preprocess(rng.standard_normal((n, d)))
        z = x @ random_orthogonal(d, rng)
        dictionary = [(i, (i + 1) % n) for i in range(n)]
        src = [p[0] for p in dictionary]
        trg = [p[1] for p in dictionary]
        before = float(np.mean(np.sum(x[src] * z[trg], axis=1)))
        u, v, _ = mapping._symmetric_solve(x[src], z[trg])
        after = float(np.mean(np.sum((x @ u)[src] * (z @ v)[trg], axis=1)))
        assert after >= before - 1e-9

    def test_objective_non_decreasing_at_keep_prob_one(self):
        rng = np.random.default_rng(12)
        n, d = 200, 10
        x = preprocess(rng.standard_normal((n, d)))
        z = x @ random_orthogonal(d, rng)
        objectives = []
        orig = mapping._induce_with_dropout

        def spy(xw, zw, cfg, keep_prob, rng_):
            pairs = orig(xw, zw, cfg, keep_prob, rng_)
            src = [p[0] for p in pairs]
            trg = [p[1] for p in pairs]
            objectives.append(float(np.mean(np.sum(xw[src] * zw[trg], axis=1))))
            return pairs

        mapping._induce_with_dropout = spy
        try:
            mapping.self_learning_align(
                x, z, [(i, i) for i in range(n)],
                self.fast_cfg(n, keep_prob_initial=1.0),
            )
        finally:
            mapping._induce_with_dropout = orig
        diffs = np.diff(objectives)
        assert np.all(diffs >= -1e-9)

    def test_dimension_mismatch(self):
        # raised numpy's matmul error at the first induction; the init takes
        # such spaces, as it compares each language only with itself
        rng = np.random.default_rng(17)
        x, z = rng.standard_normal((20, 4)), rng.standard_normal((20, 5))
        cfg = self.fast_cfg(20)
        init = mapping.unsupervised_init(x, z, cfg)
        assert init
        with pytest.raises(ContractError, match="dimension mismatch: x d=4, z d=5"):
            mapping.self_learning_align(x, z, init, cfg)

    def test_empty_init_rejected(self):
        x, z, _ = make_rotated_pair(n=50, d=5, seed=13)
        with pytest.raises(ContractError):
            mapping.self_learning_align(x, z, [], self.fast_cfg(50))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            mapping.MappingConfig(keep_prob_initial=0.0).validate()
        with pytest.raises(ContractError):
            mapping.MappingConfig(vocab_cutoff=1).validate()
        with pytest.raises(ContractError):
            mapping.MappingConfig(direction="both").validate()

    def test_dropout_independent_of_block_size(self):
        # the dropout mask is drawn in query-row order, so the block
        # partitioning must not change a single draw
        x, z, _ = make_rotated_pair(n=120, d=8, seed=15)
        init = [(i, i) for i in range(120)]
        cfg = self.fast_cfg(120, keep_prob_initial=0.3, stall_patience=2)
        results = []
        for height in (1, 7, 1024):
            with tile_rows(height):
                results.append(mapping.self_learning_align(x, z, init, cfg))
        for r in results[1:]:
            assert r.dictionary == results[0].dictionary
            assert r.iterations == results[0].iterations
            assert r.objective == results[0].objective
            assert r.w_src.tobytes() == results[0].w_src.tobytes()
            assert r.w_trg.tobytes() == results[0].w_trg.tobytes()

    def test_loop_induction_bypasses_induce_dictionary(self, monkeypatch):
        # the final full-vocabulary refit is the only call through the public
        # induce_dictionary, so wrapping it times the refit and not the loop
        calls = []
        induce = mapping.induce_dictionary
        monkeypatch.setattr(mapping, "induce_dictionary",
                            lambda *a, **kw: calls.append(kw) or induce(*a, **kw))
        x, z, _ = make_rotated_pair(n=100, d=6, seed=16)
        result = mapping.self_learning_align(x, z, [(i, i) for i in range(100)],
                                             self.fast_cfg(100))
        assert result.iterations > 1
        assert len(calls) == 1

    def test_loop_induction_peak_memory_in_float32(self):
        # the float32 unit copies (8 n d bytes, and 8 n d for the float64
        # unit rows each is rounded from) and one float32 256-row tile with
        # its 32-row pick slices: 4.36 MB; a float64 tile alone is 6.1 MB
        # here, against this bound of 4.6 MB
        n, d = 3000, 10
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        cfg = self.fast_cfg(n)
        rng = np.random.default_rng(0)
        tracemalloc.start()
        try:
            mapping._induce_with_dropout(x, z, cfg, 0.1, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * n * d + 4 * 256 * n + 1024 * 1024

    def test_reweight_scale_stored(self):
        x, z, _ = make_rotated_pair(n=120, d=6, seed=14)
        result = mapping.align(x, z, self.fast_cfg(120, reweight=True))
        assert result.reweight_scale is not None
        assert result.reweight_scale.shape == (6,)
        # orthogonality of the stored transforms is unaffected by reweighting
        assert np.max(np.abs(result.w_src.T @ result.w_src - np.eye(6))) < 1e-6


class TestNonFiniteInput:
    @pytest.mark.parametrize("side", ["x", "z"])
    @pytest.mark.parametrize("call", ["align", "unsupervised_init", "self_learning_align"])
    def test_names_first_bad_row(self, call, side):
        # one NaN used to give a junk init dictionary, then an SVD failure
        x, z, _ = make_rotated_pair(n=30, d=4, seed=19)
        bad = x if side == "x" else z
        bad[12, 0] = np.inf
        bad[7, 2] = np.nan
        cfg = mapping.MappingConfig(vocab_cutoff=30)
        args = (x, z, [(i, i) for i in range(30)]) if call == "self_learning_align" else (x, z)
        with pytest.raises(ContractError, match=f"{side} row 7 "):
            getattr(mapping, call)(*args, cfg)


def _draw_counts(row, keep_prob, draws=20000, chunk=2000):
    """Chosen index of ``draws`` copies of ``row`` under the rank sampler and
    under the literal mask (independent streams), drawn ``chunk`` rows at a time."""
    sim = np.tile(row, (chunk, 1))
    sampler_rng, mask_rng = np.random.default_rng(20), np.random.default_rng(21)
    sampled = np.concatenate([
        retrieval._dropout_pick(sim, sampler_rng.geometric(keep_prob, size=len(sim)), keep_prob)
        for _ in range(draws // chunk)])
    masked = np.concatenate([dropout_argmax_literal(sim, keep_prob, mask_rng)
                             for _ in range(draws // chunk)])
    return sampled, masked


def _chi2_two_sample(a, b, categories):
    """Two-sample chi-square over the given index categories plus the rest;
    equal sample sizes, so each term is (a_i - b_i)^2 / (a_i + b_i)."""
    counts = [(np.isin(a, c).sum(), np.isin(b, c).sum()) for c in categories]
    counts.append((len(a) - sum(c for c, _ in counts), len(b) - sum(c for _, c in counts)))
    return sum((ca - cb) ** 2 / (ca + cb) for ca, cb in counts if ca + cb)


class TestDropoutSampler:
    """The rank sampler against the literal b x m mask it replaces."""

    CHI2_DF6_999 = 22.46  # 99.9% quantile of chi-square with 6 degrees of freedom

    def test_matches_literal_mask_on_tied_row(self):
        # 30 wide, 8 distinct values: most top candidates tie with another
        row = np.random.default_rng(22).integers(0, 8, 30).astype(np.float64)
        keep_prob, draws = 0.3, 20000
        sampled, masked = _draw_counts(row, keep_prob, draws)
        ranked = ranked_literal(row)
        assert _chi2_two_sample(sampled, masked, [[j] for j in ranked[:6]]) < self.CHI2_DF6_999
        # each of the top six against its exact count, within 5 standard deviations
        for rank, j in enumerate(ranked[:6]):
            expected = draws * keep_prob * (1 - keep_prob) ** rank
            for counts in (sampled, masked):
                assert abs((counts == j).sum() - expected) < 5 * np.sqrt(expected)

    def test_rows_past_the_ranked_top_are_sorted_in_full(self):
        # at keep_prob 0.05 the sampler ranks the best 136 of 200; a draw past
        # that falls back to a full sort, and one past 200 gives index 0
        row = np.round(np.random.default_rng(23).standard_normal(200), 1)
        keep_prob, draws = 0.05, 20000
        g = np.random.default_rng(20).geometric(keep_prob, size=draws)
        assert np.sum(g > 136) >= 5
        sampled, masked = _draw_counts(row, keep_prob, draws)
        ranked = ranked_literal(row)
        np.testing.assert_array_equal(sampled, [ranked[n - 1] if n <= 200 else 0 for n in g])
        assert _chi2_two_sample(sampled, masked, [[j] for j in ranked[:6]]) < self.CHI2_DF6_999

    def test_all_dropped_row_gives_index_zero(self):
        sim = np.tile([1.0, 3.0, 2.0], (50, 1))
        rng = np.random.default_rng(24)
        for keep_prob in (1e-12, 1e-320):
            g = rng.geometric(keep_prob, size=len(sim))
            np.testing.assert_array_equal(retrieval._dropout_pick(sim, g, keep_prob), 0)
        np.testing.assert_array_equal(dropout_argmax_literal(sim, 1e-12, rng), 0)

    def test_tie_goes_to_lower_index(self):
        # candidates 1 and 3 tie for best; 1 must take the best-kept share
        sampled, masked = _draw_counts(np.array([1.0, 3.0, 2.0, 3.0]), 0.5, draws=4000)
        for counts in (sampled, masked):
            assert (counts == 1).sum() > 1.5 * (counts == 3).sum()
        assert _chi2_two_sample(sampled, masked, [[1], [3], [2]]) < 16.27  # df 3, 99.9%


def test_union_dropout_is_both_directions_drawn_forward_first():
    # one uz.ux^T product gives the backward picks and the forward penalties,
    # so backward rows are picked before forward rows; drawn up front, forward
    # first, union is the forward-only picks plus the backward-only picks
    # from the same stream, at every tile height
    rng = np.random.default_rng(25)
    x = rng.integers(-1, 2, size=(40, 4)).astype(np.float64)
    z = rng.integers(-1, 2, size=(35, 4)).astype(np.float64)
    x[10:20], z[5:15] = x[:10], z[20:30]  # duplicated rows: exact ties both ways
    ux, uz = retrieval._unit_rows(x), retrieval._unit_rows(z)
    unions = []
    for height in (1, 7, 1024):
        with tile_rows(height):
            unions.append(retrieval._induce(ux, uz, "csls", 3, "union", 0.3,
                                            np.random.default_rng(26)).tolist())
            draws = np.random.default_rng(26)
            fwd = retrieval._induce(ux, uz, "csls", 3, "forward", 0.3, draws).tolist()
            bwd = retrieval._induce(ux, uz, "csls", 3, "backward", 0.3, draws).tolist()
        assert unions[-1] == sorted(map(list, set(map(tuple, fwd + bwd))))
    assert unions[0] == unions[1] == unions[2]


def test_induce_draws_one_geometric_per_picked_row():
    rng = np.random.default_rng(27)
    ux, uz = (retrieval._unit_rows(rng.standard_normal((n, 4))) for n in (40, 35))
    # at keep_prob 1 every row takes its argmax and no generator is needed
    forward = list(enumerate(csls_bruteforce(ux, uz, 3)[0]))
    backward = [(i, j) for j, i in enumerate(csls_bruteforce(uz, ux, 3)[0])]
    assert list(map(tuple, retrieval._induce(ux, uz, "csls", 3, "union", 1.0, None).tolist())) \
        == sorted(set(forward + backward))
    untouched = np.random.default_rng(28)
    retrieval._induce(ux, uz, "csls", 3, "union", 1.0, untouched)
    assert untouched.bit_generator.state == np.random.default_rng(28).bit_generator.state
    # below 1, a union draws one geometric per source row, then one per target row
    draws, twin = np.random.default_rng(29), np.random.default_rng(29)
    retrieval._induce(ux, uz, "csls", 3, "union", 0.3, draws)
    twin.geometric(0.3, size=len(ux))
    twin.geometric(0.3, size=len(uz))
    assert draws.bit_generator.state == twin.bit_generator.state


class TestAlignContracts:
    """align checks its inputs before the cutoff-squared init runs."""

    @pytest.fixture(autouse=True)
    def no_init(self, monkeypatch):
        def init(*args):
            raise AssertionError("unsupervised_init ran before the contract check")

        monkeypatch.setattr(mapping, "unsupervised_init", init)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(17)
        x, z = rng.standard_normal((20, 4)), rng.standard_normal((20, 5))
        with pytest.raises(ContractError, match="dimension"):
            mapping.align(x, z, mapping.MappingConfig(vocab_cutoff=20))

    def test_invalid_config(self):
        x, z, _ = make_rotated_pair(n=20, d=4, seed=18)
        with pytest.raises(ContractError, match="keep_prob_initial"):
            mapping.align(x, z, mapping.MappingConfig(vocab_cutoff=20, keep_prob_initial=1.5))

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -3), ("stall_patience", 0),
        ("stall_patience", -1), ("convergence_tol", -1e-6), ("convergence_tol", float("nan")),
        ("convergence_tol", float("inf")),
    ])
    def test_loop_fields_rejected(self, field, value):
        # 0 iterations returned an unaligned result, a negative tolerance never
        # stalled and a NaN one converged after one iteration
        x, z, _ = make_rotated_pair(n=20, d=4, seed=18)
        cfg = mapping.MappingConfig(vocab_cutoff=20, **{field: value})
        with pytest.raises(ContractError, match=field):
            mapping.align(x, z, cfg)
