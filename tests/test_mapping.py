import tracemalloc
import warnings
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from xlalign import mapping, retrieval
from xlalign.errors import ContractError
from xlalign.normalize import preprocess

from conftest import make_rotated_pair, make_warped_pair, tile_rows, traced_peak
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

    def test_zero_pairs(self):
        with pytest.raises(ContractError, match="^need at least one pair$"):
            mapping.procrustes_solve(np.empty((0, 3)), np.empty((0, 3)))


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
        # same contract as align: MappingConfig rejects cutoff 1 when built
        rng = np.random.default_rng(5)
        x = preprocess(rng.standard_normal((5, 4)))
        with pytest.raises(ContractError):
            cfg = mapping.MappingConfig(vocab_cutoff=1)
            mapping.unsupervised_init(x, x, cfg)

    def test_cutoff_above_the_vocabularies_is_the_smaller_vocabulary(self):
        # raised ContractError, so align failed at the default cutoff (20000)
        # on any smaller vocabulary; the loop already capped the cutoff
        rng = np.random.default_rng(6)
        x, z = preprocess(rng.standard_normal((7, 4))), preprocess(rng.standard_normal((5, 4)))
        for cutoff in (6, 10, 20000):
            assert mapping.unsupervised_init(x, z, mapping.MappingConfig(vocab_cutoff=cutoff)) \
                == mapping.unsupervised_init(x, z, mapping.MappingConfig(vocab_cutoff=5))

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
            peak = traced_peak(mapping.unsupervised_init, x, z, cfg)
        assert peak < 8 * n * n + 4 * 8 * block * n + 256 * 1024

    def test_peak_memory_at_the_default_block_size(self):
        # the sorted target rows plus three 256-row blocks; 1024-row blocks
        # are 27 MB more at this cutoff
        n = 1500
        x, z, _ = make_rotated_pair(n=n, d=20, seed=7)
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        peak = traced_peak(mapping.unsupervised_init, x, z, cfg)
        assert peak < 8 * n * n + 3 * 8 * 256 * n + 256 * 1024

    def test_peak_memory_in_float32(self):
        # the float32 sorted target rows (4 n^2 bytes) plus one float64
        # 256-row block, which holds the similarity block, then its sorted
        # rows in float32 and their score block, and a float32 copy of the
        # columns a 32-row slice of scores takes: 12.4 MB here, against this
        # bound of 12.8 MB. A fresh array per step, with a transposed copy of
        # each score block for its column argmax, goes over it (13.7 MB)
        n, d = 1500, 20
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        cfg = mapping.MappingConfig(vocab_cutoff=n)
        peak = traced_peak(mapping.unsupervised_init, x, z, cfg)
        assert peak < 4 * n * n + 2 * 4 * 256 * n + 4 * 32 * n + 8 * n * d + 256 * 1024

    @pytest.mark.parametrize("height", [*range(1, 10), 255, 256])
    def test_downcast_in_place_is_astype(self, height):
        # the float32 rows overwrite the float64 rows they are read from
        n = 37
        values = np.random.default_rng(height).standard_normal((height, n))
        # signed zeros and float32 subnormals, some halfway between two of them
        tiny = float(np.finfo(np.float32).smallest_subnormal)
        special = [0.0, -0.0, tiny, -tiny, 0.5 * tiny, -1.5 * tiny, 2.5 * tiny,
                   0.99 * float(np.finfo(np.float32).tiny)]
        values.flat[::3] = np.resize(special, values.flat[::3].shape)
        buf = np.empty((height, n))
        low = buf.reshape(-1).view(np.float32).reshape(2, height, n)[0]
        buf[:] = values
        # no temporary beyond one row: a whole block cast would be 4 height n bytes
        assert traced_peak(mapping._downcast_rows, buf, low) < 8 * n + 1024
        assert low.tobytes() == values.astype(np.float32).tobytes()

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
        cfg = self.fast_cfg(n, keep_prob=1.0)
        result = mapping.self_learning_align(x, z, init, cfg)
        assert result.converged
        assert result.iterations <= 3
        assert result.objective >= 0.999

    def test_single_iteration_deterministic(self):
        x, z, _ = make_rotated_pair(n=150, d=8, seed=8)
        init = [(i, i) for i in range(150)]
        cfg = self.fast_cfg(150, keep_prob=1.0, max_iterations=1)
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
        u, v, _ = mapping._symmetric_solve(x[src].T @ z[trg])
        after = float(np.mean(np.sum((x @ u)[src] * (z @ v)[trg], axis=1)))
        assert after >= before - 1e-9

    def test_objective_is_the_mean_pair_similarity(self):
        # the refit's objective is the sum of the singular values over |D|,
        # the mean dot product of its pair rows under the orthogonal
        # transforms, which reweighting does not scale
        x, z, _ = make_rotated_pair(n=150, d=8, seed=11, noise=0.05)
        objectives = []
        for reweight in (False, True):
            result = mapping.align(x, z, self.fast_cfg(100, reweight=reweight))
            src, trg = np.array(result.dictionary).T
            dots = np.sum((x @ result.w_src)[src] * (z @ result.w_trg)[trg], axis=1)
            assert abs(result.objective - float(np.mean(dots))) < 1e-12
            objectives.append(result.objective)
        assert objectives[0] == objectives[1]

    def test_objective_non_decreasing_at_keep_prob_one(self, monkeypatch):
        # each induced dictionary's objective under the float64 transforms
        # that induced it, not under the float32 unit copies it was scored on
        rng = np.random.default_rng(12)
        n, d = 200, 10
        x = preprocess(rng.standard_normal((n, d)))
        z = x @ random_orthogonal(d, rng)
        transforms, objectives = [], []
        solve, induce = mapping._symmetric_solve, mapping._induce

        def solve_spy(cross):
            transforms.append(solve(cross))
            return transforms[-1]

        def induce_spy(*args, **kwargs):
            pairs = induce(*args, **kwargs)
            w_x, w_z, _ = transforms[-1]
            src, trg = pairs.T
            objectives.append(float(np.mean(np.sum((x @ w_x)[src] * (z @ w_z)[trg], axis=1))))
            return pairs

        monkeypatch.setattr(mapping, "_symmetric_solve", solve_spy)
        monkeypatch.setattr(mapping, "_induce", induce_spy)
        mapping.self_learning_align(
            x, z, [(i, i) for i in range(n)],
            self.fast_cfg(n, keep_prob=1.0),
        )
        assert len(objectives) > 1
        diffs = np.diff(objectives)
        assert np.all(diffs >= -1e-9)

    def test_keep_prob_schedule(self, monkeypatch):
        # VecMap's schedule: keep_prob doubles, capped at 1, after each run of
        # stall_patience consecutive iterations that gain under 1e-6 over the
        # best objective, and the first such iteration at keep_prob 1 ends the
        # loop; each objective is computed as the loop computes it
        x, z, _ = make_rotated_pair(n=60, d=6, seed=4, noise=0.3)
        transforms, steps = [], []
        solve, induce = mapping._symmetric_solve, mapping._induce

        def solve_spy(cross):
            transforms.append(solve(cross))
            return transforms[-1]

        def induce_spy(*args, **kwargs):
            pairs = induce(*args, **kwargs)
            w_x, w_z, _ = transforms[-1]
            src, trg = pairs.T
            objective = float(np.sum(w_x * ((x[src].T @ z[trg]) @ w_z))) / len(pairs)
            steps.append((args[5], objective))
            return pairs

        monkeypatch.setattr(mapping, "_symmetric_solve", solve_spy)
        monkeypatch.setattr(mapping, "_induce", induce_spy)
        cfg = self.fast_cfg(60, csls_k=5, stall_patience=2, keep_prob=0.25)
        result = mapping.align(x, z, cfg)
        keep_prob, best, stall, broken_runs = 0.25, -np.inf, 0, 0
        for iteration, (used, objective) in enumerate(steps, 1):
            assert used == keep_prob, iteration
            if objective - best >= 1e-6:
                best, broken_runs, stall = objective, broken_runs + (stall > 0), 0
            elif keep_prob == 1.0:
                break
            else:
                stall += 1
                if stall == 2:
                    keep_prob, stall = min(1.0, keep_prob * 2), 0
        assert (result.converged, result.iterations) == (True, iteration) == (True, len(steps))
        # it passed through 0.5, and a gain broke off a run of stalls
        assert [kp for kp, _ in steps].count(0.5) and broken_runs

    def test_dimension_mismatch(self):
        # the loop raised numpy's matmul error at the first induction, and the
        # init returned a dictionary, as it compares each language only with itself
        rng = np.random.default_rng(17)
        x, z = rng.standard_normal((30, 4)), rng.standard_normal((30, 5))
        cfg = self.fast_cfg(30)
        with pytest.raises(ContractError, match="dimension mismatch: x d=4, z d=5"):
            mapping.unsupervised_init(x, z, cfg)
        with pytest.raises(ContractError, match="dimension mismatch: x d=4, z d=5"):
            mapping.self_learning_align(x, z, [(0, 0)], cfg)

    def test_empty_init_rejected(self):
        x, z, _ = make_rotated_pair(n=50, d=5, seed=13)
        with pytest.raises(ContractError):
            mapping.self_learning_align(x, z, [], self.fast_cfg(50))

    def test_config_validation(self):
        with pytest.raises(ContractError):
            mapping.MappingConfig(keep_prob=0.0)
        with pytest.raises(ContractError):
            mapping.MappingConfig(vocab_cutoff=1)
        with pytest.raises(ContractError):
            mapping.MappingConfig(direction="both")
        # numpy numbers and bools are fields of their kind
        mapping.MappingConfig(keep_prob=np.float32(0.5), reweight=np.bool_(True))
        mapping.MappingConfig(keep_prob=1)

    def test_config_is_frozen(self):
        cfg = mapping.MappingConfig()
        with pytest.raises(FrozenInstanceError):
            cfg.vocab_cutoff = 8

    def test_eight_words_align_at_the_default_config(self):
        # the loop ran at CSLS k 7, then the refit at csls_k 10 raised
        # ContractError; the cutoff and both k follow the vocabulary
        x, z, _ = make_rotated_pair(n=8, d=4, seed=0)
        result = mapping.align(x, z, mapping.MappingConfig())
        capped = mapping.align(x, z, mapping.MappingConfig(vocab_cutoff=8, csls_k=7))
        assert result.dictionary and result.dictionary == capped.dictionary
        assert result.objective == capped.objective

    def test_dropout_independent_of_block_size(self):
        # the dropout mask is drawn in query-row order, so the block
        # partitioning must not change a single draw
        x, z, _ = make_rotated_pair(n=120, d=8, seed=15)
        init = [(i, i) for i in range(120)]
        cfg = self.fast_cfg(120, keep_prob=0.3, stall_patience=2)
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
        # the loop's two float32 unit copies, passed with no norms, are read
        # as they are: one float32 256-row tile (3.07 MB) with its 32-row
        # pick slices, 4.08 MB against this bound of 4.12 MB; a float64 tile
        # alone is 6.1 MB here
        n, d = 3000, 10
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        rng = np.random.default_rng(0)
        w_x, w_z = random_orthogonal(d, rng), random_orthogonal(d, rng)
        ux, uz = mapping._unit_rows32(x, w_x), mapping._unit_rows32(z, w_z)
        cfg = self.fast_cfg(n)
        peak = traced_peak(mapping._induce, ux, uz, "csls", cfg.csls_k, cfg.direction, 0.1, rng,
                           norms=(None, None))
        assert peak < 4 * 256 * n + 1024 * 1024

    def test_loop_inductions_score_float32_unit_copies(self, monkeypatch):
        # every score pass of a loop induction reads float32 unit rows with
        # no norms, and while one runs the traced heap holds the two unit
        # copies (8 n d bytes), one float32 tile and its pick slices: 6.8 MB,
        # against this bound of 7.0 MB, with no room for a float64 mapped
        # cutoff space (8 n d bytes, 2.4 MB here)
        n, d = 3000, 100
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        passes, peaks, refit_at = [], [], []
        score_blocks, induce, refit = (retrieval._score_blocks, mapping._induce,
                                       mapping.induce_dictionary)
        monkeypatch.setattr(retrieval, "_score_blocks", lambda q, c, **kw: passes.append(
            (q.dtype, kw["norms"])) or score_blocks(q, c, **kw))

        def traced_induce(*args, **kwargs):
            tracemalloc.reset_peak()  # the unit copies are already held
            pairs = induce(*args, **kwargs)
            peaks.append(tracemalloc.get_traced_memory()[1])
            return pairs

        monkeypatch.setattr(mapping, "_induce", traced_induce)
        monkeypatch.setattr(mapping, "induce_dictionary",
                            lambda *a, **kw: refit_at.append(len(passes)) or refit(*a, **kw))
        traced_peak(mapping.self_learning_align, x, z, [(i, i) for i in range(n)],
                    self.fast_cfg(n, max_iterations=2))
        assert len(peaks) == 2
        assert passes[:refit_at[0]] == [(np.float32, (None, None))] * 3 * len(peaks)
        assert max(peaks) < 8 * n * d + 4 * 256 * n + 1536 * 1024

    def test_refit_peak_memory_two_float32_unit_copies_one_tile(self):
        # at n = 4 cutoff the full-vocabulary refit sets the peak: a float32
        # unit copy of each side (8 n d bytes) and one float32 score tile with
        # its query rows (4 . 256 (n + d)); the slack holds the 8-row pick
        # copies and the penalties. A whole gather of the dictionary's rows
        # for the solve was 2.3 MB here. A float64 mapped space is 8 n d more
        # (0.8 MB), a float64 tile 2 MB
        n, d = 2000, 50
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        cfg, init = self.fast_cfg(n // 4), [(i, i) for i in range(n // 4)]
        mapping.self_learning_align(x, z, init, cfg)  # lazy imports are not the refit's
        peak = traced_peak(mapping.self_learning_align, x, z, init, cfg)
        assert peak < 8 * n * d + 4 * 256 * (n + d) + 64 * n + 256 * 1024

    def test_reweight_scale_stored(self):
        x, z, _ = make_rotated_pair(n=120, d=6, seed=14)
        result = mapping.align(x, z, self.fast_cfg(120, reweight=True))
        assert result.reweight_scale is not None
        assert result.reweight_scale.shape == (6,)
        # orthogonality of the stored transforms is unaffected by reweighting
        assert np.max(np.abs(result.w_src.T @ result.w_src - np.eye(6))) < 1e-6

    def test_refit_solve_gathers_no_dictionary_rows(self, monkeypatch):
        # the refit's solve gathered the dictionary's rows whole, 16 |D| d
        # bytes (|D| >= n here, so 4.8 MB or more), for X_D^T Z_D. Now it sums
        # 256-pair tiles (about 1.1 MB at d = 100), less than the refit's two
        # float32 unit copies (8 n d bytes, 2.4 MB) held as its induction
        # returns and freed just after
        n, d = 3000, 100
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        held, peaks = [], []
        refit, solve = mapping.induce_dictionary, mapping._symmetric_solve

        def traced_refit(*args, **kwargs):
            pairs = refit(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return pairs

        def traced_solve(cross):
            if held and not peaks:  # the solve after the refit's induction
                peaks.append(tracemalloc.get_traced_memory()[1])
            return solve(cross)

        monkeypatch.setattr(mapping, "induce_dictionary", traced_refit)
        monkeypatch.setattr(mapping, "_symmetric_solve", traced_solve)
        traced_peak(mapping.self_learning_align, x, z, [(i, i) for i in range(200)],
                    self.fast_cfg(n, vocab_cutoff=200, max_iterations=2))
        assert len(held) == len(peaks) == 1
        assert peaks[0] <= held[0] + 256 * 1024, (held, peaks)

    def test_loop_solve_gathers_no_dictionary_rows(self, monkeypatch):
        # each loop iteration gathered its dictionary's rows whole, 16 |D| d
        # bytes (|D| >= n here, so 4.8 MB or more), for X_D^T Z_D. Now it sums
        # 256-pair tiles, as the refit does, in less than the loop's two
        # float32 unit copies (8 n d bytes, 2.4 MB) held as its induction
        # returns and freed just after
        n, d = 3000, 100
        x, z, _ = make_rotated_pair(n=n, d=d, seed=7)
        held, peaks = [], []
        induce, solve = mapping._induce, mapping._symmetric_solve

        def traced_induce(*args, **kwargs):
            pairs = induce(*args, **kwargs)
            held.append(tracemalloc.get_traced_memory()[0])
            tracemalloc.reset_peak()
            return pairs

        def traced_solve(cross):
            if held and not peaks:  # the solve after the first loop induction
                peaks.append(tracemalloc.get_traced_memory()[1])
            return solve(cross)

        monkeypatch.setattr(mapping, "_induce", traced_induce)
        monkeypatch.setattr(mapping, "_symmetric_solve", traced_solve)
        traced_peak(mapping.self_learning_align, x, z, [(i, i) for i in range(n)],
                    self.fast_cfg(n, max_iterations=2))
        assert len(held) == 2 and len(peaks) == 1
        assert peaks[0] <= held[0] + 256 * 1024, (held, peaks)

    def test_reweighted_mapping_allocates_one_space(self):
        # map_src and map_trg scaled a copy of the mapped space, two spaces at
        # once; they map 256 rows at a time, as the CLI does
        n, d = 2000, 50
        rng = np.random.default_rng(15)
        x = rng.standard_normal((n, d))
        w_src, w_trg = random_orthogonal(d, rng), random_orthogonal(d, rng)
        scale = rng.uniform(0.5, 1.5, d)
        result = mapping.MappingResult(w_src, w_trg, [(0, 0)], 1.0, 1, True, scale)
        for map_side, w in ((result.map_src, w_src), (result.map_trg, w_trg)):
            tiles = np.concatenate([x[start : start + 256] @ w for start in range(0, n, 256)])
            assert np.array_equal(map_side(x), tiles * scale)
            # a Fortran-ordered copy was mapped with other bits in 1939 of 2000 rows
            assert np.array_equal(map_side(np.asfortranarray(x)), tiles * scale)
            # slack: numpy's in-place broadcast scaling buffers 8192 values
            assert traced_peak(map_side, x) <= 8 * n * d + 128 * 1024

    @pytest.mark.parametrize("height", [7, 256])
    def test_map_in_place_overwrites_with_the_mapped_space(self, height):
        # 7-row tiles leave a 1-row tail at 1000 rows; the tile products may
        # differ from the whole product in the last bits
        n, d = 1000, 50
        rng = np.random.default_rng(16)
        x, w = rng.standard_normal((n, d)), random_orthogonal(d, rng)
        for scale in (None, rng.uniform(0.5, 1.5, d)):
            m = x.copy()
            with tile_rows(height):
                assert mapping._map_in_place(m, w, scale) is m
                # one tile, as the matrix is mapped in place (a second space
                # is 0.4 MB), and numpy's buffer of 8192 values for scaling
                assert traced_peak(mapping._map_in_place, x.copy(), w, scale) <= (
                    8 * height * d + 128 * 1024)
            expected = x @ w if scale is None else (x @ w) * scale
            np.testing.assert_allclose(m, expected, rtol=0, atol=1e-12)


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
        _picks(sim, sampler_rng.geometric(keep_prob, size=len(sim)), keep_prob)
        for _ in range(draws // chunk)])
    masked = np.concatenate([dropout_argmax_literal(sim, keep_prob, mask_rng)
                             for _ in range(draws // chunk)])
    return sampled, masked


def _picks(sim, g, keep_prob):
    """Each row's ``g``-th best candidate of ``sim``, by ``retrieval._pick_rows``."""
    out = np.empty(len(sim), dtype=np.int64)
    retrieval._pick_rows(sim, None, g, keep_prob, out, 0)
    return out


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
            np.testing.assert_array_equal(_picks(sim, g, keep_prob), 0)
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
    unions = []
    for height in (1, 7, 1024):
        with tile_rows(height):
            unions.append(retrieval._induce(x, z, "csls", 3, "union", 0.3,
                                            np.random.default_rng(26)).tolist())
            draws = np.random.default_rng(26)
            fwd = retrieval._induce(x, z, "csls", 3, "forward", 0.3, draws).tolist()
            bwd = retrieval._induce(x, z, "csls", 3, "backward", 0.3, draws).tolist()
        assert unions[-1] == sorted(map(list, set(map(tuple, fwd + bwd))))
    assert unions[0] == unions[1] == unions[2]


def test_induce_draws_one_geometric_per_picked_row():
    rng = np.random.default_rng(27)
    x, z = (rng.standard_normal((n, 4)) for n in (40, 35))
    # at keep_prob 1 every row takes its argmax and no generator is needed
    forward = list(enumerate(csls_bruteforce(x, z, 3)[0]))
    backward = [(i, j) for j, i in enumerate(csls_bruteforce(z, x, 3)[0])]
    assert list(map(tuple, retrieval._induce(x, z, "csls", 3, "union", 1.0, None).tolist())) \
        == sorted(set(forward + backward))
    untouched = np.random.default_rng(28)
    retrieval._induce(x, z, "csls", 3, "union", 1.0, untouched)
    assert untouched.bit_generator.state == np.random.default_rng(28).bit_generator.state
    # below 1, a union draws one geometric per source row, then one per target row
    draws, twin = np.random.default_rng(29), np.random.default_rng(29)
    retrieval._induce(x, z, "csls", 3, "union", 0.3, draws)
    twin.geometric(0.3, size=len(x))
    twin.geometric(0.3, size=len(z))
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
        with pytest.raises(ContractError, match="keep_prob"):
            mapping.align(x, z, mapping.MappingConfig(vocab_cutoff=20, keep_prob=1.5))

    @pytest.mark.parametrize("field, value", [
        ("max_iterations", 0), ("max_iterations", -3), ("stall_patience", 0),
        ("stall_patience", -1), ("keep_prob", float("nan")), ("vocab_cutoff", 20.5),
        ("csls_k", 2.5), ("stall_patience", 2.5), ("max_iterations", 3.0), ("seed", 1.5),
        ("seed", True), ("reweight", "no"), ("reweight", 1), ("keep_prob", "0.5"),
        ("keep_prob", True), ("keep_prob", None), ("seed", -1),
    ])
    def test_loop_fields_rejected(self, field, value):
        # 0 iterations returned an unaligned result; a float count
        # raised TypeError inside the run or ran with a fractional patience; a
        # string or None raised TypeError when built, reweight="no" reweighted,
        # and seed -1 raised numpy's ValueError after the init had run
        x, z, _ = make_rotated_pair(n=20, d=4, seed=18)
        with pytest.raises(ContractError, match=field):
            cfg = mapping.MappingConfig(**{"vocab_cutoff": 20, field: value})
            mapping.align(x, z, cfg)

    @pytest.mark.parametrize("nx, nz", [(1, 5), (5, 1), (1, 1)])
    def test_one_row_space_names_both_sizes(self, nx, nz):
        # ran the init, which raised that the default cutoff 20000 exceeds
        # both sizes; self_learning_align raised for csls k=0
        rng = np.random.default_rng(18)
        x, z = rng.standard_normal((nx, 4)), rng.standard_normal((nz, 4))
        with pytest.raises(ContractError, match=f"got x {nx}, z {nz}$"):
            mapping.align(x, z, mapping.MappingConfig())
        with pytest.raises(ContractError, match=f"got x {nx}, z {nz}$"):
            mapping.self_learning_align(x, z, [(0, 0)], mapping.MappingConfig())
