import numpy as np
import pytest

from xlalign import mapping
from xlalign.errors import ContractError
from xlalign.normalize import preprocess

from conftest import make_rotated_pair
from oracles import random_orthogonal


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
        rng = np.random.default_rng(5)
        x = preprocess(rng.standard_normal((5, 4)))
        cfg = mapping.MappingConfig(vocab_cutoff=1)
        assert mapping.unsupervised_init(x, x, cfg) == [(0, 0)]

    def test_cutoff_too_large(self):
        rng = np.random.default_rng(6)
        x = preprocess(rng.standard_normal((5, 4)))
        cfg = mapping.MappingConfig(vocab_cutoff=10)
        with pytest.raises(ContractError):
            mapping.unsupervised_init(x, x, cfg)


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

        def spy(xw, zw, cfg, keep_prob, rng_, block_size):
            pairs = orig(xw, zw, cfg, keep_prob, rng_, block_size)
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
        results = [mapping.self_learning_align(x, z, init, cfg, block_size=bs)
                   for bs in (1, 7, 1024)]
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

    def test_reweight_scale_stored(self):
        x, z, _ = make_rotated_pair(n=120, d=6, seed=14)
        result = mapping.align(x, z, self.fast_cfg(120, reweight=True))
        assert result.reweight_scale is not None
        assert result.reweight_scale.shape == (6,)
        # orthogonality of the stored transforms is unaffected by reweighting
        assert np.max(np.abs(result.w_src.T @ result.w_src - np.eye(6))) < 1e-6


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
