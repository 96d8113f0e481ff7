import numpy as np
import pytest

from xlalign import normalize, retrieval
from xlalign.errors import ContractError, DegenerateInputError

from conftest import traced_peak
from oracles import iternorm_literal


class TestLengthNormalize:
    def test_three_four_five(self):
        np.testing.assert_allclose(normalize.length_normalize([[3.0, 4.0]]), [[0.6, 0.8]])

    def test_axis_vectors(self):
        out = normalize.length_normalize([[1.0, 0.0], [0.0, 2.0]])
        np.testing.assert_allclose(out, [[1, 0], [0, 1]])

    def test_zero_row_warns(self):
        with pytest.warns(UserWarning, match="1 zero row"):
            out = normalize.length_normalize([[0.0, 0.0]])
        np.testing.assert_array_equal(out, [[0, 0]])

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((40, 7))
        once = normalize.length_normalize(m)
        np.testing.assert_allclose(normalize.length_normalize(once), once, atol=1e-9)

    def test_preserves_direction(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((30, 5))
        out = normalize.length_normalize(m)
        scales = np.linalg.norm(m, axis=1)
        np.testing.assert_allclose(out * scales[:, None], m, atol=1e-9)
        assert np.all(scales >= 0)


class TestMeanCenter:
    def test_two_row_symmetry(self):
        out = normalize.mean_center([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_allclose(out, [[-1, -1], [1, 1]])

    def test_single_row_zeros(self):
        np.testing.assert_allclose(normalize.mean_center([[5.0, 7.0]]), [[0, 0]])

    def test_idempotent_on_centered(self):
        m = np.array([[-1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(normalize.mean_center(m), m, atol=1e-9)

    def test_idempotent_random(self):
        rng = np.random.default_rng(3)
        m = rng.standard_normal((25, 6))
        once = normalize.mean_center(m)
        np.testing.assert_allclose(normalize.mean_center(once), once, atol=1e-9)

    def test_empty_rejected(self):
        with pytest.raises(ContractError):
            normalize.mean_center(np.zeros((0, 3)))


class TestIterativeNormalize:
    def test_converges_to_literal_fixed_point(self):
        # frozen from the literal-alternation oracle (converges in 20 steps)
        m = [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        out, report = normalize.iterative_normalize(m, max_iters=50, tol=1e-6)
        expected = np.array([
            [0.25881961449048235, -0.9659259788558012],
            [-0.9659259788558012, 0.25881961449048235],
            [0.7071063643653188, 0.7071063643653188],
        ])
        np.testing.assert_allclose(out, expected, atol=1e-12)
        assert report.iterations_run == 20
        assert np.all(np.abs(np.linalg.norm(out, axis=1) - 1) <= 1e-6)
        assert np.all(np.abs(out.mean(axis=0)) <= 1e-6)
        oracle_out, oracle_iters = iternorm_literal(m, 50, 1e-6)
        np.testing.assert_allclose(out, oracle_out, atol=1e-12)
        assert report.iterations_run == oracle_iters

    def test_fixed_point_unchanged(self):
        m = np.array([[1.0, 0.0], [-1.0, 0.0]])
        out, report = normalize.iterative_normalize(m, max_iters=10, tol=1e-6)
        np.testing.assert_allclose(out, m, atol=1e-12)
        assert report.iterations_run == 1

    def test_single_iteration_stops_before_renormalize(self):
        # rows collapse to zero via centering; no error because no further
        # alternation runs, and the report exposes the deviation
        out, report = normalize.iterative_normalize(
            [[3.0, 4.0], [6.0, 8.0]], max_iters=1, tol=1e-6
        )
        np.testing.assert_allclose(out, [[0, 0], [0, 0]], atol=1e-12)
        assert report.iterations_run == 1
        assert report.max_row_norm_deviation == pytest.approx(1.0)

    def test_zero_row_raises_with_index(self):
        with pytest.raises(DegenerateInputError, match="row 1"):
            normalize.iterative_normalize([[1.0, 0.0], [0.0, 0.0]], max_iters=5, tol=1e-6)

    def test_bad_args(self):
        with pytest.raises(ContractError):
            normalize.iterative_normalize([[1.0, 0.0]], max_iters=0, tol=1e-6)
        with pytest.raises(ContractError):
            normalize.iterative_normalize([[1.0, 0.0]], max_iters=5, tol=0.0)
        for tol in (float("nan"), float("inf")):  # NaN never stopped early, infinity at once
            with pytest.raises(ContractError, match="tol must be > 0 and finite"):
                normalize.iterative_normalize([[1.0, 0.0]], max_iters=5, tol=tol)

    @pytest.mark.parametrize("max_iters", [2, 5])
    def test_one_row_norm_pass_per_iteration(self, max_iters, monkeypatch):
        # the norms that check an iterate are the next alternation's divisors;
        # checking and dividing each took their own pass (2 max_iters)
        calls = []
        monkeypatch.setattr(normalize, "_row_norms",
                            lambda m: calls.append(1) or retrieval._row_norms(m))
        m = np.random.default_rng(3).standard_normal((30, 4))
        _, report = normalize.iterative_normalize(m, max_iters=max_iters, tol=1e-300)
        assert report.iterations_run == max_iters
        assert len(calls) == max_iters + 1

    def test_converges_within_30_iters_100_seeds(self):
        # d=2 instances need up to ~28 alternations at tol 1e-6; larger
        # dimensions are comfortably under 20
        failures = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d = int(rng.integers(2, 10))
            n = int(rng.integers(d, 50))
            out, report = normalize.iterative_normalize(
                rng.standard_normal((n, d)), max_iters=30, tol=1e-6
            )
            both = max(report.max_row_norm_deviation,
                       float(np.max(np.abs(out.mean(axis=0)))))
            if both >= 1e-6:
                failures += 1
        assert failures == 0

    def test_matches_literal_oracle_random(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m = rng.standard_normal((12, 4))
            out, _ = normalize.iterative_normalize(m, max_iters=15, tol=1e-8)
            oracle_out, _ = iternorm_literal(m, 15, 1e-8)
            np.testing.assert_allclose(out, oracle_out, atol=1e-12)


def test_preprocess_unit_rows():
    rng = np.random.default_rng(4)
    out = normalize.preprocess(rng.standard_normal((50, 8)))
    np.testing.assert_allclose(np.linalg.norm(out, axis=1), 1.0, atol=1e-9)


@pytest.mark.parametrize("call", [normalize.iterative_normalize, normalize.preprocess])
def test_peak_memory_one_copy(call):
    # one copy of the input (8 n d bytes), transformed in place, and the
    # squares of one 256-row tile for the row norms; the quotient and
    # difference copies of the parent were 8 n d more each (1.6 MB)
    n, d = 4000, 50
    m = np.random.default_rng(8).standard_normal((n, d))
    call(m)  # lazy imports are not the call's
    assert traced_peak(call, m) < 8 * n * d + 8 * 256 * d + 64 * n + 64 * 1024
