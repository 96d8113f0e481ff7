import numpy as np
import pytest

from xlalign import evaluate
from xlalign.errors import ContractError
from xlalign.io import GoldDictionary
from xlalign.retrieval import BLOCK_SIZE, cosine_block

from conftest import make_rotated_pair, tile_rows, traced_peak
from oracles import topk_hits


def basis_space(n):
    return np.eye(n)


class TestPrecisionAtK:
    def test_all_correct_at_one(self):
        gold = GoldDictionary({i: {i} for i in range(4)}, 0)
        rep = evaluate.precision_at_k(basis_space(4), basis_space(4), gold, ks=(1,))
        assert rep.precision_at[1] == 1.0
        assert rep.evaluated_sources == 4

    def test_all_wrong(self):
        gold = GoldDictionary({i: {(i + 1) % 4} for i in range(4)}, 0)
        rep = evaluate.precision_at_k(basis_space(4), basis_space(4), gold, ks=(1,))
        assert rep.precision_at[1] == 0.0

    def test_counting_rule_mixed_ranks(self):
        # query 0 hits at rank 1; query 1's gold target sits at rank 5
        z = np.eye(6)
        x = np.zeros((2, 6))
        x[0] = z[0]
        x[1] = [0.9, 0.8, 0.7, 0.6, 0.5, 0.0]  # gold {4} is 5th best
        gold = GoldDictionary({0: {0}, 1: {4}}, 0)
        rep = evaluate.precision_at_k(x, z, gold, ks=(1, 5))
        assert rep.precision_at[1] == 0.5
        assert rep.precision_at[5] == 1.0

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 6))
        z = rng.standard_normal((30, 6))
        gold = GoldDictionary({i: {int(rng.integers(0, 30))} for i in range(20)}, 0)
        rep = evaluate.precision_at_k(x, z, gold, ks=(1, 5, 10))
        assert rep.precision_at[1] <= rep.precision_at[5] <= rep.precision_at[10]

    def test_gold_order_invariance(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((10, 4))
        z = rng.standard_normal((12, 4))
        entries = {i: {int(rng.integers(0, 12))} for i in range(10)}
        shuffled = dict(reversed(list(entries.items())))
        r1 = evaluate.precision_at_k(x, z, GoldDictionary(entries, 3), ks=(1, 5))
        r2 = evaluate.precision_at_k(x, z, GoldDictionary(shuffled, 3), ks=(1, 5))
        assert r1 == r2

    @pytest.mark.parametrize("method", ["nn", "csls"])
    def test_matches_bruteforce_recount(self, method):
        rng = np.random.default_rng(2)
        cases = []
        for _ in range(5):
            nx = int(rng.integers(12, 40))
            nz = int(rng.integers(12, 40))
            x = rng.standard_normal((nx, 5))
            z = rng.standard_normal((nz, 5))
            entries = {i: {int(t) for t in rng.integers(0, nz, size=2)}
                       for i in rng.choice(nx, size=nx // 2, replace=False)}
            cases.append((x, z, entries, (1, 3, 5), BLOCK_SIZE))
        # integer spaces of 1-3 dimensions score many targets exactly equal;
        # gold sources hold 0-3 targets, the largest k is every target, and
        # blocks run from one row to all of them
        for trial in range(40):
            d = int(rng.integers(1, 4))
            nx = int(rng.integers(6, 30))
            nz = int(rng.integers(6, 30))
            x = rng.integers(-2, 3, size=(nx, d)).astype(np.float64)
            z = rng.integers(-2, 3, size=(nz, d)).astype(np.float64)
            entries = {int(i): {int(t) for t in rng.integers(0, nz, size=int(rng.integers(0, 4)))}
                       for i in rng.choice(nx, size=nx // 2, replace=False)}
            cases.append((x, z, entries, (1, 2, 5, nz), (1, 3, 7, 1024)[trial % 4]))
        for x, z, entries, ks, height in cases:
            gold = GoldDictionary(entries, 0)
            with tile_rows(height):
                rep = evaluate.precision_at_k(x, z, gold, ks=ks, method=method, csls_k=3)
            if method == "nn":
                # all rows in one product: a one-row product is a matrix-vector
                # product, which rounds exact ties differently from the blocks
                cos = cosine_block(x, z)
                rows = {i: cos[i] for i in entries}
            else:
                from oracles import csls_bruteforce
                srcs = sorted(entries)
                _, scores = csls_bruteforce(x, z, 3, query_indices=srcs)
                rows = {i: scores[pos] for pos, i in enumerate(srcs)}
            for k in ks:
                correct = sum(topk_hits(rows[i], entries[i], k) for i in entries)
                assert rep.precision_at[k] == pytest.approx(correct / len(entries))

    def test_coverage(self):
        gold = GoldDictionary({0: {0}}, 3)
        rep = evaluate.precision_at_k(basis_space(2), basis_space(2), gold, ks=(1,))
        assert rep.oov_sources == 3
        assert rep.coverage == pytest.approx(0.25)

    def test_empty_gold_rejected(self):
        with pytest.raises(ContractError):
            evaluate.precision_at_k(basis_space(2), basis_space(2),
                                    GoldDictionary({}, 0), ks=(1,))

    def test_k_out_of_range(self):
        gold = GoldDictionary({0: {0}}, 0)
        with pytest.raises(ContractError):
            evaluate.precision_at_k(basis_space(2), basis_space(2), gold, ks=(5,))

    def test_empty_ks_rejected(self):
        gold = GoldDictionary({0: {0}}, 0)
        with pytest.raises(ContractError):
            evaluate.precision_at_k(basis_space(2), basis_space(2), gold, ks=())

    @pytest.mark.parametrize("method", ["nn", "csls"])
    @pytest.mark.parametrize("entries, match", [
        ({-1: {0}, 0: {0}}, "gold source -1 "),
        ({0: {0}, 4: {1}}, "gold source 4 "),
        ({0: {0}, 1: {-1, 1}}, "gold target -1 of source 1 "),
        ({0: {0}, 1: {1, 4}}, "gold target 4 of source 1 "),
    ])
    def test_gold_index_outside_its_space(self, method, entries, match):
        with pytest.raises(ContractError, match=match):
            evaluate.precision_at_k(basis_space(4), basis_space(4), GoldDictionary(entries, 0),
                                    ks=(1,), method=method, csls_k=2)

    @pytest.mark.parametrize("method", ["nn", "csls"])
    def test_peak_memory_one_score_block(self, method):
        # one n-wide block (8 b n): a score block or a _knn_means block, never
        # both, and no copy of a space; a copy of a block, such as
        # np.partition of it, is 8 b n more, and a unit copy of a space 8 n d more
        n, d, block = 1200, 20, 128
        x, z, gold_rows = make_rotated_pair(n=n, d=d, seed=3)
        gold = GoldDictionary({i: {int(gold_rows[i])} for i in range(n)}, 0)
        with tile_rows(block):
            peak = traced_peak(evaluate.precision_at_k, x, z, gold, ks=(1, 10), method=method,
                               csls_k=10)
        assert peak < 8 * block * n + 256 * 1024

    @pytest.mark.parametrize("method", ["nn", "csls"])
    def test_dimension_mismatch(self, method):
        # nn used to reach the first block product and raise numpy's matmul error
        gold = GoldDictionary({i: {i} for i in range(3)}, 0)
        with pytest.raises(ContractError, match="x_space d=4, z_space d=3"):
            evaluate.precision_at_k(basis_space(4), basis_space(4)[:, :3], gold, ks=(1,),
                                    method=method, csls_k=2)


class TestCompareReports:
    def rep(self, p1):
        return evaluate.EvalReport({1: p1}, 100, 0)

    def test_delta_convention(self):
        table = evaluate.compare_reports(
            {"A": self.rep(0.3767), "B": self.rep(0.3747)}, baseline="B"
        )
        row_a = next(line for line in table.splitlines() if line.startswith("A"))
        assert "37.67" in row_a
        assert "+0.20" in row_a

    def test_baseline_delta_zero(self):
        table = evaluate.compare_reports({"only": self.rep(0.5)}, baseline="only")
        assert "+0.00" in table

    def test_three_systems_two_ks(self):
        reports = {
            name: evaluate.EvalReport({1: p, 5: p + 0.1}, 10, 0)
            for name, p in (("a", 0.1), ("b", 0.2), ("c", 0.3))
        }
        table = evaluate.compare_reports(reports, baseline="a")
        lines = table.splitlines()
        assert len(lines) == 4  # header + 3 systems
        assert "P@1" in lines[0] and "P@5" in lines[0]

    def test_unknown_baseline(self):
        with pytest.raises(ContractError):
            evaluate.compare_reports({"a": self.rep(0.1)}, baseline="zzz")

    def test_mismatched_k_sets(self):
        with pytest.raises(ContractError):
            evaluate.compare_reports(
                {"a": self.rep(0.1), "b": evaluate.EvalReport({5: 0.2}, 10, 0)},
                baseline="a",
            )


def test_report_lines_key_value_format():
    rep = evaluate.EvalReport({1: 0.5, 5: 0.75}, 80, 20)
    lines = evaluate.report_lines("sys", rep)
    assert "sys.1=0.500000" in lines
    assert "sys.5=0.750000" in lines
    assert "sys.coverage=0.800000" in lines
