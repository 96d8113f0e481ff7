import numpy as np
import pytest

from xlalign import evaluate
from xlalign.errors import ContractError
from xlalign.io import GoldDictionary
from xlalign.retrieval import cosine_block

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
        for _ in range(5):
            nx = int(rng.integers(12, 40))
            nz = int(rng.integers(12, 40))
            x = rng.standard_normal((nx, 5))
            z = rng.standard_normal((nz, 5))
            entries = {i: {int(t) for t in rng.integers(0, nz, size=2)}
                       for i in rng.choice(nx, size=nx // 2, replace=False)}
            gold = GoldDictionary(entries, 0)
            ks = (1, 3, 5)
            rep = evaluate.precision_at_k(x, z, gold, ks=ks, method=method, csls_k=3)
            if method == "nn":
                rows = {i: cosine_block(x[i : i + 1], z)[0] for i in entries}
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

    @pytest.mark.parametrize("method", ["nn", "csls"])
    def test_non_finite_input_names_row(self, method):
        z = basis_space(4)
        z[2, 1] = np.inf
        gold = GoldDictionary({i: {i} for i in range(4)}, 0)
        with pytest.raises(ContractError, match="z_space row 2 "):
            evaluate.precision_at_k(basis_space(4), z, gold, ks=(1,), method=method, csls_k=2)


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
