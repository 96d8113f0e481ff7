"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. The full-scale benchmark check is optional and only runs when the
XLALIGN_FULLSCALE_DIR environment variable points at a directory with the
original embeddings and test dictionaries. The warped stall study runs only
when the XLALIGN_STALL_STUDY environment variable is set.
"""
import json
import os
import time

import numpy as np
import pytest

from xlalign import cli, evaluate, mapping, normalize, refine, retrieval
from xlalign.io import GoldDictionary

from conftest import make_rotated_pair, make_warped_pair
from oracles import csls_bruteforce, random_orthogonal
from test_cli import write_corpus


def check(name, ok):
    print(f"\nACCEPTANCE {'PASS' if ok else 'FAIL'}: {name}")
    assert ok, name


FAST = ["--stall-patience", "3", "--csls-k", "5"]


def _p_at_1(x, z, gold_perm, method="nn"):
    gold = GoldDictionary({i: {int(gold_perm[i])} for i in range(len(gold_perm))}, 0)
    rep = evaluate.precision_at_k(x, z, gold, ks=(1,), method=method)
    return rep.precision_at[1]


def test_synthetic_end_to_end_recovery(tmp_path, capsys):
    gold = write_corpus(tmp_path, n=1000, d=20, seed=0)
    start = time.perf_counter()
    code = cli.main([str(a) for a in (
        "pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
        "--gold", tmp_path / "gold.txt", "--out", tmp_path / "run",
        "--retrieval", "nn", *FAST,
    )])
    elapsed = time.perf_counter() - start
    stdout = capsys.readouterr().out
    p1 = float(next(l for l in stdout.splitlines() if l.startswith("system.1=")).split("=")[1])
    with capsys.disabled():
        check("synthetic end-to-end recovery "
              f"(P@1={p1:.3f} >= 0.95, {elapsed:.1f}s < 60s, exit {code})",
              code == 0 and p1 >= 0.95 and elapsed < 60.0)


def test_refinement_never_hurts_on_noisy_data(capsys):
    deltas = []
    for seed in range(10):
        x, z, gold = make_rotated_pair(n=1000, d=20, seed=seed, noise=0.05)
        cfg = mapping.MappingConfig(vocab_cutoff=1000, stall_patience=3, seed=seed)
        result = mapping.align(x, z, cfg)
        xw, zw = result.map_src(x), result.map_trg(z)
        base = _p_at_1(xw, zw, gold)
        refined = refine.refine_pipeline(xw, zw, result.dictionary)
        ref = _p_at_1(refined.x_refined, refined.z_refined, gold)
        deltas.append(ref - base)
    median = float(np.median(deltas))
    with capsys.disabled():
        check(f"refinement never hurts (median delta {median:+.4f} >= -0.01 over 10 seeds)",
              median >= -0.01)


def test_refinement_on_non_isomorphic_spaces(capsys):
    # the warped pair keeps P@1 off its ceiling, so both the base quality and
    # the paper's refinement effect can move; the band comes from seeds 1-5
    # measured at 0.937-0.967 (base) and +0.013 to +0.027 (delta). Refined
    # again with every gold source held out of the dictionary, P@1 must not
    # fall below base: refinement has to move the words its dictionary lacks
    n, stride = 1200, 4
    gold = GoldDictionary({i: {i} for i in range(0, n, stride)}, 0)

    def p_at_1(x, z):
        return evaluate.precision_at_k(x, z, gold, ks=(1,), method="csls").precision_at[1]

    bases, deltas, held_out = [], [], []
    for seed in range(1, 6):
        x, z = make_warped_pair(n=n, seed=seed)
        cfg = mapping.MappingConfig(vocab_cutoff=n, stall_patience=3, seed=seed)
        result = mapping.align(x, z, cfg)
        xw, zw = result.map_src(x), result.map_trg(z)
        base = p_at_1(xw, zw)
        refined = refine.refine_pipeline(xw, zw, result.dictionary)
        held = refine.refine_pipeline(xw, zw, [(i, j) for i, j in result.dictionary
                                               if i not in gold.entries])
        bases.append(base)
        deltas.append(p_at_1(refined.x_refined, refined.z_refined) - base)
        held_out.append(p_at_1(held.x_refined, held.z_refined))
    median = float(np.median(deltas))
    with capsys.disabled():
        check("refinement on non-isomorphic spaces (base CSLS P@1 "
              + " ".join(f"{b:.3f}" for b in bases) + " in [0.90, 0.99], deltas "
              + " ".join(f"{d:+.3f}" for d in deltas) + f", median {median:+.4f} >= 0; "
              "gold held out " + " ".join(f"{h:.3f}" for h in held_out) + " >= base)",
              all(0.90 <= b <= 0.99 for b in bases) and median >= 0.0
              and all(h >= b for h, b in zip(held_out, bases)))


def test_midpoint_averaging_exactness(capsys):
    # 48 pairs in 64 dimensions: the pair rows of each side are independent,
    # so each side's fitted map lands every pair on its midpoint
    rng = np.random.default_rng(0)
    n, d, m = 1000, 64, 48
    x = rng.standard_normal((n, d))
    z = rng.standard_normal((n, d))
    perm = rng.permutation(n)
    pairs = [(i, int(perm[i])) for i in range(m)]
    out = refine.refine_pipeline(x, z, pairs, refine.RefinementConfig(norm_iters=0))
    xa, za = out.x_refined, out.z_refined
    worst = max(float(np.abs(xa[i] - (x[i] + z[j]) / 2).max()) for i, j in pairs)
    worst = max(worst, max(float(np.abs(za[j] - xa[i]).max()) for i, j in pairs))
    symmetric = True
    for i, j in pairs:
        gap = np.linalg.norm(x[i] - z[j])
        symmetric &= abs(np.linalg.norm(x[i] - xa[i]) - gap / 2) < 1e-9
        symmetric &= abs(np.linalg.norm(z[j] - za[j]) - gap / 2) < 1e-9
    with capsys.disabled():
        check(f"midpoint exactness (pairs on their midpoints within {worst:.1e} < 1e-9 "
              f"+ displacement symmetry, {out.pairs_averaged} pairs)",
              worst < 1e-9 and symmetric and out.pairs_averaged == m)


def test_normalization_fixed_point(capsys):
    worst = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(2, 12))
        n = int(rng.integers(d, 60))
        out, _ = normalize.iterative_normalize(
            rng.standard_normal((n, d)), max_iters=100, tol=1e-6
        )
        worst = max(worst,
                    float(np.max(np.abs(np.linalg.norm(out, axis=1) - 1))),
                    float(np.max(np.abs(out.mean(axis=0)))))
    with capsys.disabled():
        check(f"normalization fixed point (worst deviation {worst:.2e} < 1e-6, "
              "100 matrices)", worst < 1e-6)


def test_procrustes_oracle(capsys):
    worst_rec, worst_orth = 0.0, 0.0
    rng = np.random.default_rng(1)
    for _ in range(100):
        d = int(rng.integers(2, 12))
        m = int(rng.integers(d + 5, 80))
        x = rng.standard_normal((m, d))
        r = random_orthogonal(d, rng)
        w = mapping.procrustes_solve(x, x @ r)
        worst_rec = max(worst_rec, float(np.max(np.abs(w - r))))
        worst_orth = max(worst_orth, float(np.max(np.abs(w.T @ w - np.eye(d)))))
    with capsys.disabled():
        check(f"procrustes oracle (recovery {worst_rec:.2e}, orthogonality "
              f"{worst_orth:.2e}, both < 1e-6, 100 instances)",
              worst_rec < 1e-6 and worst_orth < 1e-6)


def test_csls_oracle_equivalence(capsys):
    rng = np.random.default_rng(2)
    mismatches = 0
    for trial in range(50):
        nx = int(rng.integers(10, 201))
        nz = int(rng.integers(10, 201))
        d = int(rng.integers(2, 10))
        k = int(rng.integers(1, min(nx, nz - 1) + 1))
        x = rng.standard_normal((nx, d))
        z = rng.standard_normal((nz, d))
        expected, _ = csls_bruteforce(x, z, k)
        if retrieval.csls_retrieve(x, z, k) != expected:
            mismatches += 1
    with capsys.disabled():
        check(f"csls oracle equivalence ({mismatches} mismatches over 50 instances)",
              mismatches == 0)


def test_delta_convention(capsys):
    reports = {
        "ours": evaluate.EvalReport({1: 0.3767}, 1500, 0),
        "base": evaluate.EvalReport({1: 0.3747}, 1500, 0),
    }
    table = evaluate.compare_reports(reports, baseline="base")
    row = next(line for line in table.splitlines() if line.startswith("ours"))
    ok = "37.67" in row and "+0.20" in row
    with capsys.disabled():
        check("comparison delta convention (37.67 vs 37.47 -> +0.20)", ok)


def test_pipeline_determinism(tmp_path, capsys):
    write_corpus(tmp_path, n=400, d=12, seed=3)
    outputs = []
    for name in ("d1", "d2"):
        cli.main([str(a) for a in (
            "pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
            "--gold", tmp_path / "gold.txt", "--out", tmp_path / name,
            "--seed", "11", *FAST,
        )])
        outputs.append(capsys.readouterr().out)
    m1 = json.loads((tmp_path / "d1" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "d2" / "manifest.json").read_text())
    same_files = all(
        (tmp_path / "d1" / f).read_bytes() == (tmp_path / "d2" / f).read_bytes()
        for f in ("src_mapped.vec", "trg_mapped.vec", "src_refined.vec",
                  "trg_refined.vec", "induced_dict.txt", "eval.json")
    )
    ok = (outputs[0] == outputs[1]
          and m1["precision_at"] == m2["precision_at"]
          and m1["objective"] == m2["objective"]
          and same_files)
    with capsys.disabled():
        check("pipeline determinism (identical config+seed -> bitwise identical "
              "metrics and artifacts)", ok)


@pytest.mark.skipif("XLALIGN_STALL_STUDY" not in os.environ,
                    reason="stall study not requested (about a minute)")
def test_warped_stall_count(capsys):
    """Optional: the loop stalls on partial alignments (CSLS P@1 < 0.9) on
    at most 6 of 30 warped pairs at 1000x50, seeds 1-30, stall_patience 3,
    the count the float64 loop gave before the loop scored in float32."""
    n = 1000
    gold = GoldDictionary({i: {i} for i in range(n)}, 0)
    stalled = []
    for seed in range(1, 31):
        x, z = make_warped_pair(n=n, seed=seed)
        cfg = mapping.MappingConfig(vocab_cutoff=n, stall_patience=3, seed=seed)
        result = mapping.align(x, z, cfg)
        p1 = evaluate.precision_at_k(result.map_src(x), result.map_trg(z), gold, ks=(1,),
                                     method="csls").precision_at[1]
        if p1 < 0.9:
            stalled.append(seed)
    with capsys.disabled():
        check(f"warped stall count ({len(stalled)} of 30 below CSLS P@1 0.9, seeds "
              f"{stalled}, <= 6)", len(stalled) <= 6)


@pytest.mark.skipif("XLALIGN_FULLSCALE_DIR" not in os.environ,
                    reason="full-scale embeddings not supplied")
def test_fullscale_benchmark(tmp_path, capsys):
    """Optional: reproduce the published P@1 within +/- 1.0 points per pair.

    Expects XLALIGN_FULLSCALE_DIR to contain <pair>.src.vec, <pair>.trg.vec,
    <pair>.gold.txt for pairs en-es, en-de, en-fi.
    """
    targets = {"en-es": 37.67, "en-de": 48.47, "en-fi": 33.29}
    base = os.environ["XLALIGN_FULLSCALE_DIR"]
    results = {}
    for pair, expected in targets.items():
        code = cli.main([str(a) for a in (
            "pipeline", "--src", os.path.join(base, f"{pair}.src.vec"),
            "--trg", os.path.join(base, f"{pair}.trg.vec"),
            "--gold", os.path.join(base, f"{pair}.gold.txt"),
            "--out", tmp_path / pair, "--ks", "1",
        )])
        assert code in (0, 2)
        manifest = json.loads((tmp_path / pair / "manifest.json").read_text())
        results[pair] = manifest["precision_at"]["1"] * 100.0
    ok = all(abs(results[p] - targets[p]) <= 1.0 for p in targets)
    with capsys.disabled():
        check(f"full-scale benchmark {results} within +/-1.0 of {targets}", ok)
