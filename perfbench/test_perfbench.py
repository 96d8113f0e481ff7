"""Tests for the benchmark's own code: corpus generator, spans, wrappers."""
import json
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import child  # noqa: E402
import run  # noqa: E402
from corpus import CorpusSpec, GOLD_STRIDE, make_corpus, write_corpus  # noqa: E402
from spans import Tracer, patch, self_times, unpatch  # noqa: E402


def test_corpus_deterministic_for_seed(tmp_path):
    spec = CorpusSpec(120, 8, max_displacement=10)
    a, b, c = make_corpus(spec, 5), make_corpus(spec, 5), make_corpus(spec, 6)
    for name in ("x", "z", "gold"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    assert not np.array_equal(a.z, c.z)
    pa = write_corpus(a, tmp_path / "a")
    pb = write_corpus(b, tmp_path / "b")
    for role in ("src", "trg", "gold"):
        assert pa[role].read_bytes() == pb[role].read_bytes()


def test_corpus_gold_and_displacement(tmp_path):
    corpus = make_corpus(CorpusSpec(500, 10, max_displacement=7), 1)
    assert sorted(corpus.gold.tolist()) == list(range(500))
    assert np.max(np.abs(corpus.gold - np.arange(500))) < 7
    # z row gold[i] is source row i rotated, up to noise
    rot, *_ = np.linalg.lstsq(corpus.x, corpus.z[corpus.gold], rcond=None)
    assert np.allclose(rot @ rot.T, np.eye(10), atol=0.05)
    lines = write_corpus(corpus, tmp_path)["gold"].read_text().splitlines()
    assert len(lines) == 500 // GOLD_STRIDE
    assert lines[1] == f"s{GOLD_STRIDE} t{corpus.gold[GOLD_STRIDE]}"


def test_corpus_recoverable_at_tiny_size():
    from xlalign import mapping, normalize

    corpus = make_corpus(CorpusSpec(200, 20), 0)
    x, z = normalize.preprocess(corpus.x), normalize.preprocess(corpus.z)
    result = mapping.align(x, z, mapping.MappingConfig(vocab_cutoff=200, stall_patience=3))
    hits = sum(corpus.gold[i] == j for i, j in result.dictionary)
    assert result.converged
    assert hits / len(result.dictionary) >= 0.99


def _span(sid, parent, start, end):
    return {"id": sid, "name": f"s{sid}", "parent": parent, "start": start, "end": end}


def test_self_times_subtract_covered_child_intervals():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 4.0),    # overlaps span 1: 1..4 covered once
        _span(3, 0, 8.0, 12.0),   # clipped to the parent's end
        _span(4, 1, 1.5, 2.5),    # grandchild: counts against span 1 only
    ]
    self_s = self_times(spans)
    assert self_s[0] == pytest.approx(10.0 - 3.0 - 2.0)
    assert self_s[1] == pytest.approx(2.0 - 1.0)
    assert self_s[2] == pytest.approx(2.0)
    assert self_s[4] == pytest.approx(1.0)


def test_tracer_records_nesting_and_counts():
    ticks = iter([0.0, 1.0, 2.0, 5.0])
    tracer = Tracer(clock=lambda: next(ticks))

    def outer():
        return tracer.call("inner", lambda: [1, 2, 3], counts=lambda a, k, r: {"n": len(r)})

    assert tracer.call("outer", outer) == [1, 2, 3]
    outer_span, inner_span = tracer.spans
    assert (outer_span["parent"], inner_span["parent"]) == (None, 0)
    assert inner_span["counts"] == {"n": 3}
    assert self_times(tracer.spans) == {0: 4.0, 1: 1.0}


def test_patch_and_unpatch_restore_attributes():
    import types

    module = types.SimpleNamespace(f=lambda v: v + 1)
    original = module.f
    tracer = Tracer()
    saved = patch(tracer, [(module, "f", "m.f", None), (module, "gone", "m.gone", None)])
    assert module.f(1) == 2 and module.f is not original
    unpatch(saved)
    assert module.f is original and not hasattr(module, "gone")
    assert [s["name"] for s in tracer.spans] == ["m.f"]


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """One untraced and one traced (with tracemalloc) pipeline on one corpus."""
    root = tmp_path_factory.mktemp("bench")
    corpus = make_corpus(CorpusSpec(200, 20, max_displacement=20), 3)
    paths = write_corpus(corpus, root / "corpus")
    runs = {}
    for mode, tracer in (("plain", None), ("traced", Tracer())):
        out = root / mode
        args = ["--src", str(paths["src"]), "--trg", str(paths["trg"]), "--gold",
                str(paths["gold"]), "--out", str(out), "--stall-patience", "3"]
        code, _ = child.run_pipeline(args, tracer, memory=tracer is not None)
        runs[mode] = (code, out, tracer)
    return runs


def test_wrappers_leave_results_bitwise_unchanged(tiny_runs):
    (code_a, out_a, _), (code_b, out_b, _) = tiny_runs["plain"], tiny_runs["traced"]
    assert code_a == code_b == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        if name != "manifest.json":  # holds wall-clock timings
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (out_a, out_b)]
    for m in manifests:
        del m["timings"], m["settings"]["out"]
    assert manifests[0] == manifests[1]


def test_wrappers_are_removed_after_the_run(tiny_runs):
    from xlalign import mapping, retrieval

    assert mapping.induce_dictionary is retrieval.induce_dictionary
    assert not hasattr(mapping.self_learning_align, "__wrapped__")


def test_traced_run_yields_every_per_layer_metric(tiny_runs):
    spans = tiny_runs["traced"][2].spans
    metrics = run.layer_metrics(spans, spans, untraced_s=1.0, traced_s=1.5)
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["trace.overhead_s"] == 0.5
    assert metrics["mapping.init_pairs"] > 0 and metrics["mapping.iterations"] > 0
    assert metrics["refine.pairs_averaged"] == 200
    assert all(np.isfinite(v) for v in metrics.values())
    names = {s["name"] for s in spans}
    assert names == {t[2] for t in child.traced_targets()} | {"cli.pipeline"}
    assert all("peak_mb" in s for s in spans)


def test_dictionary_accuracy():
    gold = np.array([2, 0, 1])
    assert run.dictionary_accuracy(b"s0 t2\ns1 t0\ns2 t2\n", gold) == pytest.approx(2 / 3)


def test_layer_metrics_give_zero_for_a_missing_span(tiny_runs):
    spans = tiny_runs["traced"][2].spans
    kept = [s for s in spans if s["name"] != "retrieval.induce_dictionary"]
    by_old_id = {s["id"]: i for i, s in enumerate(kept)}
    kept = [dict(s, id=by_old_id[s["id"]],
                 parent=None if s["parent"] is None else by_old_id[s["parent"]]) for s in kept]
    metrics = run.layer_metrics(kept, kept, untraced_s=1.0, traced_s=1.0)
    assert metrics["retrieval.init_nn_s"] == metrics["retrieval.refit_s"] == 0.0
    assert metrics["mapping.init_s"] > 0


class _FakeRunner:
    """Stands in for run.Runner: pipeline time 1 + corpus index, no processes."""

    def __init__(self, fail_on=None):
        self.failures, self.p_at_1, self.calls, self.fail_on = [], {}, [], fail_on

    def setup(self):
        return 0.1

    def pipeline(self, index, corpus):
        self.calls.append(index)
        if len(self.calls) == self.fail_on:
            self.failures.append("failed")
            return None
        self.p_at_1[index] = 1.0
        return {"pipeline_s": 1.0 + index, "peak_rss_mb": 50.0}, None


def test_measure_runs_whole_cycles_over_the_corpora():
    runner = _FakeRunner()
    metrics, samples = run.measure(runner, corpora=[None] * 4, seconds=0)
    assert runner.calls == [0, 1, 2, 3]  # one whole cycle even with no time left
    assert metrics["pipeline_s"] == 2.5  # median of the per-corpus medians
    assert samples["corpus"] == [0, 1, 2, 3]
    assert len(samples["setup_s"]) == 4 * run.SETUP_PROBES_PER_RUN


def test_measure_stops_at_the_first_failed_run():
    runner = _FakeRunner(fail_on=3)
    metrics, _ = run.measure(runner, corpora=[None] * 4, seconds=60)
    assert runner.calls == [0, 1, 2]
    assert metrics["pipeline_s"] == 1.5 and runner.failures == ["failed"]
