"""Layered benchmark of `xlalign pipeline` on generated corpora.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The corpora come from --seed and their
generation is outside every metric. Every sample is a fresh child process
(perfbench/child.py) with the BLAS/OpenMP thread variables pinned before numpy
loads.

--trace 0 prints the end-to-end metrics: the median over the corpora of the
median wall time of the pipeline calls, in the whole cycles over the corpora
that fit in S seconds (pipeline_s), the median time of several fresh processes
to import xlalign.cli and build its parser (setup_s), the median ru_maxrss of
the pipeline processes (peak_rss_mb) and the lowest CSLS P@1 over the corpora
(p_at_1). --trace 1 alternates untraced runs and runs with timed spans on the
first corpus, makes one run with spans plus tracemalloc, and prints the
per-layer metrics derived from the spans.

Every pipeline run is checked: exit code 0, converged, P@1 >= 0.99, at least
99% of the induced pairs in the generator's gold, and the same sha256 of
induced_dict.txt across all runs on one corpus. The last stdout
line is the JSON result; the line before it is the full record (samples,
self time per span name and the environment).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = 2  # capped at nproc
SETUP_PROBES_PER_RUN = 2
MIN_P_AT_1 = 0.99
MIN_DICT_ACCURACY = 0.99
CHILD_TIMEOUT_S = 120
TRACE_PAIRS = 3  # untraced/traced pairs in a --trace 1 run


@dataclass(frozen=True)
class Workload:
    n: int
    d: int
    max_displacement: int | None
    cli_args: tuple[str, ...]
    # Corpora drawn from one seed; samples run whole cycles over them. More
    # than one where the iteration count, and so the run time, varies between
    # corpora.
    corpora: int = 1


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "selflearn": Workload(1000, 100, None, ("--vocab-cutoff", "1000", "--stall-patience", "3"),
                          corpora=10),
    "bigvocab": Workload(4000, 200, 50, ("--vocab-cutoff", "500", "--stall-patience", "3")),
    "initheavy": Workload(3500, 50, None, ("--vocab-cutoff", "3500", "--keep-prob", "1.0")),
}

END_TO_END_UNITS = {"pipeline_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "p_at_1": "ratio"}
PER_LAYER_UNITS = {
    "mapping.loop_s": "s", "mapping.iterations": "count", "mapping.loop_s_per_iter": "s",
    "mapping.loop_peak_mb": "MB", "mapping.dict_pairs": "count",
    "mapping.init_s": "s", "retrieval.init_nn_s": "s", "mapping.init_peak_mb": "MB",
    "mapping.init_pairs": "count",
    "retrieval.refit_s": "s", "retrieval.refit_peak_mb": "MB",
    "io.load_s": "s", "io.load_mb_s": "MB/s", "io.save_s": "s", "io.save_mb_s": "MB/s",
    "io.bytes_written": "bytes", "io.dict_io_s": "s",
    "evaluate.eval_s": "s", "evaluate.peak_mb": "MB",
    "normalize.preprocess_s": "s", "refine.refine_s": "s", "refine.pairs_averaged": "count",
    "cli.self_s": "s", "trace.overhead_s": "s",
}


class Runner:
    """Starts child processes, waits for each, and checks every pipeline run."""

    def __init__(self, work: Path, env: dict, cli_args):
        self.work = work
        self.env = env
        self.cli_args = cli_args
        self.attempted = 0
        self.failures: list[str] = []
        self.dict_sha: dict[int, str] = {}  # corpus index -> sha256 of induced_dict.txt
        self.p_at_1: dict[int, float] = {}
        self.dict_accuracy: dict[int, float] = {}

    def _child(self, *args):
        self.attempted += 1
        cmd = [sys.executable, str(HERE / "child.py"), *args]
        try:
            return subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return subprocess.CompletedProcess(cmd, -1, "", f"timed out after {CHILD_TIMEOUT_S} s")

    def setup(self):
        proc = self._child("setup")
        if proc.returncode != 0:
            self.failures.append(f"setup exit {proc.returncode}: {proc.stderr[-500:]}")
            return None
        return json.loads(proc.stdout)["setup_s"]

    def pipeline(self, index, corpus, traced=False, memory=False):
        """One pipeline process on corpus ``index``, a (paths, gold) pair.

        Returns (result, spans), or None if the run failed its check.
        """
        run = self.attempted
        paths, gold = corpus
        out = self.work / f"out{run}"
        result_path = self.work / f"result{run}.json"
        spans_path = self.work / f"spans{run}.json"
        proc = self._child(
            "pipeline", str(result_path), str(spans_path) if traced else "-",
            "1" if memory else "0", "--",
            "--src", str(paths["src"]), "--trg", str(paths["trg"]),
            "--gold", str(paths["gold"]), "--out", str(out), *self.cli_args,
        )
        problem = self._check(proc, result_path, out, index, gold)
        shutil.rmtree(out, ignore_errors=True)
        if problem:
            self.failures.append(f"run {run} on corpus {index}: {problem}")
            return None
        result = json.loads(result_path.read_text())
        spans = json.loads(spans_path.read_text()) if traced else None
        return result, spans

    def _check(self, proc, result_path, out, index, gold):
        if proc.returncode != 0 or not result_path.is_file():
            return f"child exit {proc.returncode}: {proc.stderr[-500:]}"
        code = json.loads(result_path.read_text())["exit_code"]
        if code != 0:
            return f"pipeline exit {code}: {proc.stderr[-500:]}"
        manifest = json.loads((out / "manifest.json").read_text())
        if not manifest["converged"]:
            return "not converged"
        p_at_1 = manifest["precision_at"]["1"]
        if p_at_1 < MIN_P_AT_1:
            return f"P@1 {p_at_1} < {MIN_P_AT_1}"
        dict_bytes = (out / "induced_dict.txt").read_bytes()
        sha = hashlib.sha256(dict_bytes).hexdigest()
        if index not in self.dict_sha:
            self.dict_sha[index], self.p_at_1[index] = sha, p_at_1
            # checked against the generator's gold, not the package's own evaluate
            accuracy = self.dict_accuracy[index] = dictionary_accuracy(dict_bytes, gold)
            if accuracy < MIN_DICT_ACCURACY:
                return f"induced dictionary accuracy {accuracy} < {MIN_DICT_ACCURACY}"
        elif sha != self.dict_sha[index]:
            return "induced_dict.txt differs from the first run on this corpus"
        elif p_at_1 != self.p_at_1[index]:
            return f"P@1 {p_at_1} differs from the first run's {self.p_at_1[index]}"
        return None


def dictionary_accuracy(dict_bytes, gold):
    """Share of induced 's<i> t<j>' pairs with j == gold[i]."""
    pairs = [line.split() for line in dict_bytes.decode().splitlines()]
    hits = sum(int(t[1:]) == gold[int(s[1:])] for s, t in pairs)
    return hits / len(pairs)


def layer_metrics(spans, memory_spans, untraced_s, traced_s):
    """Per-layer metrics: times from ``spans``, memory peaks from
    ``memory_spans`` (the same calls, traced with tracemalloc).

    A span the program no longer produces, such as an init that stops calling
    induce_dictionary, gives 0 for its metrics rather than an error.
    """
    from spans import self_times

    if [s["name"] for s in spans] != [s["name"] for s in memory_spans]:
        raise RuntimeError("timed and memory-traced runs made different calls")
    self_s = self_times(spans)

    def pick(name, parent=None):
        return [s for s in spans if s["name"] == name and (
            parent is None or s["parent"] is not None and spans[s["parent"]]["name"] == parent)]

    def seconds(found):
        return sum(s["end"] - s["start"] for s in found)

    def own_seconds(found):
        return sum(self_s[s["id"]] for s in found)

    def count(found, key):
        return sum(s["counts"][key] for s in found)

    def peak(found, key="peak_mb"):
        return max((memory_spans[s["id"]][key] for s in found), default=0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    loop, init = pick("mapping.self_learning_align"), pick("mapping.unsupervised_init")
    init_nn = pick("retrieval.induce_dictionary", "mapping.unsupervised_init")
    refit = pick("retrieval.induce_dictionary", "mapping.self_learning_align")
    load, save = pick("io.load_embeddings"), pick("io.save_embeddings")
    dict_io = pick("io.save_dictionary_pairs") + pick("io.load_gold_dictionary")
    evaluate, refine = pick("evaluate.precision_at_k"), pick("refine.refine_pipeline")
    return {
        "mapping.loop_s": own_seconds(loop),
        "mapping.iterations": count(loop, "iterations"),
        "mapping.loop_s_per_iter": ratio(own_seconds(loop), count(loop, "iterations")),
        "mapping.loop_peak_mb": peak(loop, "self_peak_mb"),
        "mapping.dict_pairs": count(loop, "pairs"),
        "mapping.init_s": own_seconds(init),
        "retrieval.init_nn_s": seconds(init_nn),
        "mapping.init_peak_mb": peak(init),
        "mapping.init_pairs": count(init, "pairs"),
        "retrieval.refit_s": seconds(refit),
        "retrieval.refit_peak_mb": peak(refit),
        "io.load_s": seconds(load),
        "io.load_mb_s": ratio(count(load, "bytes") / 1e6, seconds(load)),
        "io.save_s": seconds(save),
        "io.save_mb_s": ratio(count(save, "bytes") / 1e6, seconds(save)),
        "io.bytes_written": count(save, "bytes") + count(pick("io.save_dictionary_pairs"), "bytes"),
        "io.dict_io_s": seconds(dict_io),
        "evaluate.eval_s": seconds(evaluate),
        "evaluate.peak_mb": peak(evaluate),
        "normalize.preprocess_s": seconds(pick("normalize.preprocess")),
        "refine.refine_s": seconds(refine),
        "refine.pairs_averaged": count(refine, "pairs_averaged"),
        "cli.self_s": own_seconds(pick("cli.pipeline")),
        "trace.overhead_s": traced_s - untraced_s,
    }


def self_time_by_name(spans):
    from spans import self_times

    out: dict[str, float] = {}
    for sid, seconds in self_times(spans).items():
        name = spans[sid]["name"]
        out[name] = out.get(name, 0.0) + seconds
    return out


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:  # the ceiling keeps git from reporting an enclosing repository's commit
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)), check=False,
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "python": sys.version.split()[0], "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_env": {v: os.environ[v] for v in THREAD_VARS}, "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def measure_traced(runner, corpora):
    """Alternate untraced and span-traced runs on the first corpus, then make
    one run with tracemalloc for the memory peaks.

    Each per-layer time is the median over the traced runs, and the trace
    overhead the median difference within a pair, so that a drift in machine
    speed between two runs does not pass for overhead.
    """
    pairs = []
    for _ in range(TRACE_PAIRS):
        untraced = runner.pipeline(0, corpora[0])
        timed = runner.pipeline(0, corpora[0], traced=True)
        if None in (untraced, timed):
            return {}, {}
        pairs.append((untraced[0]["pipeline_s"], timed))
    with_memory = runner.pipeline(0, corpora[0], traced=True, memory=True)
    if with_memory is None:
        return {}, {}
    per_pair = [layer_metrics(timed[1], with_memory[1], plain_s, timed[0]["pipeline_s"])
                for plain_s, timed in pairs]
    metrics = {name: statistics.median(m[name] for m in per_pair) for name in per_pair[0]}
    samples = {"pipeline_s": [plain_s for plain_s, _ in pairs],
               "traced_pipeline_s": [timed[0]["pipeline_s"] for _, timed in pairs],
               "self_s_by_span": [self_time_by_name(timed[1]) for _, timed in pairs]}
    return metrics, samples


def measure(runner, corpora, seconds):
    """Run whole cycles over the corpora, with setup probes between runs, for
    about ``seconds``.

    Only whole cycles run, at least one, so every corpus is measured equally
    often however fast the program is. pipeline_s is the median of the
    per-corpus medians. The machine's speed drifts over seconds, so the setup
    probes are spread over the whole run rather than taken in one burst.
    """
    setup, runs = [], []
    start = time.perf_counter()
    cycle_s = 0.0
    # keep starting cycles while the next one, as long as the last, still fits;
    # a failed run ends the measurement, which then reports the failure
    while not runner.failures and (not runs or time.perf_counter() - start + cycle_s <= seconds):
        cycle_start = time.perf_counter()
        for index, corpus in enumerate(corpora):
            setup += [runner.setup() for _ in range(SETUP_PROBES_PER_RUN)]
            done = runner.pipeline(index, corpus)
            if done is None:
                break
            runs.append(dict(done[0], corpus=index))
        cycle_s = time.perf_counter() - cycle_start
    setup = [s for s in setup if s is not None]
    if not runs or not setup:
        return {}, {}
    per_corpus = [statistics.median(r["pipeline_s"] for r in runs if r["corpus"] == index)
                  for index in sorted({r["corpus"] for r in runs})]
    samples = {"pipeline_s": [r["pipeline_s"] for r in runs],
               "corpus": [r["corpus"] for r in runs],
               "peak_rss_mb": [r["peak_rss_mb"] for r in runs], "setup_s": setup}
    metrics = {
        "pipeline_s": statistics.median(per_corpus),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(samples["peak_rss_mb"]),
        "p_at_1": min(runner.p_at_1.values()),
    }
    return metrics, samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "xlalign" / "cli.py").is_file():
        print(f"xlalign sources not found under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2

    threads = min(THREADS, len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:  # before numpy loads, here and in every child
        os.environ[var] = str(threads)
    import numpy as np

    from corpus import CorpusSpec, make_corpus, write_corpus

    workload = WORKLOADS[args.workload]
    spec = CorpusSpec(workload.n, workload.d, max_displacement=workload.max_displacement)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(work, dict(os.environ), workload.cli_args)
    try:
        corpora = []
        count = 1 if args.trace else workload.corpora  # traced runs use the first only
        seeds = np.random.SeedSequence(args.seed).generate_state(count)
        for i, corpus_seed in enumerate(seeds):
            corpus = make_corpus(spec, int(corpus_seed))
            corpora.append((write_corpus(corpus, work / f"corpus{i}"), corpus.gold))
        if args.trace:
            metrics, samples = measure_traced(runner, corpora)
        else:
            metrics, samples = measure(runner, corpora, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    for failure in runner.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    if not metrics:
        print("no run completed; nothing to report", file=sys.stderr)
        return 1
    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "samples": samples,
        "dict_sha256": runner.dict_sha, "dict_accuracy": runner.dict_accuracy,
        "env": environment(),
    }
    print(json.dumps(record))
    print(json.dumps({
        "correct": not runner.failures, "attempted": runner.attempted,
        "failed": len(runner.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
