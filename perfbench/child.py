"""One measured process of the benchmark; run.py starts a fresh one per sample.

    python3 perfbench/child.py setup
        Import xlalign.cli and build its parser; print the time taken as JSON.
    python3 perfbench/child.py pipeline RESULT SPANS MEMORY -- CLI_ARGS...
        Call xlalign.cli.main(["pipeline", *CLI_ARGS]) and write the exit
        code, wall time and ru_maxrss to RESULT. When SPANS is not "-", wrap
        the package's public functions in spans and write the spans to SPANS;
        when MEMORY is 1, also run tracemalloc so spans carry memory peaks.
        tracemalloc slows every allocation, so time spans with MEMORY 0.

The BLAS/OpenMP thread variables must already be in the environment: numpy
reads them when it loads, which importing xlalign does.
"""
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_bytes(index, name):
    return lambda args, kwargs, result: {"bytes": os.path.getsize(_arg(args, kwargs, index, name))}


def traced_targets():
    """(module, attribute, span name, counts) for every wrapped function.

    Each attribute is the one the CLI resolves at call time. mapping binds
    induce_dictionary at import, so it is patched on mapping itself.
    """
    from xlalign import evaluate, io, mapping, normalize, refine

    return [
        (io, "load_embeddings", "io.load_embeddings", _file_bytes(0, "path")),
        (io, "save_embeddings", "io.save_embeddings", _file_bytes(2, "path")),
        (io, "save_dictionary_pairs", "io.save_dictionary_pairs", _file_bytes(3, "path")),
        (io, "load_gold_dictionary", "io.load_gold_dictionary", _file_bytes(0, "path")),
        (normalize, "preprocess", "normalize.preprocess", None),
        (mapping, "unsupervised_init", "mapping.unsupervised_init",
         lambda a, k, r: {"pairs": len(r)}),
        (mapping, "self_learning_align", "mapping.self_learning_align",
         lambda a, k, r: {"iterations": r.iterations, "pairs": len(r.dictionary)}),
        (mapping, "induce_dictionary", "retrieval.induce_dictionary",
         lambda a, k, r: {"pairs": len(r)}),
        (refine, "refine_pipeline", "refine.refine_pipeline",
         lambda a, k, r: {"pairs_averaged": r.pairs_averaged}),
        (evaluate, "precision_at_k", "evaluate.precision_at_k", None),
    ]


def run_pipeline(cli_args, tracer=None, memory=False):
    """Return (exit code, seconds) of one pipeline call, traced when a tracer
    is given. Patched functions are restored before returning."""
    from xlalign import cli

    argv = ["pipeline", *cli_args]
    if tracer is None:
        t0 = time.perf_counter()
        code = cli.main(argv)
        return code, time.perf_counter() - t0

    import tracemalloc

    from spans import patch, unpatch

    originals = patch(tracer, traced_targets())
    if memory:
        tracemalloc.start()
    try:
        t0 = time.perf_counter()
        code = tracer.call("cli.pipeline", cli.main, argv)
        return code, time.perf_counter() - t0
    finally:
        tracemalloc.stop()
        unpatch(originals)


def main(argv):
    if argv[:1] == ["setup"]:
        t0 = time.perf_counter()
        from xlalign import cli

        cli.build_parser()
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if len(argv) < 5 or argv[0] != "pipeline" or argv[4] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    result_path, spans_path, memory, cli_args = argv[1], argv[2], argv[3] == "1", argv[5:]
    tracer = None
    if spans_path != "-":
        from spans import Tracer

        tracer = Tracer()
    code, seconds = run_pipeline(cli_args, tracer, memory)
    import resource

    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({"exit_code": code, "pipeline_s": seconds, "peak_rss_mb": rss_mb}, fh)
    if tracer is not None:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
