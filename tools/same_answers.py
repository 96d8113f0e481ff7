"""Fingerprint what `xlalign pipeline` writes on the benchmark corpora.

    python3 tools/same_answers.py --source DIR [--seed 101] > OUT.jsonl
    python3 tools/same_answers.py --compare A.jsonl B.jsonl

The first form builds the corpora of each workload for --seed, as
perfbench/run.py does (perfbench/corpus.py and run.WORKLOADS, imported and
never changed), runs `xlalign pipeline` from the checkout at --source (its
src/ on PYTHONPATH) with each workload's flags, at the benchmark's BLAS thread
count, and prints one JSON line per corpus: the sha256 of stdout and of every
output file except manifest.json, and the manifest's iterations, converged,
objective and refine. The second form reports every corpus where two such
outputs differ: any field but the objective must be equal, and the objectives
within OBJECTIVE_TOL; a difference in the output files names each file whose
hash differs. It exits 1 on a difference.

Two checkouts that give the same lines give the same answers. This is a check
for changes meant to keep every output bit; a change to the arithmetic may
rightly change the bits, so it is not part of the test suite.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402 - perfbench/run.py, for WORKLOADS and the thread settings

MANIFEST_KEYS = ("iterations", "converged", "objective", "refine")
OBJECTIVE_TOL = 1e-12  # summation order may move the last bits of a float64 objective


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def fingerprint(source, workload, seed, work):
    """One record per corpus of ``workload`` at ``seed``, run from the checkout ``source``."""
    import numpy as np

    from corpus import CorpusSpec, make_corpus, write_corpus

    spec = run.WORKLOADS[workload]
    corpus_spec = CorpusSpec(spec.n, spec.d, max_displacement=spec.max_displacement)
    env = dict(os.environ, PYTHONPATH=str(Path(source).resolve() / "src"))
    for i, corpus_seed in enumerate(np.random.SeedSequence(seed).generate_state(spec.corpora)):
        paths = write_corpus(make_corpus(corpus_spec, int(corpus_seed)),
                             work / f"{workload}{i}")
        out = work / f"{workload}{i}-out"
        proc = subprocess.run(
            [sys.executable, "-m", "xlalign.cli", "pipeline", "--src", str(paths["src"]),
             "--trg", str(paths["trg"]), "--gold", str(paths["gold"]), "--out", str(out),
             *spec.cli_args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, check=False,
        )
        manifest = json.loads((out / "manifest.json").read_text()) if out.is_dir() else {}
        yield {
            "workload": workload, "corpus": i, "exit_code": proc.returncode,
            "stdout": _sha256(proc.stdout),
            "files": {p.name: _sha256(p.read_bytes()) for p in sorted(out.glob("*"))
                      if p.name != "manifest.json"},
            **{key: manifest.get(key) for key in MANIFEST_KEYS},
        }


def differences(a_path, b_path):
    """Lines naming each corpus whose records in the two JSONL files differ."""
    def records(path):
        lines = Path(path).read_text().splitlines()
        return {(r["workload"], r["corpus"]): r for r in map(json.loads, lines)}

    a, b = records(a_path), records(b_path)
    found = [f"{key}: only in one file" for key in sorted(a.keys() ^ b.keys())]
    for key in sorted(a.keys() & b.keys()):
        ra, rb = dict(a[key]), dict(b[key])
        oa, ob = ra.pop("objective"), rb.pop("objective")
        fa, fb = ra.pop("files", {}), rb.pop("files", {})
        fields = sorted(f for f in ra.keys() | rb.keys() if ra.get(f) != rb.get(f))
        if fields:
            found.append(f"{key}: {', '.join(fields)} differ")
        names = sorted(n for n in fa.keys() | fb.keys() if fa.get(n) != fb.get(n))
        if names:
            found.append(f"{key}: files differ: {', '.join(names)}")
        # "not <=" also reports a NaN objective, which compares false with anything
        if (oa is None) != (ob is None) or (oa is not None and not abs(oa - ob) <= OBJECTIVE_TOL):
            found.append(f"{key}: objective {oa!r} vs {ob!r}")
    return found


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--source", help="checkout whose src/ runs the pipeline")
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--compare", nargs=2, metavar="JSONL")
    args = parser.parse_args(argv)
    if args.compare:
        found = differences(*args.compare)
        print("\n".join(found) if found else "same answers")
        return 1 if found else 0
    if not args.source:
        parser.error("--source or --compare is required")
    threads = min(run.THREADS, len(os.sched_getaffinity(0)))
    for var in run.THREAD_VARS:  # before numpy loads, here and in every run
        os.environ[var] = str(threads)
    with tempfile.TemporaryDirectory(prefix="same_answers-") as work:
        for workload in sorted(run.WORKLOADS):
            for record in fingerprint(args.source, workload, args.seed, Path(work)):
                print(json.dumps(record, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
