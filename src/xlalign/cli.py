"""Command-line pipeline: align, refine, induce, evaluate, pipeline.

Configuration comes from an INI-style file of flat key = value sections,
every key overridable by a same-named CLI flag (the flag wins). Logs go to
stderr, results to stdout or files. Exit codes: 0 success/converged,
1 error, 2 completed without convergence.
"""
from __future__ import annotations

import argparse
import configparser
import dataclasses
import json
import logging
import os
import sys
import time

log = logging.getLogger("xlalign")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def _add_shared_flags(p):
    p.add_argument("--src", help="source embedding file")
    p.add_argument("--trg", help="target embedding file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--config", help="INI config file; CLI flags override it")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--max-vocab", type=int, help="load at most this many words per language")
    p.add_argument("--csls-k", type=int, help="CSLS neighborhood size (default 10)")
    p.add_argument("--vocab-cutoff", type=int, help="self-learning vocabulary cutoff")
    p.add_argument("--norm-iters", type=int, help="refinement normalization iterations")
    p.add_argument("--retrieval", choices=["nn", "csls"], help="evaluation retrieval method")
    p.add_argument("-v", "--verbose", action="count", default=0)


def build_parser():
    parser = argparse.ArgumentParser(prog="xlalign")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("align", help="unsupervised alignment of two embedding spaces")
    _add_shared_flags(p)
    p.add_argument("--direction", choices=["forward", "backward", "union"])
    p.add_argument("--keep-prob", type=float, help="initial similarity keep probability")
    p.add_argument("--stall-patience", type=int)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--reweight", action="store_true", default=None,
                   help="scale mapped spaces by sqrt singular values")

    p = sub.add_parser("refine", help="midpoint averaging + re-normalization")
    _add_shared_flags(p)
    p.add_argument("--dict", dest="dict_path", help="induced dictionary file")
    p.add_argument("--norm-tol", type=float)
    p.add_argument("--conflict-policy", choices=["first-pair", "mutual-only"])

    p = sub.add_parser("induce", help="induce a dictionary between two mapped spaces")
    _add_shared_flags(p)
    p.add_argument("--direction", choices=["forward", "backward", "union"])

    p = sub.add_parser("evaluate", help="precision at k against a gold dictionary")
    _add_shared_flags(p)
    p.add_argument("--gold", help="gold dictionary file")
    p.add_argument("--ks", help="comma-separated k values (default 1,5,10)")
    p.add_argument("--name", default="system", help="system name in reports")
    p.add_argument("--compare", metavar="DIR",
                   help="baseline run directory (with eval.json) to diff against")

    p = sub.add_parser("pipeline", help="align, refine, evaluate in sequence")
    _add_shared_flags(p)
    p.add_argument("--gold", help="gold dictionary file")
    p.add_argument("--ks", help="comma-separated k values (default 1,5,10)")
    p.add_argument("--direction", choices=["forward", "backward", "union"])
    p.add_argument("--keep-prob", type=float)
    p.add_argument("--stall-patience", type=int)
    p.add_argument("--max-iterations", type=int)
    p.add_argument("--norm-tol", type=float)
    p.add_argument("--conflict-policy", choices=["first-pair", "mutual-only"])
    p.add_argument("--reweight", action="store_true", default=None)
    p.add_argument("--skip-refine", action="store_true")
    return parser


def _load_config_file(path):
    cp = configparser.ConfigParser()
    if not cp.read(path, encoding="utf-8"):
        raise FileNotFoundError(f"config file not found: {path}")
    flat = {}
    for section in cp.sections():
        for key, value in cp[section].items():
            flat[key.replace("-", "_")] = value
    return flat


# config-file keys and the type used to parse them; names match CLI flags
_CONFIG_KEYS = {
    "src": str, "trg": str, "out": str, "gold": str, "dict_path": str,
    "seed": int, "max_vocab": int, "csls_k": int,
    "vocab_cutoff": int, "norm_iters": int, "norm_tol": float,
    "retrieval": str, "direction": str, "keep_prob": float,
    "stall_patience": int, "max_iterations": int, "conflict_policy": str,
    "ks": str, "name": str, "reweight": lambda s: s.lower() in ("1", "true", "yes"),
    "skip_refine": lambda s: s.lower() in ("1", "true", "yes"),
}

_DEFAULTS = {
    "seed": 0, "retrieval": "csls", "name": "system", "ks": "1,5,10",
    "skip_refine": False, "reweight": False,
}


def resolve_settings(args):
    """Merge defaults < config file < CLI flags into one flat dict."""
    settings = dict(_DEFAULTS)
    if getattr(args, "config", None):
        raw = _load_config_file(args.config)
        for key, value in raw.items():
            if key not in _CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            settings[key] = _CONFIG_KEYS[key](value)
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


# settings whose config field has another name
_FIELD_ALIASES = {"keep_prob": "keep_prob_initial"}


def _config_from(cls, s):
    """The config dataclass ``cls`` with each field that ``s`` has a setting
    for taken from it; the other fields keep their defaults."""
    names = {f.name for f in dataclasses.fields(cls)}
    return cls(**{_FIELD_ALIASES.get(key, key): value for key, value in s.items()
                  if _FIELD_ALIASES.get(key, key) in names})


def _mapping_config(s):
    from .mapping import MappingConfig

    return _config_from(MappingConfig, s)


def _refine_config(s):
    from .refine import RefinementConfig

    return _config_from(RefinementConfig, s)


def _require(settings, *keys):
    missing = [k for k in keys if not settings.get(k)]
    if missing:
        raise ValueError("missing required settings: " + ", ".join(missing))


def _load_pair(settings):
    from .io import load_embeddings

    max_vocab = settings.get("max_vocab")
    src_vocab, x = load_embeddings(settings["src"], max_vocab)
    trg_vocab, z = load_embeddings(settings["trg"], max_vocab)
    return src_vocab, x, trg_vocab, z


def _run_align(settings, out_dir):
    """Shared by cmd_align and cmd_pipeline; returns mapped artifacts."""
    from . import io, mapping, normalize

    src_vocab, x, trg_vocab, z = _load_pair(settings)
    x = normalize.preprocess(x)
    z = normalize.preprocess(z)
    cfg = _mapping_config(settings)
    cfg.vocab_cutoff = min(cfg.vocab_cutoff, x.shape[0], z.shape[0])
    log.info("aligning %d x %d against %d x %d (cutoff %d)",
             x.shape[0], x.shape[1], z.shape[0], z.shape[1], cfg.vocab_cutoff)
    result = mapping.align(x, z, cfg)
    xw, zw = result.map_src(x), result.map_trg(z)
    os.makedirs(out_dir, exist_ok=True)
    io.save_embeddings(src_vocab, xw, os.path.join(out_dir, "src_mapped.vec"))
    io.save_embeddings(trg_vocab, zw, os.path.join(out_dir, "trg_mapped.vec"))
    io.save_dictionary_pairs(result.dictionary, src_vocab, trg_vocab,
                             os.path.join(out_dir, "induced_dict.txt"))
    return src_vocab, trg_vocab, xw, zw, result


def cmd_align(args):
    settings = resolve_settings(args)
    _require(settings, "src", "trg", "out")
    _, _, _, _, result = _run_align(settings, settings["out"])
    print(f"objective={result.objective:.6f}")
    print(f"iterations={result.iterations}")
    print(f"converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def cmd_refine(args):
    from . import io, refine

    settings = resolve_settings(args)
    _require(settings, "src", "trg", "out", "dict_path")
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    pairs = io.load_dictionary_pairs(settings["dict_path"], src_vocab, trg_vocab)
    refined = refine.refine_pipeline(x, z, pairs, _refine_config(settings))
    out_dir = settings["out"]
    os.makedirs(out_dir, exist_ok=True)
    io.save_embeddings(src_vocab, refined.x_refined, os.path.join(out_dir, "src_refined.vec"))
    io.save_embeddings(trg_vocab, refined.z_refined, os.path.join(out_dir, "trg_refined.vec"))
    print(f"pairs_averaged={refined.pairs_averaged}")
    print(f"pairs_skipped={refined.pairs_skipped}")
    for side, rep in (("src", refined.x_norm_report), ("trg", refined.z_norm_report)):
        print(f"{side}_norm_iters={rep.iterations_run} "
              f"row_dev={rep.max_row_norm_deviation:.3e} "
              f"center={rep.max_center_magnitude:.3e}")
    return EXIT_OK


def cmd_induce(args):
    from . import io, retrieval

    settings = resolve_settings(args)
    _require(settings, "src", "trg", "out")
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    pairs = retrieval.induce_dictionary(
        x, z,
        method=settings.get("retrieval", "csls"),
        k=settings.get("csls_k") or retrieval.DEFAULT_CSLS_K,
        directions=settings.get("direction") or "union",
    )
    os.makedirs(settings["out"], exist_ok=True)
    path = os.path.join(settings["out"], "induced_dict.txt")
    io.save_dictionary_pairs(pairs, src_vocab, trg_vocab, path)
    print(f"pairs={len(pairs)}")
    return EXIT_OK


def _parse_ks(settings):
    return tuple(int(k) for k in str(settings.get("ks", "1,5,10")).split(","))


def _run_evaluate(settings, x, z, src_vocab, trg_vocab, out_dir=None):
    from . import evaluate, io
    from .retrieval import DEFAULT_CSLS_K

    gold = io.load_gold_dictionary(settings["gold"], src_vocab, trg_vocab)
    report = evaluate.precision_at_k(
        x, z, gold, ks=_parse_ks(settings),
        method=settings.get("retrieval", "csls"),
        csls_k=settings.get("csls_k") or DEFAULT_CSLS_K,
    )
    name = settings.get("name", "system")
    for line in evaluate.report_lines(name, report):
        print(line)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        payload = {
            "name": name,
            "precision_at": {str(k): v for k, v in report.precision_at.items()},
            "evaluated_sources": report.evaluated_sources,
            "oov_sources": report.oov_sources,
        }
        with open(os.path.join(out_dir, "eval.json"), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
    return report


def _load_saved_report(run_dir):
    from .evaluate import EvalReport

    with open(os.path.join(run_dir, "eval.json"), encoding="utf-8") as fh:
        payload = json.load(fh)
    report = EvalReport(
        precision_at={int(k): v for k, v in payload["precision_at"].items()},
        evaluated_sources=payload["evaluated_sources"],
        oov_sources=payload["oov_sources"],
    )
    return payload["name"], report


def cmd_evaluate(args):
    from . import evaluate

    settings = resolve_settings(args)
    _require(settings, "src", "trg", "gold")
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    report = _run_evaluate(settings, x, z, src_vocab, trg_vocab, settings.get("out"))
    if getattr(args, "compare", None):
        base_name, base_report = _load_saved_report(args.compare)
        name = settings.get("name", "system")
        if base_name == name:
            base_name += "-baseline"
        print(evaluate.compare_reports({name: report, base_name: base_report},
                                       baseline=base_name))
    return EXIT_OK


def cmd_pipeline(args):
    from . import io, refine

    settings = resolve_settings(args)
    _require(settings, "src", "trg", "out", "gold")
    out_dir = settings["out"]
    timings = {}
    t0 = time.perf_counter()
    src_vocab, trg_vocab, xw, zw, result = _run_align(settings, out_dir)
    timings["align_s"] = time.perf_counter() - t0

    if settings.get("skip_refine"):
        x_final, z_final = xw, zw
    else:
        t0 = time.perf_counter()
        refined = refine.refine_pipeline(xw, zw, result.dictionary, _refine_config(settings))
        x_final, z_final = refined.x_refined, refined.z_refined
        io.save_embeddings(src_vocab, x_final, os.path.join(out_dir, "src_refined.vec"))
        io.save_embeddings(trg_vocab, z_final, os.path.join(out_dir, "trg_refined.vec"))
        timings["refine_s"] = time.perf_counter() - t0
        log.info("refined: %d pairs averaged, %d skipped",
                 refined.pairs_averaged, refined.pairs_skipped)

    t0 = time.perf_counter()
    report = _run_evaluate(settings, x_final, z_final, src_vocab, trg_vocab, out_dir)
    timings["evaluate_s"] = time.perf_counter() - t0

    manifest = {
        "settings": {k: settings[k] for k in sorted(settings)},
        "seed": settings.get("seed", 0),
        "versions": _versions(),
        "timings": timings,
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        "precision_at": {str(k): v for k, v in report.precision_at.items()},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"objective={result.objective:.6f}")
    print(f"converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _versions():
    import numpy

    from . import __version__

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "xlalign": __version__}


_COMMANDS = {
    "align": cmd_align,
    "refine": cmd_refine,
    "induce": cmd_induce,
    "evaluate": cmd_evaluate,
    "pipeline": cmd_pipeline,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if args.verbose > 1 else
        logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return _COMMANDS[args.command](args)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.error("%s", e)
        if args.verbose > 1:
            raise
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
