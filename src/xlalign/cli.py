"""Command-line pipeline: align, refine, induce, evaluate, pipeline.

Each setting is declared once, in ``_SETTINGS``, and each subcommand takes
the flags of exactly the settings it reads. An INI file (``--config``) of
flat ``key = value`` sections may set any setting of any subcommand; its
values are checked as the flags are, and a flag wins over the file; beneath
both, a config field's default (``_DEFAULTS``). Logs go to stderr, results to
stdout or files. Exit codes: 0 success/converged, 1 error, 2 completed
without convergence.
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

import numpy

from . import __version__, evaluate, io, mapping, normalize, refine, retrieval

log = logging.getLogger("xlalign")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CONVERGED = 2


def positive_int(text):
    """An integer >= 1."""
    if int(text) < 1:
        raise ValueError(f"{text!r} is less than 1")
    return int(text)


def positive_int_list(text):
    """Comma-separated integers >= 1, as a tuple."""
    return tuple(positive_int(part) for part in text.split(","))


# setting -> argparse keywords of its flag, which is --name with dashes unless
# "flags" says otherwise; "default" applies beneath the config file
_SETTINGS = {
    "src": {"help": "source embedding file"},
    "trg": {"help": "target embedding file"},
    "out": {"help": "output directory"},
    "config": {"help": "INI config file; CLI flags override it"},
    # None, recorded as null in the manifest: every word of each file
    "max_vocab": {"type": int, "default": None,
                  "help": "load at most this many words per language"},
    "verbose": {"flags": ("-v", "--verbose"), "action": "count", "help": "-v INFO, -vv DEBUG"},
    "seed": {"type": int, "help": "RNG seed"},
    "csls_k": {"type": positive_int, "help": "CSLS neighborhood size"},
    "vocab_cutoff": {"type": int, "help": "self-learning vocabulary cutoff"},
    "direction": {"choices": retrieval.DIRECTIONS, "help": "induction direction"},
    "keep_prob": {"type": float, "help": "initial similarity keep probability"},
    "stall_patience": {"type": int, "help": "stalled iterations before keep_prob grows"},
    "max_iterations": {"type": int, "help": "self-learning iteration limit"},
    "reweight": {"action": "store_true", "help": "scale mapped spaces by sqrt singular values"},
    "dict_path": {"flags": ("--dict",), "help": "induced dictionary file"},
    "norm_iters": {"type": int, "help": "refinement normalization iterations"},
    "norm_tol": {"type": float, "help": "refinement normalization tolerance"},
    "gold": {"help": "gold dictionary file"},
    "ks": {"type": positive_int_list, "default": evaluate.DEFAULT_KS,
           "help": "comma-separated k values"},
    "retrieval": {"choices": ("nn", "csls"), "default": "csls", "help": "retrieval method"},
    "name": {"default": "system", "help": "system name in reports"},
    "compare": {"metavar": "DIR", "help": "baseline run directory (with eval.json) to diff"},
    "skip_refine": {"action": "store_true", "default": False, "help": "evaluate unrefined"},
}
# config-file keys; the other flags are not settings, so not in the manifest
_INI_KEYS = _SETTINGS.keys() - {"config", "verbose", "compare"}
# each setting's default, which --help shows and the manifest records: its
# config field's, which has the setting's name, else its "default"
_DEFAULTS = {key: spec["default"] for key, spec in _SETTINGS.items() if "default" in spec}
_DEFAULTS.update((f.name, f.default) for cls in (mapping.MappingConfig, refine.RefinementConfig)
                 for f in dataclasses.fields(cls))

_IO = ("src", "trg", "out", "config", "max_vocab", "verbose")
_MAPPING = ("seed", "csls_k", "vocab_cutoff", "direction", "keep_prob",
            "stall_patience", "max_iterations", "reweight")
_REFINE = ("norm_iters", "norm_tol")
_EVALUATE = ("gold", "ks", "retrieval")


def build_parser():
    parser = argparse.ArgumentParser(prog="xlalign")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_text, names, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in names:
            kwargs = dict(_SETTINGS[name])
            flags = kwargs.pop("flags", ("--" + name.replace("_", "-"),))
            kwargs.pop("default", None)
            default = _DEFAULTS.get(name)
            if isinstance(default, tuple):
                default = ",".join(map(str, default))  # as the flag takes it
            if default is not None:
                kwargs["help"] += f" (default {default})"
            # None marks a flag not given, so the file or the default applies
            p.add_argument(*flags, dest=name, default=None, **kwargs)
    return parser


def _parse_value(spec, text, where):
    """A config-file value, parsed and checked as its flag's would be."""
    states = configparser.ConfigParser.BOOLEAN_STATES
    boolean = spec.get("action") == "store_true"
    parse = str.lower if boolean else spec.get("type", str)
    choices = states if boolean else spec.get("choices")
    try:
        value = parse(text)
    except ValueError:
        raise ValueError(f"{where}: {text!r} is not a valid {parse.__name__}") from None
    if choices and value not in choices:
        raise ValueError(f"{where}: {text!r} is not one of {', '.join(choices)}")
    return states[value] if boolean else value


def _load_config_file(path):
    cp = configparser.ConfigParser()
    if not cp.read(path, encoding="utf-8"):
        raise FileNotFoundError(f"config file not found: {path}")
    settings = {}
    # [DEFAULT] first: sections() leaves it out, and the others inherit its keys
    for section in cp.values():
        for key, text in section.items():
            key = key.replace("-", "_")
            if key not in _INI_KEYS:
                raise ValueError(f"unknown config key {key!r} in {path}")
            settings[key] = _parse_value(_SETTINGS[key], text, f"config key {key!r} in {path}")
    return settings


def resolve_settings(args):
    """Merge defaults < config file < CLI flags into one flat dict."""
    settings = dict(_DEFAULTS)
    if args.config:
        settings.update(_load_config_file(args.config))
    settings.update((key, value) for key, value in vars(args).items()
                    if key in _INI_KEYS and value is not None)
    return settings


def _config_from(cls, s):
    """The config dataclass ``cls`` with each field taken from its setting in ``s``."""
    return cls(**{f.name: s[f.name] for f in dataclasses.fields(cls)})


def _load_pair(settings):
    max_vocab = settings["max_vocab"]
    src_vocab, x = io.load_embeddings(settings["src"], max_vocab)
    trg_vocab, z = io.load_embeddings(settings["trg"], max_vocab)
    return src_vocab, x, trg_vocab, z


def _run_align(settings, out_dir):
    """Shared by cmd_align and cmd_pipeline; returns mapped artifacts."""
    cfg = _config_from(mapping.MappingConfig, settings)  # checked: fails before loading
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    cutoff = cfg.cutoff(x, z)  # a space under 2 words fails before preprocessing
    x = normalize.preprocess(x)
    z = normalize.preprocess(z)
    log.info("aligning %d x %d against %d x %d (cutoff %d)",
             x.shape[0], x.shape[1], z.shape[0], z.shape[1], cutoff)
    result = mapping.align(x, z, cfg)
    # the CLI owns the preprocessed spaces, so maps them in place, a tile at a time
    for m, w in ((x, result.w_src), (z, result.w_trg)):
        mapping._map_in_place(m, w, result.reweight_scale)
    os.makedirs(out_dir, exist_ok=True)
    io.save_embeddings(src_vocab, x, os.path.join(out_dir, "src_mapped.vec"))
    io.save_embeddings(trg_vocab, z, os.path.join(out_dir, "trg_mapped.vec"))
    io.save_dictionary_pairs(result.dictionary, src_vocab, trg_vocab,
                             os.path.join(out_dir, "induced_dict.txt"))
    return src_vocab, trg_vocab, x, z, result


def cmd_align(settings, args):
    _, _, _, _, result = _run_align(settings, settings["out"])
    print(f"objective={result.objective:.6f}")
    print(f"iterations={result.iterations}")
    print(f"converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _run_refine(cfg, x, z, pairs, src_vocab, trg_vocab, out_dir):
    """Shared by cmd_refine and cmd_pipeline; saves and returns the refined spaces."""
    refined = refine.refine_pipeline(x, z, pairs, cfg, copy=False)  # x, z are the CLI's own
    os.makedirs(out_dir, exist_ok=True)
    io.save_embeddings(src_vocab, refined.x_refined, os.path.join(out_dir, "src_refined.vec"))
    io.save_embeddings(trg_vocab, refined.z_refined, os.path.join(out_dir, "trg_refined.vec"))
    return refined


def cmd_refine(settings, args):
    cfg = _config_from(refine.RefinementConfig, settings)
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    pairs = io.load_dictionary_pairs(settings["dict_path"], src_vocab, trg_vocab)
    refined = _run_refine(cfg, x, z, pairs, src_vocab, trg_vocab, settings["out"])
    print(f"pairs_averaged={refined.pairs_averaged}")
    for side, rep in (("src", refined.x_norm_report), ("trg", refined.z_norm_report)):
        print(f"{side}_norm_iters={rep.iterations_run} "
              f"row_dev={rep.max_row_norm_deviation:.3e} "
              f"center={rep.max_center_magnitude:.3e}")
    return EXIT_OK


def cmd_induce(settings, args):
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    pairs = retrieval.induce_dictionary(
        x, z, method=settings["retrieval"], k=mapping.csls_k_between(settings["csls_k"], x, z),
        directions=settings["direction"],
    )
    os.makedirs(settings["out"], exist_ok=True)
    path = os.path.join(settings["out"], "induced_dict.txt")
    io.save_dictionary_pairs(pairs, src_vocab, trg_vocab, path)
    print(f"pairs={len(pairs)}")
    return EXIT_OK


def _run_evaluate(settings, x, z, src_vocab, trg_vocab, out_dir=None):
    gold = io.load_gold_dictionary(settings["gold"], src_vocab, trg_vocab)
    report = evaluate.precision_at_k(
        x, z, gold, ks=settings["ks"], method=settings["retrieval"],
        csls_k=mapping.csls_k_between(settings["csls_k"], x, z),
    )
    name = settings["name"]
    for line in evaluate.report_lines(name, report):
        print(line)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "eval.json"), "w", encoding="utf-8") as fh:
            json.dump({"name": name, **dataclasses.asdict(report)}, fh, indent=2)
    return report


def _load_baseline(run_dir):
    """The system name and ``EvalReport`` that ``run_dir``/eval.json holds;
    an error naming the file where it is missing, is not JSON, or lacks a key."""
    path = os.path.join(run_dir, "eval.json")
    with open(path, encoding="utf-8") as fh:  # FileNotFoundError names the path
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as e:
            raise ValueError(f"{path} is not JSON: {e}") from None
    fields = [f.name for f in dataclasses.fields(evaluate.EvalReport)]
    for key in ("name", *fields):
        if not isinstance(payload, dict) or key not in payload:
            raise ValueError(f"{path} has no key {key!r}")
    if not isinstance(payload["precision_at"], dict):
        raise ValueError(f"{path}: 'precision_at' is not an object")
    return payload["name"], evaluate.EvalReport(**{key: payload[key] for key in fields})


def cmd_evaluate(settings, args):
    baseline = _load_baseline(args.compare) if args.compare else None  # before any evaluation
    src_vocab, x, trg_vocab, z = _load_pair(settings)
    report = _run_evaluate(settings, x, z, src_vocab, trg_vocab, settings.get("out"))
    if baseline:
        base_name, base_report = baseline
        name = settings["name"]
        if base_name == name:
            base_name += "-baseline"
        print(evaluate.compare_reports({name: report, base_name: base_report},
                                       baseline=base_name))
    return EXIT_OK


def cmd_pipeline(settings, args):
    out_dir = settings["out"]
    refine_cfg = _config_from(refine.RefinementConfig, settings)  # fails before the alignment
    timings, refined_record = {}, {}
    t0 = time.perf_counter()
    src_vocab, trg_vocab, xw, zw, result = _run_align(settings, out_dir)
    timings["align_s"] = time.perf_counter() - t0

    if settings["skip_refine"]:
        x_final, z_final = xw, zw
    else:
        t0 = time.perf_counter()
        refined = _run_refine(refine_cfg, xw, zw, result.dictionary, src_vocab, trg_vocab, out_dir)
        x_final, z_final = refined.x_refined, refined.z_refined
        timings["refine_s"] = time.perf_counter() - t0
        refined_record["refine"] = {
            "pairs_averaged": refined.pairs_averaged,
            "src_norm_report": dataclasses.asdict(refined.x_norm_report),
            "trg_norm_report": dataclasses.asdict(refined.z_norm_report),
        }
        log.info("refined: %s", json.dumps(refined_record["refine"]))
    del xw, zw  # saved; evaluation reads only the final spaces

    t0 = time.perf_counter()
    report = _run_evaluate(settings, x_final, z_final, src_vocab, trg_vocab, out_dir)
    timings["evaluate_s"] = time.perf_counter() - t0

    manifest = {
        "settings": {k: settings[k] for k in sorted(settings)},
        "seed": settings["seed"],
        "versions": _versions(),
        # BLAS reads these when numpy loads; None where unset
        "thread_env": {var: os.environ.get(var) for var in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "timings": timings,
        "objective": result.objective,
        "iterations": result.iterations,
        "converged": result.converged,
        **refined_record,
        "precision_at": report.precision_at,
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
    print(f"objective={result.objective:.6f}")
    print(f"converged={result.converged}")
    return EXIT_OK if result.converged else EXIT_NOT_CONVERGED


def _versions():
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "xlalign": __version__}


# subcommand -> (function of the settings and the parsed flags, help, the
# settings whose flags it takes, the settings it requires)
_COMMANDS = {
    "align": (cmd_align, "unsupervised alignment of two embedding spaces", _IO + _MAPPING,
              ("src", "trg", "out")),
    "refine": (cmd_refine, "map each space toward the dictionary midpoints + re-normalization",
               _IO + ("dict_path",) + _REFINE, ("src", "trg", "out", "dict_path")),
    "induce": (cmd_induce, "induce a dictionary between two mapped spaces",
               _IO + ("csls_k", "retrieval", "direction"), ("src", "trg", "out")),
    "evaluate": (cmd_evaluate, "precision at k against a gold dictionary",
                 _IO + ("csls_k",) + _EVALUATE + ("name", "compare"), ("src", "trg", "gold")),
    "pipeline": (cmd_pipeline, "align, refine, evaluate in sequence",
                 _IO + _MAPPING + _REFINE + _EVALUATE + ("skip_refine",),
                 ("src", "trg", "out", "gold")),
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    verbosity = args.verbose or 0
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.DEBUG if verbosity > 1 else
        logging.INFO if verbosity else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    command, _, _, required = _COMMANDS[args.command]
    try:
        settings = resolve_settings(args)
        missing = [key for key in required if not settings.get(key)]
        if missing:
            raise ValueError("missing required settings: " + ", ".join(missing))
        return command(settings, args)
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.error("%s", e)
        if verbosity > 1:
            raise
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
