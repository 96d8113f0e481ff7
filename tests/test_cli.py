import argparse
import dataclasses
import json
import logging
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import xlalign
from xlalign import cli
from xlalign.io import Vocabulary, load_embeddings, save_embeddings
from xlalign.mapping import MappingConfig
from xlalign.refine import RefinementConfig

from conftest import make_rotated_pair


def write_corpus(tmp_path, n=300, d=10, seed=0, noise=0.0):
    """Synthetic rotated pair on disk: src.vec, trg.vec, gold.txt."""
    x, z, gold = make_rotated_pair(n=n, d=d, seed=seed, noise=noise)
    src_vocab = Vocabulary([f"s{i}" for i in range(n)])
    trg_vocab = Vocabulary([f"t{i}" for i in range(n)])
    save_embeddings(src_vocab, x, tmp_path / "src.vec")
    save_embeddings(trg_vocab, z, tmp_path / "trg.vec")
    with open(tmp_path / "gold.txt", "w", encoding="utf-8") as fh:
        for i in range(n):
            fh.write(f"s{i} t{gold[i]}\n")
    return gold


FAST = ["--stall-patience", "3", "--csls-k", "5"]


def run(argv):
    return cli.main([str(a) for a in argv])


class TestAlign:
    def test_synthetic_recovery(self, tmp_path, capsys):
        gold = write_corpus(tmp_path)
        out = tmp_path / "run"
        code = run(["align", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--out", out, *FAST])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "objective=" in stdout and "iterations=" in stdout
        pairs = [line.split() for line in (out / "induced_dict.txt").read_text().splitlines()]
        correct = sum(1 for s, t in pairs if int(t[1:]) == gold[int(s[1:])])
        assert correct / len(pairs) >= 0.95
        assert (out / "src_mapped.vec").exists() and (out / "trg_mapped.vec").exists()

    def test_max_iterations_zero_exits_1_before_loading(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(cli, "_load_pair", no_load)
        code = run(["pipeline", "--src", "a", "--trg", "b", "--gold", "c",
                    "--out", tmp_path / "run", "--max-iterations", "0"])
        assert code == 1
        assert "max_iterations must be >= 1" in caplog.text

    @pytest.mark.parametrize("command", ["align", "pipeline"])
    def test_negative_seed_exits_1_before_loading(self, command, tmp_path, caplog,
                                                  monkeypatch):
        # numpy's "expected non-negative integer" came only after the init had run
        monkeypatch.setattr(cli, "_load_pair", no_load)
        gold = ["--gold", "c"] if command == "pipeline" else []
        code = run([command, "--src", "a", "--trg", "b", *gold, "--out", tmp_path / "run",
                    "--seed", "-1"])
        assert code == 1
        assert "seed must be >= 0" in caplog.text

    def test_space_under_two_words_fails_before_preprocessing(self, tmp_path, caplog):
        # preprocessing warned of the zero row that centring one word leaves,
        # before the alignment rejected the space
        write_corpus(tmp_path)
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run(["align", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                        "--out", tmp_path / "run", "--max-vocab", "1"])
        assert code == 1
        assert "alignment needs 2 rows per space, got x 1, z 1" in caplog.text
        assert [str(w.message) for w in seen] == []
        assert not (tmp_path / "run").exists()

    def test_missing_input_exits_1(self, tmp_path, caplog):
        code = run(["align", "--src", tmp_path / "nope.vec", "--trg", tmp_path / "nope2.vec",
                    "--out", tmp_path / "run"])
        assert code == 1
        assert "nope.vec" in caplog.text

    def test_saves_hold_the_two_mapped_spaces(self, tmp_path, monkeypatch):
        # the preprocessed spaces stayed alive through the saves: four spaces
        n, d = 1000, 200
        write_corpus(tmp_path, n=n, d=d)
        held, save = [], cli.io.save_embeddings

        def traced_save(*args):
            held.append(tracemalloc.get_traced_memory()[0])
            return save(*args)

        monkeypatch.setattr(cli.io, "save_embeddings", traced_save)
        tracemalloc.start()
        try:
            run(["align", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                 "--out", tmp_path / "run", "--vocab-cutoff", "200", *FAST])
        finally:
            tracemalloc.stop()
        # beside the two spaces: the two d x d transforms, and 1 MiB for the
        # vocabularies and the dictionary (about 0.4 MB)
        assert len(held) == 2 and max(held) <= 2 * 8 * n * d + 2 * 8 * d * d + 1024**2, held

    def test_max_iterations_one_exits_2(self, tmp_path):
        write_corpus(tmp_path)
        code = run(["align", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--out", tmp_path / "run", "--max-iterations", "1", *FAST])
        assert code == 2


class TestRefine:
    def test_refine_through_files(self, tmp_path, capsys):
        write_corpus(tmp_path)
        out = tmp_path / "run"
        run(["align", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
             "--out", out, *FAST])
        capsys.readouterr()
        code = run(["refine", "--src", out / "src_mapped.vec", "--trg", out / "trg_mapped.vec",
                    "--dict", out / "induced_dict.txt", "--out", out])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "pairs_averaged=" in stdout
        _, refined = load_embeddings(out / "src_refined.vec")
        assert np.max(np.abs(np.linalg.norm(refined, axis=1) - 1)) < 1e-5

    def test_norm_iters_zero_is_averaging_only(self, tmp_path, capsys):
        # two-word spaces mirroring the midpoint example through the file
        # interface
        save_embeddings(Vocabulary(["a", "b"]),
                        np.array([[1.0, 0.0], [0.0, 1.0]]), tmp_path / "src.vec")
        save_embeddings(Vocabulary(["A", "B"]),
                        np.array([[0.0, 1.0], [1.0, 0.0]]), tmp_path / "trg.vec")
        (tmp_path / "dict.txt").write_text("a A\n")
        code = run(["refine", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--dict", tmp_path / "dict.txt", "--out", tmp_path / "out",
                    "--norm-iters", "0"])
        assert code == 0
        _, x = load_embeddings(tmp_path / "out" / "src_refined.vec")
        _, z = load_embeddings(tmp_path / "out" / "trg_refined.vec")
        np.testing.assert_allclose(x[0], [0.5, 0.5], atol=1e-6)
        np.testing.assert_allclose(z[0], [0.5, 0.5], atol=1e-6)

    def test_antipodal_pair_errors(self, tmp_path, caplog):
        save_embeddings(Vocabulary(["a"]), np.array([[1.0, 0.0]]), tmp_path / "src.vec")
        save_embeddings(Vocabulary(["A"]), np.array([[-1.0, 0.0]]), tmp_path / "trg.vec")
        (tmp_path / "dict.txt").write_text("a A\n")
        code = run(["refine", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--dict", tmp_path / "dict.txt", "--out", tmp_path / "out",
                    "--norm-iters", "5"])
        assert code == 1
        assert "zero vector" in caplog.text


class TestInduce:
    def test_identical_spaces(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((20, 6))
        for name, words in (("src.vec", "s"), ("trg.vec", "t")):
            save_embeddings(Vocabulary([f"{words}{i}" for i in range(20)]), m, tmp_path / name)
        code = run(["induce", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--out", tmp_path / "out", "--retrieval", "nn", "--direction", "forward"])
        assert code == 0
        pairs = (tmp_path / "out" / "induced_dict.txt").read_text().splitlines()
        assert pairs == [f"s{i} t{i}" for i in range(20)]


class TestEvaluate:
    def test_reports_and_compare(self, tmp_path, capsys):
        write_corpus(tmp_path, seed=1)
        base = tmp_path / "base"
        code = run(["evaluate", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--gold", tmp_path / "gold.txt", "--out", base,
                    "--retrieval", "nn", "--name", "baseline"])
        assert code == 0
        out = capsys.readouterr().out
        assert "baseline.1=" in out
        payload = json.loads((base / "eval.json").read_text())
        assert list(payload) == ["name", "precision_at", "evaluated_sources", "oov_sources"]
        assert payload["name"] == "baseline" and list(payload["precision_at"]) == ["1", "5", "10"]
        code = run(["evaluate", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--gold", tmp_path / "gold.txt", "--retrieval", "nn",
                    "--compare", base])
        assert code == 0
        table = capsys.readouterr().out.splitlines()[-3:]
        assert table[0].split() == ["system", "P@1", "Δ@1", "P@5", "Δ@5", "P@10", "Δ@10"]
        # the same run read back: every delta of both rows is zero
        for row, name in zip(table[1:], ("system", "baseline")):
            cells = row.split()
            assert cells[0] == name and cells[2::2] == ["+0.00"] * 3

    @pytest.mark.parametrize("payload, error", [
        (None, "No such file or directory: '{}'"),
        ('{"precision_at": {"1": 0.5}, "evaluated_sources": 2, "oov_sources": 0}',
         "{} has no key 'name'"),
        ('{"name": "b", "precision_at": {"1": 0.5}, "oov_sources": 0}',
         "{} has no key 'evaluated_sources'"),
        ('["name"]', "{} has no key 'name'"),
        ('{"name": "b", "precision_at": [0.5], "evaluated_sources": 2, "oov_sources": 0}',
         "{}: 'precision_at' is not an object"),
        ('{"name": ', "{} is not JSON: "),
        # raised the bare "invalid literal for int() with base 10: 'one'"
        ('{"name": "b", "precision_at": {"one": 0.5}, "evaluated_sources": 2, "oov_sources": 0}',
         "{}: 'precision_at' key 'one' is not an integer"),
        ('{"name": "b", "precision_at": {"1": "half"}, "evaluated_sources": 2, "oov_sources": 0}',
         "{}: 'precision_at' value 'half' is not a real number"),
        # was found only after the report was printed and eval.json written
        ('{"name": "b", "precision_at": {"1": 0.5, "3": 0.7}, "evaluated_sources": 2, '
         '"oov_sources": 0}', "{} has k set [1, 3], not ks [1, 5, 10]: all reports must share"),
    ], ids=["missing", "no-name", "no-evaluated-sources", "not-an-object", "list-precision",
            "not-json", "non-integer-k", "non-real-value", "other-k-set"])
    def test_bad_baseline_fails_before_evaluating(self, tmp_path, capsys, caplog, payload, error):
        # a baseline without "name" ended in the error "'name'", after the
        # results were printed and eval.json was written
        write_corpus(tmp_path, seed=1)
        base = tmp_path / "base"
        base.mkdir()
        if payload is not None:
            (base / "eval.json").write_text(payload)
        code = run(["evaluate", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--gold", tmp_path / "gold.txt", "--out", tmp_path / "run",
                    "--compare", base])
        assert code == 1
        assert error.format(base / "eval.json") in caplog.text
        assert capsys.readouterr().out == ""
        assert not (tmp_path / "run").exists()

    def test_baseline_of_the_same_name_is_suffixed(self, tmp_path, capsys):
        write_corpus(tmp_path, seed=1)
        args = ["evaluate", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                "--gold", tmp_path / "gold.txt", "--retrieval", "nn", "--name", "run"]
        assert run(args + ["--out", tmp_path / "base"]) == 0
        assert run(args + ["--compare", tmp_path / "base"]) == 0
        rows = capsys.readouterr().out.splitlines()[-2:]
        assert [row.split()[0] for row in rows] == ["run", "run-baseline"]


class TestPipeline:
    def test_library_sequence_gives_the_pipeline_bits(self, tmp_path, monkeypatch):
        # map_src and map_trg took the whole product m @ w while the CLI maps
        # 256 rows at a time: at 600 x 50 the two differed in the last bits
        write_corpus(tmp_path, n=600, d=50)
        src, trg, gold_path = (str(tmp_path / name) for name in ("src.vec", "trg.vec", "gold.txt"))
        saved, reports = {}, []
        save, score = xlalign.io.save_embeddings, xlalign.evaluate.precision_at_k

        def spy_save(vocab, emb, path):
            saved[os.path.basename(path)] = emb.copy()  # refined in place after the save
            return save(vocab, emb, path)

        monkeypatch.setattr(xlalign.io, "save_embeddings", spy_save)
        monkeypatch.setattr(xlalign.evaluate, "precision_at_k",
                            lambda *a, **kw: reports.append(score(*a, **kw)) or reports[-1])
        run(["pipeline", "--src", src, "--trg", trg, "--gold", gold_path,
             "--out", tmp_path / "run", "--stall-patience", "3", "--reweight"])
        monkeypatch.undo()

        # README "Library"
        src_vocab, x = xlalign.load_embeddings(src)
        trg_vocab, z = xlalign.load_embeddings(trg)
        x, z = xlalign.preprocess(x), xlalign.preprocess(z)
        result = xlalign.align(x, z, xlalign.MappingConfig(stall_patience=3, reweight=True))
        xw, zw = result.map_src(x), result.map_trg(z)
        mapped = xw.copy(), zw.copy()
        refined = xlalign.refine_pipeline(xw, zw, result.dictionary, copy=False)
        gold = xlalign.load_gold_dictionary(gold_path, src_vocab, trg_vocab)
        report = xlalign.precision_at_k(refined.x_refined, refined.z_refined, gold,
                                        ks=(1, 5, 10), method="csls")

        expected = dict(zip(("src_mapped.vec", "trg_mapped.vec", "src_refined.vec",
                             "trg_refined.vec"), (*mapped, refined.x_refined, refined.z_refined)))
        assert saved.keys() == expected.keys()
        for name, emb in expected.items():
            assert saved[name].tobytes() == emb.tobytes(), name
        assert reports == [report]

    def test_end_to_end(self, tmp_path, capsys, monkeypatch, caplog):
        caplog.set_level(logging.INFO, logger="xlalign")
        write_corpus(tmp_path)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        out = tmp_path / "run"
        code = run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--gold", tmp_path / "gold.txt", "--out", out, *FAST])
        assert code == 0
        stdout = capsys.readouterr().out
        p1 = float(next(l for l in stdout.splitlines() if l.startswith("system.1=")).split("=")[1])
        assert p1 >= 0.95
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["converged"] is True
        assert {"align_s", "refine_s", "evaluate_s"} <= set(manifest["timings"])
        assert manifest["versions"]["xlalign"]
        assert manifest["thread_env"] == {
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": None, "MKL_NUM_THREADS": None}
        # the refinement's pairs and both normalization reports, also logged
        refined = manifest["refine"]
        assert refined["pairs_averaged"] == len((out / "induced_dict.txt").read_text().splitlines())
        for side in ("src_norm_report", "trg_norm_report"):
            report = refined[side]
            assert set(report) == {"iterations_run", "max_row_norm_deviation",
                                   "max_center_magnitude"}
            assert 1 <= report["iterations_run"] <= 5
            assert report["max_row_norm_deviation"] >= 0 and report["max_center_magnitude"] >= 0
        assert f'refined: {json.dumps(refined)}' in caplog.text

    def test_flagless_manifest_records_every_config_setting(self, tmp_path):
        # the manifest held only the settings given, and seed and reweight
        write_corpus(tmp_path, n=12, d=4)
        run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
             "--gold", tmp_path / "gold.txt", "--out", tmp_path / "run"])
        settings = json.loads((tmp_path / "run" / "manifest.json").read_text())["settings"]
        for cls in (MappingConfig, RefinementConfig):
            for field in dataclasses.fields(cls):
                assert settings[field.name] == field.default, field.name

    def test_help_shows_config_defaults(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["pipeline", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        for flag, default in (("--vocab-cutoff", MappingConfig.vocab_cutoff),
                              ("--keep-prob", MappingConfig.keep_prob),
                              ("--norm-iters", RefinementConfig.norm_iters)):
            # the flag's entry below the usage line, up to the next flag
            entry = text.rsplit(f"{flag} ", 1)[1].split(" --")[0]
            assert entry.endswith(f"(default {default})"), entry

    def test_help_shows_ks_as_the_flag_takes_it(self, capsys):
        # the default printed as a Python tuple, (default (1, 5, 10))
        with pytest.raises(SystemExit):
            cli.main(["pipeline", "--help"])
        text = " ".join(capsys.readouterr().out.split())
        assert "comma-separated k values (default 1,5,10)" in text

    def test_flagless_manifest_records_max_vocab_as_null(self, tmp_path):
        # the manifest left max_vocab out, so it did not say every word was loaded
        write_corpus(tmp_path, n=12, d=4)
        run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
             "--gold", tmp_path / "gold.txt", "--out", tmp_path / "run"])
        settings = json.loads((tmp_path / "run" / "manifest.json").read_text())["settings"]
        assert "max_vocab" in settings and settings["max_vocab"] is None

    def test_mapping_and_refinement_hold_two_spaces(self, tmp_path, monkeypatch):
        # mapping held a third space (each preprocessed space while its product
        # was made) and refinement a third and a fourth (the mapped spaces and
        # their products with the refinement maps)
        n, d = 4000, 100
        write_corpus(tmp_path, n=n, d=d)
        held, peaks = [], {}
        align, refine_pipeline, save = (cli.mapping.align, cli.refine.refine_pipeline,
                                        cli.io.save_embeddings)

        def traced_align(*args):
            result = align(*args)
            held.append(tracemalloc.get_traced_memory()[0])  # the two spaces and the rest
            tracemalloc.reset_peak()
            return result

        def traced_save(*args):
            peaks.setdefault("mapping", tracemalloc.get_traced_memory()[1])
            return save(*args)

        def traced_refine(*args, **kwargs):
            tracemalloc.reset_peak()
            refined = refine_pipeline(*args, **kwargs)
            peaks["refine"] = tracemalloc.get_traced_memory()[1]
            return refined

        monkeypatch.setattr(cli.mapping, "align", traced_align)
        monkeypatch.setattr(cli.io, "save_embeddings", traced_save)
        monkeypatch.setattr(cli.refine, "refine_pipeline", traced_refine)
        tracemalloc.start()
        try:
            run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                 "--gold", tmp_path / "gold.txt", "--out", tmp_path / "run",
                 "--vocab-cutoff", "200", *FAST])
        finally:
            tracemalloc.stop()
        # above what is held once aligned: one 256-row tile (0.2 MB), and
        # 1.5 MiB for the refinement's two 256-pair gathers and d x d sums
        # (about 1.1 MB); a third space is 3.2 MB
        bound = held[0] + 8 * 256 * d + 1536 * 1024
        assert peaks.keys() == {"mapping", "refine"}
        assert max(peaks.values()) <= bound, (held, peaks, bound)

    def test_eight_word_pair_at_the_default_csls_k(self, tmp_path, capsys):
        # the alignment's refit, then evaluation, raised for csls k=10 with 8
        # words: every CSLS k is capped at one less than the smaller vocabulary
        write_corpus(tmp_path, n=8, d=4)
        code = run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--gold", tmp_path / "gold.txt", "--out", tmp_path / "run", "--ks", "1,5"])
        assert code in (0, 2)
        assert "system.5=" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [["pipeline", "--gold", "c"], ["refine", "--dict", "d"]])
    def test_bad_refinement_setting_fails_before_loading(self, tmp_path, caplog, monkeypatch,
                                                         command):
        # the pipeline checked the refinement config after aligning
        monkeypatch.setattr(cli, "_load_pair", no_load)
        code = run([*command, "--src", "a", "--trg", "b", "--out", tmp_path / "run",
                    "--norm-iters", "-1"])
        assert code == 1
        assert "norm_iters must be >= 0" in caplog.text

    def test_skip_refine_matches_align_plus_evaluate(self, tmp_path, capsys):
        write_corpus(tmp_path)
        out1, out2 = tmp_path / "p", tmp_path / "a"
        run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
             "--gold", tmp_path / "gold.txt", "--out", out1, "--skip-refine", *FAST])
        pipe_out = capsys.readouterr().out
        run(["align", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
             "--out", out2, *FAST])
        capsys.readouterr()
        run(["evaluate", "--src", out2 / "src_mapped.vec", "--trg", out2 / "trg_mapped.vec",
             "--gold", tmp_path / "gold.txt"])
        eval_out = capsys.readouterr().out
        # mapped artifacts and metrics are bitwise identical
        assert (out1 / "src_mapped.vec").read_bytes() == (out2 / "src_mapped.vec").read_bytes()
        assert (out1 / "trg_mapped.vec").read_bytes() == (out2 / "trg_mapped.vec").read_bytes()
        pipe_metrics = [l for l in pipe_out.splitlines() if l.startswith("system.")]
        assert pipe_metrics == [l for l in eval_out.splitlines() if l.startswith("system.")]
        assert "refine" not in json.loads((out1 / "manifest.json").read_text())

    def test_rerun_identical(self, tmp_path, capsys):
        write_corpus(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            run(["pipeline", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                 "--gold", tmp_path / "gold.txt", "--out", tmp_path / name,
                 "--seed", "123", *FAST])
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        m1 = json.loads((tmp_path / "r1" / "manifest.json").read_text())
        m2 = json.loads((tmp_path / "r2" / "manifest.json").read_text())
        assert m1["precision_at"] == m2["precision_at"]
        assert m1["objective"] == m2["objective"]

    def test_numpy_ma_is_not_imported(self, tmp_path):
        # np.unique imports numpy.ma on its first call, about 16 ms and 0.9 MB
        # in every pipeline process; a fresh process shows what a run imports
        write_corpus(tmp_path, n=100)
        argv = ["pipeline", "--src", str(tmp_path / "src.vec"), "--trg",
                str(tmp_path / "trg.vec"), "--gold", str(tmp_path / "gold.txt"),
                "--out", str(tmp_path / "run"), *FAST]
        script = ("import sys\nfrom xlalign import cli\n"
                  f"assert cli.main({argv!r}) == 0\n"
                  "assert 'numpy.ma' not in sys.modules, 'numpy.ma imported'\n")
        src = str(Path(xlalign.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
        done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr


class TestConfigFile:
    def test_config_file_and_cli_override(self, tmp_path, capsys):
        write_corpus(tmp_path)
        config = tmp_path / "run.ini"
        config.write_text(
            "[paths]\n"
            f"src = {tmp_path / 'src.vec'}\n"
            f"trg = {tmp_path / 'trg.vec'}\n"
            f"gold = {tmp_path / 'gold.txt'}\n"
            "[mapping]\n"
            "stall-patience = 3\n"
            "csls-k = 5\n"
            "seed = 7\n"
        )
        out = tmp_path / "run"
        code = run(["pipeline", "--config", config, "--out", out])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 7
        # CLI flag wins over the config file
        capsys.readouterr()
        code = run(["pipeline", "--config", config, "--out", tmp_path / "run2", "--seed", "9"])
        assert code == 0
        manifest = json.loads((tmp_path / "run2" / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_every_config_field_key_reaches_its_config(self, tmp_path):
        # one non-default value per settings key that names a config field
        values = {
            "vocab_cutoff": 123, "csls_k": 4, "keep_prob": 0.25, "stall_patience": 6,
            "max_iterations": 77, "direction": "backward", "seed": 5, "reweight": True,
            "norm_iters": 3, "norm_tol": 0.0005,
        }
        defaults = {f.name: f.default for cls in (MappingConfig, RefinementConfig)
                    for f in dataclasses.fields(cls)}
        assert cli._INI_KEYS & defaults.keys() == set(values)
        config = tmp_path / "run.ini"
        config.write_text("[run]\n" + "".join(
            f"{key.replace('_', '-')} = {value}\n" for key, value in values.items()))
        settings = cli.resolve_settings(
            cli.build_parser().parse_args(["pipeline", "--config", str(config)]))
        mapping_cfg = cli._config_from(MappingConfig, settings)
        refine_cfg = cli._config_from(RefinementConfig, settings)
        for key, value in values.items():
            cfg = mapping_cfg if hasattr(mapping_cfg, key) else refine_cfg
            assert defaults[key] != value
            assert getattr(cfg, key) == value, key

    def test_missing_config_file(self, tmp_path, caplog, monkeypatch):
        monkeypatch.setattr(cli, "_load_pair", no_load)
        missing = tmp_path / "none.ini"
        args = ["align", "--config", missing, "--src", "a", "--trg", "b", "--out", "c"]
        assert run(args) == 1
        assert f"config file not found: {missing}" in caplog.text
        # -vv re-raises the error for its traceback
        with pytest.raises(FileNotFoundError, match="^config file not found: "):
            run(args + ["-vv"])

    def test_unknown_config_key(self, tmp_path, caplog):
        config = tmp_path / "bad.ini"
        config.write_text("[paths]\nbogus = 1\n")
        code = run(["align", "--config", config, "--src", "a", "--trg", "b", "--out", "c"])
        assert code == 1
        assert "bogus" in caplog.text

    def test_default_section_is_read_and_checked(self, tmp_path, caplog, monkeypatch):
        # configparser keeps [DEFAULT] out of sections(), so a file with only
        # that section was read as empty
        config = tmp_path / "run.ini"
        config.write_text("[DEFAULT]\nseed = 5\n")
        settings = cli.resolve_settings(
            cli.build_parser().parse_args(["pipeline", "--config", str(config)]))
        assert settings["seed"] == 5
        monkeypatch.setattr(cli, "_load_pair", no_load)
        config.write_text("[DEFAULT]\nbogus = 1\n")
        code = run(["align", "--config", config, "--src", "a", "--trg", "b", "--out", "c"])
        assert code == 1
        assert f"unknown config key 'bogus' in {config}" in caplog.text

    def test_conflict_policy_is_an_unknown_key(self, tmp_path, caplog, monkeypatch):
        # refinement fits its maps to every pair, so there is no policy to set
        monkeypatch.setattr(cli, "_load_pair", no_load)
        config = tmp_path / "old.ini"
        config.write_text("[refine]\nconflict_policy = mutual-only\n")
        code = run(["refine", "--config", config, "--src", "a", "--trg", "b", "--out", "c",
                    "--dict", "d"])
        assert code == 1
        assert "unknown config key 'conflict_policy'" in caplog.text

    def test_config_booleans_take_configparser_spellings(self, tmp_path):
        config = tmp_path / "run.ini"
        for text, expected in (("on", True), ("Yes", True), ("0", False), ("off", False)):
            config.write_text(f"[mapping]\nreweight = {text}\nskip-refine = {text}\n")
            settings = cli.resolve_settings(
                cli.build_parser().parse_args(["pipeline", "--config", str(config)]))
            assert settings["reweight"] is expected and settings["skip_refine"] is expected

    @pytest.mark.parametrize("line, words", [
        ("reweight = ture", ["'reweight'", "'ture'", "true"]),
        ("direction = sideways", ["'direction'", "'sideways'", "union"]),
        ("seed = abc", ["'seed'", "'abc'", "int"]),
        ("norm-tol = small", ["'norm_tol'", "'small'", "float"]),
    ])
    def test_bad_config_value_fails_before_loading(self, tmp_path, caplog, monkeypatch, line,
                                                   words):
        def no_load(*args):
            raise AssertionError("embeddings loaded")

        monkeypatch.setattr(cli, "_load_pair", no_load)
        config = tmp_path / "bad.ini"
        config.write_text(f"[run]\n{line}\n")
        code = run(["pipeline", "--config", config, "--src", "a", "--trg", "b",
                    "--gold", "g", "--out", tmp_path / "run"])
        assert code == 1
        for word in [*words, str(config)]:
            assert word in caplog.text

    def test_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        write_corpus(tmp_path)
        config = tmp_path / "run.ini"
        config.write_text("[refine]\ndict_path = x\nnorm-iters = 2\n[evaluate]\nname = other\n"
                          "[align]\nstall-patience = 3\nreweight = yes\n")
        code = run(["evaluate", "--config", config, "--src", tmp_path / "src.vec",
                    "--trg", tmp_path / "trg.vec", "--gold", tmp_path / "gold.txt",
                    "--retrieval", "nn"])
        assert code == 0
        assert "other.1=" in capsys.readouterr().out


# every flag of each subcommand, in help order
FLAGS = {
    "align": ["--src", "--trg", "--out", "--config", "--max-vocab", "-v", "--verbose",
              "--seed", "--csls-k", "--vocab-cutoff", "--direction", "--keep-prob",
              "--stall-patience", "--max-iterations", "--reweight"],
    "refine": ["--src", "--trg", "--out", "--config", "--max-vocab", "-v", "--verbose",
               "--dict", "--norm-iters", "--norm-tol"],
    "induce": ["--src", "--trg", "--out", "--config", "--max-vocab", "-v", "--verbose",
               "--csls-k", "--retrieval", "--direction"],
    "evaluate": ["--src", "--trg", "--out", "--config", "--max-vocab", "-v", "--verbose",
                 "--csls-k", "--gold", "--ks", "--retrieval", "--name", "--compare"],
    "pipeline": ["--src", "--trg", "--out", "--config", "--max-vocab", "-v", "--verbose",
                 "--seed", "--csls-k", "--vocab-cutoff", "--direction", "--keep-prob",
                 "--stall-patience", "--max-iterations", "--reweight",
                 "--norm-iters", "--norm-tol",
                 "--gold", "--ks", "--retrieval", "--skip-refine"],
}


class TestFlags:
    def test_each_subcommand_takes_its_pinned_flags(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        assert set(commands) == set(FLAGS)
        for command, sub in commands.items():
            flags = [flag for action in sub._actions if action.dest != "help"
                     for flag in action.option_strings]
            assert flags == FLAGS[command], command

    @pytest.mark.parametrize("command, flag", [
        ("align", "--norm-iters"), ("align", "--retrieval"),
        ("refine", "--seed"), ("refine", "--csls-k"), ("refine", "--vocab-cutoff"),
        ("refine", "--retrieval"),
        ("induce", "--seed"), ("induce", "--vocab-cutoff"), ("induce", "--norm-iters"),
        ("evaluate", "--seed"), ("evaluate", "--vocab-cutoff"), ("evaluate", "--norm-iters"),
    ])
    def test_flag_the_subcommand_does_not_read_exits_2(self, command, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--src", "a", "--trg", "b", "--out", "c",
                      flag, "nn" if flag == "--retrieval" else "3"])
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err


    @pytest.mark.parametrize("command, missing", [
        ("align", "trg, out"), ("refine", "trg, out, dict_path"), ("induce", "trg, out"),
        ("evaluate", "trg, gold"), ("pipeline", "trg, out, gold"),
    ])
    def test_missing_required_settings_exit_1_before_loading(self, command, missing, caplog,
                                                            monkeypatch):
        monkeypatch.setattr(cli, "_load_pair", no_load)
        assert cli.main([command, "--src", "a"]) == 1
        assert f"missing required settings: {missing}" in caplog.text


def no_load(*args):
    raise AssertionError("embeddings loaded")


class TestIntegerSettings:
    @pytest.mark.parametrize("command, flag, value", [
        ("induce", "--csls-k", "0"), ("evaluate", "--csls-k", "0"),
        ("evaluate", "--ks", "a,b"), ("evaluate", "--ks", "1,0"), ("pipeline", "--ks", "1,,5"),
    ])
    def test_bad_flag_exits_2_before_loading(self, command, flag, value, capsys, monkeypatch):
        monkeypatch.setattr(cli, "_load_pair", no_load)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([command, "--src", "a", "--trg", "b", "--out", "c", "--retrieval", "csls",
                      flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("command, line, key", [
        ("induce", "csls-k = 0", "'csls_k'"), ("evaluate", "csls_k = -3", "'csls_k'"),
        ("evaluate", "ks = 1,x", "'ks'"), ("pipeline", "ks = 0", "'ks'"),
    ])
    def test_bad_config_value_exits_1_before_loading(self, tmp_path, caplog, monkeypatch,
                                                     command, line, key):
        monkeypatch.setattr(cli, "_load_pair", no_load)
        config = tmp_path / "bad.ini"
        config.write_text(f"[run]\n{line}\n")
        code = run([command, "--config", config, "--src", "a", "--trg", "b",
                    "--out", tmp_path / "run"])
        assert code == 1
        assert key in caplog.text and str(config) in caplog.text

    def test_ks_from_flag_and_config(self, tmp_path, capsys):
        write_corpus(tmp_path, n=50)
        config = tmp_path / "run.ini"
        config.write_text("[evaluate]\nks = 3, 1\n")
        args = ["evaluate", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                "--gold", tmp_path / "gold.txt", "--retrieval", "nn", "--config", config]
        for extra, ks in (([], ["1", "3"]), (["--ks", "2"], ["2"])):
            assert run(args + extra) == 0
            keys = [l.split("=")[0] for l in capsys.readouterr().out.splitlines()]
            assert [key for key in keys if key[-1].isdigit()] == [f"system.{k}" for k in ks]
