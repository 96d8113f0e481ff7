import dataclasses
import json

import numpy as np
import pytest

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

    def test_missing_input_exits_1(self, tmp_path, caplog):
        code = run(["align", "--src", tmp_path / "nope.vec", "--trg", tmp_path / "nope2.vec",
                    "--out", tmp_path / "run"])
        assert code == 1
        assert "nope.vec" in caplog.text

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
        assert (base / "eval.json").exists()
        code = run(["evaluate", "--src", tmp_path / "src.vec", "--trg", tmp_path / "trg.vec",
                    "--gold", tmp_path / "gold.txt", "--retrieval", "nn",
                    "--compare", base])
        assert code == 0
        table = capsys.readouterr().out
        assert "P@1" in table and "baseline" in table


class TestPipeline:
    def test_end_to_end(self, tmp_path, capsys):
        write_corpus(tmp_path)
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
            "norm_iters": 3, "norm_tol": 0.0005, "conflict_policy": "mutual-only",
        }
        defaults = {f.name: f.default for cls in (MappingConfig, RefinementConfig)
                    for f in dataclasses.fields(cls)}
        exposed = {key for key in cli._CONFIG_KEYS
                   if cli._FIELD_ALIASES.get(key, key) in defaults}
        assert exposed == set(values)
        config = tmp_path / "run.ini"
        config.write_text("[run]\n" + "".join(
            f"{key.replace('_', '-')} = {value}\n" for key, value in values.items()))
        settings = cli.resolve_settings(
            cli.build_parser().parse_args(["pipeline", "--config", str(config)]))
        mapping_cfg, refine_cfg = cli._mapping_config(settings), cli._refine_config(settings)
        for key, value in values.items():
            name = cli._FIELD_ALIASES.get(key, key)
            cfg = mapping_cfg if hasattr(mapping_cfg, name) else refine_cfg
            assert defaults[name] != value
            assert getattr(cfg, name) == value, key

    def test_unknown_config_key(self, tmp_path, caplog):
        config = tmp_path / "bad.ini"
        config.write_text("[paths]\nbogus = 1\n")
        code = run(["align", "--config", config, "--src", "a", "--trg", "b", "--out", "c"])
        assert code == 1
        assert "bogus" in caplog.text
