import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "same_answers.py"
_SPEC = importlib.util.spec_from_file_location("same_answers", _PATH)
same_answers = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(same_answers)


def _record(corpus=0, **fields):
    record = {"workload": "bigvocab", "corpus": corpus, "exit_code": 0, "stdout": "aa",
              "files": {"induced_dict.txt": "bb"}, "iterations": 12, "converged": True,
              "objective": 0.75, "refine": {"pairs_averaged": 5000}}
    record.update(fields)
    return record


def _differences(tmp_path, a, b):
    paths = []
    for name, records in (("a.jsonl", a), ("b.jsonl", b)):
        path = tmp_path / name
        path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))
        paths.append(path)
    return same_answers.differences(*paths)


@pytest.mark.parametrize("b, found", [
    ([_record(), _record(1)], []),
    ([_record(objective=0.75 + same_answers.OBJECTIVE_TOL / 2), _record(1)], []),
    ([_record(objective=0.75 + 4 * same_answers.OBJECTIVE_TOL), _record(1)],
     [f"('bigvocab', 0): objective 0.75 vs {0.75 + 4 * same_answers.OBJECTIVE_TOL!r}"]),
    ([_record(objective=float("nan")), _record(1)], ["('bigvocab', 0): objective 0.75 vs nan"]),
    ([_record(files={"induced_dict.txt": "bb", "src_refined.vec": "cc", "trg_refined.vec": "dd"}),
      _record(1, stdout="ab", files={"eval.json": "ee"})],
     ["('bigvocab', 0): files differ: src_refined.vec, trg_refined.vec",
      "('bigvocab', 1): stdout differ", "('bigvocab', 1): files differ: eval.json, induced_dict.txt"]),
    ([_record()], ["('bigvocab', 1): only in one file"]),
], ids=["equal", "objective-within-tol", "objective-beyond-tol", "objective-nan", "file-hash",
        "corpus-missing"])
def test_differences_names_each_corpus_that_differs(tmp_path, b, found):
    assert _differences(tmp_path, [_record(), _record(1)], b) == found
