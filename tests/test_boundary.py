"""Public entry points that take an embedding space reject non-finite input at
the boundary, and none of them takes a score tile height. Every function that
takes a dictionary rejects a pair that is not two integer rows of its spaces,
and the self-learning loop one outside its cutoff rows."""
import dataclasses
import inspect
import os
import re

import numpy as np
import pytest

import xlalign
from xlalign.errors import ContractError, _require_finite
from xlalign.io import GoldDictionary, save_dictionary_pairs

from conftest import make_rotated_pair, traced_peak

N = 30
CFG = xlalign.MappingConfig(vocab_cutoff=N)
GOLD = GoldDictionary({i: {i} for i in range(N)}, 0)
PAIRS = [(0, 0), (1, 1)]  # the bad row is in none: refinement used to copy its NaN out
BAD_ROW = 7
WORDS = xlalign.Vocabulary([f"w{i}" for i in range(N)])

# call on the (source, target) spaces, and the names its errors give them;
# nn_retrieve takes one score matrix, and the normalize functions and
# save_embeddings one space
BOUNDARY = {
    "align": (lambda x, z: xlalign.align(x, z, CFG), "x", "z"),
    "unsupervised_init": (lambda x, z: xlalign.unsupervised_init(x, z, CFG), "x", "z"),
    "self_learning_align": (lambda x, z: xlalign.self_learning_align(x, z, PAIRS, CFG),
                            "x", "z"),
    "procrustes_solve": (xlalign.procrustes_solve, "x_pairs", "z_pairs"),
    "induce_dictionary-nn": (lambda x, z: xlalign.induce_dictionary(x, z, method="nn"),
                             "x_mapped", "z_mapped"),
    "induce_dictionary-csls": (lambda x, z: xlalign.induce_dictionary(x, z, method="csls"),
                               "x_mapped", "z_mapped"),
    "csls_retrieve": (xlalign.csls_retrieve, "x_mapped", "z_mapped"),
    "cosine_block": (xlalign.cosine_block, "queries", "candidates"),
    "nn_retrieve": (lambda x, z: xlalign.nn_retrieve(x), "sim", None),
    "precision_at_k-nn": (lambda x, z: xlalign.precision_at_k(x, z, GOLD, method="nn"),
                          "x_space", "z_space"),
    "precision_at_k-csls": (lambda x, z: xlalign.precision_at_k(x, z, GOLD, method="csls"),
                            "x_space", "z_space"),
    "refine_pipeline": (lambda x, z: xlalign.refine_pipeline(x, z, PAIRS),
                        "x_aligned", "z_aligned"),
    "length_normalize": (lambda x, z: xlalign.length_normalize(x), "emb", None),
    "mean_center": (lambda x, z: xlalign.mean_center(x), "emb", None),
    "iterative_normalize": (lambda x, z: xlalign.iterative_normalize(x), "emb", None),
    "preprocess": (lambda x, z: xlalign.preprocess(x), "emb", None),
    # checked before the file is opened, so nothing is written
    "save_embeddings": (lambda x, z: xlalign.save_embeddings(WORDS, x, os.devnull), "emb", None),
}
CASES = [(call, side) for call, (_, *names) in BOUNDARY.items()
         for side, name in zip("xz", names) if name is not None]


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call, side", CASES)
def test_non_finite_row_is_named(call, side, value):
    run, *names = BOUNDARY[call]
    x, z, _ = make_rotated_pair(n=N, d=4, seed=19)
    (x if side == "x" else z)[BAD_ROW, 2] = value
    name = names["xz".index(side)]
    with pytest.raises(ContractError, match=f"^{name} row {BAD_ROW} holds a non-finite value$"):
        run(x, z)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("call", BOUNDARY)
def test_finite_inputs_are_left_unchanged(call, dtype):
    # the package copies a space before it edits one in place
    run, *_ = BOUNDARY[call]
    x, z, _ = (m.astype(dtype) for m in make_rotated_pair(n=N, d=4, seed=19))
    before = x.tobytes(), z.tobytes()
    run(x, z)
    assert (x.tobytes(), z.tobytes()) == before


# call on the (source, target) spaces and a value of one numeric or bool parameter, the
# name its error gives that parameter, the kind the parameter must be, and
# values of another kind
NUMERIC = {
    "iterative_normalize-max_iters": (lambda x, z, v: xlalign.iterative_normalize(x, max_iters=v),
                                      "max_iters", "an integer", [2.5, "3", None]),
    "iterative_normalize-tol": (lambda x, z, v: xlalign.iterative_normalize(x, tol=v),
                                "tol", "a real number", ["x", None]),
    "csls_retrieve-k": (lambda x, z, v: xlalign.csls_retrieve(x, z, k=v),
                        "csls k", "an integer", [2.5, "3", True]),
    "induce_dictionary-k": (lambda x, z, v: xlalign.induce_dictionary(x, z, k=v),
                            "csls k", "an integer", [2.5, "3", True]),
    "precision_at_k-csls_k": (lambda x, z, v: xlalign.precision_at_k(x, z, GOLD, method="csls",
                                                                     csls_k=v),
                              "csls k", "an integer", [2.5, "3", True]),
    "precision_at_k-ks": (lambda x, z, v: xlalign.precision_at_k(x, z, GOLD, ks=(v,)),
                          "each of ks", "an integer", [1.5, "1", True]),
    "refine_pipeline-copy": (lambda x, z, v: xlalign.refine_pipeline(x, z, PAIRS, copy=v),
                             "copy", "a bool", [0, "no", None]),
}


@pytest.mark.parametrize("call, value", [(call, value) for call, (*_, values) in NUMERIC.items()
                                         for value in values])
def test_numeric_parameter_of_another_kind(call, value):
    # max_iters 2.5 ran to tolerance, k 2.5 raised numpy's "Partition index
    # must be integer" inside a score pass, ks (1.5,) reported P@1, a string
    # or None raised a raw TypeError, and True ran as 1
    run, name, kind, _ = NUMERIC[call]
    x, z, _ = make_rotated_pair(n=N, d=4, seed=19)
    message = f"{name} must be {kind}, got {value!r}"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        run(x, z, value)


def test_finite_check_makes_no_copy_of_the_matrix():
    # least and greatest values: np.isfinite of the matrix was n d bytes (200 KB)
    m = np.random.default_rng(20).standard_normal((2000, 100))
    assert _require_finite(m, "m") is m
    assert traced_peak(_require_finite, m, "m") < 4 * 1024


def test_no_block_size_parameter():
    # the score tile height is the constant retrieval.BLOCK_SIZE, not an option
    for name in xlalign.__all__:
        obj = getattr(xlalign, name)
        if inspect.isfunction(obj) or dataclasses.is_dataclass(obj):
            assert "block_size" not in inspect.signature(obj).parameters, name


@pytest.mark.parametrize("sim", [[0.1, 0.5], [[[0.1, 0.5]]]])
def test_nn_retrieve_rejects_a_non_matrix(sim):
    # a vector raised a raw IndexError
    with pytest.raises(ContractError, match="sim must be a matrix"):
        xlalign.nn_retrieve(sim)


@pytest.mark.parametrize("init, bad", [
    ([(1, 1), (-1, 0)], "(-1, 0)"),  # read the last cutoff row
    ([(N, 0), (1, 1)], f"({N}, 0)"),  # raised numpy's IndexError
    ([(0, 0), (2, N + 5)], f"(2, {N + 5})"),
    ([(0.5, 0), (1, 1)], "(0.5, 0)"),  # truncated to row 0
    ([(1, 1), (0, 0, 0)], "(0, 0, 0)"),  # raised numpy's unpacking ValueError
    ([(1, 1), (True, 0)], "(True, 0)"),
], ids=["negative", "at-cutoff", "past-cutoff", "float", "three-entries", "bool"])
def test_init_pair_outside_the_cutoff_rows(init, bad):
    x, z, _ = make_rotated_pair(n=N + 10, d=4, seed=19)
    message = f"init pair {bad} is not two rows in [0, {N}), the vocabulary cutoff"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        xlalign.self_learning_align(x, z, init, CFG)


def test_init_pairs_as_an_array():
    # an array init raised numpy's "truth value of an array is ambiguous"
    x, z, _ = make_rotated_pair(n=N, d=4, seed=19)
    want = xlalign.self_learning_align(x, z, PAIRS, CFG)
    got = xlalign.self_learning_align(x, z, np.array(PAIRS, dtype=np.int32), CFG)
    assert (got.dictionary, got.objective) == (want.dictionary, want.objective)
    with pytest.raises(ContractError, match="^initial dictionary must be non-empty$"):
        xlalign.self_learning_align(x, z, np.zeros((0, 2), dtype=np.int64), CFG)


# the calls that take a dictionary of N x N rows, given the file to write
DICTIONARY_CALLS = {
    "refine_pipeline": lambda x, z, pairs, out: xlalign.refine_pipeline(x, z, pairs),
    "save_dictionary_pairs": lambda x, z, pairs, out: save_dictionary_pairs(pairs, WORDS,
                                                                            WORDS, out),
}


@pytest.mark.parametrize("pair, bad", [
    ((-1, 0), "(-1, 0)"),  # save_dictionary_pairs wrote the last word
    ((0, N), f"(0, {N})"),
    ((0.5, 0), "(0.5, 0)"),  # raised numpy's IndexError
    ((0, 0, 0), "(0, 0, 0)"),  # raised numpy's unpacking ValueError
    (("a", 1), "(a, 1)"),  # raised a TypeError
    ((True, 1), "(True, 1)"),  # raised numpy's broadcast ValueError
    (0, "0"),
], ids=["negative", "past-end", "float", "three-entries", "word", "bool", "not-a-pair"])
@pytest.mark.parametrize("call", DICTIONARY_CALLS)
def test_dictionary_pair_outside_the_rows(call, pair, bad, tmp_path):
    x, z, _ = make_rotated_pair(n=N, d=4, seed=19)
    out = tmp_path / "dict.txt"
    rows = "word indices" if call == "save_dictionary_pairs" else "rows"
    message = f"dictionary pair {bad} is not two {rows} in [0, {N}) and [0, {N})"
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        DICTIONARY_CALLS[call](x, z, [(1, 1), pair, (N, N)], out)
    assert not out.exists()  # checked before the file is opened


@pytest.mark.parametrize("pairs", [
    [(0, 1), (2, 3)],
    [[0, 1], [2, 3]],
    [(np.int32(0), np.uint8(1)), (np.int64(2), 3)],
    np.array([[0, 1], [2, 3]], dtype=np.int16),
], ids=["tuples", "lists", "numpy-scalars", "array"])
@pytest.mark.parametrize("call", DICTIONARY_CALLS)
def test_integer_pairs_of_any_kind_are_taken_alike(call, pairs, tmp_path):
    x, z, _ = make_rotated_pair(n=N, d=4, seed=19)
    got, want = tmp_path / "got.txt", tmp_path / "want.txt"
    a = DICTIONARY_CALLS[call](x, z, pairs, got)
    b = DICTIONARY_CALLS[call](x, z, [(0, 1), (2, 3)], want)
    if call == "save_dictionary_pairs":
        assert got.read_bytes() == want.read_bytes() == b"w0 w1\nw2 w3\n"
    else:
        np.testing.assert_array_equal(a.x_refined, b.x_refined)


@pytest.mark.parametrize("call", DICTIONARY_CALLS)
def test_empty_dictionary_is_no_pairs(call, tmp_path):
    x, z, _ = make_rotated_pair(n=N, d=4, seed=19)
    out = tmp_path / "dict.txt"
    result = DICTIONARY_CALLS[call](x, z, [], out)
    if call == "save_dictionary_pairs":
        assert out.read_bytes() == b""
    else:
        assert result.pairs_averaged == 0
