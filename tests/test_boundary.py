"""Public entry points that take an embedding space reject non-finite input at
the boundary, and none of them takes a score tile height."""
import dataclasses
import inspect

import numpy as np
import pytest

import xlalign
from xlalign.errors import ContractError
from xlalign.io import GoldDictionary

from conftest import make_rotated_pair

N = 30
CFG = xlalign.MappingConfig(vocab_cutoff=N)
GOLD = GoldDictionary({i: {i} for i in range(N)}, 0)
PAIRS = [(0, 0), (1, 1)]  # the bad row is in none: refinement used to copy its NaN out
BAD_ROW = 7

# call on the (source, target) spaces, and the names its errors give them;
# nn_retrieve takes one score matrix
BOUNDARY = {
    "align": (lambda x, z: xlalign.align(x, z, CFG), "x", "z"),
    "unsupervised_init": (lambda x, z: xlalign.unsupervised_init(x, z, CFG), "x", "z"),
    "self_learning_align": (lambda x, z: xlalign.self_learning_align(x, z, PAIRS, CFG),
                            "x", "z"),
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
    "average_vectors": (lambda x, z: xlalign.average_vectors(x, z, PAIRS),
                        "x_aligned", "z_aligned"),
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
