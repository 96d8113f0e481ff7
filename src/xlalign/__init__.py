"""Unsupervised cross-lingual word embedding alignment, refined by one linear
map per language toward the dictionary midpoints."""

__version__ = "0.1.0"

from .evaluate import EvalReport, compare_reports, precision_at_k
from .io import (
    BilingualDictionary,
    GoldDictionary,
    Vocabulary,
    load_embeddings,
    load_gold_dictionary,
    save_embeddings,
)
from .mapping import MappingConfig, MappingResult, align, procrustes_solve, self_learning_align, unsupervised_init
from .normalize import iterative_normalize, length_normalize, mean_center, preprocess
from .refine import RefinedSpaces, RefinementConfig, refine_pipeline
from .retrieval import cosine_block, csls_retrieve, induce_dictionary, nn_retrieve

__all__ = [
    "BilingualDictionary",
    "EvalReport",
    "GoldDictionary",
    "MappingConfig",
    "MappingResult",
    "RefinedSpaces",
    "RefinementConfig",
    "Vocabulary",
    "align",
    "compare_reports",
    "cosine_block",
    "csls_retrieve",
    "induce_dictionary",
    "iterative_normalize",
    "length_normalize",
    "load_embeddings",
    "load_gold_dictionary",
    "mean_center",
    "nn_retrieve",
    "precision_at_k",
    "preprocess",
    "procrustes_solve",
    "refine_pipeline",
    "save_embeddings",
    "self_learning_align",
    "unsupervised_init",
]
