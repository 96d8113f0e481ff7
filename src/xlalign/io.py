"""Reading and writing embedding files and bilingual dictionaries.

Embedding files use the text word2vec layout: a "n d" header line followed
by one "word x_1 ... x_d" line per word; later rows are ignored. Dictionary
files hold one "src_word trg_word" pair per line; blank lines are skipped.
Files are UTF-8 text split on whitespace, and a missing, undecodable or
malformed one raises ``FormatError``. All matrices are float64.
"""
from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import ContractError, FormatError

# A bilingual dictionary is an ordered list of (source-index, target-index)
# pairs; modules pass it around as plain tuples.
BilingualDictionary = list[tuple[int, int]]


@dataclass
class Vocabulary:
    """Ordered word list with word -> 0-based index lookup."""

    words: list[str]
    index: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ContractError("vocabulary contains duplicate words")
        bad = [w for w in self.words if w.split() != [w]]
        if bad:
            raise ContractError(f"vocabulary word {bad[0]!r} is not one whitespace-free token")

    def __len__(self):
        return len(self.words)

    def __contains__(self, word):
        return word in self.index


@dataclass
class GoldDictionary:
    """Gold translations for evaluation: source index -> set of target indices."""

    entries: dict[int, set[int]]
    oov_sources: int


def _read_lines(path):
    """Yield ``(line number, tokens)`` of each line of a UTF-8 text file, closing
    it when the generator ends; a missing or undecodable file is a ``FormatError``."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"{path}: file not found") from None
    with fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                yield lineno, line.split()
        except UnicodeDecodeError:
            # no line number: the decoder reads ahead, so the failing line is unknown
            raise FormatError(
                f"{path}: not valid UTF-8 text; binary formats are not supported") from None


def load_embeddings(path, max_vocab=None):
    """Load a text-format embedding file.

    Returns ``(Vocabulary, matrix)`` where row i of the float64 matrix is the
    vector of word i. Duplicate words keep their first occurrence; at most
    ``max_vocab`` words are returned. Rows past the header's count are ignored.
    """
    if max_vocab is not None and max_vocab < 1:
        raise ContractError("max_vocab must be positive")
    path = Path(path)
    # closed explicitly: a traceback through this frame would keep it open
    with closing(_read_lines(path)) as lines:
        lineno, header = next(lines, (1, []))
        try:
            n, dim = map(int, header)
        except ValueError:
            raise FormatError(f"{path}: header must be two integers 'n d'", line=1) from None
        if n < 0 or dim < 1:
            raise FormatError(f"{path}: invalid header counts n={n} d={dim}", line=1)

        limit = n if max_vocab is None else min(n, max_vocab)
        vectors: dict[str, np.ndarray] = {}
        duplicates = 0
        for lineno, tokens in islice(lines, n):
            if len(tokens) != dim + 1:
                raise FormatError(
                    f"{path}: expected a word and {dim} values, got {len(tokens)} tokens",
                    line=lineno,
                )
            try:
                vec = np.array([float(t) for t in tokens[1:]], dtype=np.float64)
            except ValueError:
                raise FormatError(f"{path}: unparseable number", line=lineno) from None
            if not np.all(np.isfinite(vec)):
                raise FormatError(f"{path}: non-finite value", line=lineno)
            if tokens[0] in vectors:
                duplicates += 1
            else:
                vectors[tokens[0]] = vec
                if len(vectors) == limit:
                    break
    if len(vectors) < limit and lineno <= n:
        raise FormatError(f"{path}: file ends after {lineno - 1} rows, header declared {n}")
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate word(s), first occurrence kept")
    matrix = np.array(list(vectors.values()), dtype=np.float64) if vectors else np.zeros((0, dim))
    return Vocabulary(list(vectors)), matrix


def save_embeddings(vocab, emb, path):
    """Write vocabulary and matrix in the text format ``load_embeddings`` reads.

    Values are written with 9 significant digits, so a reload is within 1e-6
    of the original element-wise.
    """
    emb = np.asarray(emb)
    if len(vocab) != emb.shape[0]:
        raise ContractError(
            f"vocabulary size {len(vocab)} does not match matrix rows {emb.shape[0]}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.shape[0]} {emb.shape[1]}\n")
        for word, row in zip(vocab.words, emb):
            fh.write(word + " " + " ".join(f"{v:.9g}" for v in row) + "\n")


def _word_pairs(path):
    """Yield ``(src_word, trg_word)`` for each non-blank line of a word-pair file."""
    for lineno, tokens in _read_lines(path):
        if not tokens:
            continue
        if len(tokens) != 2:
            raise FormatError(
                f"{path}: expected 'src_word trg_word', got {len(tokens)} tokens",
                line=lineno,
            )
        yield tokens


def load_dictionary_pairs(path, src, trg):
    """Load a word-pair file as (source-index, target-index) pairs.

    Pairs with either word out of vocabulary are dropped (with a count
    warning); duplicates are kept once, first occurrence order preserved.
    """
    pairs: dict[tuple[int, int], None] = {}
    dropped = 0
    for sw, tw in _word_pairs(path):
        if sw in src and tw in trg:
            pairs[src.index[sw], trg.index[tw]] = None
        else:
            dropped += 1
    if dropped:
        warnings.warn(f"{path}: dropped {dropped} out-of-vocabulary pair(s)")
    return list(pairs)


def save_dictionary_pairs(pairs, src, trg, path):
    """Write (source-index, target-index) pairs as a word-pair file."""
    with open(path, "w", encoding="utf-8") as fh:
        for i, j in pairs:
            fh.write(f"{src.words[i]} {trg.words[j]}\n")


def load_gold_dictionary(path, src, trg):
    """Load a gold dictionary, grouping target words per source word.

    Source words absent from ``src`` are counted in ``oov_sources`` and
    dropped. Target words absent from ``trg`` are dropped from their source's
    set; a source whose set empties is dropped (logged, not counted as OOV).
    """
    entries: dict[int, set[int]] = {}
    oov_words: set[str] = set()
    emptied: set[str] = set()
    for sw, tw in _word_pairs(path):
        if sw not in src:
            oov_words.add(sw)
        elif tw not in trg:
            emptied.add(sw)
        else:
            entries.setdefault(src.index[sw], set()).add(trg.index[tw])
    emptied = {w for w in emptied if src.index[w] not in entries}
    if emptied:
        warnings.warn(
            f"{path}: {len(emptied)} gold source(s) dropped because all targets "
            "are out of the target vocabulary"
        )
    return GoldDictionary(entries=entries, oov_sources=len(oov_words))
