"""Reading and writing embedding files and bilingual dictionaries.

Embedding files use the text word2vec layout: a "n d" header line followed
by one "word x_1 ... x_d" line per word; later rows are ignored. Dictionary
files hold one "src_word trg_word" pair per line; blank lines are skipped.
Files are UTF-8 text split on whitespace, and one that cannot be opened,
cannot be decoded or is malformed raises ``FormatError``. All matrices are
float64. Embedding values are parsed a tile of lines at a time by numpy's C
reader, and a tile it cannot parse exactly as ``float()`` would is parsed
one line at a time (``_parse_tile``).
"""
from __future__ import annotations

import warnings
from contextlib import closing
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .errors import (
    ContractError, FormatError, _require_finite, _require_kind, _require_pairs,
)

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
    """Yield each line of a UTF-8 text file, closing it when the generator
    ends; a file that cannot be opened (missing, a directory, unreadable) or
    decoded is a ``FormatError``."""
    try:
        fh = open(path, encoding="utf-8")
    except FileNotFoundError:
        raise FormatError(f"{path}: file not found") from None
    except OSError as e:
        raise FormatError(f"{path}: cannot open: {e.strerror or e}") from None
    with fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            # no line number: the decoder reads ahead, so the failing line is unknown
            raise FormatError(
                f"{path}: not valid UTF-8 text; binary formats are not supported") from None


def load_embeddings(path, max_vocab=None):
    """Load a text-format embedding file.

    Returns ``(Vocabulary, matrix)`` where row i of the float64 matrix is the
    vector of word i. Duplicate words keep their first occurrence; at most
    ``max_vocab`` words are returned, a positive integer (Python or numpy,
    not a bool) or None. Rows past the header's count are ignored.

    Rows are read ``_LOAD_ROWS`` lines at a time, and no more lines than
    could each add a word before the limit, so no line past the one that
    reaches it is read. Each tile is parsed by ``_parse_tile``.
    """
    if max_vocab is not None:
        _require_kind(max_vocab, "max_vocab", "an integer")
        if max_vocab < 1:
            raise ContractError("max_vocab must be positive")
    path = Path(path)
    # closed explicitly: a traceback through this frame would keep it open
    with closing(_read_lines(path)) as lines:
        try:
            n, dim = map(int, next(lines, "").split())
        except ValueError:
            raise FormatError(f"{path}: header must be two integers 'n d'", line=1) from None
        if n < 0 or dim < 1:
            raise FormatError(f"{path}: invalid header counts n={n} d={dim}", line=1)

        limit = n if max_vocab is None else min(n, max_vocab)
        # a row's line holds a word, d values each after a separator and a
        # line end, at least 2 d + 2 bytes (the header's line makes up for a
        # last line without its end): a header that overstates n allocates
        # no more rows than the file could hold
        rows = min(limit, path.stat().st_size // (2 * dim + 2)) if path.is_file() else limit
        matrix = np.empty((rows, dim))
        words: dict[str, None] = {}
        duplicates = 0
        lineno = 1  # the last line read
        while len(words) < limit:
            # each line split once: its word, then the rest
            heads = [line.split(None, 1) for line in islice(
                lines, min(_LOAD_ROWS, limit - len(words), n + 1 - lineno))]
            if not heads:
                break
            values = _parse_tile(heads, dim, path, lineno)
            lineno += len(heads)
            kept = []
            for i, head in enumerate(heads):
                if head[0] in words:
                    duplicates += 1
                else:
                    words[head[0]] = None
                    kept.append(i)
            matrix[len(words) - len(kept) : len(words)] = values[kept]
    if len(words) < limit and lineno <= n:
        raise FormatError(f"{path}: file ends after {lineno - 1} rows, header declared {n}")
    if duplicates:
        warnings.warn(f"{path}: dropped {duplicates} duplicate word(s), first occurrence kept")
    return Vocabulary(list(words)), matrix[: len(words)]


# embedding file lines parsed at a time: the tile's text, its rest strings
# and its values stay far below the loaded matrix. A 4000 x 200 file loaded
# as fast at 32 rows as at 64, 128 or 256, with the least peak of them
_LOAD_ROWS = 32


def _parse_tile(heads, dim, path, lineno):
    """The values of the lines after line ``lineno``, each split once into
    ``heads`` (``[word, rest]``), as a float64 matrix. numpy's C reader parses
    the rests; if it raises or warns, or gives another shape or a value that
    is not finite, each line is parsed by ``float()`` instead, which also
    takes tokens the C reader rejects (``1_0``, non-ASCII digits), and the
    first bad line raises ``FormatError`` naming it. Both split on the same
    whitespace and round every token alike."""
    if all(len(head) == 2 for head in heads):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                values = np.loadtxt([head[1] for head in heads], comments=None, ndmin=2)
            if values.shape == (len(heads), dim) and np.isfinite(values).all():
                return values
        except (ValueError, Warning):  # a token, a row length or an empty tile
            pass
    values = np.empty((len(heads), dim))
    for line, (head, row) in enumerate(zip(heads, values), start=lineno + 1):
        tokens = head[:1] + head[1].split() if len(head) == 2 else head
        if len(tokens) != dim + 1:
            raise FormatError(
                f"{path}: expected a word and {dim} values, got {len(tokens)} tokens",
                line=line,
            )
        try:
            row[:] = [float(t) for t in tokens[1:]]
        except ValueError:
            raise FormatError(f"{path}: unparseable number", line=line) from None
        if not np.isfinite(row).all():
            raise FormatError(f"{path}: non-finite value", line=line)
    return values


def save_embeddings(vocab, emb, path):
    """Write vocabulary and matrix in the text format ``load_embeddings`` reads.

    Every value is written exactly as C's ``%.9g`` writes it (9 significant
    digits, so a reload is within 1e-6 of the original element-wise), and
    lines end as text mode ends them on the platform. Rows are formatted
    ``_TILE_ROWS`` at a time with numpy (``_format_tile``), which falls back
    to Python's ``%`` for each value it cannot be sure of. A matrix that is
    not two-dimensional, has no columns or holds a NaN or infinity, which
    ``load_embeddings`` would reject, raises ContractError before the file is
    opened, naming the first bad row. A float32 matrix is checked as it is
    and cast to float64 one tile at a time, so it writes the bytes of its
    float64 cast without a float64 copy.
    """
    emb = _require_finite(emb, "emb")
    if len(vocab) != emb.shape[0]:
        raise ContractError(
            f"vocabulary size {len(vocab)} does not match matrix rows {emb.shape[0]}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{emb.shape[0]} {emb.shape[1]}\n")
        for start in range(0, emb.shape[0], _TILE_ROWS):
            # unnamed, so one tile's lines are freed before the next is formatted
            fh.write("".join(chain.from_iterable(zip(
                vocab.words[start : start + _TILE_ROWS], repeat(" "),
                _format_tile(emb[start : start + _TILE_ROWS].astype(np.float64, copy=False)),
                repeat("\n")))))


# rows of a matrix formatted at a time; the tile's buffer is 24 bytes a value
_TILE_ROWS = 256


@cache
def _digit_tables():
    """Byte tables of the fast path of ``_format_tile`` as little-endian
    integers, built on the first save rather than at import. Heads, 8 bytes
    each: "[-]0." + x - 1 zeros + first digit d, NUL-padded, at
    sign * 36 + (x - 1) * 9 + d - 1 for x in 1-4 and d in 1-9. Groups, 4
    bytes each: every group of 4 digits 0000-9999 with its trailing zeros as
    NUL, then every one in full at 10000 + the group."""
    heads = b"".join(f"{sign}0.{'0' * (x - 1)}{d}".encode().ljust(8, b"\0")
                     for sign in ("", "-") for x in range(1, 5) for d in range(1, 10))
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1) + ord("0")
    trailing_zero = np.stack([g % 10000, g % 1000, g % 100, g % 10], axis=1) == 0
    groups = np.concatenate([np.where(trailing_zero, 0, digits), digits]).astype(np.uint8)
    groups.flags.writeable = False  # shared by every save, as the heads' bytes are
    return np.frombuffer(heads, "<u8"), groups.view("<u4")[:, 0]


# 10^(8+x) at x - 1: scales a value with x leading zeros to a 9-digit mantissa
_SCALES = np.array([1e9, 1e10, 1e11, 1e12])


def _format_tile(tile):
    """The values of each row of the float64 matrix ``tile`` as ``"%.9g"``
    writes them, joined by spaces: one string per row.

    Each value gets a 24-byte slot of a buffer, which holds its field, NUL
    padding, and a space in the last byte unless the value ends its row; a
    last slot per row holds a newline. A value v with 1e-4 <= |v| < 1 and
    x leading zeros (x in 1-4) is written "[-]0." + x - 1 zeros + the 9
    digits of m = rint(|v| 10^(8+x)), less trailing zeros. The power is
    exact and the product within half an ulp (6e-8) of the exact one, so m
    is the correctly rounded mantissa unless the product is within 1e-6 of a
    tie. The field is put together from ``_digit_tables`` by the sign, x,
    m's first digit and its two 4-digit groups. Near ties, values that round
    up into the next decade (m = 10^9) and every value outside the range
    (0, |v| >= 1, |v| < 1e-4) are formatted by ``"%.9g" %`` one at a time.
    Deleting the NULs leaves the lines, which are split at the newlines.
    """
    heads, groups = _digit_tables()
    rows, d = tile.shape
    a = np.abs(tile)
    fast = (a >= 1e-4) & (a < 1.0)
    a[~fast] = 0.5  # any value of the range: the product below cannot overflow
    x = (a < 0.1).view(np.int8) + (a < 0.01).view(np.int8) + (a < 0.001).view(np.int8)
    a *= _SCALES[x]
    m = np.rint(a)
    a -= m  # exact: the product's distance to its nearest integer, at most 1/2
    fast &= (np.abs(a) < 0.5 - 1e-6) & (m < 1e9)
    m[~fast] = 1e8  # any 9-digit mantissa: it only indexes the tables
    # the groups of m split in float64: each quotient lies at least 1e-4
    # from the next integer, far beyond its rounding error
    np.floor(np.multiply(m, 1e-4, out=a), out=a)
    m -= a * 1e4  # the last group
    first = np.floor(a * 1e-4)
    a -= first * 1e4  # the middle group
    # table indices in the narrowest integers: they outlive the floats
    head = (tile < 0).view(np.int8) * 36 + x * 9 + first.astype(np.int8) - 1
    mid, last = a.astype(np.int16), m.astype(np.int16)
    del x, first, a, m
    mid[last != 0] += 10000  # the middle group keeps its trailing zeros
    # numpy fills the slots in place in a bytearray, whose translate then
    # leaves one copy of the lines, NUL-free
    raw = bytearray(24 * rows * (d + 1))
    buf = np.frombuffer(raw, "<u4").reshape(rows, d + 1, 6)
    buf.view("<u8")[:, :d, 0] = heads[head]
    del head
    buf[:, :d, 2] = groups[mid]
    buf[:, :d, 3] = groups[last]
    del mid, last
    buf[:, : d - 1, 5] = ord(" ") << 24
    buf[:, d, 0] = ord("\n")
    slow = np.flatnonzero(~fast)
    if slow.size:
        # a field is at most 16 characters, as in "-1.23456789e-308"
        fields = np.array(["%.9g" % v for v in tile.ravel()[slow].tolist()], dtype="S16")
        row, col = np.divmod(slow, d)
        buf.view(np.uint8)[row, col, :16] = fields.view(np.uint8).reshape(-1, 16)
    text = raw.translate(None, b"\0")
    del buf, raw
    return text.decode("ascii").split("\n")[:-1]  # the text ends in a newline


def _word_pairs(path):
    """Yield ``(src_word, trg_word)`` for each non-blank line of a word-pair file."""
    for lineno, line in enumerate(_read_lines(path), start=1):
        tokens = line.split()
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
    """Write (source-index, target-index) pairs as a word-pair file; a pair
    not indexing ``src`` and ``trg`` raises ContractError before the file opens."""
    _require_pairs(pairs, len(src), len(trg), "dictionary pair {} is not two word "
                   f"indices in [0, {len(src)}) and [0, {len(trg)})")
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
