import errno
import os
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from xlalign import io
from xlalign.errors import ContractError, FormatError

from conftest import traced_peak
from oracles import load_embeddings_literal


def write(tmp_path, text, name="emb.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_vocabulary_rejects_duplicate_words():
    with pytest.raises(ContractError, match="^vocabulary contains duplicate words$"):
        io.Vocabulary(["a", "a"])


class TestLoadEmbeddings:
    def test_basic_format(self, tmp_path):
        path = write(tmp_path, "2 3\napple 1 0 0\nbanana 0 1 0\n")
        vocab, emb = io.load_embeddings(path)
        assert vocab.words == ["apple", "banana"]
        assert vocab.index == {"apple": 0, "banana": 1}
        np.testing.assert_array_equal(emb, [[1, 0, 0], [0, 1, 0]])

    def test_duplicate_keeps_first(self, tmp_path):
        path = write(tmp_path, "3 2\napple 1 0\napple 9 9\nbanana 0 1\n")
        with pytest.warns(UserWarning, match="duplicate"):
            vocab, emb = io.load_embeddings(path)
        assert vocab.words == ["apple", "banana"]
        np.testing.assert_array_equal(emb[0], [1, 0])

    def test_max_vocab_truncates(self, tmp_path):
        path = write(tmp_path, "2 3\napple 1 0 0\nbanana 0 1 0\n")
        vocab, emb = io.load_embeddings(path, max_vocab=1)
        assert vocab.words == ["apple"]
        assert emb.shape == (1, 3)
        assert io.load_embeddings(path, max_vocab=np.int32(1))[0].words == ["apple"]
        # "1", 1.5 and True raised a raw TypeError, and 2.0 was read as 2
        for bad in ("1", 1.5, True, 2.0, np.float64(1.0), np.True_):
            message = f"^max_vocab must be an integer, got {re.escape(repr(bad))}$"
            with pytest.raises(ContractError, match=message):
                io.load_embeddings(path, max_vocab=bad)
        with pytest.raises(ContractError, match="^max_vocab must be positive$"):
            io.load_embeddings(path, max_vocab=0)

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "2\napple 1 0 0\n")
        with pytest.raises(FormatError, match="header"):
            io.load_embeddings(path)

    @pytest.mark.parametrize("header", ["-1 3", "2 0", "2 -3"])
    def test_header_counts_out_of_range(self, tmp_path, header):
        path = write(tmp_path, f"{header}\napple 1 0 0\nbanana 0 1 0\n")
        with pytest.raises(FormatError, match="^line 1: .*invalid header counts") as info:
            io.load_embeddings(path)
        assert info.value.line == 1

    def test_wrong_value_count_names_line(self, tmp_path):
        path = write(tmp_path, "2 3\napple 1 0 0\nbanana 0 1\n")
        with pytest.raises(FormatError, match="line 3"):
            io.load_embeddings(path)

    def test_unparseable_number(self, tmp_path):
        path = write(tmp_path, "1 2\napple 1 x\n")
        with pytest.raises(FormatError, match="line 2"):
            io.load_embeddings(path)

    def test_binary_rejected(self, tmp_path):
        path = tmp_path / "emb.bin"
        path.write_bytes(b"2 3\n\xff\xfe\x00binary")
        with pytest.raises(FormatError):
            io.load_embeddings(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError, match="not found"):
            io.load_embeddings(tmp_path / "nope.vec")


    def test_truncated_file(self, tmp_path):
        path = write(tmp_path, "3 2\napple 1 0\nbanana 0 1\n")
        with pytest.raises(FormatError, match="file ends after 2 rows, header declared 3"):
            io.load_embeddings(path)

    def test_rows_past_header_count_ignored(self, tmp_path):
        path = write(tmp_path, "1 2\napple 1 0\nbanana 0 1\nnot a row at all\n")
        vocab, emb = io.load_embeddings(path)
        assert vocab.words == ["apple"]
        np.testing.assert_array_equal(emb, [[1, 0]])

    def test_blank_row_names_line(self, tmp_path):
        path = write(tmp_path, "2 2\napple 1 0\n\nbanana 0 1\n")
        with pytest.raises(FormatError, match="line 3: .*got 0 tokens"):
            io.load_embeddings(path)

    def test_non_finite_duplicate_row_names_line(self, tmp_path):
        # a duplicate is parsed and checked before it is dropped
        path = write(tmp_path, "3 2\napple 1 0\napple inf 0\nbanana 0 1\n")
        with pytest.raises(FormatError, match="line 3: .*non-finite value"):
            io.load_embeddings(path)

    def test_header_overstating_n_allocates_what_the_file_holds(self, tmp_path):
        # 10^12 rows of 300 values would be 2.4 PB; the rows are allocated
        # for the file's size, and the missing ones are reported
        path = write(tmp_path, "1000000000000 300\n" + "w" + " 0.5" * 300 + "\n")
        with pytest.raises(FormatError, match="file ends after 1 rows, header declared"):
            io.load_embeddings(path)

    def test_peak_memory_one_matrix(self, tmp_path):
        # rows are parsed into one preallocated float64 matrix (8 n d bytes);
        # the slack holds the vocabulary, under 200 bytes a word here. A
        # float64 array per row and a final copy of them all were 7.4 MB more
        n, d = 4000, 200
        emb = np.random.default_rng(5).standard_normal((n, d))
        path = tmp_path / "big.vec"
        io.save_embeddings(io.Vocabulary([f"w{i}" for i in range(n)]), emb, path)
        io.load_embeddings(path)  # lazy imports are not the load's
        assert traced_peak(io.load_embeddings, path) < 8 * n * d + 256 * n + 64 * 1024

    def test_max_vocab_counts_distinct_words(self, tmp_path):
        path = write(tmp_path, "4 2\napple 1 0\napple 9 9\nbanana 0 1\ncherry 1 1\n")
        with pytest.warns(UserWarning, match="dropped 1 duplicate"):
            vocab, emb = io.load_embeddings(path, max_vocab=2)
        assert vocab.words == ["apple", "banana"]
        np.testing.assert_array_equal(emb, [[1, 0], [0, 1]])


# tokens float() takes and numpy's C reader does not, then tokens neither
# takes or that are not finite; separators that str.split() splits on
ODD_TOKENS = ["1_0", "\u0661", "\uff11", "\u0661.5e\u0662", "nan", "inf", "-inf", "1e999",
              "#1", '"2"', "1e", "0x10", "1,5", "--1", "1\x002"]
SEPARATORS = [" ", "  ", "\t", " \t ", "\u00a0", "\u3000", "\x0b", "\x1c", "\x85", "\u2028"]


@st.composite
def embedding_files(draw):
    """Bytes of an embedding file of 1 row or about one or two loader tiles
    (``io._LOAD_ROWS``), with a few edited lines: odd tokens, other
    separators, a token more or less, a blank line, a duplicate word (also
    across a tile boundary), and a header that overstates or understates
    the rows; and a ``max_vocab``."""
    tile = io._LOAD_ROWS
    rows = draw(st.sampled_from([1, tile - 1, tile, tile + 1, 2 * tile + 1]))
    dim = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fmt = draw(st.sampled_from(["%.9g", "%r", "%.2f"]))
    values = rng.standard_normal((rows, dim)) * 10.0 ** rng.integers(-5, 6, (rows, dim))
    lines = [[f"w{i}"] + [fmt % v for v in row] for i, row in enumerate(values.tolist())]
    seps = [" "] * rows
    for _ in range(draw(st.integers(0, 3))):
        r = draw(st.integers(0, rows - 1))
        edit = draw(st.sampled_from(["odd", "sep", "fewer", "more", "blank", "dup", "dup-tile"]))
        if edit == "sep":
            seps[r] = draw(st.sampled_from(SEPARATORS))
        elif edit == "more":
            lines[r].append("0.5")
        elif edit == "blank":
            lines[r] = []
        elif edit == "dup-tile" and rows > tile:
            lines[tile][:1] = [f"w{tile - 1}"]
        elif len(lines[r]) > 1:  # a word and a value
            if edit == "odd":
                at = draw(st.integers(1, len(lines[r]) - 1))
                lines[r][at] = draw(st.sampled_from(ODD_TOKENS))
            elif edit == "fewer":
                lines[r].pop()
            elif edit == "dup":
                lines[r][0] = f"w{draw(st.integers(0, rows - 1))}"
    n = max(0, rows + draw(st.sampled_from([0, 0, 0, -1, 1, 2, -tile])))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([f"{n} {dim}"] + [sep.join(line) for sep, line in zip(seps, lines)])
    text += draw(st.sampled_from([end, ""]))
    return text.encode("utf-8"), draw(st.one_of(st.none(), st.integers(1, rows + 1)))


def load_outcome(load, path, max_vocab):
    """What ``load`` gives for the file: its words, the matrix's shape and
    bytes and the warnings it gave, or the FormatError message and line."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            words, emb = load(path, max_vocab)
        except FormatError as e:
            return str(e), e.line
    return list(words), emb.shape, emb.tobytes(), [str(w.message) for w in caught]


def library_load(path, max_vocab):
    vocab, emb = io.load_embeddings(path, max_vocab)
    return vocab.words, emb


@settings(max_examples=5000 if "XLALIGN_LOADER_SWEEP" in os.environ else 150, deadline=None,
          derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(embedding_files())
def test_loader_matches_the_per_line_oracle(tmp_path, case):
    # the C reader's tiles and their per-line fallback give the per-line
    # parse's words, bits, warning and first error; XLALIGN_LOADER_SWEEP=1
    # runs 5000 files
    content, max_vocab = case
    path = tmp_path / "emb.vec"
    path.write_bytes(content)
    assert load_outcome(library_load, path, max_vocab) == \
        load_outcome(load_embeddings_literal, path, max_vocab)


@pytest.mark.parametrize("max_vocab, bad_line, words", [
    (5, 9, 5),    # the limit is reached mid-tile, before the bad line
    (5, 5, 4),    # a bad line before the limit raises
    (None, 9, 0),
])
def test_limit_stops_reading_within_a_tile(tmp_path, max_vocab, bad_line, words):
    # the per-line parse never reads past the line that reaches max_vocab,
    # so a malformed line later in that tile is never read
    lines = [f"w{i} {i / 8}" for i in range(io._LOAD_ROWS - 1)]
    lines[bad_line - 2] = f"w{bad_line - 2} 1 2"
    path = write(tmp_path, f"{len(lines)} 1\n" + "\n".join(lines) + "\n")
    expected = load_outcome(load_embeddings_literal, path, max_vocab)
    assert load_outcome(library_load, path, max_vocab) == expected
    if max_vocab == 5 and bad_line > max_vocab + 1:
        assert expected[0] == [f"w{i}" for i in range(words)]
    else:
        assert expected[1] == bad_line


class TestSaveEmbeddings:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "2 3\napple 1 0 0\nbanana 0 1 0\n")
        vocab, emb = io.load_embeddings(path)
        out = tmp_path / "out.vec"
        io.save_embeddings(vocab, emb, out)
        vocab2, emb2 = io.load_embeddings(out)
        assert vocab2.words == vocab.words
        np.testing.assert_allclose(emb2, emb, atol=1e-6)

    def test_empty_vocab_header_only(self, tmp_path):
        out = tmp_path / "empty.vec"
        io.save_embeddings(io.Vocabulary([]), np.zeros((0, 4)), out)
        assert out.read_text() == "0 4\n"

    def test_negative_value_precision(self, tmp_path):
        out = tmp_path / "neg.vec"
        io.save_embeddings(io.Vocabulary(["w"]), np.array([[-0.5, 0.123456789]]), out)
        _, emb = io.load_embeddings(out)
        np.testing.assert_allclose(emb, [[-0.5, 0.123456789]], atol=1e-6)

    def test_size_mismatch(self, tmp_path):
        with pytest.raises(ContractError):
            io.save_embeddings(io.Vocabulary(["a"]), np.zeros((2, 3)), tmp_path / "x.vec")

    @pytest.mark.parametrize("emb, message", [
        (np.zeros(2), "emb must be a matrix, got 1 axes"),  # raised numpy's IndexError
        ([[0.5, 1.0], [np.inf, 0.0]], "emb row 1 holds a non-finite value"),  # wrote "inf"
        ([[0.5, np.nan], [1.0, 0.0]], "emb row 0 holds a non-finite value"),  # wrote "nan"
        # wrote "2 0\na \n...", which load_embeddings rejects
        (np.zeros((2, 0)), "emb has no columns"),
    ], ids=["vector", "inf", "nan", "no-columns"])
    def test_unloadable_matrix_rejected_before_the_file_opens(self, tmp_path, emb, message):
        out = tmp_path / "bad.vec"
        with pytest.raises(ContractError, match=f"^{message}$"):
            io.save_embeddings(io.Vocabulary(["a", "b"]), emb, out)
        assert not out.exists()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_bytes_match_per_value_formatting(self, tmp_path, dtype):
        emb = np.array([[-1.5, -0.0, 0.0, 1e-12, 1e+20],
                        [3.0, -7.0, 1e6, 123456789.0, 0.1],
                        [1 / 3, -2 / 3, 2.5e-8, -123.25, -1e-5]]).astype(dtype)
        vocab = io.Vocabulary(["a", "b", "c"])
        out = tmp_path / "golden.vec"
        io.save_embeddings(vocab, emb, out)
        expected = "3 5\n" + "".join(
            word + " " + " ".join(f"{v:.9g}" for v in row) + "\n"
            for word, row in zip(vocab.words, emb))
        assert out.read_bytes() == expected.encode("utf-8")
        if dtype is np.float64:
            assert out.read_text().splitlines()[1] == "a -1.5 -0 0 1e-12 1e+20"

    def test_round_trip_random_property(self, tmp_path):
        rng = np.random.default_rng(7)
        for trial in range(20):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 12))
            emb = rng.standard_normal((n, d)) * 10.0 ** float(rng.integers(-3, 3))
            vocab = io.Vocabulary([f"w{i}" for i in range(n)])
            out = tmp_path / f"rt{trial}.vec"
            io.save_embeddings(vocab, emb, out)
            vocab2, emb2 = io.load_embeddings(out)
            assert vocab2.words == vocab.words
            np.testing.assert_allclose(emb2, emb, atol=1e-6)


def percent_g_file(emb):
    """The bytes of an embedding file of ``emb`` with words w0, w1, ... and
    every value written as ``"%.9g" % float(v)``."""
    emb = np.asarray(emb)
    return (f"{emb.shape[0]} {emb.shape[1]}\n" + "".join(
        f"w{i} " + " ".join("%.9g" % float(v) for v in row) + "\n"
        for i, row in enumerate(emb))).encode("utf-8")


def saved_file(path, emb):
    """The bytes ``save_embeddings`` writes for ``emb`` with words w0, w1, ..."""
    io.save_embeddings(io.Vocabulary([f"w{i}" for i in range(len(emb))]), emb, path)
    return path.read_bytes()


def edge_values():
    """Values where a numpy formatter of "%.9g" can go wrong."""
    powers = 10.0 ** np.arange(-6, 11)
    # the midpoints between 9-digit decimals, where rounding is decided, and
    # their neighbours: near ties, then values just clear of the tie window
    mantissas = np.array([100000000, 123456789, 500000000, 999999998])
    mids = np.concatenate([(mantissas + 0.5) / 10.0 ** (8 + x) for x in range(-3, 6)])
    near = [np.nextafter(mids, 0), np.nextafter(mids, 1), mids * (1 - 3e-15), mids * (1 + 3e-15)]
    values = np.concatenate([
        powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf), mids, *near,
        # round up across a decade
        [0.99999999996, 9.9999999996e-5, 0.099999999951, 0.0099999999951, 9.99999999951e8],
        # exact ties at the 10th digit: half to even
        [2.0**-13, 3 * 2.0**-13, 2.0**-14, 1234567885.0, 1234567875.0],
        # zeros, subnormals and the ends of the float64 range
        [0.0, -0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308, 1e308,
         np.finfo(np.float64).max, 1e-4, 1 - 2.0**-53, 0.5, 1.0],
    ])
    return np.concatenate([values, -values])


class TestWriterMatchesPercentG:
    """``save_embeddings`` writes every value as ``"%.9g" % float(v)`` does."""

    @pytest.mark.parametrize("d", [1, 7])
    def test_edge_table(self, tmp_path, d):
        values = edge_values()
        emb = np.resize(values, (-(-len(values) // d), d))
        assert saved_file(tmp_path / "edge.vec", emb) == percent_g_file(emb)

    def test_float32_input(self, tmp_path):
        rng = np.random.default_rng(31)
        emb = np.concatenate([rng.standard_normal((20, 16)), rng.uniform(-1, 1, (20, 16))])
        emb = emb.astype(np.float32)
        emb[0, :4] = [np.float32(0.1), np.float32(-1e-4), np.finfo(np.float32).max, 1e-45]
        assert saved_file(tmp_path / "f32.vec", emb) == percent_g_file(emb)

    def test_integer_input(self, tmp_path):
        emb = np.array([[0, 1, -7, 123456789], [1234567885, 2**53 + 1, -(2**62), 10**18]])
        assert saved_file(tmp_path / "int.vec", emb) == percent_g_file(emb)

    @pytest.mark.parametrize("d", [1, 3, 50, 300])
    def test_unit_rows_with_zeros(self, tmp_path, d):
        rng = np.random.default_rng(d)
        emb = rng.standard_normal((300, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        emb[rng.random(emb.shape) < 0.05] = 0.0
        emb[7] = 0.0
        assert saved_file(tmp_path / "unit.vec", emb) == percent_g_file(emb)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=24),
           st.integers(1, 4))
    def test_any_finite_float(self, tmp_path, values, d):
        emb = np.resize(values, (-(-len(values) // d), d))
        assert saved_file(tmp_path / "any.vec", emb) == percent_g_file(emb)

    def test_holds_one_tile_not_a_matrix_copy(self, tmp_path):
        # a tile's buffer is 24 bytes a value, plus a 24-byte slot per row
        # (1.2 MB here); it peaks beside the tile's table indices and one
        # gathered column of heads (2.56 MB). A float64 copy of emb is 6.4 MB
        n, d = 4000, 200
        emb = np.random.default_rng(5).standard_normal((n, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        vocab = io.Vocabulary([f"w{i}" for i in range(n)])
        peak = traced_peak(io.save_embeddings, vocab, emb, tmp_path / "big.vec")
        assert peak < 2.25 * 24 * 256 * (d + 1)

    def test_float32_checked_and_cast_a_tile_at_a_time(self, tmp_path):
        # the bytes of its float64 cast, without a float64 copy (6.4 MB here):
        # the writer's tile buffers and a float64 cast of one tile (8 . 256 d
        # bytes, 0.4 MB), with as much again to spare
        n, d = 4000, 200
        emb = np.random.default_rng(5).standard_normal((n, d))
        emb /= np.linalg.norm(emb, axis=1, keepdims=True)
        emb = emb.astype(np.float32)
        vocab = io.Vocabulary([f"w{i}" for i in range(n)])
        peak = traced_peak(io.save_embeddings, vocab, emb, tmp_path / "f32.vec")
        io.save_embeddings(vocab, emb.astype(np.float64), tmp_path / "f64.vec")
        assert (tmp_path / "f32.vec").read_bytes() == (tmp_path / "f64.vec").read_bytes()
        assert peak < 2.25 * 24 * 256 * (d + 1) + 2 * 8 * 256 * d


@pytest.mark.skipif("XLALIGN_WRITER_SWEEP" not in os.environ,
                    reason="writer sweep not requested (about 20 s)")
def test_writer_sweep(tmp_path):
    """Optional: the writer's bytes equal "%.9g" on 10^7 random values of
    both signs: 5000 random mantissas at each of the 2047 finite binary
    exponents (subnormals included), and 200000 more at each exponent of
    [2^-14, 1), the writer's fast range."""
    rng = np.random.default_rng(13)
    biased = np.arange(2047, dtype=np.uint64)
    counts = np.where((biased >= 1023 - 14) & (biased < 1023), 205000, 5000)
    exponents = np.repeat(biased, counts)  # 13035000, 100 values a row
    for start in range(0, len(exponents), 100000):
        chunk = exponents[start : start + 100000]
        mantissa = rng.integers(0, 2**52, size=len(chunk), dtype=np.uint64)
        sign = rng.integers(0, 2, size=len(chunk), dtype=np.uint64) << np.uint64(63)
        emb = (sign | chunk << np.uint64(52) | mantissa).view(np.float64).reshape(-1, 100)
        assert saved_file(tmp_path / "sweep.vec", emb) == percent_g_file(emb)


class TestDictionaryPairs:
    @pytest.fixture
    def vocabs(self):
        return io.Vocabulary(["dog", "cat", "cow"]), io.Vocabulary(["Hund", "Katze", "Kuh"])

    def test_first_occurrence_order_kept_once(self, tmp_path, vocabs):
        path = write(tmp_path, "cow Kuh\ndog Hund\ncow Kuh\ndog Katze\ndog Hund\n", "d.txt")
        assert io.load_dictionary_pairs(path, *vocabs) == [(2, 2), (0, 0), (0, 1)]

    def test_oov_pairs_counted(self, tmp_path, vocabs):
        path = write(tmp_path, "dog Hund\nfox Fuchs\ncat Fuchs\nfox Katze\n", "d.txt")
        with pytest.warns(UserWarning, match="dropped 3 out-of-vocabulary pair"):
            assert io.load_dictionary_pairs(path, *vocabs) == [(0, 0)]

    def test_blank_lines_skipped(self, tmp_path, vocabs):
        path = write(tmp_path, "\ndog Hund\n   \n\t\ncat Katze\n\n", "d.txt")
        assert io.load_dictionary_pairs(path, *vocabs) == [(0, 0), (1, 1)]

    def test_bad_token_count_names_line(self, tmp_path, vocabs):
        path = write(tmp_path, "dog Hund\n\ncat\n", "d.txt")
        with pytest.raises(FormatError, match="line 3: .*expected 'src_word trg_word', got 1"):
            io.load_dictionary_pairs(path, *vocabs)


class TestGoldDictionary:
    @pytest.fixture
    def vocabs(self):
        src = io.Vocabulary(["dog", "cat", "zzzz"])
        trg = io.Vocabulary(["Hund", "Hündin", "Katze"])
        return src, trg

    def test_grouping(self, tmp_path, vocabs):
        src, trg = vocabs
        path = write(tmp_path, "dog Hund\ndog Hündin\n", "gold.txt")
        gold = io.load_gold_dictionary(path, src, trg)
        assert gold.entries == {0: {0, 1}}
        assert gold.oov_sources == 0

    def test_oov_source(self, tmp_path, vocabs):
        src, trg = vocabs
        path = write(tmp_path, "missing Hund\n", "gold.txt")
        gold = io.load_gold_dictionary(path, src, trg)
        assert gold.entries == {}
        assert gold.oov_sources == 1

    def test_duplicate_pair(self, tmp_path, vocabs):
        src, trg = vocabs
        path = write(tmp_path, "dog Hund\ndog Hund\n", "gold.txt")
        gold = io.load_gold_dictionary(path, src, trg)
        assert gold.entries == {0: {0}}

    def test_oov_target_dropped_and_source_emptied(self, tmp_path, vocabs):
        src, trg = vocabs
        path = write(tmp_path, "dog missing\ncat Katze\n", "gold.txt")
        with pytest.warns(UserWarning, match="dropped"):
            gold = io.load_gold_dictionary(path, src, trg)
        assert gold.entries == {1: {2}}
        assert gold.oov_sources == 0

    def test_no_empty_target_sets(self, tmp_path, vocabs):
        src, trg = vocabs
        path = write(tmp_path, "dog Hund\ndog missing\ncat missing\n", "gold.txt")
        with pytest.warns(UserWarning):
            gold = io.load_gold_dictionary(path, src, trg)
        assert all(gold.entries.values())

    def test_bad_token_count(self, tmp_path, vocabs):
        src, trg = vocabs
        path = write(tmp_path, "dog Hund extra\n", "gold.txt")
        with pytest.raises(FormatError, match="line 1"):
            io.load_gold_dictionary(path, src, trg)


def test_vocabulary_rejects_empty_word():
    with pytest.raises(ContractError):
        io.Vocabulary(["a", ""])


@pytest.mark.parametrize("word", ["new york", "tab\tword", "nb\u00a0sp", "line\n", " lead"])
def test_vocabulary_rejects_word_with_whitespace(word):
    with pytest.raises(ContractError, match="whitespace"):
        io.Vocabulary(["a", word])


WORDS = io.Vocabulary(["a", "b"])
LOADERS = {
    "embeddings": io.load_embeddings,
    "pairs": lambda path: io.load_dictionary_pairs(path, WORDS, WORDS),
    "gold": lambda path: io.load_gold_dictionary(path, WORDS, WORDS),
}


@pytest.mark.parametrize("loader", LOADERS)
@pytest.mark.parametrize("content", [None, b"1 1\na b\n\xff\xfe\x00binary\n"],
                         ids=["missing", "not-utf8"])
def test_every_loader_raises_format_error_for_a_bad_file(tmp_path, loader, content):
    path = tmp_path / "file.txt"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(FormatError, match="not found" if content is None else "UTF-8"):
        LOADERS[loader](path)


@pytest.mark.parametrize("loader", LOADERS)
def test_every_loader_raises_format_error_for_a_directory(tmp_path, loader):
    with pytest.raises(FormatError, match=f"{tmp_path}: cannot open: Is a directory"):
        LOADERS[loader](tmp_path)


@pytest.mark.parametrize("loader", LOADERS)
def test_every_loader_raises_format_error_for_an_unreadable_file(tmp_path, monkeypatch, loader):
    # chmod cannot make a file unreadable to root, so open itself is replaced
    def denied(path, *args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied", str(path))

    monkeypatch.setattr(io, "open", denied, raising=False)
    path = write(tmp_path, "1 1\na 1\n")
    with pytest.raises(FormatError, match=f"{path}: cannot open: Permission denied"):
        LOADERS[loader](path)


@pytest.mark.parametrize("loader, text, malformed", [
    ("embeddings", "2 1\na 1\nb\n", True),
    ("embeddings", "2 1\na 1\nb 2\n", False),
    ("pairs", "a b\na\n", True),
    ("pairs", "a b\n", False),
    ("gold", "a b c\n", True),
])
def test_loader_closes_its_file(tmp_path, monkeypatch, loader, text, malformed):
    opened = []

    def recording_open(*args, **kwargs):
        opened.append(open(*args, **kwargs))
        return opened[-1]

    monkeypatch.setattr(io, "open", recording_open, raising=False)
    path = write(tmp_path, text)
    errors = []  # a kept error's traceback keeps the loader's frames alive
    try:
        LOADERS[loader](path)
    except FormatError as e:
        errors.append(e)
    assert len(errors) == malformed
    assert len(opened) == 1 and opened[0].closed
