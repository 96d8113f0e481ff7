import numpy as np
import pytest

from xlalign import io
from xlalign.errors import ContractError, FormatError


def write(tmp_path, text, name="emb.vec"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


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

    def test_malformed_header(self, tmp_path):
        path = write(tmp_path, "2\napple 1 0 0\n")
        with pytest.raises(FormatError, match="header"):
            io.load_embeddings(path)

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

    def test_max_vocab_counts_distinct_words(self, tmp_path):
        path = write(tmp_path, "4 2\napple 1 0\napple 9 9\nbanana 0 1\ncherry 1 1\n")
        with pytest.warns(UserWarning, match="dropped 1 duplicate"):
            vocab, emb = io.load_embeddings(path, max_vocab=2)
        assert vocab.words == ["apple", "banana"]
        np.testing.assert_array_equal(emb, [[1, 0], [0, 1]])


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
