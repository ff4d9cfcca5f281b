import io

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexner import corpus
from lexner.autodiff import ConfigError
from lexner.corpus import (Sentence, SymbolTable, Vocab, bio_tags_to_spans,
                           bmes_tags_to_spans, derive_soft_word_labels,
                           load_embeddings, read_corpus, spans_to_bio_tags,
                           spans_to_bmes_tags)


class TestSoftWordLabels:
    def test_single_char_word(self):
        assert derive_soft_word_labels(["我"]) == ["S"]

    def test_three_char_word(self):
        assert derive_soft_word_labels(["财政部"]) == ["B", "M", "E"]

    def test_mixed(self):
        assert derive_soft_word_labels(["AB", "C"]) == ["B", "E", "S"]

    def test_length_equals_char_count(self):
        words = ["abc", "d", "ef", "ghij"]
        assert len(derive_soft_word_labels(words)) == len("".join(words))


class TestTagConversion:
    def test_bmes_basic(self):
        assert bmes_tags_to_spans(["B-PER", "E-PER", "O"]) == {(0, 1, "PER")}

    def test_bio_basic(self):
        assert bio_tags_to_spans(["B-PER", "I-PER", "O"]) == {(0, 1, "PER")}

    def test_bio_orphan_i_repaired(self):
        assert bio_tags_to_spans(["O", "I-LOC", "I-LOC"]) == {(1, 2, "LOC")}

    def test_roundtrip_property(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 15))
            spans = set()
            cursor = 0
            while cursor < n:
                if rng.random() < 0.4:
                    ln = int(rng.integers(1, min(4, n - cursor) + 1))
                    spans.add((cursor, cursor + ln - 1,
                               str(rng.choice(["PER", "ORG"]))))
                    cursor += ln
                cursor += 1
            assert bmes_tags_to_spans(spans_to_bmes_tags(spans, n)) == spans
            assert bio_tags_to_spans(spans_to_bio_tags(spans, n)) == spans


class TestSentence:
    def test_length_invariant(self):
        with pytest.raises(corpus.ParseError):
            Sentence(["a", "b"], ["S"], ["X", "X"])

    def test_span_bounds(self):
        with pytest.raises(corpus.ParseError):
            Sentence(["a"], ["S"], ["X"], entities={(0, 1, "PER")})

    def test_bad_seg_label(self):
        with pytest.raises(corpus.ParseError):
            Sentence(["a"], ["Q"], ["X"])


class TestReadCorpus:
    def write(self, tmp_path, text):
        p = tmp_path / "corp.txt"
        p.write_text(text, encoding="utf-8")
        return str(p)

    def test_three_line_sentence(self, tmp_path):
        path = self.write(tmp_path, "甲\tB\tNN\tB-PER\n乙\tE\tNN\tE-PER\n丙\tS\tX\tO\n")
        sents = read_corpus(path)
        assert len(sents) == 1
        assert sents[0].entities == {(0, 1, "PER")}

    def test_empty_file(self, tmp_path):
        assert read_corpus(self.write(tmp_path, "")) == []

    def test_all_outside(self, tmp_path):
        path = self.write(tmp_path, "a\tS\tX\tO\nb\tS\tX\tO\n")
        assert read_corpus(path)[0].entities == set()

    def test_ragged_columns_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a\tS\tX\tO\nb\tS\tX\n")
        with pytest.raises(corpus.ParseError, match=":2"):
            read_corpus(path)

    def test_multichar_token_reports_line(self, tmp_path):
        path = self.write(tmp_path, "a\tS\tX\tO\n\nab\tS\tX\tO\nc\tS\tX\tO\n")
        with pytest.raises(corpus.ParseError, match=r":3: .*'ab'"):
            read_corpus(path)

    def test_not_utf8_reports_line(self, tmp_path):
        p = tmp_path / "corp.txt"
        p.write_bytes(b"a\tS\tX\tO\n\n\xe7\x94\tS\tX\tO\n")
        with pytest.raises(corpus.ParseError, match=r":3: not valid UTF-8"):
            read_corpus(str(p))

    def test_crlf_and_cr_line_ends(self, tmp_path):
        path = self.write(tmp_path, "a\tS\tX\tO\r\n\r\nb\tS\tX\tO\rc\tS\tX\tO\r\n")
        assert [s.chars for s in read_corpus(path)] == [["a"], ["b", "c"]]

    def test_truncation(self, tmp_path):
        path = self.write(tmp_path, "".join(f"c\tS\tX\tO\n" for _ in range(10)))
        sents = read_corpus(path, max_len=4)
        assert len(sents[0]) == 4

    @given(data=st.data(), fmt=st.sampled_from(["column-bmes", "column-bio"]))
    def test_roundtrip_property(self, tmp_path_factory, data, fmt):
        # one UTF-8 scalar per row that ``str.split`` keeps whole: CJK,
        # non-BMP and any other non-space character
        char = st.one_of(st.characters(min_codepoint=0x4E00, max_codepoint=0x9FFF),
                         st.characters(min_codepoint=0x10000, max_codepoint=0x10FFFF,
                                       exclude_categories=("Cs", "Zs")),
                         st.characters(exclude_categories=("Cs",))
                         ).filter(lambda c: not c.isspace())
        tag = st.text(char, min_size=1, max_size=3)
        sents = []
        for _ in range(data.draw(st.integers(0, 4))):
            n = data.draw(st.integers(1, 20))
            # non-overlapping entities: some of the pieces between cut points
            cuts = sorted(data.draw(st.sets(st.integers(0, n), max_size=6)) | {0, n})
            entities = {(a, b - 1, data.draw(st.sampled_from(["PER", "ORG", "GPE-X"])))
                        for a, b in zip(cuts, cuts[1:]) if data.draw(st.booleans())}
            sents.append(Sentence(data.draw(st.lists(char, min_size=n, max_size=n)),
                                  data.draw(st.lists(st.sampled_from("BMES"),
                                                     min_size=n, max_size=n)),
                                  data.draw(st.lists(tag, min_size=n, max_size=n)),
                                  entities=entities))
        path = str(tmp_path_factory.mktemp("roundtrip") / "c.txt")
        if sents and data.draw(st.booleans(), label="whitespace"):
            # a whitespace character, or a tag holding one, cannot be read back
            s = data.draw(st.sampled_from(sents))
            k = data.draw(st.integers(0, len(s) - 1))
            space = data.draw(st.sampled_from(" \t\r\x0b\x1c\x85\u2028\u3000"))
            if data.draw(st.booleans(), label="in the character column"):
                s.chars[k] = space
            else:
                s.pos_tags[k] = s.pos_tags[k][:1] + space + s.pos_tags[k][1:]
            with pytest.raises(corpus.ParseError, match="would not read back"):
                corpus.write_corpus(path, sents, fmt)
            return
        corpus.write_corpus(path, sents, fmt)
        back = read_corpus(path, fmt)
        assert [(s.chars, s.seg_labels, s.pos_tags, s.entities) for s in back] == \
            [(s.chars, s.seg_labels, s.pos_tags, s.entities) for s in sents]

    @pytest.mark.parametrize("chars, pos", [
        (["甲", "\u3000", "乙"], ["N", "N", "N"]),   # ideographic space
        (["ab", "c"], ["N", "N"]),                  # not one character
        (["甲", "乙"], ["N", "N N"]),               # a POS tag with a space
    ])
    def test_write_rejects_row_that_would_not_read_back(self, tmp_path, chars, pos):
        path = tmp_path / "w.txt"
        s = Sentence(chars, ["S"] * len(chars), pos)
        with pytest.raises(corpus.ParseError, match="would not read back"):
            corpus.write_corpus(str(path), [Sentence(["a"], ["S"], ["N"]), s])
        assert not path.exists()

    def test_write_unknown_format(self, tmp_path):
        s = Sentence(list("ab"), ["B", "E"], ["N", "N"], entities={(0, 1, "PER")})
        with pytest.raises(ConfigError, match="column-bogus"):
            corpus.write_corpus(str(tmp_path / "w.txt"), [s], fmt="column-bogus")
        assert not (tmp_path / "w.txt").exists()

    def test_roundtrip_file(self, tmp_path):
        s = Sentence(list("abcd"), ["B", "E", "S", "S"], ["NN", "NN", "X", "X"],
                     entities={(0, 1, "ORG")})
        out = tmp_path / "w.txt"
        corpus.write_corpus(str(out), [s])
        back = read_corpus(str(out))
        assert back[0].chars == s.chars
        assert back[0].entities == s.entities


class TestReadRaw:
    def test_lines_become_sentences(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_text("希尔顿\n\nab c\n", encoding="utf-8")
        sents = corpus.read_raw(str(path))
        assert [s.chars for s in sents] == [list("希尔顿"), list("ab c")]
        assert sents[1].seg_labels == ["S"] * 4
        assert sents[1].pos_tags == [corpus.UNK] * 4
        assert sents[1].entities == set()

    def test_crlf_line_ends(self, tmp_path):
        path = tmp_path / "raw.txt"
        path.write_bytes("希尔顿\r\nab\r\n".encode("utf-8"))
        assert [s.chars for s in corpus.read_raw(str(path))] == [list("希尔顿"), list("ab")]

    def test_truncation_warns(self, tmp_path, caplog):
        path = tmp_path / "raw.txt"
        path.write_text("x" * 400 + "\nshort\n", encoding="utf-8")
        sents = corpus.read_raw(str(path), max_len=50)
        assert [len(s) for s in sents] == [50, 5]
        assert "truncated from 400 to 50" in caplog.text


class TestVocab:
    def test_build_and_encode(self):
        s = Sentence(list("ab"), ["B", "E"], ["NN", "NN"],
                     entities={(0, 1, "ORG")})
        v = Vocab.build([s], ["ab", "a"])
        assert corpus.NONE_LABEL in v.types.symbols
        assert v.types.symbols.count(corpus.NONE_LABEL) == 1
        v.encode(s)
        assert len(s.char_ids) == 2

    def test_unknown_maps_to_unk(self):
        s = Sentence(["a"], ["S"], ["X"])
        v = Vocab.build([s])
        t = Sentence(["z"], ["S"], ["Y"])
        v.encode(t)
        assert t.char_ids[0] == v.chars.id(corpus.UNK)
        assert t.pos_ids[0] == v.pos.id(corpus.UNK)


class TestEmbeddings:
    def make_table(self, tokens):
        return SymbolTable(tokens)

    def test_full_coverage_rows_exact(self, tmp_path):
        table = self.make_table(["x", "y"])
        f = tmp_path / "emb.txt"
        f.write_text("x 1 2\ny 3 4\n")
        mat, rate = load_embeddings(str(f), table, 2,
                                    np.random.default_rng(0), report=None)
        assert rate == 1.0
        assert np.array_equal(mat, [[1, 2], [3, 4]])

    def test_empty_file_all_random(self, tmp_path):
        table = self.make_table(["x", "y"])
        f = tmp_path / "emb.txt"
        f.write_text("")
        mat, rate = load_embeddings(str(f), table, 2,
                                    np.random.default_rng(0), report=None)
        assert rate == 0.0
        assert np.all(np.abs(mat) <= 0.1)

    def test_partial_coverage(self, tmp_path):
        table = self.make_table(["a", "b", "c", "d"])
        f = tmp_path / "emb.txt"
        f.write_text("4 2\na 1 1\nb 2 2\nc 3 3\nzz 9 9\n")
        _, rate = load_embeddings(str(f), table, 2,
                                  np.random.default_rng(0), report=None)
        assert rate == 0.75

    def test_dim_mismatch(self, tmp_path):
        table = self.make_table(["a"])
        f = tmp_path / "emb.txt"
        f.write_text("a 1 2 3\n")
        with pytest.raises(ConfigError):
            load_embeddings(str(f), table, 2, np.random.default_rng(0),
                            report=None)

    def test_non_numeric_value_reports_line(self, tmp_path):
        f = tmp_path / "emb.txt"
        f.write_text("1 2\na 1 2\nb 1 x\n")
        with pytest.raises(corpus.ParseError, match=r"emb.txt:3: .*'b'"):
            load_embeddings(str(f), self.make_table(["a", "b"]), 2,
                            np.random.default_rng(0), report=None)

    def test_coverage_report_written(self, tmp_path):
        table = self.make_table(["a"])
        f = tmp_path / "emb.txt"
        f.write_text("a 1 2\n")
        buf = io.StringIO()
        load_embeddings(str(f), table, 2, np.random.default_rng(0), report=buf)
        assert "hit rate 1.0000" in buf.getvalue()
