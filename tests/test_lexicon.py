import time
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, strategies as st

import lexner.autodiff as ad
from lexner.autodiff import ConfigError, Tape, Tensor
from lexner.corpus import ParseError
from lexner import lexicon
from lexner.encoders import fragment_rows
from lexner.lexicon import (MODES, Lexicon, Match, SentenceLayout,
                            bucket_count, bucket_name, bucket_of, match_fragment)
from lexner.model import ModelConfig

import span_reference as ref
from span_reference import enumerate_fragments


def build_layout(lex, text, spans, k_cut, cap, lex_id):
    """``SentenceLayout.build_corpus`` of the one text ``text``, its spans
    given as (i, j) pairs."""
    starts, ends = np.array(spans, dtype=np.intp).reshape(-1, 2).T
    return SentenceLayout.build_corpus(lex, [text], starts, ends, k_cut, cap, lex_id)


# CJK characters and one outside the Basic Multilingual Plane
CJK = "希尔顿酒\U00020000"


def brute_force_matches(frag, words):
    """Oracle: scan every word directly, honoring mode exclusivity."""
    n = len(frag)
    out = {}
    for wid, w in enumerate(words):
        mode = None
        k = len(w)
        if w == frag:
            mode = "exact"
        elif len(w) < n and frag.startswith(w):
            mode = "prefix"
        elif len(w) < n and frag.endswith(w):
            mode = "suffix"
        else:
            # interior occurrence: strictly inside, touching neither edge
            for s in range(1, n - 1):
                e = s + len(w)
                if e <= n - 1 and frag[s:e] == w:
                    mode = "infix"
                    break
        if mode is not None:
            out[wid] = (mode, k)
    return out


# ASCII letters, a CJK character, one outside the Basic Multilingual Plane
# and NUL
OCCURRENCE_ALPHABET = "ab希\U00020000\x00"


class TestOccurrences:
    """``_occurrences``, the lookup of every word length the lexicon holds
    from every position of the texts."""

    @staticmethod
    def found(words, texts, longest):
        return lexicon._occurrences(Lexicon(words), texts, longest).T.tolist()

    def test_prefix_hits(self):
        # (start, length, word id), by start and then length
        assert self.found(["a", "ab", "abc", "b"], ["abcd"], 4) == \
            [[0, 1, 0], [0, 2, 1], [0, 3, 2], [1, 1, 3]]

    def test_walk_stops(self):
        # after ``longest`` characters, and at the end of each text
        assert self.found(["abc"], ["abc"], 2) == []
        assert self.found(["abc", "c"], ["ab", "c"], 3) == [[2, 1, 1]]

    def test_no_word_found(self):
        assert self.found(["x"], ["abc"], 3) == []
        assert lexicon._occurrences(Lexicon(["x"]), [], 3).shape == (3, 0)

    @given(words=st.lists(st.text(OCCURRENCE_ALPHABET, min_size=1, max_size=4),
                          min_size=1, max_size=10),
           texts=st.lists(st.text(OCCURRENCE_ALPHABET, max_size=12), max_size=4),
           longest=st.integers(0, 6))
    def test_equals_trie_walk(self, words, texts, longest):
        # the reference walks a trie from every position of each text on its
        # own, so no occurrence crosses from one text into the next
        lex = Lexicon(words)
        trie = ref.Trie()
        for w, i in lex.word_id.items():
            trie.insert(w, i)
        expected, offset = [], 0
        for piece in texts:
            for a in range(len(piece)):
                stop = min(a + longest, len(piece))
                expected += [[offset + a, k, wid]
                             for k, wid in ref.walk_prefixes(trie, piece, a, stop)]
            offset += len(piece)
        assert self.found(words, texts, longest) == expected


class TestLexicon:
    def test_dedup(self):
        lex = Lexicon(["ab", "cd", "ab"])
        assert lex.words == ["ab", "cd"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Lexicon([])

    @pytest.mark.parametrize("word", ["<pad>", "<unk>"])
    def test_reserved_symbol_rejected(self, word):
        # the vocabulary would give the word the <unk> row, and a checkpoint's
        # lexicon is rebuilt without it, so evaluation would match differently
        with pytest.raises(ConfigError, match=word):
            Lexicon(["ab", word, "cd"])

    def test_from_file(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("ab 5\ncd\n")
        lex = Lexicon.from_file(str(p))
        assert set(lex.words) == {"ab", "cd"}
        assert lex.freq("ab") == 5.0
        assert lex.freq("cd") == 0.0

    def test_from_file_byte_order_mark_dropped(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_bytes(b"\xef\xbb\xbf" + b"ab 5\ncd\n")
        lex = Lexicon.from_file(str(p))
        assert lex.words == ["ab", "cd"] and "ab" in lex
        assert lex.freq("ab") == 5.0

    @pytest.mark.parametrize("freq", ["abc", "nan", "inf", "-Infinity"])
    def test_from_file_bad_frequency_reports_line(self, tmp_path, freq):
        p = tmp_path / "lex.txt"
        p.write_text(f"ab 5\n\ncd {freq}\n")
        with pytest.raises(ParseError, match=rf"lex.txt:3: .*'{freq}'"):
            Lexicon.from_file(str(p))


class TestMatchFragment:
    def test_hotel_example(self):
        lex = Lexicon(["希尔", "希尔顿", "尔顿", "顿"])
        got = {(m.word, m.mode) for m in match_fragment(lex, "希尔顿")}
        assert got == {("希尔顿", "exact"), ("希尔", "prefix"),
                       ("尔顿", "suffix"), ("顿", "suffix")}

    def test_infix_strictly_interior(self):
        lex = Lexicon(["bc"])
        got = [(m.word, m.mode) for m in match_fragment(lex, "abcd")]
        assert got == [("bc", "infix")]

    def test_edge_touch_is_suffix_not_infix(self):
        lex = Lexicon(["cd"])
        got = [(m.word, m.mode) for m in match_fragment(lex, "abcd")]
        assert got == [("cd", "suffix")]

    def test_exclusivity_one_mode_per_word(self):
        # "a" is simultaneously a prefix, suffix and infix of "aaa"
        lex = Lexicon(["a"])
        got = match_fragment(lex, "aaa")
        assert len(got) == 1
        assert got[0].mode == "prefix"

    def test_whole_word_is_exact_only(self):
        lex = Lexicon(["ab"])
        got = match_fragment(lex, "ab")
        assert [(m.mode, m.k) for m in got] == [("exact", 2)]

    def test_single_char_fragment(self):
        lex = Lexicon(["a", "ab"])
        got = [(m.word, m.mode) for m in match_fragment(lex, "a")]
        assert got == [("a", "exact")]

    def test_empty_fragment_rejected(self):
        with pytest.raises(ValueError):
            match_fragment(Lexicon(["a"]), "")

    def test_deterministic_order(self):
        lex = Lexicon(["c", "bc", "b", "abc"])
        modes = [m.mode for m in match_fragment(lex, "abcd")]
        assert modes == sorted(modes, key=["exact", "prefix", "suffix",
                                           "infix"].index)

    def test_randomized_against_oracle(self):
        rng = np.random.default_rng(7)
        alphabet = list("abcd")
        raw = ["".join(rng.choice(alphabet, int(rng.integers(1, 4))))
               for _ in range(60)]
        lex = Lexicon(raw)
        for _ in range(300):
            frag = "".join(rng.choice(alphabet, int(rng.integers(1, 8))))
            want = brute_force_matches(frag, lex.words)
            got = {m.word_id: (m.mode, m.k) for m in match_fragment(lex, frag)}
            # oracle applies the same priority order, so modes agree exactly
            assert got == want, frag

    @given(words=st.lists(st.text(CJK, min_size=1, max_size=4), min_size=1, max_size=30),
           frag=st.text(CJK, min_size=1, max_size=10))
    def test_non_ascii_against_oracle(self, words, frag):
        lex = Lexicon(words)
        got = match_fragment(lex, frag)
        assert ({m.word_id: (m.mode, m.k) for m in got}
                == brute_force_matches(frag, lex.words))
        assert all(m.word == lex.words[m.word_id] for m in got)
        assert got == ref.Matcher(lex).match(frag)


class TestBucketing:
    def test_bucket_count(self):
        assert bucket_count(0) == 4
        assert bucket_count(2) == 8

    def test_bucket_of_k2(self):
        mode = np.array([0, 1, 1, 1, 2, 2, 2, 3])   # indices into MODES
        k = np.array([3, 1, 2, 9, 1, 2, 5, 4])
        # prefix k=9 and suffix k=5 go to the residual buckets
        assert bucket_of(mode, k, 2).tolist() == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_bucket_names_distinct(self):
        for k_cut in (0, 1, 2, 3):
            names = [bucket_name(b, k_cut) for b in range(bucket_count(k_cut))]
            assert len(set(names)) == len(names)

    def test_all_buckets_reachable(self):
        rng = np.random.default_rng(3)
        k_cut = 2
        mode, k = rng.integers(0, 4, 500), rng.integers(1, 6, 500)
        got = bucket_of(mode, k, k_cut)
        assert got.tolist() == [ref.bucket_of(Match(0, "x" * int(n), MODES[m], int(n)),
                                              k_cut) for m, n in zip(mode, k)]
        assert set(got.tolist()) == set(range(bucket_count(k_cut)))

    def test_empty_matches_all_null(self):
        layout = build_layout(None, "ab", [(0, 1)], 2, 8, lambda w: 0)
        assert len(layout.lex_ids) == 0
        assert layout.null_mask.tolist() == [[True] * 8]

    def test_row_count_one_per_match_plus_nulls(self):
        lex = Lexicon(["a", "ab", "b"])
        matches = match_fragment(lex, "ab")
        layout = build_layout(lex, "ab", [(0, 1)], 2, 8, lambda w: 1)
        occupied = set(bucket_of(np.array([MODES.index(m.mode) for m in matches]),
                                 np.array([m.k for m in matches]), 2).tolist())
        assert len(layout.lex_ids) == len(matches)
        assert set(np.flatnonzero(layout.null_mask[0])) == set(range(8)) - occupied

    def test_mode_id_equals_bucket_id(self):
        lex = Lexicon(["a", "ab", "b"])
        matches = match_fragment(lex, "ab")
        layout = build_layout(lex, "ab", [(0, 1)], 2, 8, lambda w: 0)
        assert layout.mode_ids.tolist() == bucket_of(
            np.array([MODES.index(m.mode) for m in matches]),
            np.array([m.k for m in matches]), 2).tolist()

    def test_cap_prefers_longest_then_frequent(self):
        # twelve infixes of "#abcdefghijkl#": four words each of k = 3, 2, 1
        words = ["abc", "def", "ghi", "jkl", "bc", "ef", "hi", "kl", "a", "d", "g", "j"]
        freqs = {"ef": 5.0, "kl": 5.0, "hi": 1.0}
        lex = Lexicon(words, freqs)
        text = "#abcdefghijkl#"
        for cap, kept in ((8, words[:8]), (6, words[:4] + ["ef", "kl"]),
                          (5, words[:4] + ["ef"])):
            layout = build_layout(lex, text, [(0, len(text) - 1)], 0, cap,
                                  lex.word_id.get)
            # the longest words win, then the most frequent, then the lowest id;
            # the kept rows are ordered by length, then word id
            want = sorted(kept, key=lambda w: (len(w), lex.word_id[w]))
            assert layout.words.tolist() == want
            assert layout.lex_ids.tolist() == [lex.word_id[w] for w in want]

    def test_negative_cutoff_rejected(self):
        with pytest.raises(ConfigError):
            ModelConfig(k_cut=-1).validate()


class TestSentenceLayout:
    """``SentenceLayout.build_corpus`` of one sentence against the per-span
    reference: every array, word and attention row label equal."""

    def check(self, lex, text, spans, k_cut, cap):
        def lex_id(w):
            return len(w) + 7 * lex.word_id[w] % 3
        layout = build_layout(lex, text, spans, k_cut, cap, lex_id)
        per_span = ref.memory_layouts(lex, text, spans, k_cut, cap, lex_id)
        want = ref.sentence_layout(per_span, k_cut)
        for name in ("lex_ids", "mode_ids", "row_span", "null_mask"):
            got, expected = getattr(layout, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        assert layout.words.tolist() == want.words.tolist()
        p_real = np.arange(len(layout.lex_ids), dtype=float)
        p_null = -np.arange(layout.null_mask.size, dtype=float).reshape(
            layout.null_mask.shape)
        rows = layout.attention_rows(p_real, p_null, k_cut)
        lo = 0
        for s, ((weights, labels), span) in enumerate(zip(rows, per_span, strict=True)):
            hi = lo + len(span.lex_ids)
            assert labels == span.row_labels(k_cut)
            assert weights.tolist() == (p_real[lo:hi].tolist()
                                        + p_null[s, span.null_buckets].tolist())
            lo = hi

    @given(text=st.text("abcd", min_size=1, max_size=14),
           entries=st.lists(st.tuples(st.text("abcd", min_size=1, max_size=4),
                                      st.sampled_from([0.0, 1.0, 2.0])),
                            min_size=1, max_size=25),
           use_lex=st.booleans(), k_cut=st.integers(0, 3), cap=st.integers(1, 3),
           max_len=st.integers(1, 8))
    def test_equals_per_span_reference(self, text, entries, use_lex, k_cut, cap,
                                       max_len):
        lex = Lexicon([w for w, _ in entries], dict(entries)) if use_lex else None
        spans = enumerate_fragments(len(text), max_len)
        self.check(lex, text, spans, k_cut, cap)

    def test_any_span_order(self):
        lex = Lexicon(["ab", "b", "bc", "abc", "c"])
        self.check(lex, "abcab", [(1, 2), (0, 4), (0, 2), (3, 3), (0, 0)], 1, 1)


class TestCorpusLayout:
    """``SentenceLayout.build_corpus`` of a list of sentences against the
    per-span reference of each sentence, the layouts joined layout after
    layout: every array, dtype, word and attention row label equal."""

    @given(texts=st.lists(st.text("abcde", min_size=1, max_size=14), min_size=1,
                          max_size=5),
           entries=st.lists(st.tuples(st.text("abcd", min_size=1, max_size=4),
                                      st.sampled_from([0.0, 1.0, 2.0])),
                            min_size=1, max_size=25),
           use_lex=st.booleans(), k_cut=st.integers(0, 3), cap=st.integers(1, 3),
           max_len=st.integers(1, 8))
    def test_equals_per_sentence_reference(self, texts, entries, use_lex, k_cut, cap,
                                           max_len):
        # sentences may be shorter than max_len, and one over "e" matches nothing
        lex = Lexicon([w for w, _ in entries], dict(entries)) if use_lex else None

        def lex_id(w):
            return len(w) + 7 * lex.word_id[w] % 3
        starts, ends = fragment_rows([len(t) for t in texts], max_len)
        layout = SentenceLayout.build_corpus(lex, texts, starts, ends, k_cut, cap, lex_id)
        per_span = [ref.memory_layouts(lex, t, enumerate_fragments(len(t), max_len),
                                       k_cut, cap, lex_id) for t in texts]
        want = ref.concat_layouts([ref.sentence_layout(p, k_cut) for p in per_span])
        for name in ("lex_ids", "mode_ids", "row_span", "null_mask"):
            got, expected = getattr(layout, name), getattr(want, name)
            assert got.dtype == expected.dtype and np.array_equal(got, expected), name
        assert layout.words.dtype == want.words.dtype
        assert layout.words.tolist() == want.words.tolist()
        rows = layout.attention_rows(np.zeros(len(layout.lex_ids)),
                                     np.zeros(layout.null_mask.shape), k_cut)
        spans = [span for p in per_span for span in p]
        for (_, labels), span in zip(rows, spans, strict=True):
            assert labels == span.row_labels(k_cut)

    def test_dense_lexicon_on_a_longest_sentence(self):
        # a max_sentence_len sentence over "ab" against every word of 1-10 of
        # those characters: 2515 spans, each holding every word inside it.
        # Pairing spans and words through a spans x occurrences matrix peaked
        # at 13.1 MB and took 60 ms; pairing each span with the run of words
        # starting inside it peaks at 4.9 MB and takes 15 ms.
        words = ["".join(p) for n in range(1, 11) for p in product("ab", repeat=n)]
        lex = Lexicon(words)
        text = "".join(np.random.default_rng(0).choice(list("ab"), 256))
        spans = enumerate_fragments(len(text), ModelConfig().max_entity_len)
        tracemalloc.start()
        try:
            layout = build_layout(lex, text, spans, 2, 8, lex.word_id.get)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        want = ref.memory_layouts(lex, text, spans, 2, 8, lex.word_id.get)
        assert len(words) == 2046 and len(spans) == 2515
        assert len(layout.lex_ids) == sum(len(span.lex_ids) for span in want)
        assert peak < 16e6, peak


def attend_layout(layout, emb_lex, emb_mod, null_rows):
    """The model's memory step over a sentence layout, with a zero query:
    every span weighs its rows equally."""
    n = len(layout.null_mask)
    memory = ad.hconcat(ad.gather_rows(emb_lex, layout.lex_ids),
                        ad.gather_rows(emb_mod, layout.mode_ids))
    ctx, weights = ad.memory_attention(
        Tensor(np.zeros((n, memory.shape[1]))), memory, layout.row_span, null_rows,
        layout.null_mask)
    return memory, ctx, weights


class TestAssemble:
    def test_one_real_row_plus_nulls(self):
        lex = Lexicon(["希尔顿"])
        # the second span, "尔", matches nothing
        layout = build_layout(lex, "希尔顿", [(0, 2), (1, 1)], 2, 8, lambda w: 2)
        assert layout.lex_ids.tolist() == [2]
        assert layout.mode_ids.tolist() == [0]
        assert layout.row_span.tolist() == [0]
        assert layout.null_mask.tolist() == [[False] + [True] * 7, [True] * 8]
        emb_lex = Tensor(np.arange(15.0).reshape(3, 5))
        emb_mod = Tensor(np.arange(24.0).reshape(8, 3) * 0.1)
        null_rows = Tensor(np.full((8, 8), -1.0))
        with Tape():
            memory, ctx, (p_real, p_null) = attend_layout(layout, emb_lex, emb_mod,
                                                          null_rows)
        # the real row is word embedding ++ mode embedding
        assert np.array_equal(memory.values[0, :5], emb_lex.values[2])
        assert np.array_equal(memory.values[0, 5:], emb_mod.values[0])
        assert np.allclose(ctx.values[0], (memory.values[0] - 7.0) / 8)
        assert np.allclose(ctx.values[1], -1.0)
        # real rows come first, then the null rows by bucket
        weights, labels = layout.attention_rows(p_real, p_null, 2)[0]
        assert labels == ["希尔顿[exact]"] + [f"-[{bucket_name(b, 2)}]"
                                            for b in range(1, 8)]
        assert np.allclose(weights, 1 / 8)

    def test_labels_real_rows_by_bucket_then_null_rows(self):
        lex = Lexicon(["酒店", "尔顿", "顿", "希尔", "希尔顿"])
        layout = build_layout(lex, "希尔顿酒店", [(0, 2), (3, 4)], 1, 8,
                              lex.word_id.get)
        (_, hilton), (_, hotel) = layout.attention_rows(
            np.zeros(len(layout.lex_ids)), np.zeros(layout.null_mask.shape), 1)
        assert hilton == ["希尔顿[exact]", "希尔[prefix->1]", "顿[suffix-1]",
                          "尔顿[suffix->1]", "-[prefix-1]", "-[infix]"]
        assert hotel == ["酒店[exact]", "-[prefix-1]", "-[prefix->1]", "-[suffix-1]",
                         "-[suffix->1]", "-[infix]"]

    def test_gradient_reaches_null_rows(self):
        lex = Lexicon(["xy"])
        layout = build_layout(lex, "ab", [(0, 1)], 2, 8, lambda w: 0)
        assert len(layout.lex_ids) == 0
        emb_lex = Tensor(np.zeros((1, 4)), tracked=True)
        emb_mod = Tensor(np.zeros((8, 2)), tracked=True)
        null_rows = Tensor(np.random.default_rng(0).normal(size=(8, 6)),
                           tracked=True)
        with Tape() as tape:
            _, ctx, _ = attend_layout(layout, emb_lex, emb_mod, null_rows)
            tape.backward(ref.sum_all(ref.mul(ctx, ctx)))
        # ctx is the mean of the null rows
        mean = null_rows.values.mean(axis=0)
        assert np.allclose(null_rows.grad, np.tile(2 * mean / 8, (8, 1)))
        assert not emb_lex.grad.any() and not emb_mod.grad.any()
        assert not emb_lex.touched_rows.any() and not emb_mod.touched_rows.any()

    def test_gradient_reaches_embeddings(self):
        lex = Lexicon(["ab", "a"])
        layout = build_layout(lex, "ab", [(0, 1), (0, 0)], 0, 8, lex.word_id.get)
        emb_lex = Tensor(np.zeros((2, 3)), tracked=True)
        emb_mod = Tensor(np.zeros((4, 2)), tracked=True)
        null_rows = Tensor(np.zeros((4, 5)), tracked=True)
        with Tape() as tape:
            memory, ctx, _ = attend_layout(layout, emb_lex, emb_mod, null_rows)
            tape.backward(ref.sum_all(ctx))
        # each real row carries its span's weight, 1 / 4 with 4 buckets
        assert np.sum(emb_lex.grad) == len(layout.lex_ids) * 3 / 4
        assert np.sum(emb_mod.grad) == len(layout.mode_ids) * 2 / 4
        assert np.array_equal(np.flatnonzero(emb_lex.touched_rows), np.unique(layout.lex_ids))
        assert np.array_equal(np.flatnonzero(emb_mod.touched_rows), np.unique(layout.mode_ids))


class TestPerformance:
    def test_large_lexicon_fast(self):
        rng = np.random.default_rng(1)
        alphabet = list("abcdefghijklmnopqrstuvwxyz")
        words = ["".join(rng.choice(alphabet, int(rng.integers(1, 6))))
                 for _ in range(100_000)]
        lex = Lexicon(words)
        frags = ["".join(rng.choice(alphabet, 10)) for _ in range(200)]
        t0 = time.perf_counter()
        for f in frags:
            match_fragment(lex, f)
        elapsed = time.perf_counter() - t0
        # matching depends on fragment length and the word lengths held, not
        # on lexicon size
        assert elapsed < 1.0, elapsed

    def test_large_lexicon_memory(self):
        rng = np.random.default_rng(3)
        alphabet = [chr(0x4E00 + i) for i in range(3000)]
        words = set()
        while len(words) < 20_000:
            words.add("".join(alphabet[i] for i in rng.integers(0, 3000, rng.integers(2, 6))))
        words = sorted(words)
        tracemalloc.start()
        try:
            lex = Lexicon(words)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(lex) == len(words)
        assert held / len(words) <= 150, held / len(words)
