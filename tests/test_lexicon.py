import time

import numpy as np
import pytest

import lexner.autodiff as ad
from lexner.autodiff import ConfigError, Tape, Tensor
from lexner.lexicon import (Lexicon, Match, SentenceLayout, Trie, bucket_count,
                            bucket_name, bucket_of, bucketize, match_fragment)


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


class TestTrie:
    def test_walk_prefixes(self):
        t = Trie()
        for i, w in enumerate(["a", "ab", "abc", "b"]):
            t.insert(w, i)
        assert list(t.walk_prefixes("abcd")) == [(1, 0), (2, 1), (3, 2)]

    def test_walk_with_stop(self):
        t = Trie()
        t.insert("abc", 0)
        assert list(t.walk_prefixes("abc", 0, 2)) == []

    def test_empty_trie(self):
        assert list(Trie().walk_prefixes("abc")) == []

    def test_lookup(self):
        t = Trie()
        t.insert("ab", 5)
        assert t.lookup("ab") == 5
        assert t.lookup("a") is None
        assert t.lookup("abc") is None


class TestLexicon:
    def test_dedup(self):
        lex = Lexicon(["ab", "cd", "ab"])
        assert lex.words == ["ab", "cd"]

    def test_empty_rejected(self):
        with pytest.raises(ConfigError):
            Lexicon([])

    def test_from_file(self, tmp_path):
        p = tmp_path / "lex.txt"
        p.write_text("ab 5\ncd\n")
        lex = Lexicon.from_file(str(p))
        assert set(lex.words) == {"ab", "cd"}
        assert lex.freq("ab") == 5.0
        assert lex.freq("cd") == 0.0


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


class TestBucketing:
    def test_bucket_count(self):
        assert bucket_count(0) == 4
        assert bucket_count(2) == 8

    def test_bucket_of_k2(self):
        m = lambda mode, k: Match(0, "x" * k, mode, k)
        assert bucket_of(m("exact", 3), 2) == 0
        assert bucket_of(m("prefix", 1), 2) == 1
        assert bucket_of(m("prefix", 2), 2) == 2
        assert bucket_of(m("prefix", 9), 2) == 3    # residual prefix
        assert bucket_of(m("suffix", 1), 2) == 4
        assert bucket_of(m("suffix", 2), 2) == 5
        assert bucket_of(m("suffix", 5), 2) == 6    # residual suffix
        assert bucket_of(m("infix", 4), 2) == 7

    def test_bucket_names_distinct(self):
        for k_cut in (0, 1, 2, 3):
            names = [bucket_name(b, k_cut) for b in range(bucket_count(k_cut))]
            assert len(set(names)) == len(names)

    def test_all_buckets_reachable(self):
        rng = np.random.default_rng(3)
        k_cut = 2
        seen = set()
        for _ in range(500):
            mode = str(rng.choice(["exact", "prefix", "suffix", "infix"]))
            k = int(rng.integers(1, 6))
            b = bucket_of(Match(0, "x" * k, mode, k), k_cut)
            assert 0 <= b < bucket_count(k_cut)
            seen.add(b)
        assert seen == set(range(bucket_count(k_cut)))

    def test_empty_matches_all_null(self):
        lex = Lexicon(["ab"])
        layout = bucketize([], 2, lex, vocab_lex_id=lambda w: 0)
        assert len(layout.lex_ids) == 0
        assert sorted(layout.null_buckets) == list(range(8))
        assert layout.n_rows == 8

    def test_row_count_one_per_match_plus_nulls(self):
        lex = Lexicon(["a", "ab", "b"])
        matches = match_fragment(lex, "ab")
        layout = bucketize(matches, 2, lex, vocab_lex_id=lambda w: 1)
        occupied = {bucket_of(m, 2) for m in matches}
        assert len(layout.lex_ids) == len(matches)
        assert set(int(b) for b in layout.null_buckets) == set(range(8)) - occupied
        assert layout.n_rows == len(matches) + len(layout.null_buckets)

    def test_mode_id_equals_bucket_id(self):
        lex = Lexicon(["a", "ab", "b"])
        layout = bucketize(match_fragment(lex, "ab"), 2, lex,
                           vocab_lex_id=lambda w: 0)
        assert np.array_equal(layout.mode_ids,
                              layout.bucket_of_row[:len(layout.mode_ids)])

    def test_cap_prefers_longest_then_frequent(self):
        words = [f"w{i}" for i in range(12)]
        freqs = {w: float(i) for i, w in enumerate(words)}
        lex = Lexicon(words, freqs)
        matches = [Match(i, words[i], "infix", (i % 3) + 1) for i in range(12)]
        layout = bucketize(matches, 0, lex, vocab_lex_id=lambda w: 0, cap=8)
        assert len(layout.words) == 8
        kept_ks = sorted((int(w[1:]) % 3) + 1 for w in layout.words)
        # the four k=3 and four k=2 matches beat every k=1 match
        assert kept_ks == [2, 2, 2, 2, 3, 3, 3, 3]

    def test_negative_cutoff_rejected(self):
        lex = Lexicon(["a"])
        with pytest.raises(ConfigError):
            bucketize([], -1, lex, vocab_lex_id=lambda w: 0)


def attend_layout(layout, emb_lex, emb_mod, null_rows, d_f=2):
    """The model's memory step over a sentence layout, with a zero
    bilinear map: every span weighs its rows equally."""
    n = len(layout.per_span)
    memory = ad.hconcat(ad.gather_rows(emb_lex, layout.lex_ids),
                        ad.gather_rows(emb_mod, layout.mode_ids))
    ctx, weights = ad.memory_attention(
        Tensor(np.ones((n, d_f))), Tensor(np.zeros((d_f, memory.shape[1]))), memory,
        layout.row_span, null_rows, layout.null_mask)
    return memory, ctx, weights


class TestAssemble:
    def test_one_real_row_plus_nulls(self):
        lex = Lexicon(["希尔顿"])
        matches = match_fragment(lex, "希尔顿")
        assert len(matches) == 1
        layout = SentenceLayout.of(
            [bucketize(matches, 2, lex, vocab_lex_id=lambda w: 2),
             bucketize([], 2, lex, vocab_lex_id=lambda w: 2)], 2)
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

    def test_gradient_reaches_null_rows(self):
        lex = Lexicon(["xy"])
        layout = SentenceLayout.of([bucketize([], 2, lex, vocab_lex_id=lambda w: 0)], 2)
        assert len(layout.lex_ids) == 0
        emb_lex = Tensor(np.zeros((1, 4)), tracked=True)
        emb_mod = Tensor(np.zeros((8, 2)), tracked=True)
        null_rows = Tensor(np.random.default_rng(0).normal(size=(8, 6)),
                           tracked=True)
        with Tape() as tape:
            _, ctx, _ = attend_layout(layout, emb_lex, emb_mod, null_rows)
            tape.backward(ad.sum_all(ad.mul(ctx, ctx)))
        # ctx is the mean of the null rows
        mean = null_rows.values.mean(axis=0)
        assert np.allclose(null_rows.grad, np.tile(2 * mean / 8, (8, 1)))
        assert not emb_lex.grad.any() and not emb_mod.grad.any()
        assert not emb_lex.touched_rows and not emb_mod.touched_rows

    def test_gradient_reaches_embeddings(self):
        lex = Lexicon(["ab", "a"])
        layouts = [bucketize(match_fragment(lex, frag), 0, lex,
                             vocab_lex_id=lambda w: lex.word_id[w]) for frag in ("ab", "a")]
        layout = SentenceLayout.of(layouts, 0)
        emb_lex = Tensor(np.zeros((2, 3)), tracked=True)
        emb_mod = Tensor(np.zeros((4, 2)), tracked=True)
        null_rows = Tensor(np.zeros((4, 5)), tracked=True)
        with Tape() as tape:
            memory, ctx, _ = attend_layout(layout, emb_lex, emb_mod, null_rows)
            tape.backward(ad.sum_all(ctx))
        # each real row carries its span's weight, 1 / 4 with 4 buckets
        assert np.sum(emb_lex.grad) == len(layout.lex_ids) * 3 / 4
        assert np.sum(emb_mod.grad) == len(layout.mode_ids) * 2 / 4
        assert emb_lex.touched_rows == set(layout.lex_ids.tolist())
        assert emb_mod.touched_rows == set(layout.mode_ids.tolist())


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
        # trie walks depend on fragment length, not lexicon size
        assert elapsed < 1.0, elapsed
