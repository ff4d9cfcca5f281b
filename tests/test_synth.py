"""The set-up path: synthetic corpora pinned per seed, and vocabularies and
ids equal to a per-symbol reference."""
import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lexner import synth
from lexner.corpus import NONE_LABEL, PAD, SEG_LABELS, UNK, Sentence, Vocab

# infer-long's corpus: enough pieces for its 40 long sentences, no dev set
INFER_LONG_TRAIN = 380


def canonical(train, dev, words) -> bytes:
    def rows(sents):
        return [[s.text, "".join(s.seg_labels), " ".join(s.pos_tags), sorted(s.entities)]
                for s in sents]
    return json.dumps({"train": rows(train), "dev": rows(dev), "lexicon": words},
                      separators=(",", ":")).encode()


class TestCorpusPinned:
    # digests of make_corpus output from before draws went through indices
    @pytest.mark.parametrize("seed, n_train, n_dev, digest", [
        (0, 200, 60, "208aae1e8db0f02f6cda89e646321a3cf67bebe8069fb79df1d87ef653c31056"),
        (0, INFER_LONG_TRAIN, 0,
         "a2d8a9d57be6313b3d19a680cc6e8f934adf8b8992e49922b0cc06581c4eb817"),
        (1, 200, 60, "4e543173c94d9043a00bc1967136efd85a9ee16c337a678df4d15f4cd37f37fc"),
        (1, INFER_LONG_TRAIN, 0,
         "45dab177e6dba8db0c0e285da4ae6cebe5bf7157af5744b3eca9692d1f7c2d59"),
        (901, 200, 60, "ef38bd85121c61003ae01ff54ccb9e176ac232fa89820b1bd4d1b550eda53c41"),
        (901, INFER_LONG_TRAIN, 0,
         "1c74267a46ce929687cebe8863c795196fd08f4c82e4a12dc246ad1d5e45c268"),
        (9901, 200, 60, "d679fca72952ee8b440dd38a7b218de015218d174e1558119b86f524bf2a2fbb"),
        (9901, INFER_LONG_TRAIN, 0,
         "59f5a81130006ffa9cd7f33afaddbdd53e30cc87ad64d8986a68f8a46b7f4be1"),
    ])
    def test_make_corpus_digest(self, seed, n_train, n_dev, digest):
        corpus = synth.make_corpus(seed, n_train, n_dev)
        assert hashlib.sha256(canonical(*corpus)).hexdigest() == digest

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 8),
           alphabet=st.sampled_from([synth.CONTEXT_ALPHABET, synth.WORD_ALPHABET,
                                     synth.LEXICON_ALPHABET]))
    def test_draw_is_choice_from_the_list(self, seed, n, alphabet):
        by_index, by_choice = np.random.default_rng(seed), np.random.default_rng(seed)
        assert synth._draw(by_index, alphabet, n) == \
            [str(c) for c in by_choice.choice(list(alphabet), size=n)]
        assert by_index.bit_generator.state == by_choice.bit_generator.state


class TestLexiconSize:
    def test_limit_is_the_count_of_short_words(self):
        assert synth.MAX_LEXICON_SIZE == 26 ** 2 + 26 ** 3 == 18252

    def test_larger_lexicon_is_an_error_before_any_draw(self):
        with pytest.raises(ValueError, match="18253 exceeds 18252"):
            synth.make_corpus(0, 1, 0, lexicon_size=synth.MAX_LEXICON_SIZE + 1)
        rng = np.random.default_rng(0)
        prefixes, suffixes, _ = synth.build_wordlists(rng)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="18252"):
            synth.build_lexicon_words(rng, prefixes, suffixes, 10 ** 5)
        assert rng.bit_generator.state == state


# ---------------------------------------------------------------------------
# vocabularies against one table insertion and one lookup per symbol


def reference_build(sentences, lexicon_words=None):
    tables = {name: list(start) for name, start in Vocab.TABLES.items()}

    def add(name, sym):
        if sym not in tables[name]:
            tables[name].append(sym)

    for sent in sentences:
        for c in sent.chars:
            add("chars", c)
        for p in sent.pos_tags:
            add("pos", p)
        for _, _, etype in sorted(sent.entities):
            add("types", etype)
    for w in lexicon_words or []:
        add("lex", w)
    return tables


def reference_encode(tables, sent):
    def ids(name, syms, unknown=None):
        table = tables[name]
        return [table.index(s) if s in table else table.index(unknown) for s in syms]
    return ids("chars", sent.chars, UNK), ids("segs", sent.seg_labels), \
        ids("pos", sent.pos_tags, UNK)


def check_vocab(built_from, encoded, lexicon_words=None):
    vocab = Vocab.build(built_from, lexicon_words)
    tables = reference_build(built_from, lexicon_words)
    assert {name: getattr(vocab, name).symbols for name in Vocab.TABLES} == tables
    for sent in encoded:
        vocab.encode(sent)
        got = sent.char_ids, sent.seg_ids, sent.pos_ids
        assert all(a.dtype == np.intp for a in got)
        assert [a.tolist() for a in got] == list(reference_encode(tables, sent))


class TestVocabMatchesReference:
    @pytest.mark.parametrize("seed", [0, 901])
    def test_synthetic_corpus(self, seed):
        train, dev, words = synth.make_corpus(seed, 40, 20)
        # dev has symbols the train set may lack; words repeat
        check_vocab(train, train + dev, words + words[::-1])

    def test_empty(self):
        check_vocab([], [Sentence([], [], [])])

    @given(st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from("ab甲<"), st.sampled_from(SEG_LABELS),
                           st.sampled_from(["NN", "X", PAD, UNK])), max_size=6),
        st.lists(st.sampled_from(["PER", "ORG", NONE_LABEL]), max_size=3)),
        min_size=1, max_size=5))
    def test_random_sentences(self, spec):
        sents = []
        for rows, types in spec:
            chars, segs, pos = (list(col) for col in zip(*rows)) if rows else ([], [], [])
            entities = {(i, i, t) for i, t in enumerate(types[:len(rows)])}
            sents.append(Sentence(chars, segs, pos, entities))
        check_vocab(sents[:-1], sents, ["ab", "甲", "ab", PAD])
