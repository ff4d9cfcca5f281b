"""Synthetic desk-scale corpus where entity type is carried by suffix words.

Entities are prefix word + suffix word (4 characters). The 20 suffix words
come in reversed pairs ("ab"/"ba") assigned to different types, so an
order-insensitive character model cannot separate the types while the
lexicon pathway (each suffix word has its own embedding) can. Context
characters use a disjoint alphabet and single-character segmentation, so
span boundaries are learnable by any configuration.
"""
from __future__ import annotations

import numpy as np

from .corpus import Sentence, derive_soft_word_labels

WORD_ALPHABET = "abcdefghijklmnopqrst"
CONTEXT_ALPHABET = "uvwxyz"
LEXICON_ALPHABET = WORD_ALPHABET + CONTEXT_ALPHABET
TYPES = ("PER", "ORG", "LOC")
# lexicon words have 2 or 3 letters, so there are no more distinct ones
MAX_LEXICON_SIZE = len(LEXICON_ALPHABET) ** 2 + len(LEXICON_ALPHABET) ** 3


def _draw(rng: np.random.Generator, alphabet: str, n: int) -> list[str]:
    """``n`` letters of ``alphabet`` with replacement: the values and stream
    of ``rng.choice(list(alphabet), size=n)``, which would turn the list
    into an array on every call."""
    return [alphabet[i] for i in rng.integers(0, len(alphabet), size=n).tolist()]


def _check_lexicon_size(size: int):
    if size > MAX_LEXICON_SIZE:
        raise ValueError(f"lexicon_size {size} exceeds {MAX_LEXICON_SIZE}, the number "
                         f"of distinct 2- and 3-letter words over {LEXICON_ALPHABET!r}")


def build_wordlists(rng: np.random.Generator):
    """20 prefix words, 20 type-bearing suffix words, and their type map."""
    letters = list(WORD_ALPHABET)
    pairs = []
    seen = set()
    while len(pairs) < 10:
        x, y = rng.choice(letters, size=2, replace=False)
        if frozenset((x, y)) not in seen:
            seen.add(frozenset((x, y)))
            pairs.append((x, y))
    suffixes, suffix_type = [], {}
    for i, (x, y) in enumerate(pairs):
        for word, t in ((x + y, TYPES[i % 3]), (y + x, TYPES[(i + 1) % 3])):
            suffixes.append(word)
            suffix_type[word] = t
    prefixes = []
    taken = set(suffixes)
    while len(prefixes) < 20:
        w = "".join(_draw(rng, WORD_ALPHABET, 2))
        if w not in taken:
            taken.add(w)
            prefixes.append(w)
    return prefixes, suffixes, suffix_type


def build_lexicon_words(rng: np.random.Generator, prefixes, suffixes,
                        size: int = 500) -> list[str]:
    """The prefixes and suffixes, then distinct 2- and 3-letter words until
    there are ``size``; a ``size`` above ``MAX_LEXICON_SIZE`` is a
    ValueError before any draw."""
    _check_lexicon_size(size)
    words = list(prefixes) + list(suffixes)
    taken = set(words)
    while len(words) < size:
        w = "".join(_draw(rng, LEXICON_ALPHABET, int(rng.integers(2, 4))))
        if w not in taken:
            taken.add(w)
            words.append(w)
    return words


def make_sentence(rng: np.random.Generator, prefixes, suffixes,
                  suffix_type) -> Sentence:
    """Context, an entity, context, and with probability 1/2 a second entity
    and more context. Context letters are one-character words tagged
    ``X``; an entity is one word, prefix + suffix, tagged ``NN``."""
    chars: list[str] = []
    segs: list[str] = []
    pos: list[str] = []
    entities = set()

    def add_context(lo, hi):
        letters = _draw(rng, CONTEXT_ALPHABET, int(rng.integers(lo, hi + 1)))
        chars.extend(letters)
        segs.extend(["S"] * len(letters))
        pos.extend(["X"] * len(letters))

    def add_entity():
        prefix = prefixes[rng.integers(0, len(prefixes))]
        suffix = suffixes[rng.integers(0, len(suffixes))]
        word = prefix + suffix
        entities.add((len(chars), len(chars) + len(word) - 1, suffix_type[suffix]))
        chars.extend(word)
        segs.extend(derive_soft_word_labels([word]))
        pos.extend(["NN"] * len(word))

    add_context(2, 6)
    add_entity()
    add_context(2, 5)
    if rng.random() < 0.5:
        add_entity()
        add_context(1, 3)
    return Sentence(chars, segs, pos, entities)


def make_corpus(seed: int, n_train: int = 200, n_dev: int = 60,
                lexicon_size: int = 500):
    """Returns (train sentences, dev sentences, lexicon words). Each seed's
    corpus is pinned: ``tests/test_synth.py`` checks digests of it."""
    _check_lexicon_size(lexicon_size)
    rng = np.random.default_rng(seed)
    prefixes, suffixes, suffix_type = build_wordlists(rng)
    lex_words = build_lexicon_words(rng, prefixes, suffixes, lexicon_size)
    train = [make_sentence(rng, prefixes, suffixes, suffix_type)
             for _ in range(n_train)]
    dev = [make_sentence(rng, prefixes, suffixes, suffix_type)
           for _ in range(n_dev)]
    return train, dev, lex_words
