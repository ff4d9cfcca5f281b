"""Word-list storage, the four fragment matching modes, and memory layouts.

A fragment is matched against the word list in four mutually exclusive
modes: exact (the fragment is a word), k-prefix (a word equals the first
k < len characters), k-suffix (a word equals the last k < len characters),
and infix (a word occurs strictly inside, touching neither end). A word
that qualifies under several modes is reported once, in the highest-
priority mode (exact > prefix > suffix > infix).

Matches are grouped into buckets with cutoff K: one exact bucket, one
bucket per k <= K for prefixes and suffixes, one residual prefix bucket
(k > K), one residual suffix bucket, and one infix bucket; 2K+4 buckets
in total. Mode ids are tied to bucket ids, so the mode embedding table has
2K+4 rows. An empty bucket is represented by a learned null row. The
layouts of a sentence's spans are joined into one ragged layout, which the
model's memory attention reads in one step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigError

EXACT, PREFIX, SUFFIX, INFIX = "exact", "prefix", "suffix", "infix"
_MODE_RANK = {EXACT: 0, PREFIX: 1, SUFFIX: 2, INFIX: 3}


class _TrieNode:
    __slots__ = ("children", "word_id")

    def __init__(self):
        self.children: dict[str, _TrieNode] = {}
        self.word_id: int | None = None


class Trie:
    def __init__(self):
        self.root = _TrieNode()

    def insert(self, word: str, word_id: int):
        node = self.root
        for ch in word:
            node = node.children.setdefault(ch, _TrieNode())
        node.word_id = word_id

    def lookup(self, word: str) -> int | None:
        node = self.root
        for ch in word:
            node = node.children.get(ch)
            if node is None:
                return None
        return node.word_id

    def walk_prefixes(self, text: str, start: int = 0, stop: int | None = None):
        """Yield (length, word_id) for every word equal to a prefix of
        text[start:stop]; cost is O(walk length + matches)."""
        node = self.root
        end = len(text) if stop is None else stop
        for i in range(start, end):
            node = node.children.get(text[i])
            if node is None:
                return
            if node.word_id is not None:
                yield i - start + 1, node.word_id


@dataclass(frozen=True)
class Match:
    word_id: int
    word: str
    mode: str   # one of exact / prefix / suffix / infix
    k: int      # matched word length

    def sort_key(self):
        return (_MODE_RANK[self.mode], self.k, self.word_id)


class Lexicon:
    """Immutable word list with forward and reverse tries."""

    def __init__(self, words: list[str], freqs: dict[str, float] | None = None):
        seen: dict[str, int] = {}
        for w in words:
            if w and w not in seen:
                seen[w] = len(seen)
        if not seen:
            raise ConfigError("lexicon word list is empty")
        self.words: list[str] = list(seen)
        self.word_id: dict[str, int] = seen
        self.freqs = freqs or {}
        self._fwd = Trie()
        self._rev = Trie()
        for w, i in seen.items():
            self._fwd.insert(w, i)
            self._rev.insert(w[::-1], i)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word: str):
        return word in self.word_id

    @classmethod
    def from_file(cls, path: str) -> "Lexicon":
        """One word per line, optional whitespace-separated frequency column."""
        words, freqs = [], {}
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if not parts:
                    continue
                words.append(parts[0])
                if len(parts) > 1:
                    freqs[parts[0]] = float(parts[1])
        return cls(words, freqs)

    def freq(self, word: str) -> float:
        return self.freqs.get(word, 0.0)


def match_fragment(lex: Lexicon, fragment: str) -> list[Match]:
    """All (word, mode) matches for a fragment, one mode per word.

    Deterministic order: exact, then prefixes by k, suffixes by k, infixes
    by word id.
    """
    if not fragment:
        raise ValueError("cannot match an empty fragment")
    n = len(fragment)
    by_word: dict[int, Match] = {}

    def offer(match: Match):
        held = by_word.get(match.word_id)
        if held is None or match.sort_key() < held.sort_key():
            by_word[match.word_id] = match

    exact_id = lex._fwd.lookup(fragment)
    if exact_id is not None:
        offer(Match(exact_id, fragment, EXACT, n))
    for k, wid in lex._fwd.walk_prefixes(fragment):
        if k < n:
            offer(Match(wid, fragment[:k], PREFIX, k))
    rev = fragment[::-1]
    for k, wid in lex._rev.walk_prefixes(rev):
        if k < n:
            offer(Match(wid, fragment[n - k:], SUFFIX, k))
    # interior occurrences: start >= 1, end <= n - 2
    for start in range(1, n - 1):
        for k, wid in lex._fwd.walk_prefixes(fragment, start, n - 1):
            offer(Match(wid, fragment[start:start + k], INFIX, k))
    return sorted(by_word.values(), key=Match.sort_key)


# ---------------------------------------------------------------------------
# bucketing and memory layout


def bucket_count(k_cut: int) -> int:
    return 2 * k_cut + 4


def bucket_of(match: Match, k_cut: int) -> int:
    if match.mode == EXACT:
        return 0
    if match.mode == PREFIX:
        return match.k if match.k <= k_cut else k_cut + 1
    if match.mode == SUFFIX:
        return k_cut + 1 + match.k if match.k <= k_cut else 2 * k_cut + 2
    return 2 * k_cut + 3


def bucket_name(bucket: int, k_cut: int) -> str:
    if bucket == 0:
        return "exact"
    if bucket <= k_cut:
        return f"prefix-{bucket}"
    if bucket == k_cut + 1:
        return f"prefix->{k_cut}"
    if bucket <= 2 * k_cut + 1:
        return f"suffix-{bucket - k_cut - 1}"
    if bucket == 2 * k_cut + 2:
        return f"suffix->{k_cut}"
    return "infix"


@dataclass
class MemoryLayout:
    """Index-level description of a fragment's memory, ready to embed.

    ``lex_ids`` and ``mode_ids`` describe the real match rows (mode id ==
    bucket id); ``null_buckets`` lists buckets left empty, which contribute
    one learned null row each. Row order: real rows sorted by bucket then
    match order, followed by null rows by bucket.
    """

    lex_ids: np.ndarray
    mode_ids: np.ndarray
    null_buckets: np.ndarray
    bucket_of_row: np.ndarray
    words: list[str]

    @property
    def n_rows(self) -> int:
        return len(self.bucket_of_row)

    def row_labels(self, k_cut: int) -> list[str]:
        real = [f"{w}[{bucket_name(b, k_cut)}]"
                for w, b in zip(self.words, self.bucket_of_row)]
        real += [f"-[{bucket_name(int(b), k_cut)}]" for b in self.null_buckets]
        return real


def bucketize(matches: list[Match], k_cut: int, lex: Lexicon,
              vocab_lex_id, cap: int = 8) -> MemoryLayout:
    """Group matches into 2K+4 buckets, capping each at ``cap`` rows.

    Overfull buckets keep the longest-k matches first, then the most
    frequent words. ``vocab_lex_id`` maps a word string to its embedding
    row.
    """
    if k_cut < 0:
        raise ConfigError(f"bucket cutoff must be nonnegative, got {k_cut}")
    buckets: dict[int, list[Match]] = {}
    for m in matches:
        buckets.setdefault(bucket_of(m, k_cut), []).append(m)
    lex_ids, mode_ids, row_buckets, words = [], [], [], []
    for b in sorted(buckets):
        group = buckets[b]
        if len(group) > cap:
            group = sorted(group, key=lambda m: (-m.k, -lex.freq(m.word), m.word_id))[:cap]
            group.sort(key=Match.sort_key)
        for m in group:
            lex_ids.append(vocab_lex_id(m.word))
            mode_ids.append(b)
            row_buckets.append(b)
            words.append(m.word)
    null = [b for b in range(bucket_count(k_cut)) if b not in buckets]
    return MemoryLayout(
        lex_ids=np.array(lex_ids, dtype=np.intp),
        mode_ids=np.array(mode_ids, dtype=np.intp),
        null_buckets=np.array(null, dtype=np.intp),
        bucket_of_row=np.array(row_buckets + null, dtype=np.intp),
        words=words,
    )


@dataclass
class SentenceLayout:
    """Ragged memory layout of every span of a sentence, built once.

    The real rows of all spans, span by span in each span's row order,
    form one list: ``lex_ids`` and ``mode_ids`` index the embedding tables
    and ``row_span`` (sorted) names the span of each row. ``null_mask[s, b]``
    is set when bucket ``b`` of span ``s`` is empty and the span attends
    over null row ``b``. ``per_span`` keeps the span layouts for the row
    labels of the attention dump.
    """

    lex_ids: np.ndarray
    mode_ids: np.ndarray
    row_span: np.ndarray
    null_mask: np.ndarray
    per_span: list[MemoryLayout]

    @classmethod
    def of(cls, layouts: list[MemoryLayout], k_cut: int) -> "SentenceLayout":
        n = len(layouts)
        null_mask = np.zeros((n, bucket_count(k_cut)), dtype=bool)
        for s, layout in enumerate(layouts):
            null_mask[s, layout.null_buckets] = True
        return cls(
            lex_ids=np.concatenate([l.lex_ids for l in layouts]),
            mode_ids=np.concatenate([l.mode_ids for l in layouts]),
            row_span=np.repeat(np.arange(n), [len(l.lex_ids) for l in layouts]),
            null_mask=null_mask,
            per_span=layouts,
        )

    def attention_rows(self, p_real: np.ndarray, p_null: np.ndarray, k_cut: int
                       ) -> list[tuple[np.ndarray, list[str]]]:
        """Per span, its attention weights and row labels in memory row
        order: real rows by bucket, then null rows by bucket."""
        bounds = np.searchsorted(self.row_span, np.arange(len(self.per_span) + 1))
        return [(np.concatenate([p_real[lo:hi], p_null[s, layout.null_buckets]]),
                 layout.row_labels(k_cut))
                for s, (layout, lo, hi) in enumerate(
                    zip(self.per_span, bounds[:-1], bounds[1:]))]
