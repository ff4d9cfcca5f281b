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
2K+4 rows. An empty bucket is represented by a learned null row.

A sentence is matched once: every word occurring in it is found by one
trie walk from each start position, and each span reads the occurrences
that fall inside it. The result is one ragged layout of all spans, which
the model's memory attention reads in one step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigError
from .corpus import ParseError, open_text

EXACT, PREFIX, SUFFIX, INFIX = "exact", "prefix", "suffix", "infix"
MODES = (EXACT, PREFIX, SUFFIX, INFIX)   # in priority order


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


class Lexicon:
    """Immutable word list with a trie over its words."""

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
        for w, i in seen.items():
            self._fwd.insert(w, i)

    def __len__(self):
        return len(self.words)

    def __contains__(self, word: str):
        return word in self.word_id

    @classmethod
    def from_file(cls, path: str) -> "Lexicon":
        """One word per line, optional whitespace-separated frequency column."""
        words, freqs = [], {}
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                words.append(parts[0])
                if len(parts) > 1:
                    try:
                        freqs[parts[0]] = float(parts[1])
                    except ValueError:
                        raise ParseError(
                            f"{path}:{lineno}: bad frequency {parts[1]!r}") from None
        return cls(words, freqs)

    def freq(self, word: str) -> float:
        return self.freqs.get(word, 0.0)


def _span_matches(lex: Lexicon | None, text: str, starts: np.ndarray,
                  ends: np.ndarray):
    """Every word inside each span ``text[starts[s]:ends[s] + 1]``, once per
    (span, word), in the word's highest-priority mode there.

    Returns span index, word id, mode (index into ``MODES``) and word length
    per match, ordered by span, mode, length and word id.
    """
    longest = int((ends - starts).max(initial=-1)) + 1
    found = [] if lex is None else [
        (a, k, wid) for a in range(len(text))
        for k, wid in lex._fwd.walk_prefixes(text, a, min(len(text), a + longest))]
    a, k, wid = np.array(found, dtype=np.intp).reshape(-1, 3).T
    b = a + k - 1
    span, occ = np.nonzero((starts[:, None] <= a) & (b <= ends[:, None]))
    # exact 0, prefix 1, suffix 2, infix 3, by the span ends the word touches
    mode = 3 - 2 * (a[occ] == starts[span]) - (b[occ] == ends[span])
    k, wid = k[occ], wid[occ]
    order = np.lexsort((wid, k, mode, span))
    span, wid, mode, k = span[order], wid[order], mode[order], k[order]
    # a word found more than once in a span keeps its first, highest-priority mode
    _, first = np.unique(wid * len(starts) + span, return_index=True)
    keep = np.sort(first)
    return span[keep], wid[keep], mode[keep], k[keep]


def match_fragment(lex: Lexicon, fragment: str) -> list[Match]:
    """All (word, mode) matches for a fragment, one mode per word.

    Deterministic order: exact, then prefixes, suffixes and infixes, each
    by length and then word id.
    """
    if not fragment:
        raise ValueError("cannot match an empty fragment")
    _, wid, mode, k = _span_matches(lex, fragment, np.array([0]),
                                    np.array([len(fragment) - 1]))
    return [Match(w, lex.words[w], MODES[m], n)
            for w, m, n in zip(wid.tolist(), mode.tolist(), k.tolist())]


# ---------------------------------------------------------------------------
# bucketing and memory layout


def bucket_count(k_cut: int) -> int:
    return 2 * k_cut + 4


def bucket_of(mode: np.ndarray, k: np.ndarray, k_cut: int) -> np.ndarray:
    """Bucket of each match, from its mode (index into ``MODES``) and its
    word length."""
    residual = np.minimum(k, k_cut + 1)
    return np.select([mode == 0, mode == 1, mode == 2],
                     [0, residual, k_cut + 1 + residual], 2 * k_cut + 3)


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
class SentenceLayout:
    """Ragged memory layout of every span of a sentence, built once.

    The real rows of all spans, span by span and, within a span, by bucket,
    word length and word id, form one list: ``lex_ids`` and ``mode_ids``
    (mode id == bucket id) index the embedding tables, ``row_span``
    (sorted) names the span of each row and ``words`` its word.
    ``null_mask[s, b]`` is set when bucket ``b`` of span ``s`` is empty and
    the span attends over null row ``b``.
    """

    lex_ids: np.ndarray
    mode_ids: np.ndarray
    row_span: np.ndarray
    null_mask: np.ndarray
    words: np.ndarray

    @classmethod
    def build(cls, lex: Lexicon | None, text: str, spans: list[tuple[int, int]],
              k_cut: int, cap: int, lex_id) -> "SentenceLayout":
        """Match ``text`` once and lay out the memory of each span.

        Each bucket keeps at most ``cap`` (>= 1) matches: the longest words
        first, then the most frequent, then the lowest word id.
        ``lex_id`` maps a word to its embedding row. With no lexicon every
        bucket is null.
        """
        starts, ends = np.array(spans, dtype=np.intp).reshape(-1, 2).T
        span, wid, mode, k = _span_matches(lex, text, starts, ends)
        bucket = bucket_of(mode, k, k_cut)
        null_mask = np.ones((len(spans), bucket_count(k_cut)), dtype=bool)
        null_mask[span, bucket] = False
        uniq, word = np.unique(wid, return_inverse=True)
        words = [lex.words[w] for w in uniq.tolist()]
        freq = np.array([lex.freq(w) for w in words])[word]
        # best first within each (span, bucket); a match's rank is its offset
        # from the start of its group, and the first ``cap`` ranks are kept
        order = np.lexsort((wid, -freq, -k, bucket, span))
        group = (span * bucket_count(k_cut) + bucket)[order]
        kept = np.sort(order[np.arange(len(order)) - np.searchsorted(group, group) < cap])
        return cls(
            lex_ids=np.array([lex_id(w) for w in words], dtype=np.intp)[word[kept]],
            mode_ids=bucket[kept],
            row_span=span[kept],
            null_mask=null_mask,
            words=np.array(words, dtype=object)[word[kept]],
        )

    def attention_rows(self, p_real: np.ndarray, p_null: np.ndarray, k_cut: int
                       ) -> list[tuple[np.ndarray, list[str]]]:
        """Per span, its attention weights and row labels in memory row
        order: real rows by bucket, then null rows by bucket."""
        bounds = np.searchsorted(self.row_span, np.arange(len(self.null_mask) + 1))
        rows = []
        for s, (lo, hi) in enumerate(zip(bounds[:-1], bounds[1:])):
            null = np.flatnonzero(self.null_mask[s])
            labels = [f"{w}[{bucket_name(b, k_cut)}]"
                      for w, b in zip(self.words[lo:hi], self.mode_ids[lo:hi])]
            labels += [f"-[{bucket_name(b, k_cut)}]" for b in null]
            rows.append((np.concatenate([p_real[lo:hi], p_null[s, null]]), labels))
        return rows
