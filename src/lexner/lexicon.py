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

A list of sentences is matched once: every word occurring in them is
found by looking up, from each start position, the slice of each word
length the lexicon holds in its word dict, and the rest runs as array
operations over all sentences together. Occurrences ordered by start
form one run per span of those starting inside it; a span is paired with
the ones of its run that also end inside it, so the work grows with the
(span, occurrence) pairs. The result is one ragged layout of all spans,
which the model's memory attention reads in one step; one sentence is the
list of one.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import ConfigError
from .corpus import PAD, UNK, ParseError, open_text

EXACT, PREFIX, SUFFIX, INFIX = "exact", "prefix", "suffix", "infix"
MODES = (EXACT, PREFIX, SUFFIX, INFIX)   # in priority order


@dataclass(frozen=True)
class Match:
    word_id: int
    word: str
    mode: str   # one of exact / prefix / suffix / infix
    k: int      # matched word length


class Lexicon:
    """Immutable word list. A word is found in a text by looking up the
    text's slices in ``word_id``, one slice per word length it holds. The
    vocabulary's reserved symbols cannot be words: their embedding rows are
    not a word's, and a checkpoint's lexicon is rebuilt without them."""

    def __init__(self, words: list[str], freqs: dict[str, float] | None = None):
        seen: dict[str, int] = {}
        for w in words:
            if w and w not in seen:
                seen[w] = len(seen)
        if not seen:
            raise ConfigError("lexicon word list is empty")
        reserved = [w for w in (PAD, UNK) if w in seen]
        if reserved:
            raise ConfigError(f"lexicon words {reserved} are reserved vocabulary symbols")
        self.words: list[str] = list(seen)
        self.word_id: dict[str, int] = seen
        self.freqs = freqs or {}
        self._lengths = sorted({len(w) for w in seen})

    def __len__(self):
        return len(self.words)

    def __contains__(self, word: str):
        return word in self.word_id

    @classmethod
    def from_file(cls, path: str) -> "Lexicon":
        """One word per line, optional whitespace-separated frequency column;
        a frequency that is not a finite number is a ParseError."""
        words, freqs = [], {}
        with open_text(path) as fh:
            for lineno, line in enumerate(fh, start=1):
                parts = line.split()
                if not parts:
                    continue
                words.append(parts[0])
                if len(parts) > 1:
                    try:
                        freq = float(parts[1])
                    except ValueError:
                        freq = math.nan
                    if not math.isfinite(freq):
                        raise ParseError(f"{path}:{lineno}: bad frequency {parts[1]!r}")
                    freqs[parts[0]] = freq
        return cls(words, freqs)

    def freq(self, word: str) -> float:
        return self.freqs.get(word, 0.0)


def _occurrences(lex, texts, longest):
    """Start, length and word id of every word found in ``texts`` laid end
    to end, ordered by start and then length: from each position, the slice
    of each word length the lexicon holds is looked up in ``word_id``, up to
    ``longest`` characters and the end of its text."""
    lengths = [k for k in lex._lengths if k <= longest]
    get, found, offset = lex.word_id.get, [], 0
    for piece in texts:
        n = len(piece)
        for a in range(n):
            for k in lengths:
                if a + k > n:
                    break
                wid = get(piece[a:a + k])
                if wid is not None:
                    found.append((offset + a, k, wid))
        offset += n
    return np.array(found, dtype=np.intp).reshape(-1, 3).T


def _span_matches(lex: Lexicon | None, texts: list[str], starts: np.ndarray,
                  ends: np.ndarray):
    """Every word inside each span ``[starts[s], ends[s]]`` of ``texts``
    laid end to end, once per (span, word), in the word's highest-priority
    mode there.

    Returns span index, word, mode (index into ``MODES``) and word length
    per match, ordered by span, mode, length and word id, and the word ids:
    a match's word id is ``word_ids[word]``.
    """
    longest = int((ends - starts).max(initial=-1)) + 1
    a, k, wid = (_occurrences(lex, texts, longest) if lex is not None
                 else np.empty((3, 0), dtype=np.intp))
    b = a + k - 1
    word_ids = np.unique(wid)
    word = word_ids.searchsorted(wid)
    # the occurrences that start inside a span are one run of them; those
    # of the run that also end inside it are the span's words
    lo = a.searchsorted(starts)
    n = a.searchsorted(ends, side="right") - lo
    span = np.arange(len(starts)).repeat(n)
    occ = np.arange(len(span)) + (lo - n.cumsum() + n).repeat(n)
    inside = b[occ] <= ends[span]
    span, occ = span[inside], occ[inside]
    # exact 0, prefix 1, suffix 2, infix 3, by the span ends the word touches
    mode = 3 - 2 * (a[occ] == starts[span]) - (b[occ] == ends[span])
    k, word = k[occ], word[occ]
    if len(word_ids) < len(wid):
        # a word found more than once in a span keeps its highest-priority
        # mode: the first of its (span, word) run ordered by span, word, mode
        key = (span * len(word_ids) + word) * 4 + mode
        order = np.argsort(key)
        first = order[np.flatnonzero(np.diff(key[order] >> 2, prepend=-1))]
        span, word, mode, k = span[first], word[first], mode[first], k[first]
    order = np.lexsort((word, k, mode, span))
    return span[order], word[order], mode[order], k[order], word_ids


def match_fragment(lex: Lexicon, fragment: str) -> list[Match]:
    """All (word, mode) matches for a fragment, one mode per word.

    Deterministic order: exact, then prefixes, suffixes and infixes, each
    by length and then word id.
    """
    if not fragment:
        raise ValueError("cannot match an empty fragment")
    _, word, mode, k, word_ids = _span_matches(lex, [fragment], np.array([0]),
                                               np.array([len(fragment) - 1]))
    return [Match(w, lex.words[w], MODES[m], n)
            for w, m, n in zip(word_ids[word].tolist(), mode.tolist(), k.tolist())]


# ---------------------------------------------------------------------------
# bucketing and memory layout


def bucket_count(k_cut: int) -> int:
    return 2 * k_cut + 4


def bucket_of(mode: np.ndarray, k: np.ndarray, k_cut: int) -> np.ndarray:
    """Bucket of each match, from its mode (index into ``MODES``) and its
    word length."""
    residual = np.minimum(k, k_cut + 1)
    return np.where(mode == 3, 2 * k_cut + 3,
                    (mode > 0) * residual + (mode == 2) * (k_cut + 1))


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
    """Ragged memory layout of every span of a sentence or of a corpus,
    built once.

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
    def build_corpus(cls, lex: Lexicon | None, texts: list[str], starts: np.ndarray,
                     ends: np.ndarray, k_cut: int, cap: int, lex_id) -> "SentenceLayout":
        """Match ``texts`` once and lay out the memory of each span, a span
        being the positions ``starts[s]`` to ``ends[s]`` of the texts laid
        end to end.

        Each bucket keeps at most ``cap`` (>= 1) matches: the longest words
        first, then the most frequent, then the lowest word id.
        ``lex_id`` maps a word to its embedding row. With no lexicon every
        bucket is null.
        """
        span, word, mode, k, word_ids = _span_matches(lex, texts, starts, ends)
        bucket = bucket_of(mode, k, k_cut)
        null_mask = np.ones((len(starts), bucket_count(k_cut)), dtype=bool)
        null_mask[span, bucket] = False
        words = [lex.words[w] for w in word_ids.tolist()]
        # matches come ordered by (span, bucket); a match's rank is its offset
        # from the start of its group, and a group over ``cap`` is ranked
        # best first and keeps its first ``cap``
        group = span * bucket_count(k_cut) + bucket
        kept = np.arange(len(group))
        if (kept - group.searchsorted(group)).max(initial=0) >= cap:
            freq = np.array([lex.freq(w) for w in words])[word]
            order = np.lexsort((word, -freq, -k, group))
            group = group[order]
            kept = np.sort(order[kept - group.searchsorted(group) < cap])
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
