"""Corpus loading: column files, soft-word labels, vocabularies, embeddings.

Corpus files are UTF-8, four whitespace-separated columns per character
(char, segmentation label, POS tag, entity tag), with blank lines between
sentences. Entity tags use either BMES (B-/M-/E-/S-/O) or BIO (B-/I-/O)
schemes. A "character" throughout is one Unicode scalar value.
"""
from __future__ import annotations

import io
import logging
import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ConfigError

log = logging.getLogger(__name__)

SEG_LABELS = ("B", "M", "E", "S")
NONE_LABEL = "NONE"
PAD = "<pad>"
UNK = "<unk>"

Span = tuple[int, int, str]  # start, end inclusive, type


class ParseError(ValueError):
    pass


def open_text(path: str) -> io.StringIO:
    """A UTF-8 text file as a stream of lines, with universal newlines; bytes
    that are not UTF-8 are a ParseError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None


@dataclass
class Sentence:
    """One annotated sentence; ids are filled in by ``Vocab.encode``."""

    chars: list[str]
    seg_labels: list[str]
    pos_tags: list[str]
    entities: set[Span] = field(default_factory=set)
    char_ids: np.ndarray | None = None
    seg_ids: np.ndarray | None = None
    pos_ids: np.ndarray | None = None

    def __post_init__(self):
        n = len(self.chars)
        if len(self.seg_labels) != n or len(self.pos_tags) != n:
            raise ParseError(f"label sequences do not all have length {n}")
        for lab in self.seg_labels:
            if lab not in SEG_LABELS:
                raise ParseError(f"invalid segmentation label {lab!r}")
        for start, end, _ in self.entities:
            if not 0 <= start <= end < n:
                raise ParseError(f"entity span ({start},{end}) outside sentence of length {n}")

    def __len__(self):
        return len(self.chars)

    @property
    def text(self) -> str:
        return "".join(self.chars)


def derive_soft_word_labels(words: list[str]) -> list[str]:
    """BMES labels for the concatenation of segmented words."""
    labels: list[str] = []
    for w in words:
        if not w:
            raise ValueError("empty word in segmentation")
        if len(w) == 1:
            labels.append("S")
        else:
            labels.extend(["B"] + ["M"] * (len(w) - 2) + ["E"])
    return labels


# ---------------------------------------------------------------------------
# tag scheme <-> span conversion


def bio_tags_to_spans(tags: list[str]) -> set[Span]:
    """BIO tags to spans; an I- continuing nothing is repaired to B- and logged."""
    spans: set[Span] = set()
    start, cur = -1, None
    for i, tag in enumerate(tags):
        if tag == "O" or tag == "":
            if cur is not None:
                spans.add((start, i - 1, cur))
                cur = None
            continue
        kind, _, etype = tag.partition("-")
        if kind == "I" and cur == etype:
            continue
        if kind == "I":
            log.warning("repairing I-%s at position %d to B-%s", etype, i, etype)
        if cur is not None:
            spans.add((start, i - 1, cur))
        start, cur = i, etype
    if cur is not None:
        spans.add((start, len(tags) - 1, cur))
    return spans


def bmes_tags_to_spans(tags: list[str]) -> set[Span]:
    """BMES tags to spans; dangles and mid-segment type switches are repaired."""
    spans: set[Span] = set()
    start, cur = -1, None

    def close(end):
        nonlocal cur
        if cur is not None:
            spans.add((start, end, cur))
            cur = None

    for i, tag in enumerate(tags):
        if tag == "O" or tag == "":
            if cur is not None:
                log.warning("unterminated entity segment closed at position %d", i - 1)
            close(i - 1)
            continue
        kind, _, etype = tag.partition("-")
        if kind == "S":
            close(i - 1)
            spans.add((i, i, etype))
        elif kind == "B":
            close(i - 1)
            start, cur = i, etype
        elif kind in ("M", "E"):
            if cur != etype:
                log.warning("repairing %s-%s at position %d to B-%s", kind, etype, i, etype)
                close(i - 1)
                start, cur = i, etype
            if kind == "E":
                close(i)
        else:
            raise ParseError(f"unknown entity tag {tag!r}")
    close(len(tags) - 1)
    return spans


def spans_to_bio_tags(spans: set[Span], n: int) -> list[str]:
    tags = ["O"] * n
    for start, end, etype in sorted(spans):
        tags[start] = f"B-{etype}"
        for i in range(start + 1, end + 1):
            tags[i] = f"I-{etype}"
    return tags


def spans_to_bmes_tags(spans: set[Span], n: int) -> list[str]:
    tags = ["O"] * n
    for start, end, etype in sorted(spans):
        if start == end:
            tags[start] = f"S-{etype}"
        else:
            tags[start] = f"B-{etype}"
            for i in range(start + 1, end):
                tags[i] = f"M-{etype}"
            tags[end] = f"E-{etype}"
    return tags


# corpus format -> (tags to spans, spans to tags)
FORMATS = {"column-bmes": (bmes_tags_to_spans, spans_to_bmes_tags),
           "column-bio": (bio_tags_to_spans, spans_to_bio_tags)}


# ---------------------------------------------------------------------------
# reading


def _truncate(items: list, max_len: int) -> list:
    if len(items) > max_len:
        log.warning("sentence truncated from %d to %d characters", len(items), max_len)
    return items[:max_len]


def read_corpus(path: str, fmt: str = "column-bmes",
                max_len: int = 256) -> list[Sentence]:
    """Read a 4-column corpus file; ``fmt`` picks the entity tag scheme."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown corpus format {fmt!r}")
    to_spans = FORMATS[fmt][0]
    sentences: list[Sentence] = []
    rows: list[tuple[str, str, str, str]] = []

    def flush():
        if not rows:
            return
        chars, segs, pos, tags = (list(col) for col in zip(*_truncate(rows, max_len)))
        sentences.append(Sentence(chars, segs, pos, to_spans(tags)))
        rows.clear()

    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.rstrip("\n")
            if not line.strip():
                flush()
                continue
            cols = line.split()
            if len(cols) != 4:
                raise ParseError(f"{path}:{lineno}: expected 4 columns, got {len(cols)}")
            if len(cols[0]) != 1:
                # spans index ``Sentence.text`` by row
                raise ParseError(f"{path}:{lineno}: expected one character in the "
                                 f"first column, got {cols[0]!r}")
            rows.append(tuple(cols))
    flush()
    return sentences


def read_raw(path: str, max_len: int = 256) -> list[Sentence]:
    """Plain text, one sentence per non-empty line, every character a
    single-character word with an unknown POS tag."""
    sentences = []
    with open_text(path) as fh:
        for line in fh:
            chars = _truncate(list(line.rstrip("\n")), max_len)
            if chars:
                sentences.append(Sentence(chars, ["S"] * len(chars), [UNK] * len(chars)))
    return sentences


def write_corpus(path: str, sentences: list[Sentence], fmt: str = "column-bmes"):
    """Write a 4-column corpus file; a row that ``read_corpus`` could not read
    back, such as a whitespace character, is a ParseError before any write."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown corpus format {fmt!r}")
    lines = []
    for k, sent in enumerate(sentences):
        tags = FORMATS[fmt][1](sent.entities, len(sent))
        for row in zip(sent.chars, sent.seg_labels, sent.pos_tags, tags):
            if len(row[0]) != 1 or "\t".join(row).split() != list(row):
                raise ParseError(f"{path}: sentence {k}: row {row!r} would not read back")
            lines.append("\t".join(row) + "\n")
        lines.append("\n")
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(lines)


# ---------------------------------------------------------------------------
# vocabularies


class SymbolTable:
    """Dense bidirectional symbol <-> id map."""

    def __init__(self, symbols: list[str] | None = None):
        self._syms: list[str] = []
        self._ids: dict[str, int] = {}
        for s in symbols or []:
            self.add(s)

    def add(self, sym: str) -> int:
        if sym not in self._ids:
            self._ids[sym] = len(self._syms)
            self._syms.append(sym)
        return self._ids[sym]

    def id(self, sym: str, default: int | None = None) -> int:
        if sym in self._ids:
            return self._ids[sym]
        if default is not None:
            return default
        raise KeyError(sym)

    def sym(self, idx: int) -> str:
        return self._syms[idx]

    @property
    def symbols(self) -> list[str]:
        return list(self._syms)

    def __len__(self):
        return len(self._syms)

    def __contains__(self, sym):
        return sym in self._ids


class Vocab:
    """Symbol tables for characters, seg labels, POS, entity types, lexicon."""

    # table name -> the symbols it starts with; checkpoints list them in this order
    TABLES = {"chars": (PAD, UNK), "segs": SEG_LABELS, "pos": (PAD, UNK),
              "types": (NONE_LABEL,), "lex": (PAD, UNK)}

    def __init__(self):
        for name, start in self.TABLES.items():
            setattr(self, name, SymbolTable(list(start)))

    @classmethod
    def build(cls, sentences: list[Sentence],
              lexicon_words: list[str] | None = None) -> "Vocab":
        v = cls()
        for sent in sentences:
            for c in sent.chars:
                v.chars.add(c)
            for p in sent.pos_tags:
                v.pos.add(p)
            for _, _, etype in sorted(sent.entities):
                v.types.add(etype)
        for w in lexicon_words or []:
            v.lex.add(w)
        return v

    @property
    def none_id(self) -> int:
        return self.types.id(NONE_LABEL)

    def encode(self, sent: Sentence):
        unk_c = self.chars.id(UNK)
        unk_p = self.pos.id(UNK)
        sent.char_ids = np.array([self.chars.id(c, unk_c) for c in sent.chars], dtype=np.intp)
        sent.seg_ids = np.array([self.segs.id(s) for s in sent.seg_labels], dtype=np.intp)
        sent.pos_ids = np.array([self.pos.id(p, unk_p) for p in sent.pos_tags], dtype=np.intp)


# ---------------------------------------------------------------------------
# embedding files


def load_embeddings(path: str, table: SymbolTable, dim: int,
                    rng: np.random.Generator, reserved_rows: int = 0,
                    report=sys.stderr) -> tuple[np.ndarray, float]:
    """Initialize an embedding matrix from the text format "token v1 ... vd".

    An optional "count dim" header line is accepted. Rows for symbols not in
    the file are drawn uniform(-0.1, 0.1) from ``rng``. The first
    ``reserved_rows`` symbols (pad/unk) are excluded from the hit rate.
    Returns the matrix and the hit rate; a one-line coverage report goes to
    ``report``.
    """
    matrix = rng.uniform(-0.1, 0.1, size=(len(table), dim))
    hits = 0
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts or lineno == 1 and len(parts) == 2 and all(
                    p.lstrip("-").isdigit() for p in parts):
                continue
            token, vals = parts[0], parts[1:]
            if len(vals) != dim:
                raise ConfigError(f"{path}:{lineno}: embedding row for {token!r} has "
                                  f"{len(vals)} values, expected {dim}")
            if token in table:
                try:
                    matrix[table.id(token)] = [float(v) for v in vals]
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric row {token!r}") from None
                hits += 1
    countable = max(len(table) - reserved_rows, 1)
    rate = hits / countable
    if report is not None:
        print(f"embeddings {path}: {hits}/{countable} symbols covered "
              f"(hit rate {rate:.4f})", file=report)
    return matrix, rate
