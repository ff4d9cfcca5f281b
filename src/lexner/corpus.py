"""Corpus loading: column files, soft-word labels, vocabularies, embeddings.

Corpus files are UTF-8, four whitespace-separated columns per character
(char, segmentation label, POS tag, entity tag), with blank lines between
sentences. Entity tags use either BMES (B-/M-/E-/S-/O) or BIO (B-/I-/O)
schemes. A "character" throughout is one Unicode scalar value.
"""
from __future__ import annotations

import codecs
import io
import itertools
import logging
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .autodiff import ConfigError

log = logging.getLogger(__name__)

SEG_LABELS = ("B", "M", "E", "S")
_SEG_SET = frozenset(SEG_LABELS)
# the label that ends a word cut after it: a word's first character ends a
# one-character word, a middle one ends the word
_CLOSE_CUT = {"B": "S", "M": "E"}
NONE_LABEL = "NONE"
PAD = "<pad>"
UNK = "<unk>"

Span = tuple[int, int, str]  # start, end inclusive, type


class ParseError(ValueError):
    """Malformed input; ``position`` is the index of the row of a sentence
    to blame, when one is."""

    def __init__(self, message: str, position: int | None = None):
        super().__init__(message)
        self.position = position


def open_text(path: str) -> io.StringIO:
    """A UTF-8 text file as a stream of lines, with universal newlines; one
    leading byte-order mark is dropped, and bytes that are not UTF-8 are a
    ParseError naming their line."""
    with open(path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return io.StringIO(data.decode("utf-8"), newline=None)
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ParseError(f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None


@dataclass
class Sentence:
    """One annotated sentence; ids are filled in by ``Vocab.encode``, which
    records itself as ``encoded_by``."""

    chars: list[str]
    seg_labels: list[str]
    pos_tags: list[str]
    entities: set[Span] = field(default_factory=set)
    char_ids: np.ndarray | None = None
    seg_ids: np.ndarray | None = None
    pos_ids: np.ndarray | None = None
    encoded_by: "Vocab | None" = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = len(self.chars)
        if len(self.seg_labels) != n or len(self.pos_tags) != n:
            raise ParseError(f"label sequences do not all have length {n}")
        if not _SEG_SET.issuperset(self.seg_labels):
            i, lab = next((i, lab) for i, lab in enumerate(self.seg_labels)
                          if lab not in _SEG_SET)
            raise ParseError(f"invalid segmentation label {lab!r} at position {i}", i)
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


def _unknown_tag(tag: str, i: int) -> ParseError:
    return ParseError(f"unknown entity tag {tag!r} at position {i}", i)


def bio_tags_to_spans(tags: list[str]) -> set[Span]:
    """BIO tags to spans; an I- continuing nothing is repaired to B- and
    logged, and a tag that is neither O nor B-/I- with a type is a
    ParseError."""
    spans: set[Span] = set()
    start, cur = -1, None
    for i, tag in enumerate(tags):
        if tag == "O" or tag == "":
            if cur is not None:
                spans.add((start, i - 1, cur))
                cur = None
            continue
        kind, _, etype = tag.partition("-")
        if kind not in ("B", "I") or not etype:
            raise _unknown_tag(tag, i)
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
    """BMES tags to spans; dangles and mid-segment type switches are repaired,
    and a tag that is neither O nor S-/B-/M-/E- with a type is a ParseError."""
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
        if not etype:
            raise _unknown_tag(tag, i)
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
            raise _unknown_tag(tag, i)
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


def _truncate(items: list, max_len: int, entities: set[Span] = frozenset()
              ) -> tuple[list, set[Span]]:
    """The first ``max_len`` items and the entities that end before the cut;
    a sentence that is cut is logged with the count of entities dropped."""
    kept = {e for e in entities if e[1] < max_len}
    if len(items) > max_len:
        log.warning("sentence truncated from %d to %d characters; entities past the "
                    "cut dropped: %d", len(items), max_len, len(entities) - len(kept))
    return items[:max_len], kept


def read_corpus(path: str, fmt: str = "column-bmes",
                max_len: int = 256) -> list[Sentence]:
    """Read a 4-column corpus file; ``fmt`` picks the entity tag scheme. A
    sentence longer than ``max_len`` is cut to it, and a word cut in two
    ends at the cut (``B`` -> ``S``, ``M`` -> ``E``)."""
    if fmt not in FORMATS:
        raise ConfigError(f"unknown corpus format {fmt!r}")
    to_spans = FORMATS[fmt][0]
    sentences: list[Sentence] = []
    rows: list[tuple[str, str, str, str]] = []
    linenos: list[int] = []

    def flush():
        if not rows:
            return
        try:
            kept, entities = _truncate(rows, max_len, to_spans([row[3] for row in rows]))
            chars, segs, pos, _ = (list(col) for col in zip(*kept))
            if len(rows) > max_len:
                segs[-1] = _CLOSE_CUT.get(segs[-1], segs[-1])
            sentences.append(Sentence(chars, segs, pos, entities))
        except ParseError as exc:
            row = 0 if exc.position is None else exc.position
            raise ParseError(f"{path}:{linenos[row]}: {exc}") from None
        rows.clear()
        linenos.clear()

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
            linenos.append(lineno)
    flush()
    return sentences


def read_raw(path: str, max_len: int = 256) -> list[Sentence]:
    """Plain text, one sentence per non-empty line, every character a
    single-character word with an unknown POS tag."""
    sentences = []
    with open_text(path) as fh:
        for line in fh:
            chars, _ = _truncate(list(line.rstrip("\n")), max_len)
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

    def ids(self, syms: list[str], default: int | None = None) -> np.ndarray:
        """``id`` of each symbol as an intp array, by dict lookups."""
        if default is None:
            found = map(self._ids.__getitem__, syms)
        else:
            found = map(self._ids.get, syms, itertools.repeat(default))
        return np.fromiter(found, dtype=np.intp, count=len(syms))

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
        chain = itertools.chain.from_iterable
        for table, symbols in (
                (v.chars, chain(sent.chars for sent in sentences)),
                (v.pos, chain(sent.pos_tags for sent in sentences)),
                (v.types, (etype for sent in sentences
                           for _, _, etype in sorted(sent.entities))),
                (v.lex, lexicon_words or ())):
            # each distinct symbol once, in first-occurrence order
            for sym in dict.fromkeys(symbols):
                table.add(sym)
        return v

    @property
    def none_id(self) -> int:
        return self.types.id(NONE_LABEL)

    def encode(self, sent: Sentence):
        sent.char_ids = self.chars.ids(sent.chars, self.chars.id(UNK))
        sent.seg_ids = self.segs.ids(sent.seg_labels)
        sent.pos_ids = self.pos.ids(sent.pos_tags, self.pos.id(UNK))
        sent.encoded_by = self


# ---------------------------------------------------------------------------
# embedding files


def load_embeddings(path: str, table: SymbolTable, dim: int,
                    rng: np.random.Generator, reserved_rows: int = 0,
                    report=sys.stderr) -> tuple[np.ndarray, float]:
    """Initialize an embedding matrix from the text format "token v1 ... vd".

    An optional "count dim" header line is accepted: a first line of two
    integers whose second is ``dim``. With ``dim`` 1, where a row also has
    two fields, its count must also equal the number of rows that follow;
    any other first line is a row. Rows for symbols not in the file are
    drawn uniform(-0.1, 0.1) from ``rng``. The first ``reserved_rows``
    symbols (pad/unk) are excluded from the hit rate. Returns the matrix and
    the hit rate; a one-line coverage report goes to ``report``.
    """
    matrix = rng.uniform(-0.1, 0.1, size=(len(table), dim))
    hits = 0
    with open_text(path) as fh:
        lines = list(fh) if dim == 1 else fh
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts or lineno == 1 and _is_header(parts, dim, lines):
                continue
            token, vals = parts[0], parts[1:]
            if len(vals) != dim:
                raise ConfigError(f"{path}:{lineno}: embedding row for {token!r} has "
                                  f"{len(vals)} values, expected {dim}")
            if token in table:
                try:
                    row = [float(v) for v in vals]
                except ValueError:
                    raise ParseError(f"{path}:{lineno}: non-numeric row {token!r}") from None
                if not all(map(math.isfinite, row)):
                    raise ParseError(f"{path}:{lineno}: non-finite value in row {token!r}")
                matrix[table.id(token)] = row
                hits += 1
    countable = max(len(table) - reserved_rows, 1)
    rate = hits / countable
    if report is not None:
        print(f"embeddings {path}: {hits}/{countable} symbols covered "
              f"(hit rate {rate:.4f})", file=report)
    return matrix, rate


def _is_header(parts: list[str], dim: int, lines) -> bool:
    """Whether the fields ``parts`` of an embedding file's first line are its
    "count dim" header; ``lines`` are all the file's lines when ``dim`` is 1."""
    if len(parts) != 2 or not all(p.removeprefix("-").isdecimal() for p in parts) \
            or int(parts[1]) != dim:
        return False
    return dim != 1 or int(parts[0]) == sum(1 for line in lines[1:] if line.split())
