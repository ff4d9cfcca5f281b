"""Spans and counters around the public functions of each lexner module.

The tracer patches the attribute that the caller resolves: a module global
for functions (``lexner.model.attend``, and ``lexner.model.clip_global_norm``,
which ``train_model`` uses under that name), a class attribute for methods.
A boundary that no longer exists is skipped, and its metrics read zero.

Spans are kept in memory as (name, start, end, parent index) and written
out once, after the traced region ends.
"""
from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable

from lexner import autodiff as ad, lexicon


@dataclass(frozen=True)
class Boundary:
    name: str               # span name, "<layer>.<what>"
    module: str             # module holding the attribute callers resolve
    attr: str               # "function" or "Class.method"
    count: Callable | None = None   # count(counts, bound arguments, result)


def _count_bucketize(counts: Counter, args, layout):
    """Hit, null-row and truncation counts of one span's memory layout."""
    k_cut = args["k_cut"]
    per_bucket = Counter(lexicon.bucket_of(m, k_cut) for m in args["matches"])
    kept = Counter(int(b) for b in layout.bucket_of_row[:len(layout.lex_ids)])
    counts["lexicon.spans"] += 1
    counts["lexicon.hit_spans"] += bool(len(layout.lex_ids))
    counts["lexicon.real_rows"] += len(layout.lex_ids)
    counts["lexicon.null_rows"] += len(layout.null_buckets)
    counts["lexicon.filled_buckets"] += len(per_bucket)
    counts["lexicon.cut_buckets"] += sum(n > kept[b] for b, n in per_bucket.items())


def _count_spans(counts: Counter, args, _):
    counts["encoders.spans"] += len(args["spans"])


def _count_taped_sentence(counts: Counter, _args, _result):
    counts["autodiff.taped_sentences"] += ad.active_tape() is not None


def _count_survivors(counts: Counter, _args, kept):
    counts["decode.survivors"] += len(kept)


def _count_kept(counts: Counter, _args, kept):
    counts["decode.kept"] += len(kept)


def _count_bytes(counts: Counter, args, _):
    counts["checkpoint.bytes"] += os.path.getsize(args["path"])


BOUNDARIES = (
    Boundary("lexicon.match", "lexner.lexicon", "match_fragment"),
    Boundary("lexicon.bucketize", "lexner.lexicon", "bucketize", _count_bucketize),
    Boundary("lexicon.assemble_memory", "lexner.lexicon", "assemble_memory"),
    Boundary("encoders.char_features", "lexner.encoders", "char_feature_vectors"),
    Boundary("encoders.char_encoder", "lexner.encoders", "encode_characters"),
    Boundary("encoders.fragment_encoder", "lexner.encoders", "encode_fragments_bow",
             _count_spans),
    Boundary("encoders.fragment_encoder", "lexner.encoders", "encode_fragments_fofe",
             _count_spans),
    Boundary("encoders.fragment_encoder", "lexner.encoders", "encode_fragments_birnn",
             _count_spans),
    Boundary("model.score_spans", "lexner.model", "Model.score_spans",
             _count_taped_sentence),
    Boundary("model.attend", "lexner.model", "attend"),
    Boundary("autodiff.backward", "lexner.autodiff", "Tape.backward"),
    Boundary("autodiff.focal_loss", "lexner.autodiff", "focal_loss_rows"),
    Boundary("optim.step", "lexner.optim", "Adam.step"),
    Boundary("optim.clip", "lexner.model", "clip_global_norm"),
    Boundary("decode.filter", "lexner.decode", "filter_threshold", _count_survivors),
    Boundary("decode.resolve", "lexner.decode", "resolve", _count_kept),
    Boundary("checkpoint.save", "lexner.checkpoint", "save", _count_bytes),
    Boundary("checkpoint.load", "lexner.checkpoint", "load"),
)

# counted, not timed: one call per tape node
TAPE_RECORD = ("lexner.autodiff", "Tape.record")


def _resolve(module: str, attr: str):
    """(owner object, attribute name) or None when the boundary is gone."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    return (owner, name) if hasattr(owner, name) else None


class Tracer:
    """Records spans and counts while installed (``with Tracer() as t:``)."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.t0 = self.t1 = 0.0

    def __enter__(self):
        for b in BOUNDARIES:
            found = _resolve(b.module, b.attr)
            if found is not None:
                self._patch(*found, self._timed(b, getattr(*found)))
        found = _resolve(*TAPE_RECORD)
        if found is not None:
            self._patch(*found, self._counted("autodiff.tape_nodes", getattr(*found)))
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.t1 = time.perf_counter()
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()
        return False

    def _patch(self, owner, name, wrapper):
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, wrapper)

    def _timed(self, boundary: Boundary, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        signature = inspect.signature(fn) if boundary.count else None

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (boundary.name, start, end, parent)
            if boundary.count:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                boundary.count(counts, bound.arguments, result)
            return result
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def write(self, path: str):
        """Spans as JSON lines, times in seconds from the start of tracing."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start - self.t0, end - self.t0, parent]))
                fh.write("\n")


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Per span: its duration minus the durations of its direct children.

    Children of one span never overlap, since spans nest on a single
    thread's call stack.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    total: Counter = Counter()
    calls: Counter = Counter()
    own: Counter = Counter()
    for (name, start, end, _), self_s in zip(tracer.spans, self_times(tracer.spans)):
        total[name] += end - start
        calls[name] += 1
        own[name] += self_s
    c = tracer.counts

    def secs(name):
        return total[name], "s"

    def count(value):
        return value, "count"

    def ratio(num, den):
        return (num / den if den else 0.0), "ratio"

    return {
        "lexicon.match_s": secs("lexicon.match"),
        "lexicon.match_calls": count(calls["lexicon.match"]),
        "lexicon.bucketize_s": secs("lexicon.bucketize"),
        "lexicon.assemble_memory_s": secs("lexicon.assemble_memory"),
        "lexicon.assemble_memory_calls": count(calls["lexicon.assemble_memory"]),
        "lexicon.hit_rate": ratio(c["lexicon.hit_spans"], c["lexicon.spans"]),
        "lexicon.null_row_share": ratio(c["lexicon.null_rows"],
                                        c["lexicon.null_rows"] + c["lexicon.real_rows"]),
        "lexicon.cap_truncated": ratio(c["lexicon.cut_buckets"],
                                       c["lexicon.filled_buckets"]),
        "encoders.char_features_s": secs("encoders.char_features"),
        "encoders.char_encoder_s": secs("encoders.char_encoder"),
        "encoders.fragment_encoder_s": secs("encoders.fragment_encoder"),
        "encoders.spans": count(c["encoders.spans"]),
        "model.score_spans_s": secs("model.score_spans"),
        "model.score_spans_self_s": (own["model.score_spans"], "s"),
        "model.attend_s": secs("model.attend"),
        "model.attend_calls": count(calls["model.attend"]),
        "autodiff.tape_nodes_per_sent": (
            c["autodiff.tape_nodes"] / max(c["autodiff.taped_sentences"], 1), "count"),
        "autodiff.backward_s": secs("autodiff.backward"),
        "autodiff.focal_loss_s": secs("autodiff.focal_loss"),
        "optim.step_s": secs("optim.step"),
        "optim.clip_s": secs("optim.clip"),
        "optim.steps": count(calls["optim.step"]),
        "decode.filter_s": secs("decode.filter"),
        "decode.resolve_s": secs("decode.resolve"),
        "decode.survivors": count(c["decode.survivors"]),
        "decode.kept": count(c["decode.kept"]),
        "decode.kept_ratio": ratio(c["decode.kept"], c["decode.survivors"]),
        "checkpoint.save_s": secs("checkpoint.save"),
        "checkpoint.load_s": secs("checkpoint.load"),
        "checkpoint.bytes": (c["checkpoint.bytes"], "bytes"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
