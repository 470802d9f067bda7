"""Per-layer timing for the traced run, installed from outside the program.

Wrappers go around public module-level functions of corpus_forge. Every
public global of a loaded corpus_forge module that is bound to the wrapped
function is rebound, so a function imported by name into another module
(`from .documents import read_documents`) is timed wherever it is called.

Self time: a span's duration minus the part of its interval its child spans
cover. Children on the same thread nest; spans that end on another thread
with no open span of their own (dedup's thread pool) are charged to the
span open on the installing thread, by the union of their intervals. Busy
time on worker threads is summed over threads, so it can exceed wall time.
"""

from __future__ import annotations

import importlib
import sys
import threading
import time
from collections import defaultdict


def rebind(module: str, attr: str, make_wrapper) -> bool:
    """Replace `module.attr` and every public corpus_forge global bound to the
    same object with `make_wrapper(original)`. False if the name is gone."""
    try:
        original = getattr(importlib.import_module(module), attr, None)
    except ModuleNotFoundError:
        original = None
    if original is None:
        return False
    wrapper = make_wrapper(original)
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "corpus_forge" or name.startswith("corpus_forge.")):
            continue
        for key in [k for k, v in vars(mod).items() if v is original and not k.startswith("_")]:
            setattr(mod, key, wrapper)
    return True


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


class Tracer:
    """Self time, call counts and item counts per span name."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.items: dict[str, int] = defaultdict(int)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._home = threading.get_ident()
        self._home_stack: list | None = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            if threading.get_ident() == self._home:
                self._home_stack = stack
        return stack

    def begin(self, name: str) -> list:
        # [name, start, time covered by same-thread children, foreign child intervals]
        frame = [name, time.perf_counter(), 0.0, []]
        self._stack().append(frame)
        return frame

    def end(self, frame: list, items: int = 0) -> None:
        stop = time.perf_counter()
        stack = self._stack()
        stack.pop()
        name, start, covered, foreign = frame
        duration = stop - start
        own = duration - covered - _union_length(foreign)
        with self._lock:
            if stack:
                stack[-1][2] += duration
            elif self._home_stack and threading.get_ident() != self._home:
                self._home_stack[-1][3].append((start, stop))
            self.self_s[name] += own
            self.calls[name] += 1
            self.items[name] += items

    def call(self, name: str, count=None):
        """Wrapper factory for a plain function; `count(args, result)` adds items."""
        def make(fn):
            def wrapper(*args, **kwargs):
                frame = self.begin(name)
                result = None
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    self.end(frame, count(args, result) if count and result is not None else 0)
            return wrapper
        return make

    def iterate(self, name: str, it):
        """Yield from `it`, timing each step as a span; items counted."""
        it = iter(it)
        try:
            while True:
                frame = self.begin(name)
                try:
                    item = next(it)
                except StopIteration:
                    self.end(frame)
                    return
                except BaseException:
                    self.end(frame)
                    raise
                self.end(frame, 1)
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def generator(self, name: str):
        """Wrapper factory for a function returning an iterator."""
        def make(fn):
            def wrapper(*args, **kwargs):
                return self.iterate(name, fn(*args, **kwargs))
            return wrapper
        return make

    def writer(self, name: str, produce: str):
        """Wrapper factory for `fn(path, items)`: the time spent producing the
        items is a child span, so `name` keeps only the writing."""
        def make(fn):
            def wrapper(path, items, *args, **kwargs):
                frame = self.begin(name)
                try:
                    return fn(path, self.iterate(produce, items), *args, **kwargs)
                finally:
                    self.end(frame)
            return wrapper
        return make


# (module, function, span name, wrapper kind, stage the layer runs in)
LAYERS = [
    ("corpus_forge.documents", "read_documents", "documents.read", "generator", None),
    ("corpus_forge.documents", "write_documents", "documents.write", "writer", None),
    ("corpus_forge.filters", "filter_document", "filters.filter", "call", "filter"),
    ("corpus_forge.fluency", "train_ngram_lm", "fluency.train", "call", "fluency"),
    ("corpus_forge.fluency", "score_documents", "fluency.score", "generator", "fluency"),
    ("corpus_forge.dedup", "dedup_corpus", "dedup.corpus", "call", "dedup"),
    ("corpus_forge.dedup", "shingle", "dedup.shingle", "call", "dedup"),
    ("corpus_forge.kernels", "hash_byte_strings", "dedup.hash", "call", "dedup"),
    ("corpus_forge.kernels", "minhash_values", "dedup.minhash", "call", "dedup"),
    ("corpus_forge.dedup", "candidate_pairs", "dedup.lsh", "call", "dedup"),
    ("corpus_forge.bpe", "train_bpe", "bpe.train", "call", "tokenizer"),
    ("corpus_forge.bpe", "extend_vocab", "bpe.extend", "call", "tokenizer"),
    ("corpus_forge.bpe", "fertility_counts", "bpe.fertility", "call", "tokenizer"),
    ("corpus_forge.documents", "corpus_stats", "stats.encode", "call", "stats"),
]

_COUNTERS = {
    "dedup.hash": lambda args, result: len(args[0]),  # byte strings hashed
    "dedup.lsh": lambda args, result: len(result),  # candidate pairs
}


def install(tracer: Tracer) -> list[str]:
    """Wrap every layer function; returns the span names whose function is gone."""
    gone = []
    for module, attr, name, kind, _ in LAYERS:
        if kind == "call":
            make = tracer.call(name, _COUNTERS.get(name))
        elif kind == "generator":
            make = tracer.generator(name)
        else:
            make = tracer.writer(name, "documents.produce")
        if not rebind(module, attr, make):
            gone.append(name)
    return gone


# metric -> (span name, field, unit)
METRICS = {
    "documents.read_s": ("documents.read", "self_s", "s"),
    "documents.write_s": ("documents.write", "self_s", "s"),
    "documents.docs_parsed": ("documents.read", "items", "count"),
    "filters.filter_s": ("filters.filter", "self_s", "s"),
    "filters.docs": ("filters.filter", "calls", "count"),
    "fluency.train_s": ("fluency.train", "self_s", "s"),
    "fluency.score_s": ("fluency.score", "self_s", "s"),
    "fluency.docs_scored": ("fluency.score", "items", "count"),
    "dedup.shingle_s": ("dedup.shingle", "self_s", "s"),
    "dedup.hash_s": ("dedup.hash", "self_s", "s"),
    "dedup.minhash_s": ("dedup.minhash", "self_s", "s"),
    "dedup.lsh_s": ("dedup.lsh", "self_s", "s"),
    "dedup.cluster_s": ("dedup.corpus", "self_s", "s"),
    "dedup.hash_calls": ("dedup.hash", "calls", "count"),
    "dedup.shingles_hashed": ("dedup.hash", "items", "count"),
    "dedup.candidate_pairs": ("dedup.lsh", "items", "count"),
    "bpe.train_s": ("bpe.train", "self_s", "s"),
    "bpe.extend_s": ("bpe.extend", "self_s", "s"),
    "bpe.fertility_s": ("bpe.fertility", "self_s", "s"),
    "stats.encode_s": ("stats.encode", "self_s", "s"),
}


def snapshot(tracer: Tracer) -> dict:
    return {"self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "items": dict(tracer.items)}


def layer_metrics(snap: dict, stages: list[str], fluency_trains: bool) -> dict:
    """Metric values from a tracer snapshot. A layer whose stage runs but whose
    function saw no call is missing (None), never 0; a layer whose stage is
    not configured reads 0."""
    runs_in = {name: stage for _, _, name, _, stage in LAYERS}
    out = {}
    for metric, (span, field, unit) in METRICS.items():
        stage = runs_in[span]
        expected = stage is None or stage in stages
        if span == "fluency.train":
            expected = expected and fluency_trains
        if not snap["calls"].get(span):
            out[metric] = {"value": None if expected else 0, "unit": unit}
        else:
            out[metric] = {"value": snap[field].get(span, 0), "unit": unit}
    return out
