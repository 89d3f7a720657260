"""Spans around tolrep's layer entry points, kept in memory.

install() replaces each entry point below by a timing wrapper in every
tolrep module that holds the function, since decide, cli and terms import
most of them by name.  A span is (name, parent, start, end) in four flat
arrays; the parent is the span open when the call began.  Self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter

# (module, function, span name)
TARGETS = (
    ("relations", "compose", "relations.compose"),
    ("relations", "converse", "relations.converse"),
    ("algebras", "closure", "algebras.closure"),
    ("algebras", "_grow", "algebras.grow"),
    ("algebras", "is_compatible", "algebras.is_compatible"),
    ("decide", "find_representation", "decide.search"),
    ("decide", "find_weak_representation", "decide.weak"),
    ("decide", "enumerate_tolerances", "decide.enum.tolerances"),
    ("decide", "enumerate_congruences", "decide.enum.congruences"),
    ("decide", "enumerate_admissible", "decide.enum.admissible"),
    ("decide", "_congruence_close", "decide.congruence_close"),
    ("terms", "parse_term", "terms.parse"),
    ("terms", "eval_term", "terms.eval"),
    ("terms", "term_graph", "terms.graph"),
    ("corpus", "corpus_get", "corpus.get"),
    ("cli", "parse_document", "cli.parse_document"),
)

ARITY_NAMES = ("none", "unary", "binary", "ternary")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []
        self._swaps: dict[int, tuple[object, object]] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name_of, on_result=None):
        names, parents, stack = self.name, self.parent, self.stack
        starts, ends = self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name_of(args))
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _wrap_iter(self, fn, name):
        """Count items a generator yields, keyed by the span that drew them."""
        counts, names, stack = self.counts, self.name, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for item in fn(*args, **kwargs):
                owner = self.names[names[stack[-1]]] if stack else ""
                counts[f"{name}@{owner}"] += 1
                yield item

        return traced

    def _grow_namer(self):
        """Span name of a _grow call, by the highest operation arity of its algebra."""
        ids = [self._id(f"algebras.grow.{a}") for a in ARITY_NAMES]
        cache: dict[int, tuple[object, int]] = {}

        def name_of(args):
            alg = args[0]
            hit = cache.get(id(alg))
            if hit is None or hit[0] is not alg:
                top = max((op.arity for op in alg.ops), default=0)
                hit = cache[id(alg)] = (alg, ids[min(top, 3)])
            return hit[1]

        return name_of

    def install(self) -> None:
        """Wrap every target in every loaded tolrep module that refers to it.

        The wrappers are made on the first call and reused afterwards, so
        the square-table cache survives uninstall() and install() again.
        """
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "tolrep" or name.startswith("tolrep.")}
        if not self._swaps:
            self._swaps = self._make_wrappers(mods)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = self._swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def _make_wrappers(self, mods):
        """{id(original): (original, wrapper)} for every target."""
        swaps = {}
        for mod_name, attr, span in TARGETS:
            original = getattr(mods[f"tolrep.{mod_name}"], attr)
            if span == "algebras.grow":
                swaps[id(original)] = (original, self._wrap(original, self._grow_namer()))
                continue
            sid = self._id(span)
            on_result = None
            if span.startswith("decide.enum."):
                def on_result(result):
                    rels = getattr(result, "relations", result)
                    self.counts["decide.enum.relations"] += len(rels)
            swaps[id(original)] = (original, self._wrap(original, lambda _a, s=sid: s, on_result))
        iter_adm = mods["tolrep.decide"].iter_admissible
        swaps[id(iter_adm)] = (iter_adm, self._wrap_iter(iter_adm, "decide.iter_admissible"))
        # The square tables are cached per algebra; time only the misses by
        # wrapping the function under a fresh cache.
        square = mods["tolrep.algebras"]._square_tables
        sid = self._id("algebras.square_tables")
        swaps[id(square)] = (square, functools.lru_cache(maxsize=None)(
            self._wrap(square.__wrapped__, lambda _a: sid)))
        return swaps

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit a phase of the run."""
        return len(self.start)

    def write(self, path: str) -> None:
        """Name table as a JSON line, then the four arrays as raw machine values."""
        with open(path, "wb") as handle:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": ["name:i", "parent:i", "start:d", "end:d"],
                      "byteorder": sys.byteorder}
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(handle)


class Stats:
    """Per-name calls, inclusive and self seconds over a set of span ranges."""

    def __init__(self, tracer: Tracer, ranges):
        names, parents, starts, ends = tracer.name, tracer.parent, tracer.start, tracer.end
        total = len(starts)
        child = [0.0] * total
        for i in range(total):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        decide_ids = {i for i, nm in enumerate(tracer.names) if nm.startswith("decide.")}
        # owner[i]: the outermost decide span enclosing span i (or itself)
        owner = array("i", [-1]) * total
        for i in range(total):
            p = parents[i]
            if p >= 0 and owner[p] >= 0:
                owner[i] = owner[p]
            elif names[i] in decide_ids:
                owner[i] = names[i]
        self.names = tracer.names
        self.calls: Counter = Counter()
        self.incl: Counter = Counter()
        self.self_s: Counter = Counter()
        self.by_owner: Counter = Counter()  # (span name, outermost decide span) -> calls
        for lo, hi in ranges:
            for i in range(lo, hi):
                nm = tracer.names[names[i]]
                dur = ends[i] - starts[i]
                self.calls[nm] += 1
                self.incl[nm] += dur
                self.self_s[nm] += dur - child[i]
                if owner[i] >= 0:
                    self.by_owner[(nm, tracer.names[owner[i]])] += 1

    def us_per_call(self, *names) -> float:
        calls = sum(self.calls[n] for n in names)
        return 1e6 * sum(self.incl[n] for n in names) / calls if calls else 0.0

    def self_of(self, prefix: str) -> float:
        return sum(v for n, v in self.self_s.items() if n.startswith(prefix))

    def calls_of(self, prefix: str) -> int:
        return sum(v for n, v in self.calls.items() if n.startswith(prefix))
