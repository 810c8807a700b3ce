"""Spans around the benchmark's calls into ziminwords, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, attr): ``parent`` is the index of the
enclosing span or -1, ``attr`` one integer the caller attaches (nodes
explored, input length, or 2 * depth + accepted for a tracker push).  Spans
live in flat arrays in memory and are written out once, at exit.

Only the benchmark's own calls are spanned, plus, while ``wrapped_methods``
is active, the public tracker methods and ``Dfa.accepting_prefixes`` that
the program calls from inside a search or a parse.  Untraced runs use
``direct_call`` and wrap nothing.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from contextlib import contextmanager
from time import perf_counter


def direct_call(name, fn, *args, attr=None, **kwargs):
    return fn(*args, **kwargs)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.attr = array("q")
        self._open = -1

    def call(self, name, fn, *args, attr=None, **kwargs):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open)
        self.start.append(0.0)
        self.end.append(0.0)
        self.attr.append(0)
        outer, self._open = self._open, i
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            self._open = outer
        self.start[i] = t0
        self.end[i] = t1
        if attr is not None:
            self.attr[i] = attr(result)
        return result

    def write(self, path) -> None:
        """Spans as gzipped JSON lines: a header naming the span kinds, then
        one [name, start, end, parent, attr] list per span."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names, "fields": ["name", "start", "end", "parent", "attr"]}) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.attr):
                fh.write(json.dumps(row) + "\n")


@contextmanager
def wrapped_methods(tracer: Tracer):
    """Span the tracker push/pop and Dfa.accepting_prefixes while active."""
    from ziminwords.abelian import AbelianSuffixTracker
    from ziminwords.automata import Dfa
    from ziminwords.search import ZiminSuffixTracker

    def push(name, orig):
        def try_push(self, c):
            depth = len(self.word)
            return tracer.call(name, orig, self, c, attr=lambda ok: 2 * depth + ok)

        return try_push

    def plain(name, orig):
        return lambda *args: tracer.call(name, orig, *args)

    targets = [
        (ZiminSuffixTracker, "try_push", push, "search.try_push"),
        (ZiminSuffixTracker, "pop", plain, "search.pop"),
        (AbelianSuffixTracker, "try_push", push, "abelian.try_push"),
        (AbelianSuffixTracker, "pop", plain, "abelian.pop"),
        (Dfa, "accepting_prefixes", plain, "automata.accepting_prefixes"),
    ]
    originals = [(cls, meth, cls.__dict__[meth]) for cls, meth, _, _ in targets]
    try:
        for cls, meth, wrap, name in targets:
            setattr(cls, meth, wrap(name, cls.__dict__[meth]))
        yield
    finally:
        for cls, meth, orig in originals:
            setattr(cls, meth, orig)


DEPTH_BINS = (("lt500", 0, 500), ("500_1000", 500, 1000), ("1000_2000", 1000, 2000), ("ge2000", 2000, None))


def _nearest_rank(sorted_values: list, pct: int) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, -(-len(sorted_values) * pct // 100) - 1)]


def _ratio(a, b) -> float:
    return a / b if b else 0.0


def layer_metrics(tr: Tracer, scale: float = 1.0) -> dict[str, float]:
    """Per-layer counts, self times, rates and latency percentiles.

    A layer that the workload does not call reports 0 for each of its
    metrics.  Self time is a span's duration minus its direct children's.
    Every duration is multiplied by ``scale``, the factor that brings the
    repetition's time to the reference host speed (hostspeed.py).
    """
    n = len(tr.name)
    dur = [(tr.end[i] - tr.start[i]) * scale for i in range(n)]
    child = [0.0] * n
    for i in range(n):
        p = tr.parent[i]
        if p >= 0:
            child[p] += dur[i]
    by_name: dict[str, list[int]] = {name: [] for name in tr.names}
    for i in range(n):
        by_name[tr.names[tr.name[i]]].append(i)

    def spans(name):
        return by_name.get(name, [])

    def self_s(*names):
        return sum(dur[i] - child[i] for name in names for i in spans(name))

    def total_s(name):
        return sum(dur[i] for i in spans(name))

    def attr_sum(name):
        return sum(tr.attr[i] for i in spans(name))

    def accepted(name):
        return sum(tr.attr[i] & 1 for i in spans(name))

    m: dict[str, float] = {}
    pushes = spans("search.try_push")
    m["search.try_push.calls"] = len(pushes)
    m["search.try_push.accepted"] = accepted("search.try_push")
    m["search.accept_ratio"] = _ratio(m["search.try_push.accepted"], len(pushes))
    m["search.pop.calls"] = len(spans("search.pop"))
    m["search.try_push.self_s"] = self_s("search.try_push")
    m["search.pop.self_s"] = self_s("search.pop")
    m["search.dfs.self_s"] = self_s("search.longest_avoiding")
    for label, lo, hi in DEPTH_BINS:
        in_bin = [dur[i] for i in pushes if lo <= tr.attr[i] >> 1 and (hi is None or tr.attr[i] >> 1 < hi)]
        m[f"search.try_push.calls.depth_{label}"] = len(in_bin)
        m[f"search.try_push.mean_us.depth_{label}"] = 1e6 * _ratio(sum(in_bin), len(in_bin))
    m["search.nodes_per_s"] = _ratio(attr_sum("search.longest_avoiding"), total_s("search.longest_avoiding"))

    m["abelian.try_push.calls"] = len(spans("abelian.try_push"))
    m["abelian.try_push.accepted"] = accepted("abelian.try_push")
    m["abelian.accept_ratio"] = _ratio(m["abelian.try_push.accepted"], m["abelian.try_push.calls"])
    m["abelian.try_push.self_s"] = self_s("abelian.try_push")
    m["abelian.nodes_per_s"] = _ratio(attr_sum("abelian.g_value"), total_s("abelian.g_value"))

    for length, label, tail, q in ((336, "len336", "p90_ms", 90), (1952, "len1952", "max_ms", 100)):
        times = sorted(dur[i] for i in spans("zimin.index") if tr.attr[i] == length)
        m[f"zimin.index.{label}.count"] = len(times)
        m[f"zimin.index.{label}.p50_ms"] = 1e3 * (statistics.median(times) if times else 0.0)
        m[f"zimin.index.{label}.{tail}"] = 1e3 * _nearest_rank(times, q)
    m["zimin.index.self_s"] = self_s("zimin.index")
    m["zimin.unavoidable.self_s"] = self_s("zimin.unavoidable")

    m["counters.stream.symbols_per_s"] = _ratio(attr_sum("counters.stream"), total_s("counters.stream"))
    m["counters.counter.per_s"] = _ratio(len(spans("counters.counter")), total_s("counters.counter"))
    m["counters.decode.per_s"] = _ratio(len(spans("counters.decode")), total_s("counters.decode"))
    m["counters.self_s"] = self_s("counters.stream", "counters.counter", "counters.decode")

    parse_times = sorted(dur[i] for i in spans("coding.parses"))
    m["coding.parses.calls"] = len(parse_times)
    m["coding.parses.p50_us"] = 1e6 * (statistics.median(parse_times) if parse_times else 0.0)
    m["coding.parses.p90_us"] = 1e6 * _nearest_rank(parse_times, 90)
    m["coding.parses.self_s"] = self_s("coding.parses")
    m["coding.encoded_counter.self_s"] = self_s("coding.encoded_counter")

    m["automata.accepting_prefixes.calls"] = len(spans("automata.accepting_prefixes"))
    m["automata.accepting_prefixes.self_s"] = self_s("automata.accepting_prefixes")
    return m
