"""The benchmark's three workloads: their inputs, task lists and answer checks.

A task is one timed unit of work.  ``run(call)`` makes the calls into the
program, routing each through ``call(span_name, fn, *args, attr=...)`` so a
traced run can record a span around it; ``check(output)`` runs outside the
timed region and returns (items attempted, items failed) against the answers
pinned in ``pinned.json``.  ``validity`` checks run once per process, after
the timed repetitions, on outputs that need a slow independent check.

The searches are exhaustive or node-budgeted, never time-budgeted, so their
inputs and answers do not depend on the seed.  The seed only samples the
inputs of ``certify``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from ziminwords.abelian import encounters_abelian_zimin, g_value
from ziminwords.coding import encoded_counter, is_simple, parses
from ziminwords.counters import counter, counter_stream, decode_counter
from ziminwords.search import longest_avoiding, parse_rendered_word
from ziminwords.words import RankedSymbol, RankedWord
from ziminwords.zimin import Pattern, is_unavoidable, zimin_index

PINNED_PATH = Path(__file__).with_name("pinned.json")

# f_deep: deep pushes along one long branch.  At 3,000 nodes the search
# reaches depth 2,378, past the 2,000-letter bin of the push-cost profile.
F_DEEP_NODES = 3000

# shallow_search: (label, kind, n, k, node budget or None for exhaustive).
# The budgets of f(3,3) and g(3,2) keep the Zimin and the abelian tracker
# near half of the workload each, so neither can hide a slowdown in the other.
SHALLOW_SEARCHES = (
    [("f(3,2)", "f", 3, 2, None)]
    + [(f"f(2,{k})", "f", 2, k, None) for k in range(2, 6)]
    + [(f"g(2,{k})", "g", 2, k, None) for k in range(2, 6)]
    + [("f(3,3)@25000", "f", 3, 3, 25_000), ("g(3,2)@1000", "g", 3, 2, 1_000)]
)

# certify: sample sizes.  100 ranked counters give a p90 with ten samples
# beyond it; the sizes keep every module under about half of the workload.
CERTIFY_COUNTERS = 1024  # order-4 counters streamed, built and decoded
CERTIFY_RANKED_INDEX = 100  # zimin_index on ranked order-4 counters (336 symbols)
CERTIFY_ENCODED_INDEX = 2  # zimin_index on encoded order-4 counters (1,952 bits)
CERTIFY_PARSES = 64_000  # parses() on non-simple infixes of encoded order-3 counters
# Outputs are checked and dropped after every task, so tasks are chunks.
COUNTER_CHUNK = 128
PARSE_CHUNK = 4_000
UNAVOIDABLE_PATTERNS = (
    "x1 x1",
    "x1 x2 x1",
    "x1 x2 x1 x2",
    "x1 x2 x3 x2 x1",
    "x1 x2 x1 x3 x4 x3 x5 x1",
    "x1 x2 x3 x4 x1 x2 x3 x4",
    "x1 x2 x3 x1 x2 x4 x5 x4 x5",
    "x1 x2 x3 x4 x5 x1 x2 x3 x4 x5",
    "x1 x2 x1 x3 x1 x2 x1 x4 x1 x2 x1 x3 x1 x2 x1 x5 x1 x2 x1 x3 x1 x2 x1 x4 x1 x2 x1 x3 x1 x2 x1",
)

WORKLOADS = ("f_deep", "shallow_search", "certify")


@dataclass
class Task:
    label: str
    run: Callable[[Callable], Any]
    check: Callable[[Any], tuple[int, int]]


@dataclass
class Workload:
    tasks: list[Task]
    validity: list[tuple[str, Callable[[], bool]]] = field(default_factory=list)


def load_pinned() -> dict:
    return json.loads(PINNED_PATH.read_text())


def search(kind: str, n: int, k: int, max_nodes, call) -> dict:
    """One f (Zimin) or g (abelian) search, as its certificate's JSON."""
    nodes = lambda cert: cert.nodes_explored  # noqa: E731
    if kind == "f":
        cert = call("search.longest_avoiding", longest_avoiding, n, k, max_nodes=max_nodes, attr=nodes)
    else:
        cert = call("abelian.g_value", lambda: g_value(n, k, max_nodes=max_nodes)[1], attr=nodes)
    return cert.to_json()


def _same(expected) -> Callable[[Any], tuple[int, int]]:
    return lambda got: (1, int(got != expected))


def _all_equal(expected: list) -> Callable[[list], tuple[int, int]]:
    return lambda got: (len(expected), sum(g != e for g, e in zip(got, expected)) + abs(len(got) - len(expected)))


def _search_workload(searches, pinned: dict) -> Workload:
    tasks, validity = [], []
    for label, kind, n, k, budget in searches:
        expected = pinned[label]
        tasks.append(Task(label, lambda call, a=(kind, n, k, budget): search(*a, call), _same(expected)))
        word = parse_rendered_word(expected["witness"])
        if kind == "f":
            check = lambda w=word, n=n: zimin_index(w, max_length=None) < n  # noqa: E731
        else:
            check = lambda w=word, n=n: encounters_abelian_zimin(w, n) is None  # noqa: E731
        validity.append((f"{label} witness avoids Z_{n}", check))
    return Workload(tasks, validity)


def f_deep(seed: int, pinned: dict) -> Workload:
    return _search_workload([(f"f(4,2)@{F_DEEP_NODES}", "f", 4, 2, F_DEEP_NODES)], pinned["f_deep"])


def shallow_search(seed: int, pinned: dict) -> Workload:
    return _search_workload(SHALLOW_SEARCHES, pinned["shallow_search"])


def _order4_counter(i: int, order3: list) -> tuple:
    """C_i^4 assembled from the pinned order-3 counters.

    Symbols are shared (there are eight), so a thousand inputs stay small
    beside the memory the program itself uses.
    """
    out = []
    for j, sub in enumerate(order3):
        out.extend(sub)
        out.append(_SYMBOLS[(i >> j) & 1, 4])
    return tuple(out)


_SYMBOLS = {(b, o): RankedSymbol(b, o) for b in (0, 1) for o in range(1, 5)}


def _code(symbols) -> str:
    """The binary coding psi, written independently of the program."""
    return "".join(2 * str(b) + "01" * (o - 1) + 2 * str(b) for b, o in symbols)


def _parse_infixes(rng: random.Random, codes: list[str], count: int) -> list[str]:
    out = []
    while len(out) < count:
        code = rng.choice(codes)
        start = rng.randrange(len(code) - 11)
        a = code[start : rng.randrange(start + 11, len(code) + 1)]
        if not is_simple(a):
            out.append(a)
    return out


def _check_parses(infixes: list[str]) -> Callable[[list], tuple[int, int]]:
    def check(got):
        failed = 0
        for a, found in zip(infixes, got):
            failed += len(found) != 1 or found[0].left + _code(found[0].center) + found[0].right != a
        return len(infixes), failed + abs(len(got) - len(infixes))

    return check


def certify(seed: int, pinned: dict) -> Workload:
    pins = pinned["certify"]
    order3 = [tuple(_SYMBOLS[tuple(s)] for s in c) for c in pins["order3_counters"]]
    rng = random.Random(seed)
    idx = rng.sample(range(2**16), CERTIFY_COUNTERS)
    expected = [_order4_counter(i, order3) for i in idx]
    words = [RankedWord(e) for e in expected]
    ranked = words[:CERTIFY_RANKED_INDEX]
    encoded = idx[:CERTIFY_ENCODED_INDEX]
    codes = [_code(e) for e in expected[:CERTIFY_ENCODED_INDEX]]
    infixes = _parse_infixes(rng, [_code(c) for c in order3], CERTIFY_PARSES)
    patterns = [Pattern.parse(p) for p in UNAVOIDABLE_PATTERNS]

    tasks = []
    for start in range(0, len(idx), COUNTER_CHUNK):
        ids, exp, ws = (x[start : start + COUNTER_CHUNK] for x in (idx, expected, words))
        tasks += [
            Task(
                "counter_stream",
                lambda call, ids=ids: [
                    call("counters.stream", lambda i=i: tuple(counter_stream(i, 4)), attr=len) for i in ids
                ],
                _all_equal(exp),
            ),
            Task(
                "counter",
                lambda call, ids=ids: [call("counters.counter", counter, i, 4) for i in ids],
                lambda got, exp=exp: _all_equal(exp)([tuple(w) for w in got]),
            ),
            Task(
                "decode_counter",
                lambda call, ws=ws: [call("counters.decode", decode_counter, w, 4) for w in ws],
                _all_equal(ids),
            ),
        ]
    tasks += [
        Task(
            "zimin_index ranked order 4",
            lambda call: [call("zimin.index", zimin_index, w, attr=lambda _, n=len(w): n, max_length=None) for w in ranked],
            _all_equal([pins["ranked_order4_zimin_index"]] * len(ranked)),
        ),
        Task(
            "encoded_counter order 4",
            lambda call: [call("coding.encoded_counter", encoded_counter, i, 4) for i in encoded],
            _all_equal(codes),
        ),
        Task(
            "zimin_index encoded order 4",
            lambda call: [
                call("zimin.index", zimin_index, c, attr=lambda _, n=len(c): n, max_length=None) for c in codes
            ],
            _all_equal([pins["encoded_order4_zimin_index"]] * len(codes)),
        ),
    ]
    for start in range(0, len(infixes), PARSE_CHUNK):
        chunk = infixes[start : start + PARSE_CHUNK]
        tasks.append(
            Task(
                f"parses {start}..{start + len(chunk)}",
                lambda call, chunk=chunk: [call("coding.parses", parses, a) for a in chunk],
                _check_parses(chunk),
            )
        )
    tasks.append(
        Task(
            "is_unavoidable",
            lambda call: [call("zimin.unavoidable", is_unavoidable, p) for p in patterns],
            _all_equal([pins["unavoidable"][p] for p in UNAVOIDABLE_PATTERNS]),
        )
    )
    return Workload(tasks)


def build(name: str, seed: int) -> Workload:
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return globals()[name](seed, load_pinned())
