"""Independent brute-force reference implementations.

Everything here is deliberately naive: direct definitions, quadratic scans,
exhaustive enumeration.  The fast implementations elsewhere are tested
against these, so nothing in this module may share code with them.  The
Zimin-word test of unavoidability uses ``encounters`` and
``zimin_pattern``, which ``is_unavoidable`` does not call.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .zimin import Pattern, encounters, zimin_pattern


def occurrences_brute(needle: Sequence, haystack: Sequence) -> list[int]:
    n, h = len(needle), len(haystack)
    out = []
    for m in range(h - n + 1):
        if haystack[m : m + n] == needle:
            out.append(m)
    return out


def zimin_type_recursive(w: Sequence) -> int:
    """Zimin type straight from the inductive characterisation, no memo."""
    n = len(w)
    if n == 0:
        return 0
    best = 0
    for b in range(1, (n - 1) // 2 + 1):
        if w[:b] == w[n - b :]:
            t = zimin_type_recursive(w[:b])
            if t > best:
                best = t
    return 1 + best


def zimin_index_enumerated(w: Sequence) -> int:
    """Maximum Zimin type over all infixes, each typed by the naive recursion."""
    n = len(w)
    best = 0
    for s in range(n):
        for e in range(s + 1, n + 1):
            t = zimin_type_recursive(w[s:e])
            if t > best:
                best = t
    return best


class OracleSuffixTracker:
    """Reference tracker for the search: types every suffix of the extended
    word with ``zimin_type_recursive``, sharing no code with ``zimin``."""

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.word: list[int] = []

    def try_push(self, c: int) -> bool:
        w = self.word + [c]
        if any(zimin_type_recursive(w[s:]) >= self.n for s in range(len(w))):
            return False
        self.word.append(c)
        return True

    def pop(self):
        self.word.pop()


def zimin_index_per_start(w: Sequence) -> int:
    """Maximum Zimin type over all infixes of w, start by start: every
    prefix u of w[s:] is typed as 1 + the maximum type over its borders a
    with 2|a| < |u|, each border read off the prefix function of w[s:].
    About |w|^2 steps, and |w|^3 on periodic words, whose border chains
    are long."""
    best = 0
    for s in range(len(w)):
        v = w[s:]
        border = [0] * (len(v) + 1)  # border[i]: longest proper border of v[:i]
        # top[i]: the highest type of v[:i] and of its borders
        top = [0, 1] + [0] * (len(v) - 1)
        q = 0
        for i, x in enumerate(v[1:], 2):  # x ends v[:i]
            while q and v[q] != x:
                q = border[q]
            if v[q] == x:
                q += 1
            border[i] = b = q
            while 2 * b >= i:
                b = border[b]
            t, u = 1 + top[b], top[q]
            top[i] = t if t > u else u
        best = max(best, *top)
    return best


def matches_by_lengths(w: Sequence, p: Pattern) -> dict | None:
    """The first non-erasing assignment whose image of p is w, or None.

    The image lengths of the distinct variables, taken in order of first
    occurrence, are tried as tuples in lexicographic order.  A variable
    occurring c times in p gets at most (|w| - |p| + c) // c letters, so
    that the other positions keep one letter each; the first tuple whose
    images, cut from w left to right, agree at every occurrence wins."""
    order = list(dict.fromkeys(p))
    counts = [list(p).count(v) for v in order]
    ranges = [range(1, (len(w) - len(p) + c) // c + 1) for c in counts]
    for lengths in product(*ranges):
        size = dict(zip(order, lengths))
        assignment: dict = {}
        i = 0
        for v in p:
            image = w[i : i + size[v]]
            if len(image) < size[v] or assignment.setdefault(v, image) != image:
                break
            i += size[v]
        else:
            if i == len(w):
                return assignment
    return None


# ---------------------------------------------------------------------------
# coded-word brute force


def code_word(bit: int, order: int) -> str:
    b = "01"[bit]
    return b * 2 + "01" * (order - 1) + b * 2


def _orders_covering(length: int) -> range:
    # tails/heads/infixes of codes stabilise once 2k+2 exceeds the length,
    # so checking codes a little past length/2 covers every witness
    return range(1, length // 2 + 3)


def in_C_brute(x: str) -> bool:
    return any(x == code_word(b, k) for k in _orders_covering(len(x)) for b in (0, 1))


def in_L_brute(x: str) -> bool:
    """x is a strict suffix of some code word."""
    return any(
        len(c) > len(x) and c.endswith(x)
        for k in _orders_covering(len(x) + 2)
        for c in (code_word(0, k), code_word(1, k))
    )


def in_R_brute(x: str) -> bool:
    """x is a strict prefix of some code word."""
    return any(
        len(c) > len(x) and c.startswith(x)
        for k in _orders_covering(len(x) + 2)
        for c in (code_word(0, k), code_word(1, k))
    )


def in_F_brute(x: str) -> bool:
    """x is a strict infix of some code word: u x v in C with u, v non-empty."""
    for k in _orders_covering(len(x) + 4):
        for b in (0, 1):
            c = code_word(b, k)
            for m in occurrences_brute(x, c):
                if m > 0 and m + len(x) < len(c):
                    return True
    return False


def cstar_factorizations(segment: str):
    """All decompositions of segment into code words (at most one exists)."""
    if segment == "":
        yield ()
        return
    n = len(segment)
    for k in range(1, (n - 2) // 2 + 1):
        for bit in (0, 1):
            c = code_word(bit, k)
            if segment.startswith(c):
                for rest in cstar_factorizations(segment[len(c) :]):
                    yield ((bit, k),) + rest


def parses_all_splits(a: str) -> list[tuple[str, tuple, str]]:
    """Naive parse enumeration: try every (l, u, r) split of a.

    Returns triples (left, center-as-(bit, order)-tuples, right), ordered by
    |left| then |center|.
    """
    out = []
    for i in range(len(a) + 1):
        if not in_L_brute(a[:i]):
            continue
        for j in range(i, len(a) + 1):
            if not in_R_brute(a[j:]):
                continue
            for u in cstar_factorizations(a[i:j]):
                out.append((a[:i], u, a[j:]))
    return out


def simple_brute(a: str) -> bool:
    return len(a) < 11 or "0" * 10 in a or "1" * 10 in a or in_F_brute(a)


# ---------------------------------------------------------------------------
# unavoidability


def is_unavoidable_via_zimin(p: Pattern) -> bool:
    """Zimin's criterion: a pattern with n distinct variables is unavoidable
    iff Z_n, read as a word over its variables, encounters it.  Z_n has
    2^n - 1 letters and ``encounters`` backtracks over every infix, so this
    is practical up to about 5 variables."""
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    z = tuple(zimin_pattern(len(p.distinct_variables)))
    return encounters(z, p) is not None
