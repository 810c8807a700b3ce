"""Zimin patterns, Zimin type and index, pattern matching, unavoidability.

The n-th Zimin pattern is Z_1 = x1, Z_{n+1} = Z_n x_{n+1} Z_n.  A word w
*matches* a pattern when substituting every variable by some non-empty word
yields w; it *encounters* the pattern when some infix matches it.  The Zimin
type of w is the largest n with w matching Z_n; the Zimin index is the
maximum type over all infixes.  ``matches`` and ``encounters`` give ``re``
the pattern with a lazy group at each variable's first occurrence and a
back-reference at the others.  A pattern with n distinct variables is
unavoidable exactly when Z_n (read as a word over its variables)
encounters it; ``is_unavoidable`` decides it by free-letter deletions
instead, without building Z_n.

``zimin_type`` walks once down the border chain of its word, read off one
prefix-function pass.  ``ZiminSuffixTracker`` keeps, for each position of
a word, the shortest suffix of each type (its levels), each found from the
latest earlier copy of the one below it, as letters are appended and
removed; it drives ``zimin_index`` and the search.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import Counter
from typing import NamedTuple, Optional, Sequence

from .errors import ResourceLimitError
from .words import DEFAULT_INDEX_LENGTH_CAP, DEFAULT_ZIMIN_PATTERN_CAP


class Pattern(tuple):
    """A pattern: a non-empty-or-empty word over variable indices x1, x2, ...

    Accepts either explicit indices (``Pattern([1, 2, 1])``), the spaced text
    form ``"x1 x2 x1"``, or a compact letter form ``"xyx"`` where each
    distinct letter names a variable.  A pattern is the tuple of its indices.
    """

    __slots__ = ()

    def __new__(cls, variables):
        self = super().__new__(cls, (int(v) for v in variables))
        if any(v < 1 for v in self):
            raise ValueError("variable indices must be positive")
        return self

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        text = text.strip()
        if not text:
            return cls(())
        if text.isalpha() and " " not in text:
            # compact letter form, e.g. "xyx"
            seen: dict[str, int] = {}
            return cls(seen.setdefault(c, len(seen) + 1) for c in text)
        indices = []
        for tok in text.split():
            body = tok[1:] if tok[0] in "xX" else tok
            if not body.isdigit():
                raise ValueError(f"bad pattern token: {tok!r}")
            indices.append(int(body))
        return cls(indices)

    def __repr__(self):
        return f"Pattern({str(self)!r})"

    def __str__(self):
        return " ".join(f"x{v}" for v in self)

    @property
    def variables(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def distinct_variables(self) -> tuple[int, ...]:
        return tuple(sorted(set(self)))


class MorphismWitness(NamedTuple):
    """A non-erasing substitution proving a match: variable index -> image."""

    assignment: dict

    def apply(self, pattern: Pattern):
        """Image of the pattern under this substitution."""
        images = [self.assignment[v] for v in pattern]
        if not images:
            raise ValueError("cannot apply a witness to the empty pattern")
        out = images[0]
        for img in images[1:]:
            out = out + img
        return out


def zimin_pattern(n: int, cap: int = DEFAULT_ZIMIN_PATTERN_CAP) -> Pattern:
    """Z_n; Z_0 is empty, |Z_n| = 2^n - 1."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > cap:
        raise ResourceLimitError(f"zimin_pattern({n}) would have 2^{n}-1 positions (cap {cap})")
    z: tuple[int, ...] = ()
    for i in range(1, n + 1):
        z = z + (i,) + z
    return Pattern(z)


# the longest key, in bytes, that ZiminSuffixTracker keeps as a string
# rather than as its hash
_EXACT_KEY = 256


def _canon(w: Sequence) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(c, len(ids)) for c in w]


class ZiminSuffixTracker:
    """Incremental check: would appending a letter close a Z_n encounter?

    Each position m keeps its levels (L_1, ..., L_top), L_j the length of
    the shortest suffix of ``word[:m+1]`` of type >= j, and ``top``, the
    highest type among those suffixes, is the number of levels of the last
    position.  L_1 = 1, and L_(j+1) = L_j + m - q, where q is the latest end
    <= m - L_j - 1 of a copy of the level-j suffix a: the shortest suffix of
    type >= j+1 is a' v a with type(a') >= j and v non-empty, a is a suffix
    of every such a', and a copy of a ends where a' does.  With no such
    copy, top = j.  A push is refused when j + 1 reaches n.

    A copy of a level string ending at p is a level of p too (the suffixes
    at p that are no longer than a are those of a), so ``_ends[c]``, which
    maps each level string ending in c to the ascending positions where it
    is a level, holds every copy: a bisect finds q.  A string is keyed by
    its letters before c, read off a byte mirror of the word (a fixed
    number of bytes per letter), as a str when it has at most
    ``_EXACT_KEY`` bytes and as the hash of that str when longer; a hit on
    a hashed key is checked against the mirror.  L_2 needs no key: the
    latest earlier c, ``_last`` or the ``_prev`` of it.

    A push writes nothing until it is accepted.  Its undo record for
    ``pop`` is the lists of ends it appended to, then the key it created or
    None.
    """

    def __init__(self, n: int, k: int):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self.n = n
        self.k = k
        self.word: list[int] = []
        self._levels: list[tuple[int, ...]] = []
        self._width = ((k - 1).bit_length() + 7) // 8 or 1  # bytes per letter
        self._bytes = [c.to_bytes(self._width, "big") for c in range(k)]
        self._text = bytearray()
        self._last = [-1] * k  # the latest position of each letter
        self._prev: list[int] = []  # the previous position of word[i]
        self._ends: list[dict] = [{} for _ in range(k)]
        self._undo: list[list] = []

    def try_push(self, c: int) -> bool:
        """Append c unless it creates a suffix of type >= n; report success."""
        word = self.word
        m = len(word)
        last = self._last
        q = prev = last[c]
        if q == m - 1 and m:
            q = self._prev[q]
        n = self.n
        lists = []  # the lists of ends that the levels >= 2 of m join
        key = None  # the key that m's top level creates, if it is new
        if q < 0:
            levels = [1]
        else:
            ell = m + 1 - q
            levels = [1, ell]
            ends = self._ends[c]
            text = self._text
            w = self._width
            while len(levels) < n:
                # the highest level so far: its letters before c are the key
                a = text[(m + 1 - ell) * w :]
                key = a.decode("latin-1")
                if len(a) > _EXACT_KEY:
                    key = hash(key)
                hits = ends.get(key)
                if hits is None:
                    break
                lists.append(hits)
                key = None
                i = len(hits)
                if hits[-1] >= m - ell:
                    i = bisect_right(hits, m - ell - 1)
                if len(a) > _EXACT_KEY:
                    # a hash collision may list other strings: check each hit
                    while i and (hits[i - 1] < ell - 1 or text[(hits[i - 1] + 1 - ell) * w : hits[i - 1] * w] != a):
                        i -= 1
                if not i:
                    break
                ell += m - hits[i - 1]
                levels.append(ell)
        if len(levels) >= n:
            return False
        word.append(c)
        self._prev.append(prev)
        last[c] = m
        self._text += self._bytes[c]
        self._levels.append(tuple(levels))
        for hits in lists:
            hits.append(m)
        if key is not None:
            ends[key] = [m]
        lists.append(key)
        self._undo.append(lists)
        return True

    @property
    def top(self) -> int:
        """The number of levels of the last position."""
        return len(self._levels[-1]) if self._levels else 0

    def pop(self):
        lists = self._undo.pop()
        key = lists.pop()
        c = self.word.pop()
        self._last[c] = self._prev.pop()
        self._levels.pop()
        del self._text[-self._width :]
        for hits in lists:
            hits.pop()
        if key is not None:
            # only the key this push created can have emptied its list
            del self._ends[c][key]


# bound once: code that wraps the search's tracker methods must not see this
_try_push = ZiminSuffixTracker.try_push


def zimin_type(w: Sequence) -> int:
    """Largest n such that w matches Z_n; 0 for the empty word.

    For non-empty u, type(u) = 1 + type(h(u)), h(u) the longest border of u
    with 2|h(u)| < |u| (or empty): the decompositions u = a b a with b
    non-empty are the borders a of u shorter than |u|/2, each is a border
    of h(u), and a border never has a larger type.  The borders of a border
    u of w are the entries below u on the border chain of w, so one walk
    down that chain, from the prefix function of w, finds every h in turn.
    """
    v = _canon(w)
    border = [0] * (len(v) + 1)  # border[i]: longest proper border of v[:i]
    q = 0
    for i, x in enumerate(v[1:], 2):  # x ends the prefix of length i
        while q and v[q] != x:
            q = border[q]
        if v[q] == x:
            q += 1
        border[i] = q
    t, u = 0, len(v)
    while u:
        a = border[u]
        while 2 * a >= u:
            a = border[a]
        t, u = t + 1, a
    return t


def zimin_index(w: Sequence, max_length: Optional[int] = DEFAULT_INDEX_LENGTH_CAP) -> int:
    """Maximum Zimin type over all infixes of w (0 for the empty word).

    Every infix is a suffix of a prefix, so this is the highest ``top``
    over the pushes of w: the most levels of any position.
    """
    n = len(w)
    if max_length is not None and n > max_length:
        raise ResourceLimitError(f"zimin_index input of length {n} exceeds the cap {max_length}")
    x = _canon(w)
    # types are at most floor(log2(n + 1)), so no push of x is rejected
    tracker = ZiminSuffixTracker(n.bit_length() + 2, max(x, default=0) + 1)
    for c in x:
        _try_push(tracker, c)
    return max(map(len, tracker._levels), default=0)


def _regex(p: Pattern) -> re.Pattern:
    """p as a regex: a lazy group ``(?P<xv>.+?)`` at the first occurrence of
    each variable v and a back-reference ``(?P=xv)`` at the others.  Named
    groups, because a numbered reference such as ``\\100`` reads as octal."""
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    parts, seen = [], set()
    for v in p:
        parts.append(f"(?P=x{v})" if v in seen else f"(?P<x{v}>.+?)")
        seen.add(v)
    return re.compile("".join(parts), re.DOTALL)


def _text(w: Sequence) -> str:
    # a str as it is, any other sequence as one character per distinct letter
    return w if isinstance(w, str) else "".join(map(chr, _canon(w)))


def _witness(w: Sequence, m: re.Match) -> MorphismWitness:
    # the images are sliced from w, so they keep its type
    return MorphismWitness({int(x[1:]): w[m.start(x) : m.end(x)] for x in m.re.groupindex})


def _lengths(p: Pattern, limit: int) -> int:
    """Bit t set for each t <= limit that an image of p can have: t is
    the sum of c_v * l_v over the variables v of p, with c_v the
    occurrences of v and every image length l_v >= 1.  A coin dynamic
    program over the distinct counts, doubling each coin's multiples."""
    spare = limit - len(p)  # what the images may add beyond one letter each
    if spare < 0:
        return 0
    reach, mask = 1, (2 << spare) - 1
    for coin in set(Counter(p).values()):
        while coin <= spare:
            reach |= (reach << coin) & mask
            coin *= 2
    return reach << len(p)


def matches(w: Sequence, p: Pattern) -> Optional[MorphismWitness]:
    """A non-erasing substitution whose image of p is exactly w, or None.

    Deterministic search order: the witness returned has the least tuple of
    image lengths (variables in order of first occurrence).  The regex
    engine binds variables leftmost first, tries shorter images first (the
    groups are lazy) and backtracks into the latest choice.  A word whose
    length no image of p has is refused before the engine runs.
    """
    rx = _regex(p)
    if not _lengths(p, len(w)) >> len(w) & 1:
        return None
    m = rx.fullmatch(_text(w))
    return None if m is None else _witness(w, m)


def encounters(w: Sequence, p: Pattern) -> Optional[tuple[int, MorphismWitness]]:
    """Leftmost-then-shortest infix of w matching p, with its witness.

    Scans offsets ascending and, per offset, infix lengths ascending,
    skipping the lengths that no image of p has.
    """
    rx, text, lengths = _regex(p), _text(w), _lengths(p, len(w))
    sizes = [t for t in range(len(p), len(w) + 1) if lengths >> t & 1]
    for s in range(len(w) - len(p) + 1):
        for t in sizes:
            if s + t > len(w):
                break
            m = rx.fullmatch(text, s, s + t)
            if m is not None:
                return s, _witness(w, m)
    return None


def is_unavoidable(p: Pattern, cap: int = DEFAULT_ZIMIN_PATTERN_CAP) -> bool:
    """Whether every long enough word over every finite alphabet encounters p.

    Decided by the Bean-Ehrenfeucht-McNulty reduction: p is unavoidable iff
    some sequence of free-set deletions reduces it to the empty word.  In
    the adjacency graph of p each factor ``ab`` joins a^L to b^R, and x is
    free when x^L and x^R lie in different components.  Deleting one free
    letter x only joins the component of x^R to that of x^L, so every other
    letter of a free set containing x stays free: deleting one free letter
    at a time reaches every reduction.  The order matters (in ``xyx``,
    deleting y leaves the avoidable ``xx``), so the search tries every free
    letter and memoizes on the remaining pattern up to renaming (deleting
    either of two adjacent letters that occur once leaves the same one),
    with one prune: every factor of an unavoidable pattern is unavoidable
    and has a letter occurring once in it (the one whose image holds the
    highest letter of a Zimin word encountering it), so a factor without
    one ends the branch.

    The worst case is exponential in the number of variables, which ``cap``
    bounds.
    """
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    x = tuple(_canon(p))
    m = max(x) + 1
    if m > cap:
        raise ResourceLimitError(f"pattern has {m} distinct variables (cap {cap})")
    avoidable: set[tuple] = set()  # canonical patterns that do not reduce to the empty word
    stack = [(x, iter(_free_letters(x)))]
    while stack:
        q, free = stack[-1]
        for c in free:
            rest = tuple(_canon([a for a in q if a != c]))
            if not rest:
                return True
            if rest not in avoidable:
                stack.append((rest, iter(_free_letters(rest))))
                break
        else:
            avoidable.add(q)
            stack.pop()
    return False


def _free_letters(q: tuple) -> list[int]:
    """The free letters of the canonical pattern q, or none when a factor of
    q has no letter occurring once in it."""
    edges = set(zip(q, q[1:]))
    if any(a == b for a, b in edges) or _has_factor_without_single(q):
        return []
    m = max(q) + 1
    parent = list(range(2 * m))  # 2c is c^L, 2c + 1 is c^R

    def find(v):
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        return v

    for a, b in edges:
        parent[find(2 * a)] = find(2 * b + 1)
    return [c for c in range(m) if find(2 * c) != find(2 * c + 1)]


def _has_factor_without_single(q: Sequence[int]) -> bool:
    """Whether some factor of q, which has no factor ``aa``, has every letter
    at least twice.

    A letter occurring once in a range splits it, and no such factor
    crosses the split; each part lacks a letter of the range it came from,
    so the splits nest at most as deep as q has letters."""
    ranges = [(0, len(q))]
    while ranges:
        lo, hi = ranges.pop()
        count = Counter(q[lo:hi])
        cuts = sorted(q.index(c, lo, hi) for c, k in count.items() if k == 1)
        if not cuts:
            return True
        bounds = [lo - 1, *cuts, hi]
        # without a factor aa, such a factor has at least four letters
        ranges += [(a + 1, b) for a, b in zip(bounds, bounds[1:]) if b - a > 4]
    return False
