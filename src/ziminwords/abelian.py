"""Abelian pattern avoidance: equivalence, abelian Zimin occurrences, g(n, k).

Two words are abelian-equivalent when they have the same Parikh vector
(per-letter counts).  An abelian occurrence of Z_n in w is a pair
(j, lambda): a start offset plus a positive length for each variable; the
induced factorization of w[j : j + width] into 2^n - 1 blocks, with block
lengths following the variable sequence of Z_n, must have abelian-equal
blocks wherever Z_n repeats a variable.  width(lambda) is
sum_i 2^(n-i) * lambda(x_i).

g(n, k) is the abelian analogue of f(n, k) and is computed by the same
avoiding-tree DFS, pruning on abelian encounters: a new abelian occurrence
created by appending one letter necessarily ends at the last position.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import chain, combinations, product, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import ResourceLimitError
from .words import DEFAULT_DIGIT_CAP, guarded_power, power_exceeds
from .zimin import zimin_pattern


def parikh(w: Sequence) -> Counter:
    """Parikh vector of w as letter -> count."""
    return Counter(w)


def abelian_equiv(u: Sequence, v: Sequence) -> bool:
    return len(u) == len(v) and Counter(u) == Counter(v)


class AbelianAssignment(NamedTuple("_Lengths", [("lengths", tuple[int, ...])])):
    """Variable lengths (lambda(x1), ..., lambda(xn)), all positive."""

    __slots__ = ()

    def __new__(cls, lengths):
        if any(l < 1 for l in lengths):
            raise ValueError("variable lengths must be positive")
        return super().__new__(cls, lengths)

    def __getitem__(self, variable: int) -> int:
        return self.lengths[variable - 1]

    @property
    def n(self) -> int:
        return len(self.lengths)

    @property
    def width(self) -> int:
        n = self.n
        return sum(2 ** (n - i) * l for i, l in enumerate(self.lengths, start=1))


@lru_cache(maxsize=16)
def _zimin_variables(n: int) -> tuple[int, ...]:
    """The variable sequence of Z_n, built once per n."""
    return tuple(zimin_pattern(n))


def abelian_occurrence(w: Sequence, j: int, n: int, lam: AbelianAssignment) -> bool:
    """Whether (j, lam) is an abelian occurrence of Z_n in w."""
    if lam.n != n:
        raise ValueError(f"assignment has {lam.n} variables, expected {n}")
    if j < 0 or j + lam.width > len(w):
        raise ValueError(f"occurrence window [{j}, {j + lam.width}) outside the word")
    reference: dict[int, Counter] = {}
    a = j  # the 2^n - 1 blocks start at offset j, one after another
    for v in _zimin_variables(n):
        b = a + lam[v]
        vec = Counter(w[a:b])
        if v not in reference:
            reference[v] = vec
        elif reference[v] != vec:
            return False
        a = b
    return True


def assignments_of_width(n: int, width: int) -> Iterator[AbelianAssignment]:
    """All lambda with the given width, lexicographic on (lambda(x1), ...)."""
    weights = [2 ** (n - i) for i in range(1, n + 1)]
    suffix_min = [sum(weights[i:]) for i in range(n + 1)]

    def rec(i: int, remaining: int, acc: tuple[int, ...]):
        if i == n:
            if remaining == 0:
                yield AbelianAssignment(acc)
            return
        c = weights[i]
        l = 1
        while c * l + suffix_min[i + 1] <= remaining:
            yield from rec(i + 1, remaining - c * l, acc + (l,))
            l += 1

    yield from rec(0, width, ())


def encounters_abelian_zimin(
    w: Sequence, n: int
) -> Optional[tuple[int, AbelianAssignment]]:
    """First abelian occurrence of Z_n in w, or None.

    Enumeration order: offset j ascending, width ascending, lambda
    lexicographic.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(w).bit_length() < n:  # shorter than 2^(n-1): no room for 2^n - 1 blocks
        return None
    min_width = 2**n - 1
    for j in range(len(w) - min_width + 1):
        for width in range(min_width, len(w) - j + 1):
            for lam in assignments_of_width(n, width):
                if abelian_occurrence(w, j, n, lam):
                    return j, lam
    return None


def encounters_abelian_zimin_naive(w: Sequence, n: int) -> bool:
    """Fully naive oracle: every infix, every factorization into blocks."""
    zseq = tuple(zimin_pattern(n))
    m = len(zseq)
    for s in range(len(w)):
        for e in range(s + m, len(w) + 1):
            seg = w[s:e]
            for cuts in combinations(range(1, len(seg)), m - 1):
                bounds = (0,) + cuts + (len(seg),)
                vecs: dict[int, Counter] = {}
                ok = True
                for t in range(m):
                    block = seg[bounds[t] : bounds[t + 1]]
                    v = zseq[t]
                    vec = Counter(block)
                    if v not in vecs:
                        vecs[v] = vec
                    elif vecs[v] != vec:
                        ok = False
                        break
                if ok:
                    return True
    return False


# Parikh vectors are packed into one int with a fixed field per letter, so the
# vector of w[a:b] is sums[b] - sums[a] (no field ever borrows) and abelian
# equality is one int compare.
_FIELD_BITS = 32


class AbelianSuffixTracker:
    """Incremental check for the g-search: packed prefix Parikh sums plus a
    search, on every push, for an abelian occurrence of Z_n that ends at the
    last letter.

    Such an occurrence splits as Z_{n-1} x_n Z_{n-1}.  For each half width h
    and lambda(x_n), the two Z_{n-1} windows must first be abelian-equal as
    wholes; only then are their inner splits tried (see ``_halves_fit``).
    """

    def __init__(self, n: int, k: int):
        self.n = n
        self.k = k
        self.word: list[int] = []
        self._sums = [0]  # packed Parikh vector of every prefix

    def try_push(self, c: int) -> bool:
        n = self.n
        if n <= 1:  # every non-empty word encounters Z_1 (and Z_0)
            return False
        word = self.word
        sums = self._sums
        word.append(c)
        sums.append(sums[-1] + (1 << (_FIELD_BITS * c)))
        length = len(word)
        if length.bit_length() < n:  # shorter than 2^(n-1): no room for 2^n - 1 blocks
            return True
        total = sums[length]
        for h in range((1 << (n - 1)) - 1, (length - 1) // 2 + 1):
            right = length - h
            half = total - sums[right]
            # the left half starts at s, before x_n of length right - h - s >= 1
            for s in range(right - h):
                if sums[s + h] - sums[s] == half and _halves_fit(sums, [s, right], h, n - 1):
                    self.pop()
                    return False
        return True

    def pop(self):
        self.word.pop()
        self._sums.pop()


def _halves_fit(sums: list[int], starts: list[int], h: int, m: int) -> bool:
    """Whether the width-h windows at ``starts``, already abelian-equal as
    wholes, are occurrences of Z_m under one common lambda with abelian-equal
    blocks for each variable.

    Z_m = Z_{m-1} x_m Z_{m-1}: a split width h' (lambda(x_m) = h - 2h')
    needs the 2 * len(starts) width-h' halves abelian-equal as wholes before
    it recurses on them.  Since the windows are equal as wholes, equal halves
    make their x_m blocks equal too.
    """
    if m == 1:
        return True
    first = starts[0]
    for h2 in range((1 << (m - 1)) - 1, (h - 1) // 2 + 1):
        mid = h - h2  # offset of the right half; x_m spans [h2, mid)
        half = sums[first + h2] - sums[first]
        for s in starts:
            if sums[s + h2] - sums[s] != half or sums[s + h] - sums[s + mid] != half:
                break
        else:
            if _halves_fit(sums, [t for s in starts for t in (s, s + mid)], h2, m - 1):
                return True
    return False


def g_value(n: int, k: int, **kwargs):
    """(g(n,k), certificate) when exhausted, (None, certificate) otherwise."""
    from .search import longest_avoiding

    cert = longest_avoiding(n, k, mode="abelian", **kwargs)
    return cert.implied_f(), cert


# ---------------------------------------------------------------------------
# bounds


def g_lower_bound(n: int, k: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """k^(floor(2^n / (n+2)) - 1), a strict lower bound on g(n, k)."""
    if n < 2 or k < 2:
        raise ValueError("stated for n >= 2 and k >= 2")
    return guarded_power(k, guarded_power(2, n, digit_cap) // (n + 2) - 1, digit_cap)


def g_upper_bound(n: int, k: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Closed-form doubly-exponential upper bound 2^((4k)^n (n-1)!)."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    exponent = 1
    for factor in chain(repeat(4 * k, n), range(2, n)):
        exponent *= factor
        if exponent.bit_length() > 64:  # as guarded_power would, before the rest is built
            raise ResourceLimitError(f"2**{{(4*{k})**{n} * {n - 1}!}} exceeds the digit cap")
    return guarded_power(2, exponent, digit_cap)


def g_upper_recurrence(n: int, k: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The tighter chained bound g(m+1) <= (g(m)+1) (g(m)^(k m)+1), g(1)=1."""
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    g = 1
    for m in range(1, n):
        power = 1 if g == 1 else guarded_power(g, k * m, digit_cap)
        g = (g + 1) * (power + 1)
        if g.bit_length() > 4 * digit_cap:
            raise ResourceLimitError("recurrence value exceeds the digit cap")
    return g


def delta_upper_bound(n: int, k: int, length: int) -> Fraction:
    """length^(n+2) / k^(2^n - n - 1): bound on the expected number of
    abelian Z_n occurrences in a random word of the given length."""
    if n < 1 or k < 2 or length < 0:
        raise ValueError("need n >= 1, k >= 2, length >= 0")
    # 0 and 1 are their own powers, and guarded_power takes bases >= 2
    occurrences = length if length < 2 else guarded_power(length, n + 2)
    return occurrences * claim2_bound(n, k)


# ---------------------------------------------------------------------------
# probability oracles for the two claims behind the lower bound


def claim1_probability(k: int, h: int, m: int, cap: int = 5_000_000) -> Fraction:
    """Exact probability that m uniform words of length h over [k] are all
    abelian-equivalent, by full enumeration of the k^(h m) tuples."""
    from fractions import Fraction

    if k < 2 or h < 1 or m < 2:
        raise ValueError("need k >= 2, h >= 1, m >= 2")
    if power_exceeds(k, h * m, cap):
        raise ResourceLimitError(
            f"enumerating the {m}-tuples of words of length {h} over {k} letters exceeds the cap of {cap}"
        )
    total = k ** (h * m)
    words = list(product(range(k), repeat=h))
    hits = 0
    for tup in product(words, repeat=m):
        first = Counter(tup[0])
        if all(Counter(u) == first for u in tup[1:]):
            hits += 1
    return Fraction(hits, total)


def claim1_bound(k: int, m: int) -> Fraction:
    """1 / k^(m-1): bound on the probability that m uniform words over [k]
    of one length are all abelian-equivalent."""
    from fractions import Fraction

    if k < 2 or m < 1:
        raise ValueError("need k >= 2, m >= 1")
    return Fraction(1, guarded_power(k, m - 1))


def claim2_probability(n: int, k: int, lam: AbelianAssignment, cap: int = 5_000_000) -> Fraction:
    """Exact probability that (0, lam) is an abelian occurrence of Z_n in a
    uniform word of length width(lam), by full enumeration."""
    from fractions import Fraction

    width = lam.width
    if power_exceeds(k, width, cap):
        raise ResourceLimitError(f"enumerating the words of length {width} over {k} letters exceeds the cap of {cap}")
    total = k**width
    hits = 0
    for w in product(range(k), repeat=width):
        if abelian_occurrence(w, 0, n, lam):
            hits += 1
    return Fraction(hits, total)


def claim2_bound(n: int, k: int) -> Fraction:
    """1 / k^(2^n - n - 1): bound on the probability that a fixed
    assignment is an abelian occurrence of Z_n in a uniform word over [k]."""
    from fractions import Fraction

    if n < 1 or k < 2:
        raise ValueError("need n >= 1, k >= 2")
    return Fraction(1, guarded_power(k, guarded_power(2, n) - n - 1))
