"""Zimin patterns, Zimin type and index, pattern matching, unavoidability.

The n-th Zimin pattern is Z_1 = x1, Z_{n+1} = Z_n x_{n+1} Z_n.  A word w
*matches* a pattern when substituting every variable by some non-empty word
yields w; it *encounters* the pattern when some infix matches it.  The Zimin
type of w is the largest n with w matching Z_n; the Zimin index is the
maximum type over all infixes.  A pattern with n distinct variables is
unavoidable exactly when Z_n (read as a word over its variables)
encounters it.

``ZiminSuffixTracker`` types the suffixes of a word as each letter is
appended; ``zimin_type``, ``zimin_index`` and the avoidance search all
read the Zimin type from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ResourceLimitError

DEFAULT_ZIMIN_PATTERN_CAP = 25  # zimin_pattern(n) has 2^n - 1 positions
DEFAULT_INDEX_LENGTH_CAP = 10_000


class Pattern:
    """A pattern: a non-empty-or-empty word over variable indices x1, x2, ...

    Accepts either explicit indices (``Pattern([1, 2, 1])``), the spaced text
    form ``"x1 x2 x1"``, or a compact letter form ``"xyx"`` where each
    distinct letter names a variable.
    """

    __slots__ = ("variables",)

    def __init__(self, variables):
        vs = tuple(int(v) for v in variables)
        if any(v < 1 for v in vs):
            raise ValueError("variable indices must be positive")
        object.__setattr__(self, "variables", vs)

    def __setattr__(self, name, value):
        raise AttributeError("Pattern is immutable")

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

    def __len__(self):
        return len(self.variables)

    def __getitem__(self, i):
        return self.variables[i]

    def __iter__(self):
        return iter(self.variables)

    def __eq__(self, other):
        if isinstance(other, Pattern):
            return self.variables == other.variables
        return NotImplemented

    def __hash__(self):
        return hash(self.variables)

    def __repr__(self):
        return f"Pattern({str(self)!r})"

    def __str__(self):
        return " ".join(f"x{v}" for v in self.variables)

    @property
    def distinct_variables(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.variables)))


@dataclass(frozen=True)
class MorphismWitness:
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


def _canon(w: Sequence) -> list[int]:
    ids: dict = {}
    return [ids.setdefault(c, len(ids)) for c in w]


class ZiminSuffixTracker:
    """Incremental check: would appending a letter close a Z_n encounter?

    State: the current word and, per letter, the bitset of its positions.
    Pushing c to length l walks the borders of the new suffixes by length
    b, keeping occ = start positions of earlier copies of the length-b
    suffix a.  A start s < l - 2b gives the suffix word[s:l] = a·u·a with
    u non-empty, so zimin_type(word[s:l]) >= 1 + zimin_type(a), and the
    type of word[s:l] is the maximum of these bounds over its borders.

    Every copy at s is a itself, so no table of infix types is needed: one
    number, the type of a, serves all of occ at once.  That type is read
    off the push's own rows, which hold the starts of the suffixes of type
    >= m: bit l - b of rows[m] can only be set by borders shorter than b/2,
    and those come first.  The walk stops at the first length with no
    earlier copy clear of the suffix, since a longer border would need
    one; so a push costs about the length of the longest suffix that
    occurred before, not the length of the word.  ``rows`` keeps the rows
    of the last accepted push.
    """

    def __init__(self, n: int, k: int):
        if n < 1 or k < 1:
            raise ValueError("need n >= 1 and k >= 1")
        self.n = n
        self.k = k
        self.word: list[int] = []
        self.rows: list[int] = [0] * n
        self._letter_pos = [0] * k

    def try_push(self, c: int) -> bool:
        """Append c unless it creates a suffix of type >= n; report success."""
        n = self.n
        if n == 1:
            return False
        word = self.word
        letter_pos = self._letter_pos
        length = len(word) + 1
        # rows[m], 2 <= m < n: starts s with zimin_type(word[s:length]) >= m
        rows = [0] * n
        occ = letter_pos[c]
        for b in range(1, (length - 1) // 2 + 1):
            if b > 1:
                occ = letter_pos[word[length - b]] & (occ >> 1)
            occm = occ & ((1 << (length - 2 * b)) - 1)
            if not occm:
                # a longer border needs a shorter one with room to spare
                break
            s = length - b
            t = 1  # zimin_type of the length-b suffix
            while t < n - 1 and rows[t + 1] >> s & 1:
                t += 1
            if t == n - 1:
                # the suffixes starting in occm have type >= n
                return False
            for m in range(2, t + 2):
                rows[m] |= occm
        word.append(c)
        letter_pos[c] |= 1 << (length - 1)
        self.rows = rows
        return True

    def pop(self):
        c = self.word.pop()
        self._letter_pos[c] &= ~(1 << len(self.word))


# bound once: code that wraps the search's tracker methods must not see these
_try_push = ZiminSuffixTracker.try_push


def _tracker(x: list[int]) -> ZiminSuffixTracker:
    """A tracker whose level no word of len(x) letters reaches (types are at
    most floor(log2(len(x) + 1))), so that no push of x is rejected."""
    return ZiminSuffixTracker(len(x).bit_length() + 2, max(x) + 1)


def _top_row(rows: list[int], starts: int = -1) -> int:
    """Largest m with rows[m] meeting the bitset starts, or 1 if none does."""
    m = len(rows) - 1
    while m > 1 and not rows[m] & starts:
        m -= 1
    return m


def zimin_type(w: Sequence) -> int:
    """Largest n such that w matches Z_n; 0 for the empty word.

    Recursion: for non-empty w the type is 1 plus the maximum type over
    borders a of w with 2|a| < |w| (decompositions w = a b a, b non-empty).
    w is the suffix of itself starting at 0, so its type is bit 0 of the
    rows of its last letter's push.
    """
    if len(w) == 0:
        return 0
    x = _canon(w)
    tracker = _tracker(x)
    # a push reads no earlier rows, so the prefix goes in untyped
    tracker.word = x[:-1]
    for i, c in enumerate(tracker.word):
        tracker._letter_pos[c] |= 1 << i
    _try_push(tracker, x[-1])
    return _top_row(tracker.rows, 1)


def zimin_index(w: Sequence, max_length: Optional[int] = DEFAULT_INDEX_LENGTH_CAP) -> int:
    """Maximum Zimin type over all infixes of w (0 for the empty word).

    Every infix is a suffix of a prefix, so this is the largest type among
    the suffixes typed by the pushes of w.
    """
    n = len(w)
    if max_length is not None and n > max_length:
        raise ResourceLimitError(f"zimin_index input of length {n} exceeds the cap {max_length}")
    if n == 0:
        return 0
    x = _canon(w)
    tracker = _tracker(x)
    best = 1
    for c in x:
        _try_push(tracker, c)
        best = max(best, _top_row(tracker.rows))
    return best


def matches(w: Sequence, p: Pattern) -> Optional[MorphismWitness]:
    """A non-erasing substitution whose image of p is exactly w, or None.

    Deterministic search order: variables are bound at their leftmost
    occurrence, shorter images tried first; the first witness found under
    this order is returned.
    """
    pat = tuple(p)
    if not pat:
        raise ValueError("pattern must be non-empty")
    n = len(w)
    m = len(pat)
    if n < m:
        return None
    assign: dict = {}  # var -> (start, length) into w
    # per bound variable: (first position in p, start, length, longest fit)
    frames: list[tuple[int, int, int, int]] = []
    i = j = 0
    while j < m or i < n:
        v = pat[j] if j < m else None
        got = assign.get(v)
        if got is not None:
            s0, li = got
            if i + li <= n and w[i : i + li] == w[s0 : s0 + li]:
                i += li
                j += 1
                continue
        elif v is not None:
            later_same = rem_min = 0
            for u in pat[j + 1 :]:
                if u in assign:
                    rem_min += assign[u][1]
                elif u == v:
                    later_same += 1
                else:
                    rem_min += 1
            frames.append((j, i, 0, (n - i - rem_min) // (1 + later_same)))
        # lengthen the image of the latest variable that can grow
        while frames:
            j, i, li, max_len = frames.pop()
            if li < max_len:
                assign[pat[j]] = (i, li + 1)
                frames.append((j, i, li + 1, max_len))
                i += li + 1
                j += 1
                break
            assign.pop(pat[j], None)
        else:
            return None
    return MorphismWitness({v: w[s0 : s0 + li] for v, (s0, li) in assign.items()})


def encounters(w: Sequence, p: Pattern) -> Optional[tuple[int, MorphismWitness]]:
    """Leftmost-then-shortest infix of w matching p, with its witness.

    Scans offsets ascending and, per offset, infix lengths ascending.
    """
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    n = len(w)
    for m in range(n - len(p) + 1):
        for end in range(m + len(p), n + 1):
            got = matches(w[m:end], p)
            if got is not None:
                return m, got
    return None


def is_unavoidable(p: Pattern, cap: int = DEFAULT_ZIMIN_PATTERN_CAP) -> bool:
    """Whether every long enough word over every finite alphabet encounters p.

    Decided by checking whether Z_n encounters p, where n is the number of
    distinct variables of p.
    """
    if len(p) == 0:
        raise ValueError("pattern must be non-empty")
    n = len(p.distinct_variables)
    zword = tuple(zimin_pattern(n, cap=cap))
    return encounters(zword, p) is not None
