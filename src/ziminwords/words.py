"""Basic word types and utilities: ranked symbols, occurrences, towers.

Words are plain immutable sequences.  Binary words are ordinary strings over
"01"; words over larger alphabets may be strings or tuples; ranked words (the
counter alphabet, symbols ``0_n``/``1_n`` carrying an *order* ``n``) get a
small dedicated sequence type so they print and parse in the standard text
format ``"0_1 0_2 1_1 0_2"``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import ResourceLimitError

# Guards against runaway big-integer growth (tower values, counter lengths).
DEFAULT_DIGIT_CAP = 10**6
# The other caps live here, beside the digit cap, so that the CLI's parser
# can name them without loading zimin or counters.
# Symbol-count cap for materialised counters.  Orders up to 4 (336 symbols)
# are comfortable; order 5 is 65536 * 337 = 22_085_632 symbols and is only
# reachable through counter_stream or an explicit cap override.
DEFAULT_SYMBOL_CAP = 10**7
# most distinct variables of a pattern for is_unavoidable, and most n for
# zimin_pattern(n), which has 2^n - 1 positions
DEFAULT_ZIMIN_PATTERN_CAP = 25
# a zimin_index push copies the level strings of the new position, which on
# periodic words are about as long as the word: |w|^2 byte copies there, and
# a^20000 takes about 0.35 s
DEFAULT_INDEX_LENGTH_CAP = 20_000


class RankedSymbol(NamedTuple):
    """An alphabet symbol ``bit_order``, e.g. ``RankedSymbol(0, 3)`` is 0_3."""

    bit: int
    order: int

    def __str__(self):
        return f"{self.bit}_{self.order}"

    @classmethod
    def parse(cls, token: str) -> "RankedSymbol":
        bit_s, _, order_s = token.partition("_")
        if bit_s not in ("0", "1") or not order_s.isdigit() or int(order_s) < 1:
            raise ValueError(f"bad ranked symbol token: {token!r}")
        return cls(int(bit_s), int(order_s))


def sym(bit: int, order: int) -> RankedSymbol:
    """Checked constructor for a ranked symbol."""
    if bit not in (0, 1):
        raise ValueError(f"bit must be 0 or 1, got {bit!r}")
    if not isinstance(order, int) or order < 1:
        raise ValueError(f"order must be a positive integer, got {order!r}")
    return RankedSymbol(bit, order)


class RankedWord(Sequence):
    """Immutable word over ranked symbols.

    Behaves as a sequence of :class:`RankedSymbol`; slicing yields a
    ``RankedWord``.  ``str()`` and :meth:`parse` round-trip through the
    whitespace-separated text format.
    """

    __slots__ = ("symbols",)

    def __init__(self, symbols: Iterable[RankedSymbol] = ()):
        object.__setattr__(self, "symbols", tuple(symbols))

    def __setattr__(self, name, value):
        raise AttributeError("RankedWord is immutable")

    def __len__(self):
        return len(self.symbols)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return RankedWord(self.symbols[index])
        return self.symbols[index]

    def __iter__(self) -> Iterator[RankedSymbol]:
        return iter(self.symbols)

    def __eq__(self, other):
        if isinstance(other, RankedWord):
            return self.symbols == other.symbols
        return NotImplemented

    def __hash__(self):
        return hash(self.symbols)

    def __add__(self, other: "RankedWord") -> "RankedWord":
        return RankedWord(self.symbols + other.symbols)

    def __repr__(self):
        return f"RankedWord({str(self)!r})"

    def __str__(self):
        return " ".join(str(s) for s in self.symbols)

    @classmethod
    def parse(cls, text: str) -> "RankedWord":
        return cls(RankedSymbol.parse(tok) for tok in text.split())

    @property
    def max_order(self) -> int:
        if not self.symbols:
            raise ValueError("max order of the empty word is undefined")
        return max(s.order for s in self.symbols)


def occurrences(needle: Sequence, haystack: Sequence) -> list[int]:
    """All offsets m with haystack[m : m+|needle|] == needle, ascending.

    The empty needle occurs at every offset 0..|haystack|.  A str in a str,
    or bytes in bytes, is found with ``find``.
    """
    n, h = len(needle), len(haystack)
    if n == 0:
        return list(range(h + 1))
    if isinstance(needle, (str, bytes)) and type(needle) is type(haystack):
        out = []
        m = haystack.find(needle)
        while m != -1:
            out.append(m)
            m = haystack.find(needle, m + 1)
        return out
    needle, haystack = tuple(needle), tuple(haystack)
    first = needle[0]
    return [m for m in range(h - n + 1) if haystack[m] == first and haystack[m : m + n] == needle]


def tower(n: int, k: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Tower(n, k): Tower(0,k) = 1, Tower(n+1,k) = k**Tower(n,k).

    Exact big integer; raises ResourceLimitError once the value would
    exceed ``digit_cap`` decimal digits.
    """
    if n < 0:
        raise ValueError("tower height must be non-negative")
    if k < 2:
        raise ValueError("tower base must be at least 2")
    value = 1
    for _ in range(n):
        _check_digits(k, value, digit_cap)
        value = k**value
    return value


def tau(n: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """The unary tower tau(n) = Tower(n, 2)."""
    return tower(n, 2, digit_cap=digit_cap)


def _check_digits(base: int, exponent: int, digit_cap: int):
    # digits(base**exponent) ~ exponent * log10(base)
    if exponent.bit_length() > 64:
        raise ResourceLimitError(
            f"{base}**{{{exponent.bit_length()}-bit exponent}} exceeds the digit cap"
        )
    digits = exponent * math.log10(base)
    if digits > digit_cap:
        # a huge base is named by its size: str() refuses ints of over 4,300 digits
        shown = base if base.bit_length() <= 64 else f"{{{base.bit_length()}-bit base}}"
        raise ResourceLimitError(
            f"{shown}**{exponent} has ~{digits:.3g} digits, over the cap of {digit_cap}"
        )


def power_exceeds(base: int, exponent: int, bound: int) -> bool:
    """Whether base**exponent > bound, for exponent >= 0.  For base >= 2 the
    power is at least 2**exponent, so a large exponent is decided without
    building the power."""
    if base >= 2 and exponent >= bound.bit_length():
        return True
    return base**exponent > bound


def guarded_power(base: int, exponent: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """base**exponent, refusing results beyond the digit cap."""
    if base < 2 or exponent < 0:
        raise ValueError("guarded_power expects base >= 2 and exponent >= 0")
    _check_digits(base, exponent, digit_cap)
    return base**exponent
