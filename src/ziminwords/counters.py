"""Higher-order counters (Stockmeyer's yardstick construction).

The i-th counter of order n writes i in binary, least significant bit first,
with bits drawn from {0_n, 1_n} and every counter of order n-1 interleaved
in sequence before its bit:

    C_i^1    = i_1                                          (i in {0, 1})
    C_i^n+1  = C_0^n b_0  C_1^n b_1  ...  C_{tau(n)-1}^n b_{tau(n)-1}

There are tau(n) counters of order n and their common length L_n satisfies
L_1 = 1, L_{n+1} = tau(n) * (L_n + 1), so L_n >= tau(n-1).

All counters of one order share one skeleton and differ only at the
tau(n-1) top-bit slots.  ``_recursion`` is the one place the recursion is
written.  For orders up to 4 its output is cached as a template: the
skeleton C_0^n (0_n in every slot) and the slot offsets.  Order 4 has 336
symbols and 16 slots.  ``counter`` copies the skeleton and writes 1_n into
the slots set in i.  ``counter_stream`` iterates that tuple.  Above order 4
it recurses, one order-4 counter at a time.  ``decode_counter`` compares
each sub-counter as one tuple slice and looks for the offending symbol only
on a mismatch.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from typing import Iterable, Iterator

from .errors import MalformedCounterError, ResourceLimitError
from .words import DEFAULT_DIGIT_CAP, DEFAULT_SYMBOL_CAP, RankedSymbol, RankedWord, tau


def counter_length(order: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Exact length L_n of every order-n counter."""
    if order < 1:
        raise ValueError("order must be >= 1")
    length = 1
    for m in range(1, order):
        t = tau(m, digit_cap=digit_cap)
        length = t * (length + 1)
        if length.bit_length() > 4 * digit_cap:
            raise ResourceLimitError(f"counter length for order {order} exceeds the digit cap")
    return length


def _check_id(index: int, order: int) -> None:
    if order < 1:
        raise ValueError("order must be >= 1")
    hi = tau(order)
    if not 0 <= index < hi:
        raise ValueError(f"counter index {index} out of range [0, tau({order})-1 = {hi - 1}]")


# Highest order built from a cached template (336 symbols at order 4).
TEMPLATE_ORDER = 4


def _recursion(index: int, order: int) -> Iterator[tuple[RankedSymbol, ...]]:
    """C_index^order as consecutive tuples: each order-(n-1) sub-counter in
    one or more tuples, each top bit in a tuple of its own."""
    if order == 1:
        yield (RankedSymbol(index, 1),)
        return
    for j in range(tau(order - 1)):
        yield from _chunks(j, order - 1)
        yield (RankedSymbol((index >> j) & 1, order),)


def _chunks(index: int, order: int) -> Iterable[tuple[RankedSymbol, ...]]:
    """C_index^order as consecutive tuples, one template copy up to order 4."""
    if order <= TEMPLATE_ORDER:
        return (_from_template(index, order),)
    return _recursion(index, order)


@lru_cache(maxsize=None)
def _template(order: int) -> tuple[tuple[RankedSymbol, ...], tuple[int, ...]]:
    """C_0^order and the offsets of its top-bit slots; slot j of C_i^order holds bit j of i."""
    skeleton = tuple(chain.from_iterable(_recursion(0, order)))
    return skeleton, tuple(p for p, s in enumerate(skeleton) if s.order == order)


def _from_template(index: int, order: int) -> tuple[RankedSymbol, ...]:
    skeleton, slots = _template(order)
    if not index:
        return skeleton
    out = list(skeleton)
    one = RankedSymbol(1, order)
    for j, offset in enumerate(slots):
        if (index >> j) & 1:
            out[offset] = one
    return tuple(out)


def check_symbol_cap(order: int, symbol_cap: int | None) -> None:
    """Refuse order-n counters longer than symbol_cap (None: no cap).  The
    message leaves the length out: L_6 has more digits than str() prints."""
    if symbol_cap is not None and counter_length(order) > symbol_cap:
        raise ResourceLimitError(f"order-{order} counters are longer than the cap of {symbol_cap} symbols")


def counter(index: int, order: int, symbol_cap: int | None = DEFAULT_SYMBOL_CAP) -> RankedWord:
    """Materialise the counter C_index^order as a RankedWord."""
    _check_id(index, order)
    check_symbol_cap(order, symbol_cap)
    return RankedWord(chain.from_iterable(_chunks(index, order)))


def counter_stream(index: int, order: int) -> Iterator[RankedSymbol]:
    """Iterate over the symbols of C_index^order without materialising the word.

    The index is checked at the call.  Memory is bounded by one order-4
    counter (336 symbols) plus one generator frame and one big integer per
    order above 4, never by the counter length.
    """
    _check_id(index, order)
    return chain.from_iterable(_chunks(index, order))


def decode_counter(w, order: int) -> int:
    """The unique i with counter(i, order) == w, validating the structure.

    Raises MalformedCounterError pointing at the first offending position.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    expected_len = counter_length(order)
    symbols = tuple(w)
    index = 0
    pos = 0
    if order == 1:
        if not symbols:
            raise MalformedCounterError("empty word is not a counter", 0)
        s = symbols[0]
        if s.order != 1:
            raise MalformedCounterError(f"expected an order-1 symbol, found {s}", 0)
        if len(symbols) > 1:
            raise MalformedCounterError("order-1 counter has exactly one symbol", 1)
        return s.bit
    for j in range(tau(order - 1)):
        for chunk in _chunks(j, order - 1):
            end = pos + len(chunk)
            if symbols[pos:end] != chunk:
                _raise_mismatch(symbols, pos, chunk, j)
            pos = end
        if pos >= len(symbols):
            raise MalformedCounterError(f"missing order-{order} bit after sub-counter {j}", pos)
        b = symbols[pos]
        if b.order != order or b.bit not in (0, 1):
            raise MalformedCounterError(f"expected an order-{order} bit, found {b}", pos)
        index |= b.bit << j
        pos += 1
    if pos != len(symbols):
        raise MalformedCounterError(f"trailing symbols after a complete order-{order} counter", pos)
    assert pos == expected_len
    return index


def _raise_mismatch(symbols, pos: int, expected, j: int) -> None:
    """Raise at the first offset where symbols[pos:] departs from expected."""
    for offset, want in enumerate(expected, pos):
        if offset >= len(symbols):
            raise MalformedCounterError(f"word ends inside sub-counter {j}", offset)
        if symbols[offset] != want:
            raise MalformedCounterError(
                f"expected {want} inside sub-counter {j}, found {symbols[offset]}", offset
            )
