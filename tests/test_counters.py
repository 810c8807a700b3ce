import itertools
import tracemalloc

import pytest

from ziminwords import (
    RankedWord,
    counter,
    counter_length,
    counter_stream,
    decode_counter,
    occurrences,
    sym,
    tau,
)
from ziminwords.errors import MalformedCounterError, ResourceLimitError


def test_order_one_counters():
    assert counter(0, 1) == RankedWord.parse("0_1")
    assert counter(1, 1) == RankedWord.parse("1_1")


def test_order_two_counters():
    assert counter(0, 2) == RankedWord.parse("0_1 0_2 1_1 0_2")
    assert counter(1, 2) == RankedWord.parse("0_1 1_2 1_1 0_2")
    assert counter(2, 2) == RankedWord.parse("0_1 0_2 1_1 1_2")
    assert counter(3, 2) == RankedWord.parse("0_1 1_2 1_1 1_2")


def test_counter_11_order_3():
    expected = RankedWord.parse(
        "0_1 0_2 1_1 0_2 1_3 0_1 1_2 1_1 0_2 1_3 0_1 0_2 1_1 1_2 0_3 0_1 1_2 1_1 1_2 1_3"
    )
    assert counter(11, 3) == expected


def test_counter_index_range():
    with pytest.raises(ValueError):
        counter(4, 2)
    with pytest.raises(ValueError):
        counter(-1, 2)
    with pytest.raises(ValueError):
        counter(16, 3)


def test_counter_lengths():
    assert counter_length(1) == 1
    assert counter_length(2) == 4
    assert counter_length(3) == 20
    assert counter_length(4) == 336
    # L_5 = tau(4) * (L_4 + 1)
    assert counter_length(5) == 65536 * 337
    assert counter_length(5) >= tau(4)


def test_counter_length_matches_words():
    for n in range(1, 5):
        assert len(counter(0, n)) == counter_length(n)


def test_materialisation_cap():
    # default cap (1e7 symbols) rejects order 5 (22_085_632 symbols)
    with pytest.raises(ResourceLimitError):
        counter(0, 5)
    # but an explicit cap override admits it in principle; use a small fake
    with pytest.raises(ResourceLimitError):
        counter(0, 4, symbol_cap=100)


def test_stream_agrees_with_materialisation():
    for n in range(1, 5):
        for i in (0, 1, tau(n) - 1):
            assert RankedWord(counter_stream(i, n)) == counter(i, n)
    assert RankedWord(counter_stream(4095, 4)) == counter(4095, 4)


def test_stream_starts_with_0_1():
    # order-n counters start with C_0^{n-1}, hence with 0_1, once n >= 2;
    # at order 1 the single symbol carries the bit itself
    assert next(counter_stream(1, 1)) == sym(1, 1)
    for n in range(2, 5):
        for i in (0, tau(n) // 2, tau(n) - 1):
            assert next(counter_stream(i, n)) == sym(0, 1)


def test_stream_length_order_4():
    assert sum(1 for _ in counter_stream(0, 4)) == 336


def test_stream_order_5_prefix():
    # constant-memory generation beyond the materialisation cap
    stream = counter_stream(tau(5) - 1, 5)
    prefix = RankedWord(itertools.islice(stream, 20))
    assert prefix == counter(0, 4)[:20]


def test_decode_roundtrip_small_orders():
    for n in range(1, 4):
        for i in range(tau(n)):
            assert decode_counter(counter(i, n), n) == i


def test_decode_roundtrip_order_4_sample():
    for i in itertools.chain(range(256), (4095, 65535, 54321)):
        assert decode_counter(counter(i, 4), 4) == i


def test_decode_rejects_malformed():
    w = counter(11, 3)
    # flip one symbol's bit
    broken = RankedWord(w[:7]) + RankedWord.parse("0_1") + RankedWord(w[8:])
    with pytest.raises(MalformedCounterError) as exc:
        decode_counter(broken, 3)
    assert exc.value.position == 7
    with pytest.raises(MalformedCounterError):
        decode_counter(w[:-1], 3)
    with pytest.raises(MalformedCounterError):
        decode_counter(w + RankedWord.parse("0_1"), 3)
    with pytest.raises(MalformedCounterError):
        decode_counter(RankedWord(()), 1)


def test_distinctness_small_orders():
    for n in range(1, 4):
        words = {counter(i, n) for i in range(tau(n))}
        assert len(words) == tau(n)


def test_unique_subcounter_occurrence_small_orders():
    # every order-(n-1) counter occurs exactly once in every order-n counter
    for n in (2, 3):
        for i in range(tau(n)):
            w = counter(i, n)
            for j in range(tau(n - 1)):
                assert len(occurrences(counter(j, n - 1), w)) == 1


# decode_counter's error contract at order 4: C_i^4 is sixteen order-3
# sub-counters of 20 symbols, each followed by its order-4 bit, so
# sub-counter j spans [21j, 21j + 20) and its bit sits at 21j + 20.


def _decode_error(w, order):
    with pytest.raises(MalformedCounterError) as exc:
        decode_counter(w, order)
    return str(exc.value), exc.value.position


def test_decode_order_4_wrong_symbol_in_later_subcounter():
    w = counter(40_000, 4)
    for p in (21 * 5 + 3, 21 * 5 + 19):
        flipped = sym(1 - w[p].bit, w[p].order)
        broken = RankedWord(w[:p]) + RankedWord([flipped]) + RankedWord(w[p + 1 :])
        assert _decode_error(broken, 4) == (
            f"expected {w[p]} inside sub-counter 5, found {flipped} (position {p})",
            p,
        )


def test_decode_order_4_word_ends_inside_subcounter():
    w = counter(12_345, 4)
    assert _decode_error(w[: 21 * 7 + 4], 4) == ("word ends inside sub-counter 7 (position 151)", 151)


def test_decode_order_4_missing_top_bit():
    w = counter(12_345, 4)
    assert _decode_error(w[: 21 * 3 + 20], 4) == ("missing order-4 bit after sub-counter 3 (position 83)", 83)


def test_decode_order_4_top_bit_of_wrong_order():
    w = counter(65_535, 4)
    p = 21 * 9 + 20
    broken = RankedWord(w[:p]) + RankedWord([sym(1, 3)]) + RankedWord(w[p + 1 :])
    assert _decode_error(broken, 4) == (f"expected an order-4 bit, found 1_3 (position {p})", p)


def test_decode_order_4_trailing_symbols():
    w = counter(7, 4) + RankedWord.parse("0_1")
    assert _decode_error(w, 4) == ("trailing symbols after a complete order-4 counter (position 336)", 336)


def test_stream_rejects_bad_index_at_the_call():
    with pytest.raises(ValueError):
        counter_stream(4, 2)
    with pytest.raises(ValueError):
        counter_stream(0, 0)


def test_stream_order_5_first_three_subcounters():
    # C_5^5 = C_0^4 1_5 C_1^4 0_5 C_2^4 1_5 ...
    block = counter_length(4) + 1
    prefix = RankedWord(itertools.islice(counter_stream(5, 5), 3 * block))
    expected = RankedWord(())
    for j, bit in enumerate((1, 0, 1)):
        expected = expected + counter(j, 4) + RankedWord([sym(bit, 5)])
    assert prefix == expected


def test_stream_order_5_memory_is_bounded():
    stream = counter_stream(tau(5) - 1, 5)
    tracemalloc.start()
    try:
        consumed = sum(1 for _ in itertools.islice(stream, 100 * (counter_length(4) + 1)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert consumed == 100 * 337
    # one order-4 counter is 336 references; allow a few copies, not 100
    assert peak < 64 * 1024
