import pytest
from hypothesis import given
from hypothesis import strategies as st

from ziminwords import occurrences, sym, tau, tower
from ziminwords.errors import ResourceLimitError
from ziminwords.oracles import occurrences_brute
from ziminwords.words import RankedSymbol, RankedWord


def test_occurrences_examples():
    assert occurrences("na", "banana") == [2, 4]
    assert occurrences("a", "a") == [0]
    assert occurrences("", "abc") == [0, 1, 2, 3]
    assert occurrences("xyz", "ab") == []
    # bytes take the find path as str does, overlapping occurrences included
    assert occurrences(b"aa", b"baaa") == [1, 2]


def test_occurrences_on_tuples():
    assert occurrences((1, 2), (0, 1, 2, 1, 2)) == [1, 3]


@given(st.text(alphabet="ab", max_size=8), st.text(alphabet="ab", max_size=20))
def test_occurrences_matches_brute(needle, haystack):
    got = occurrences(needle, haystack)
    if needle:
        assert got == occurrences_brute(needle, haystack)
    for m in got:
        assert haystack[m : m + len(needle)] == needle


def test_tower_values():
    assert tower(0, 2) == 1
    assert tower(3, 2) == 16
    assert tower(2, 3) == 27
    assert [tau(n) for n in range(5)] == [1, 2, 4, 16, 65536]


def test_tower_recurrence():
    cases = [(n, 2) for n in range(5)] + [(n, k) for n in range(3) for k in (3, 5)]
    for n, k in cases:
        assert tower(n + 1, k) == k ** tower(n, k)


def test_tower_digit_cap():
    # tau(5) has ~20k digits and passes; tau(6) blows any reasonable cap.
    assert tau(5) == 2**65536
    with pytest.raises(ResourceLimitError):
        tower(6, 2)
    with pytest.raises(ResourceLimitError):
        tower(5, 2, digit_cap=3)


def test_tower_argument_validation():
    with pytest.raises(ValueError):
        tower(-1, 2)
    with pytest.raises(ValueError):
        tower(2, 1)


def test_ranked_word_text_roundtrip():
    w = RankedWord.parse("0_3 1_1 0_2")
    assert str(w) == "0_3 1_1 0_2"
    assert len(w) == 3
    assert w[0] == sym(0, 3)
    assert w.max_order == 3
    assert RankedWord.parse(str(w)) == w


def test_ranked_word_slicing_and_concat():
    w = RankedWord.parse("0_1 0_2 1_1 0_2")
    assert isinstance(w[1:3], RankedWord)
    assert str(w[1:3]) == "0_2 1_1"
    assert w[:2] + w[2:] == w


def test_ranked_symbol_validation():
    with pytest.raises(ValueError):
        sym(2, 1)
    with pytest.raises(ValueError):
        sym(0, 0)
    with pytest.raises(ValueError):
        RankedSymbol.parse("0_x")
    assert RankedSymbol.parse("1_12") == sym(1, 12)
