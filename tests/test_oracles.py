"""The matcher's witness order against the brute-force length-order oracle."""

import itertools

from ziminwords import Pattern, encounters, matches
from ziminwords.counters import counter
from ziminwords.oracles import matches_by_lengths


def _words(alphabet, max_len):
    for n in range(max_len + 1):
        for letters in itertools.product(alphabet, repeat=n):
            yield "".join(letters)


def _canonical_patterns(max_len):
    """Every pattern of at most max_len positions, variables numbered in
    order of first occurrence."""
    level = [()]
    for _ in range(max_len):
        level = [p + (v,) for p in level for v in range(1, max(p, default=0) + 2)]
        yield from map(Pattern, level)


def _first_encounter(w, p):
    for s in range(len(w)):
        for e in range(s + 1, len(w) + 1):
            got = matches_by_lengths(w[s:e], p)
            if got is not None:
                return s, got
    return None


def test_oracle_examples():
    assert matches_by_lengths("aaaa", Pattern.parse("xyx")) == {1: "a", 2: "aa"}
    assert matches_by_lengths("abcab", Pattern.parse("xyx")) == {1: "ab", 2: "c"}
    assert matches_by_lengths("abab", Pattern.parse("xx")) == {1: "ab"}
    assert matches_by_lengths("ab", Pattern.parse("xx")) is None
    assert matches_by_lengths("a", Pattern.parse("xy")) is None


def test_matches_witness_is_least_by_image_lengths():
    patterns = list(_canonical_patterns(4))
    assert len(patterns) == 1 + 2 + 5 + 15
    words = list(_words("01", 8))
    assert len(words) == 511
    for p in patterns:
        for w in words:
            got = matches(w, p)
            assert (got and got.assignment) == matches_by_lengths(w, p), (w, p)


def test_encounters_witness_is_first_by_offset_length_and_image_lengths():
    patterns = list(_canonical_patterns(3))
    words = list(_words("abc", 5)) + [tuple(counter(i, 3)) for i in range(0, 16, 5)]
    for p in patterns:
        for w in words:
            got = encounters(w, p)
            assert (got and (got[0], got[1].assignment)) == _first_encounter(w, p), (w, p)
