import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ziminwords import (
    Pattern,
    encounters,
    is_unavoidable,
    matches,
    zimin_index,
    zimin_pattern,
    zimin_type,
)
from ziminwords.counters import counter
from ziminwords.errors import ResourceLimitError
from ziminwords.oracles import (
    is_unavoidable_via_zimin,
    zimin_index_enumerated,
    zimin_index_per_start,
    zimin_type_recursive,
)
from ziminwords.words import RankedWord, sym
from ziminwords.zimin import DEFAULT_INDEX_LENGTH_CAP, _lengths


def binary_words(max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def test_zimin_pattern_examples():
    assert zimin_pattern(0) == Pattern(())
    assert zimin_pattern(1) == Pattern.parse("x1")
    assert zimin_pattern(3) == Pattern.parse("x1 x2 x1 x3 x1 x2 x1")


def test_zimin_pattern_shape():
    for n in range(8):
        z = zimin_pattern(n)
        assert len(z) == 2**n - 1
        for i in range(1, n + 1):
            assert sum(1 for v in z if v == i) == 2 ** (n - i)


def test_zimin_pattern_cap():
    with pytest.raises(ResourceLimitError):
        zimin_pattern(11, cap=10)


def test_pattern_parsing():
    assert Pattern.parse("xyx") == Pattern([1, 2, 1])
    assert Pattern.parse("x1 x2 x1") == Pattern([1, 2, 1])
    assert Pattern.parse("1 2 1") == Pattern([1, 2, 1])
    assert str(Pattern([1, 2, 1])) == "x1 x2 x1"
    assert Pattern([1, 5, 1]).distinct_variables == (1, 5)


def test_zimin_type_paper_values():
    assert zimin_type("") == 0
    assert zimin_type("aaab") == 1
    assert zimin_type("aba") == 2
    assert zimin_type("a" * 7 + "b" + "a" * 7) == 4
    assert zimin_type("baaabaaa") == 1


def test_zimin_index_paper_values():
    assert zimin_index("") == 0
    assert zimin_index("aaab") == 2
    assert zimin_index("baaabaaa") == 3
    assert zimin_index("bbaba") == 2


def test_zimin_index_length_cap():
    with pytest.raises(ResourceLimitError):
        zimin_index("ab" * 40, max_length=50)
    with pytest.raises(ResourceLimitError):
        zimin_index("a" * (DEFAULT_INDEX_LENGTH_CAP + 1))
    assert zimin_index("ab" * 40, max_length=None) >= 1


def test_zimin_index_of_unary_words():
    # a^m matches Z_t exactly when 2^t - 1 <= m, past the oracles' reach
    lengths = list(range(1, 200)) + [2**j + d for j in (8, 9) for d in (-2, -1, 0)] + [2000]
    for m in lengths:
        assert zimin_index("a" * m, max_length=None) == math.floor(math.log2(m + 1)), m
        assert zimin_type("a" * m) == math.floor(math.log2(m + 1)), m


def test_index_agrees_with_per_start_oracle():
    # words past the enumeration's reach: random, periodic and counters
    rng = random.Random(2019)
    words = [[rng.randrange(k) for _ in range(rng.randint(1, 200))] for k in (1, 2, 2, 3, 3, 4) for _ in range(4)]
    words += [a * m for a in ("a", "ab") for m in (1, 2, 3, 7, 8, 31, 32, 63, 64, 127, 128, 150)]
    words += ["a" * m for m in (255, 256, 300)]
    words += [tuple(counter(i, 3)) for i in range(16)] + [tuple(counter(i, 4)) for i in (0, 1, 2**15, 2**16 - 1)]
    for w in words:
        assert zimin_index(w) == zimin_index_per_start(w), w


def test_index_of_wide_alphabets():
    # 257 to 600 distinct letters take two bytes each in the tracker's
    # mirror, where a letter's bytes show up across letter boundaries: 1, 1
    # holds those of 256, and 256, 256 those of 1
    w = tuple(range(300))
    assert zimin_index(w) == zimin_index_per_start(w) == 1
    # canonical letters follow first occurrences, so a head range(size)
    # keeps every letter's name; hits across boundaries would give 3 here
    w = [*range(257), 1, 256, 3, 256, 1, 1, 3, 256, 3, 1, 1, 3, 256, 256]
    assert zimin_index(w) == zimin_index_per_start(w) == 2
    rng = random.Random(257)
    for size in (257, 300, 600):
        for _ in range(2):
            tail = [rng.choice((0, 1, 256, 257, size - 1, rng.randrange(size))) for _ in range(150)]
            w = [*range(size), *tail]
            assert zimin_index(w) == zimin_index_per_start(w), (size, tail)


def test_zimin_images_have_type_at_least_n():
    rng = random.Random(4242)
    for n in range(1, 6):
        for _ in range(40):
            image = {v: "".join(rng.choice("ab") for _ in range(rng.randint(1, 6))) for v in range(1, n + 1)}
            w = "".join(image[v] for v in zimin_pattern(n))
            assert zimin_type(w) >= n, (n, image)
            assert zimin_index("ba" + w + "ab", max_length=None) >= n, (n, image)


def test_type_and_index_agree_with_oracles_on_ternary_words():
    for length in range(8):
        for w in itertools.product("abc", repeat=length):
            assert zimin_type(w) == zimin_type_recursive(w), w
            assert zimin_index(w) == zimin_index_enumerated(w), w


def test_type_and_index_agree_with_oracles_on_ranked_words():
    words = [counter(i, order) for order in (1, 2, 3) for i in range(2**order)]
    rng = random.Random(7)
    symbols = [sym(b, o) for b in (0, 1) for o in (1, 2, 3)]
    words += [RankedWord([rng.choice(symbols) for _ in range(rng.randint(1, 14))]) for _ in range(60)]
    for w in words:
        assert zimin_type(w) == zimin_type_recursive(tuple(w)), str(w)
        assert zimin_index(w) == zimin_index_enumerated(tuple(w)), str(w)


def test_type_and_index_agree_with_oracles_exhaustively():
    # all binary words of length <= 10 here; the acceptance suite pushes to 14
    for w in binary_words(10):
        assert zimin_type(w) == zimin_type_recursive(w)
        assert zimin_index(w) == zimin_index_enumerated(w)


def test_zimin_type_agrees_with_recursive_oracle_on_ternary_words():
    # every ternary word of length <= 9
    for n in range(10):
        for w in itertools.product("abc", repeat=n):
            assert zimin_type(w) == zimin_type_recursive(w), w


@settings(max_examples=300)
@given(st.text(alphabet="abc", max_size=16))
def test_type_and_index_agree_with_oracles_random(w):
    assert zimin_type(w) == zimin_type_recursive(w)
    assert zimin_index(w) == zimin_index_enumerated(w)


@settings(max_examples=300)
@given(st.text(alphabet="ab", min_size=1, max_size=40))
def test_index_log_bound_and_monotonicity(w):
    zi = zimin_index(w)
    assert zimin_type(w) <= zi
    assert zi <= math.floor(math.log2(len(w) + 1))
    # infix monotonicity on a few slices
    for s, e in [(0, len(w) // 2), (len(w) // 3, len(w)), (1, len(w))]:
        if s < e:
            assert zimin_index(w[s:e]) <= zi


def test_matches_examples():
    got = matches("nana", Pattern.parse("xx"))
    assert got is not None and got.assignment == {1: "na"}
    got = matches("abca", Pattern.parse("xyx"))
    assert got is not None and got.assignment == {1: "a", 2: "bc"}
    assert matches("ab", Pattern.parse("xx")) is None


def test_matches_witness_applies():
    for w in ["abcabc", "aaaa", "abab"]:
        for p in [Pattern.parse("xx"), Pattern.parse("xyx"), Pattern.parse("xy")]:
            got = matches(w, p)
            if got is not None:
                assert got.apply(p) == w


def test_matches_long_pattern_without_recursion():
    # one image per pattern position: a recursive matcher overflows the stack
    pattern = Pattern([1, 2] * 550)
    assert matches("01" * 600, pattern) is None
    got = matches("01" * 550, pattern)
    assert got is not None and got.assignment == {1: "0", 2: "1"}
    got = matches("0011" * 550, pattern)
    assert got is not None and got.assignment == {1: "0", 2: "011"}


def test_matches_refuses_lengths_no_image_has():
    # every image of (x1 x2)^550 has a length divisible by 550
    pattern = Pattern([1, 2] * 550)
    assert matches("01" * 600, pattern) is None
    assert matches("0" * 1200 + "1", pattern) is None
    assert matches("0" * 1650, pattern).assignment == {1: "0", 2: "00"}


def test_image_lengths_by_enumeration():
    for p in ["x", "xx", "xyx", "xxyxx", "xyxzxyx", "xxxyyxxx", "xyzzyx"]:
        pattern = Pattern.parse(p)
        counts = list(Counter(pattern).values())
        reachable = {
            sum(c * l for c, l in zip(counts, ls)) for ls in itertools.product(range(1, 21), repeat=len(counts))
        }
        got = _lengths(pattern, 20)
        assert [t for t in range(21) if got >> t & 1] == sorted(t for t in reachable if t <= 20), p


def test_matches_search_order():
    # leftmost variable first, shorter images first, backtracking into x1
    assert matches("aaaa", Pattern.parse("xyx")).assignment == {1: "a", 2: "aa"}
    assert matches("abcab", Pattern.parse("xyx")).assignment == {1: "ab", 2: "c"}
    assert matches("abab", Pattern.parse("xx")).assignment == {1: "ab"}


def test_matches_empty_pattern_rejected():
    with pytest.raises(ValueError):
        matches("a", Pattern(()))


def test_matches_iff_zimin_type_reaches_level():
    # cross-validation of the matcher against the type computation
    for w in binary_words(12, min_len=1):
        t = zimin_type(w)
        for n in range(1, 5):
            assert (matches(w, zimin_pattern(n)) is not None) == (t >= n)


def test_encounters_examples():
    got = encounters("banana", Pattern.parse("xx"))
    # leftmost-then-shortest: "anan" at offset 1 precedes "nana"
    assert got is not None
    off, wit = got
    assert off == 1 and wit.assignment == {1: "an"}
    assert encounters("abca", Pattern.parse("xyx")) is not None
    assert encounters("abc", Pattern.parse("xx")) is None


def test_encounters_iff_index_reaches_level():
    for w in binary_words(12, min_len=1):
        zi = zimin_index(w)
        for n in range(1, 4):
            assert (encounters(w, zimin_pattern(n)) is not None) == (zi >= n)


def test_encounter_witness_reproduces_infix():
    got = encounters("banana", Pattern.parse("xx"))
    off, wit = got
    image = wit.apply(Pattern.parse("xx"))
    assert "banana"[off : off + len(image)] == image


def test_unavoidability_examples():
    assert is_unavoidable(Pattern.parse("xyx"))
    assert not is_unavoidable(Pattern.parse("xx"))
    assert not is_unavoidable(Pattern.parse("x1 x2 x1 x2"))
    assert is_unavoidable(Pattern.parse("x"))
    # x is free in xyzxz, yet deleting it leaves the avoidable yzz: a
    # free-set reduction must search over the choice of free set
    assert is_unavoidable(Pattern.parse("xyzxz"))
    assert not is_unavoidable(Pattern.parse("yzz"))
    # Z_n itself is unavoidable
    for n in range(1, 9):
        assert is_unavoidable(zimin_pattern(n))
    # no variable of a square occurs once, up to the 25-variable cap
    for m in range(1, 26):
        assert not is_unavoidable(Pattern(list(range(1, m + 1)) * 2))
    # the benchmark's certify patterns
    for text, answer in [
        ("x1 x1", False),
        ("x1 x2 x1", True),
        ("x1 x2 x1 x2", False),
        ("x1 x2 x3 x2 x1", True),
        ("x1 x2 x1 x3 x4 x3 x5 x1", True),
        ("x1 x2 x3 x4 x1 x2 x3 x4", False),
        ("x1 x2 x3 x1 x2 x4 x5 x4 x5", False),
        ("x1 x2 x3 x4 x5 x1 x2 x3 x4 x5", False),
        (str(zimin_pattern(5)), True),
    ]:
        assert is_unavoidable(Pattern.parse(text)) is answer


def _canonical_patterns(length, max_vars):
    """Every pattern of the given length over at most max_vars variables,
    numbered in order of first occurrence."""
    if length == 0:
        yield ()
        return
    for p in _canonical_patterns(length - 1, max_vars):
        for v in range(1, min(max(p, default=0) + 1, max_vars) + 1):
            yield p + (v,)


def test_unavoidability_matches_zimin_word_oracle():
    patterns = [p for n in range(1, 9) for p in _canonical_patterns(n, 4)]
    assert len(patterns) == 3771
    rng = random.Random(14)
    while len(patterns) < 3771 + 30:
        p = [rng.randint(1, 5) for _ in range(rng.randint(9, 10))]
        if len(set(p)) == 5:
            patterns.append(tuple(p))
    for p in patterns:
        assert is_unavoidable(Pattern(p)) == is_unavoidable_via_zimin(Pattern(p)), p


def test_unavoidability_cap_counts_variables():
    # 25 variables are within the default cap
    assert not is_unavoidable(Pattern([25, *range(1, 25), *range(1, 25)]))
    with pytest.raises(ResourceLimitError, match=r"pattern has 26 distinct variables \(cap 25\)"):
        is_unavoidable(Pattern(range(1, 27)))
    with pytest.raises(ResourceLimitError, match=r"pattern has 2 distinct variables \(cap 1\)"):
        is_unavoidable(Pattern.parse("xyx"), cap=1)
