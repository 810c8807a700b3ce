import itertools
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ziminwords import encounters, zimin_pattern
from ziminwords.abelian import (
    AbelianAssignment,
    AbelianSuffixTracker,
    abelian_equiv,
    abelian_occurrence,
    assignments_of_width,
    claim1_bound,
    claim1_probability,
    claim2_bound,
    claim2_probability,
    delta_upper_bound,
    encounters_abelian_zimin,
    encounters_abelian_zimin_naive,
    g_lower_bound,
    g_upper_bound,
    g_upper_recurrence,
    g_value,
    parikh,
)
from ziminwords.errors import ResourceLimitError
from ziminwords.search import longest_avoiding


def binary_words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def test_parikh_and_equivalence():
    assert parikh("abca") == {"a": 2, "b": 1, "c": 1}
    assert abelian_equiv("ab", "ba")
    assert not abelian_equiv("aab", "abb")
    assert abelian_equiv("", "")
    assert not abelian_equiv("a", "aa")


@given(st.text(alphabet="abc", max_size=10), st.text(alphabet="abc", max_size=10))
def test_abelian_equiv_is_sort_equality(u, v):
    assert abelian_equiv(u, v) == (sorted(u) == sorted(v))


def test_assignment_width():
    lam = AbelianAssignment((2, 1))
    assert lam.width == 2 * 2 + 1
    assert AbelianAssignment((1, 1, 1)).width == 4 + 2 + 1
    with pytest.raises(ValueError):
        AbelianAssignment((0, 1))


def test_assignments_of_width_enumeration():
    lams = list(assignments_of_width(2, 5))
    assert [l.lengths for l in lams] == [(1, 3), (2, 1)]
    for n in (2, 3):
        for width in range(2**n - 1, 12):
            for lam in assignments_of_width(n, width):
                assert lam.width == width


def test_abelian_occurrence_examples():
    assert abelian_occurrence("abcba", 0, 2, AbelianAssignment((2, 1)))
    assert not abelian_occurrence("abcde", 0, 2, AbelianAssignment((2, 1)))
    assert abelian_occurrence("aba", 0, 2, AbelianAssignment((1, 1)))
    with pytest.raises(ValueError):
        abelian_occurrence("ab", 0, 2, AbelianAssignment((1, 1)))


def test_encounters_examples():
    assert encounters_abelian_zimin("abcba", 2) is not None
    assert encounters_abelian_zimin("ab", 2) is None
    j, lam = encounters_abelian_zimin("abcba", 2)
    assert j == 0 and lam.lengths == (1, 3)  # a | bcb | a comes first


def test_exact_encounter_implies_abelian():
    for w in binary_words(9):
        for n in (2, 3):
            if len(w) >= 2**n - 1 and encounters(w, zimin_pattern(n)) is not None:
                assert encounters_abelian_zimin(w, n) is not None


def test_matches_naive_oracle_n2():
    for w in binary_words(9):
        got = encounters_abelian_zimin(w, 2) is not None
        assert got == encounters_abelian_zimin_naive(w, 2)


def test_naive_oracle_ternary_spotcheck():
    for w in ["aabbcc", "abcabc", "aabbc", "abc"]:
        assert (encounters_abelian_zimin(w, 2) is not None) == encounters_abelian_zimin_naive(w, 2)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_tracker_random_walk_matches_encounters(n, k):
    rng = random.Random(1000 * n + k)
    tracker = AbelianSuffixTracker(n, k)
    for _ in range(120):
        if tracker.word and (len(tracker.word) == 40 or rng.random() < 0.3):
            tracker.pop()
            continue
        before = tracker.word[:]
        # letter 0 half the time: abelian-equal blocks, hence rejections, come sooner
        c = rng.randrange(k) if rng.random() < 0.5 else 0
        accepted = tracker.try_push(c)
        assert accepted == (encounters_abelian_zimin(before + [c], n) is None)
        assert tracker.word == (before + [c] if accepted else before)


def test_g_values():
    assert g_value(1, 2)[0] == 1
    assert g_value(1, 5)[0] == 1
    g22, cert22 = g_value(2, 2)
    assert g22 == 5 and cert22.exhausted
    g23, cert23 = g_value(2, 3)
    assert g23 == 7 and cert23.exhausted


@pytest.mark.parametrize(
    "n, k, g, nodes",
    [(2, 4, 9, 633), (2, 5, 11, 6331), (3, 2, 29, 45997), (2, 6, 13, 75973), (2, 7, 15, 1063623)],
)
def test_g_exact_by_exhaustion(n, k, g, nodes):
    value, cert = g_value(n, k)
    assert (value, cert.exhausted, cert.nodes_explored) == (g, True, nodes)
    assert len(cert.witness) == g - 1
    assert encounters_abelian_zimin(cert.witness, n) is None
    assert value <= longest_avoiding(n, k).implied_f()


def test_g_at_most_f():
    for n, k in [(2, 2), (2, 3)]:
        g, gcert = g_value(n, k)
        f = longest_avoiding(n, k).implied_f()
        assert g <= f
        # abelian-avoiding words avoid exactly as well
        assert len(gcert.witness) <= f - 1


def test_g_lower_bound_values():
    assert g_lower_bound(3, 2) == 1
    assert g_lower_bound(4, 2) == 2
    assert g_lower_bound(3, 10) == 1
    assert g_lower_bound(5, 2) == 2 ** (32 // 7 - 1)


def test_g_upper_bounds():
    assert g_upper_bound(1, 2) == 2**8
    assert g_upper_bound(1, 5) == 2**20
    assert g_upper_recurrence(1, 4) == 1
    assert g_upper_recurrence(2, 2) == 4
    assert g_upper_recurrence(2, 9) == 4
    # recurrence from g(1,k)=1 stays below the closed form
    for n in (2, 3):
        for k in (2, 3):
            assert g_upper_recurrence(n, k) <= g_upper_bound(n, k)


def test_bounds_refuse_a_huge_n_before_building_it_up():
    for bound in (g_lower_bound, g_upper_bound):
        with pytest.raises(ResourceLimitError):
            bound(10**12, 2)
    with pytest.raises(ResourceLimitError, match=r"2\*\*\{\(4\*2\)\*\*20 \* 19!\}"):
        g_upper_bound(20, 2)


def test_a_huge_n_builds_no_huge_int_per_push():
    # a word shorter than 2^(n-1) letters has no room for the 2^n - 1 blocks
    # of Z_n, so neither the tracker nor the encounter test may build 2^(n-1)
    start = time.perf_counter()
    g, cert = g_value(10**12, 2, max_nodes=200)
    assert g is None and cert.max_avoiding_length == 199
    assert time.perf_counter() - start < 1
    assert encounters_abelian_zimin("01" * 10, 10**12) is None


def test_delta_upper_bound_values():
    assert delta_upper_bound(2, 2, 3) == Fraction(81, 2)
    assert delta_upper_bound(3, 2, 10) == Fraction(10**5, 2**4)
    # lengths 0 and 1 are their own powers
    assert delta_upper_bound(3, 2, 0) == 0
    assert delta_upper_bound(3, 2, 1) == Fraction(1, 2**4)
    assert claim1_bound(3, 1) == claim2_bound(1, 3) == 1


def test_claim_bounds_refuse_before_building_the_power():
    # k**(2**40 - 41) has about 3.3e11 digits; unguarded, n = 26 already
    # took 0.3 s and 43 MB, doubling with each step of n
    start = time.perf_counter()
    for bound, args in [
        (claim2_bound, (40, 2)),
        (claim2_bound, (10**12, 2)),
        (claim1_bound, (2, 10**12)),
        (delta_upper_bound, (40, 2, 3)),
        (delta_upper_bound, (10**12, 2, 1)),
        (delta_upper_bound, (2, 2, 10**300_000)),
    ]:
        with pytest.raises(ResourceLimitError):
            bound(*args)
    assert time.perf_counter() - start < 0.1
    # a base too long for str() is named by its size in the refusal
    with pytest.raises(ResourceLimitError, match=r"\{1395636-bit base\}\*\*16"):
        g_upper_recurrence(9, 2)


def test_claim1_probabilities():
    assert claim1_probability(2, 1, 2) == Fraction(1, 2)
    assert claim1_probability(2, 2, 2) == Fraction(3, 8)
    assert claim1_probability(3, 1, 3) == Fraction(1, 9)
    for k in (2, 3):
        for h in (1, 2, 3):
            for m in (2, 3):
                assert claim1_probability(k, h, m) <= claim1_bound(k, m)


def test_claim_enumerations_refuse_before_counting():
    # 2**20000 tuples: the count has more digits than str() prints
    with pytest.raises(ResourceLimitError, match="words of length 10000 over 2 letters"):
        claim1_probability(2, 10_000, 2)
    with pytest.raises(ResourceLimitError, match="length 30 over 2 letters"):
        claim2_probability(2, 2, AbelianAssignment((10, 10)))


def test_claim2_probabilities():
    assert claim2_probability(2, 2, AbelianAssignment((1, 1))) == Fraction(1, 2)
    assert claim2_probability(2, 2, AbelianAssignment((2, 1))) <= Fraction(1, 2)
    assert claim2_probability(1, 3, AbelianAssignment((1,))) == 1
    for k in (2, 3):
        for n in (1, 2):
            for width in range(2**n - 1, 7):
                for lam in assignments_of_width(n, width):
                    assert claim2_probability(n, k, lam) <= claim2_bound(n, k)
