import itertools
import re
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ziminwords import automata as au
from ziminwords.coding import language_dfas
from ziminwords.errors import RegexSyntaxError, ResourceLimitError


def words_upto(n, alphabet="01"):
    for length in range(n + 1):
        for bits in itertools.product(alphabet, repeat=length):
            yield "".join(bits)


def test_from_regex_basics():
    d = au.from_regex("00(01)*00")
    assert d.accepts("0000")
    assert d.accepts("000100")
    assert not d.accepts("00000")
    assert not d.accepts("")
    assert not any(d.accepts(w) for w in words_upto(5) if len(w) == 5)


def test_regex_operators():
    assert au.from_regex("(|0|1)").accepts("")


def _recorded(word, log):
    for c in word:
        log.append(c)
        yield c


def test_dfa_symbol_outside_alphabet():
    d = au.minimize(au.from_regex("00(01)*00"))
    # read before the dead state: both scans raise the same message
    for bad in ["002", ["0", ["x"], "0"]]:
        messages = set()
        for scan in (d.accepts, d.accepting_prefixes):
            with pytest.raises(ValueError) as err:
                scan(bad)
            messages.add(str(err.value))
        assert len(messages) == 1
        assert "not in alphabet ('0', '1')" in messages.pop()
    # "1" leads to the dead state, so the symbols after it are never read
    for scan, dead in ((d.accepts, False), (d.accepting_prefixes, [])):
        log = []
        assert scan(_recorded(["1", "2", ["x"]], log)) == dead
        assert log == ["1"]


def test_regex_syntax_errors():
    for bad in ["(01", "01)", "0{2", "0{3,1}", "0{a}", "*0", "2"]:
        with pytest.raises(RegexSyntaxError):
            au.from_regex(bad)


def test_minimize_idempotent_and_equivalent():
    d = au.from_regex("(0|1)*00(0|1)*")
    m = au.minimize(d)
    assert m.n_states <= d.n_states
    assert au.equivalent(m, d) == (True, None)
    m2 = au.minimize(m)
    assert m2.n_states == m.n_states
    assert au.equivalent(m2, m) == (True, None)


def test_intersect_complement_agree_with_membership():
    a = au.from_regex("(0|1)*00")
    b = au.from_regex("0(0|1)*")
    inter = au.intersect(a, b)
    for w in words_upto(10):
        assert inter.accepts(w) == (a.accepts(w) and b.accepts(w))


def test_concat_star_reverse():
    a = au.from_regex("01")
    b = au.from_regex("10")
    ab = au.concat(a, b)
    assert ab.accepts("0110") and not ab.accepts("01")
    s = au.star(a)
    assert s.accepts("") and s.accepts("0101") and not s.accepts("011")


def test_concat_matches_membership_product():
    a = au.from_regex("0*1")
    b = au.from_regex("(10)*")
    ab = au.concat(a, b)
    for w in words_upto(8):
        expected = any(a.accepts(w[:i]) and b.accepts(w[i:]) for i in range(len(w) + 1))
        assert ab.accepts(w) == expected


@pytest.mark.parametrize("regex", ["0|101", "(|1)0*1", "(|0)(10)*", "0*|11"])
def test_star_matches_brute_force_splitting(regex):
    a = au.from_regex(regex)
    s = au.star(a)

    @lru_cache(maxsize=None)
    def in_star(w):
        return w == "" or any(a.accepts(w[:i]) and in_star(w[i:]) for i in range(1, len(w) + 1))

    for w in words_upto(8):
        assert s.accepts(w) == in_star(w)


# Regexes of the supported grammar over 01: literals, empty alternatives,
# concatenations, parenthesised alternatives and stars (never r**, which
# Python rejects).  The generated stars are not nested, because Python's
# backtracking takes exponential time on nested stars over nullable
# bodies; the examples cover a few nested ones.
def _combined(inner):
    return st.one_of(
        st.lists(inner, min_size=2, max_size=3).map("".join),
        st.lists(inner, min_size=2, max_size=3).map(lambda rs: "(" + "|".join(rs) + ")"),
    )


_leaves = st.sampled_from(["", "0", "1"])
_star_free = st.recursive(_leaves, _combined, max_leaves=4)
_regexes = st.recursive(
    st.one_of(_leaves, _star_free.map(lambda r: f"({r})*")), _combined, max_leaves=8
)


@settings(max_examples=150, deadline=None)
@given(st.lists(_regexes, min_size=1, max_size=3).map("|".join))
@example("((0)*)*")
@example("((01)*)*|((0)*1)*")
@example("((|1)0*)*")
@example("((0|1)*0)*")
def test_from_regex_matches_python_re(regex):
    d = au.from_regex(regex)
    for w in words_upto(8):
        assert d.accepts(w) == bool(re.fullmatch(regex, w)), (regex, w)


def test_language_dfas_tables_are_pinned():
    # the minimal C/L/R/F DFAs that parses and is_simple scan; minimize
    # numbers states canonically, so the tables do not depend on how the
    # unminimised DFAs were built
    d = language_dfas()
    tables = {name: (dfa.delta, sorted(dfa.accepting), dfa.start) for name, dfa in zip("CLRF", d)}
    assert tables == {
        "C": (((1, 2), (3, 4), (4, 5), (6, 4), (4, 4), (2, 7), (8, 3), (4, 8), (4, 4)), [8], 0),
        "L": (
            ((1, 2), (3, 4), (5, 6), (7, 8), (5, 9), (7, 4), (10, 7), (10, 10), (11, 10), (10, 7), (10, 10), (7, 8)),
            [0, 1, 2, 3, 6, 7],
            0,
        ),
        "R": (((1, 2), (3, 4), (4, 5), (6, 4), (4, 4), (2, 7), (4, 3), (4, 4)), [0, 1, 2, 3, 5, 6, 7], 0),
        "F": (((1, 2), (3, 2), (4, 5), (6, 7), (6, 2), (6, 6), (6, 6), (3, 6)), [0, 1, 2, 3, 4, 5, 7], 0),
    }


def test_equivalent_counterexample_is_shortest():
    a = au.from_regex("(0|1)*")
    b = au.from_regex("(0|1)*1(0|1)*")  # misses words without 1
    eq, ce = au.equivalent(a, b)
    assert not eq
    assert ce == ""  # epsilon distinguishes
    c = au.from_regex("0(0|1)*")
    d = au.from_regex("00(0|1)*")
    eq, ce = au.equivalent(c, d)
    assert not eq and ce == "0"


def test_alphabet_mismatch_rejected():
    a = au.from_regex("0", alphabet="01")
    b = au.from_regex("a", alphabet="ab")
    with pytest.raises(ValueError):
        au.intersect(a, b)
    with pytest.raises(ValueError):
        au.equivalent(a, b)


def test_enumerate_language():
    d = au.from_regex("0*1")
    assert au.enumerate_language(d, 3) == ["1", "01", "001"]
    empty = au.intersect(d, au.from_regex("0*"))
    assert au.enumerate_language(empty, 6) == []
    with pytest.raises(ResourceLimitError):
        au.enumerate_language(au.from_regex("(0|1)*"), 10, max_count=100)


def test_enumeration_agrees_with_membership():
    d = au.from_regex("(0|11)*(|0)")
    got = au.enumerate_language(d, 7)
    expected = [w for w in words_upto(7) if d.accepts(w)]
    assert sorted(got, key=lambda w: (len(w), w)) == got
    assert set(got) == set(expected)


def test_finiteness():
    assert au.is_finite(au.from_regex("0101|11"))
    assert not au.is_finite(au.from_regex("0*1"))
    # unreachable cycles do not count
    assert au.is_finite(au.intersect(au.from_regex("0*"), au.from_regex("1")))



def _walk(delta, q):
    """The states reachable from q in zero or more steps, following delta."""
    seen, todo = {q}, [q]
    while todo:
        for t in delta[todo.pop()]:
            if t not in seen:
                seen.add(t)
                todo.append(t)
    return seen


def _after_unreachable_copy(d, other):
    """other, then d shifted past it, started at the start of d: the states
    of other are unreachable."""
    shift = other.n_states
    delta = list(other.delta) + [tuple(t + shift for t in row) for row in d.delta]
    accepting = set(other.accepting) | {q + shift for q in d.accepting}
    return au.Dfa(d.alphabet, delta, d.start + shift, accepting)


@settings(max_examples=150, deadline=None)
@given(_regexes, _regexes)
@example("0*1", "(0|1)*")
@example("0101|11", "0*")
@example("0*", "0101|11")
def test_live_and_finiteness_match_a_walk_of_delta(regex, other):
    d = _after_unreachable_copy(au.from_regex(regex), au.from_regex(other))
    reach = {q: _walk(d.delta, q) for q in range(d.n_states)}
    assert d.live == {q for q in range(d.n_states) if reach[q] & d.accepting}
    # infinite iff a state on a cycle lies between the start and acceptance
    on_cycle = {q for q in range(d.n_states) if any(q in reach[t] for t in d.delta[q])}
    infinite = any(q in on_cycle and q in d.live for q in reach[d.start])
    assert au.is_finite(d) == (not infinite), regex
    assert au.is_finite(d) == au.is_finite(au.from_regex(regex))


def test_minimize_ignores_unreachable_states():
    # words ending in 1: the start 1 and state 2 are reachable; 0 is an
    # accepting sink, 3 and 4 copy 1 and 2, and 5 leads into both
    delta = [(0, 0), (1, 2), (1, 2), (3, 4), (3, 4), (1, 0)]
    d = au.Dfa("01", delta, 1, {0, 2, 4})
    reachable = au.Dfa("01", [(0, 1), (0, 1)], 0, {1})
    got, want = au.minimize(d), au.minimize(reachable)
    assert (got.delta, got.accepting, got.start) == (want.delta, want.accepting, want.start)
    assert (got.delta, got.accepting) == (((0, 1), (0, 1)), {1})
