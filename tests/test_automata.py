import itertools

import pytest

from ziminwords import automata as au
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

