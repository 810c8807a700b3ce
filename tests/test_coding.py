import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ziminwords import RankedWord, automata as au, coding, counter, occurrences, sym, zimin_index
from ziminwords.coding import (
    Parse,
    context_of,
    encoded_counter,
    is_simple,
    language_dfas,
    parse_occurrences,
    parse_of,
    parses,
    psi,
    psi_symbol,
)
from ziminwords.oracles import (
    code_word,
    in_C_brute,
    in_F_brute,
    in_L_brute,
    in_R_brute,
    parses_all_splits,
    simple_brute,
)


def binary_words(max_len):
    for n in range(max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


def ranked_words_over_sigma2(max_len):
    sigma2 = [sym(0, 1), sym(1, 1), sym(0, 2), sym(1, 2)]
    for n in range(max_len + 1):
        for combo in itertools.product(sigma2, repeat=n):
            yield RankedWord(combo)


def test_psi_examples():
    assert psi_symbol(sym(0, 1)) == "0000"
    assert psi_symbol(sym(1, 2)) == "110111"
    assert psi(RankedWord.parse("0_2 0_2")) == "000100000100"
    assert len(psi(counter(0, 2))) == 20


def test_psi_code_lengths():
    for order in range(1, 9):
        for b in (0, 1):
            assert len(psi_symbol(sym(b, order))) == 2 * order + 2


def test_psi_is_an_infix_code():
    codes = [psi_symbol(sym(b, k)) for k in range(1, 9) for b in (0, 1)]
    for c1 in codes:
        for c2 in codes:
            if c1 != c2:
                assert c1 not in c2


def test_encoded_counter_lengths():
    assert encoded_counter(0, 1) == "0000"
    assert len(encoded_counter(0, 3)) == 112
    for i in range(4):
        assert encoded_counter(i, 2) == psi(counter(i, 2))


def test_encoded_counter_zimin_bound_order2():
    for i in range(4):
        assert zimin_index(encoded_counter(i, 2)) <= 3


def test_language_dfas_match_brute_membership():
    d = language_dfas()
    for w in binary_words(12):
        assert d.C.accepts(w) == in_C_brute(w), w
        assert d.L.accepts(w) == in_L_brute(w), w
        assert d.R.accepts(w) == in_R_brute(w), w
        assert d.F.accepts(w) == in_F_brute(w), w


def test_language_membership_spot_values():
    d = language_dfas()
    assert d.C.accepts("0000")
    assert not d.C.accepts("00000")
    assert d.F.accepts("01")
    # "100" is a strict suffix of 000100; "001" is a strict infix, not a suffix
    assert d.L.accepts("100")
    assert not d.L.accepts("001")
    assert d.F.accepts("001")
    assert code_word(0, 2).endswith("100")


def test_observation_identities():
    d = language_dfas()
    lr = au.concat(d.L, d.R)
    eq, _ = au.equivalent(au.intersect(lr, d.C), au.from_regex("0000|1111"))
    assert eq
    lcr = au.concat(au.concat(d.L, au.star(d.C)), d.R)
    eq, _ = au.equivalent(au.intersect(lcr, d.F), au.intersect(lr, d.F))
    assert eq


def test_lr_cap_f_exact_set():
    # 110 and 100 are close misses (only edge occurrences in code words);
    # the true length-3 members are 001 and 011
    d = language_dfas()
    lrf = au.intersect(au.concat(d.L, d.R), d.F)
    assert au.is_finite(lrf)
    got = au.enumerate_language(lrf, 10)
    assert got == ["", "0", "1", "00", "01", "10", "11", "001", "011"]


def test_simplicity():
    assert is_simple("0" * 10)
    assert is_simple("0110100101")  # any length-10 word
    assert not is_simple("000100000100")  # psi(0_2 0_2)
    assert is_simple("1" * 10 + "0001011100")  # run of ten 1s
    for w in ["01010101010101", "0101010101010"]:
        assert is_simple(w) == simple_brute(w)


def test_parses_of_zero_run():
    got = parses("0" * 10)
    u2 = RankedWord.parse("0_1 0_1")
    assert Parse("", u2, "00") in got
    assert Parse("0", u2, "0") in got
    assert Parse("00", u2, "") in got
    # a fourth decomposition exists: 000 is both a strict suffix and a
    # strict prefix of 0000
    assert Parse("000", RankedWord.parse("0_1"), "000") in got
    assert len(got) == 4


def test_parses_exact_code():
    got = parses("0000")
    assert Parse("", RankedWord.parse("0_1"), "") in got
    for p in got:
        assert p.value == "0000"


def _infixes_and_binary_words():
    for w in ranked_words_over_sigma2(2):
        a = psi(w)
        for s in range(len(a)):
            for e in range(s + 1, len(a) + 1):
                yield a[s:e]
    # words that are not coded reach wrong left parts and dead states
    yield from binary_words(12)


def _parse_key(p):
    return (p.left, tuple((q.bit, q.order) for q in p.center), p.right)


def _assert_parses_match_oracle(infix):
    got = parses(infix)
    expected = parses_all_splits(infix)
    assert len(got) == len(expected), infix
    assert sorted(map(_parse_key, got)) == sorted(expected), infix
    for p in got:
        assert p.value == infix


def test_parses_match_all_splits_oracle():
    # from a cleared chain cache and from a warm one, parses must agree
    for infix in _infixes_and_binary_words():
        coding._decode_chain.cache_clear()
        cold = parses(infix)
        assert parses(infix) == cold, infix
        _assert_parses_match_oracle(infix)


@settings(max_examples=400, deadline=None)
@given(
    w=st.lists(st.builds(sym, st.integers(0, 1), st.integers(1, 8)), max_size=6),
    cut=st.tuples(st.floats(0, 1), st.floats(0, 1)),
)
def test_parses_match_oracle_on_random_codings(w, cut):
    # codes up to order 8 carry long (01)* runs; the exhaustive cases above
    # stop at codings over order-2 symbols and at 12-bit words
    a = psi(w)
    s, e = sorted(round(x * len(a)) for x in cut)
    _assert_parses_match_oracle(a[s:e])


@settings(max_examples=300, deadline=None)
@given(w=st.lists(st.builds(sym, st.integers(0, 1), st.integers(1, 5)), max_size=8), data=st.data())
def test_parses_contain_the_parse_of_the_cut(w, data):
    a = psi(w)
    s = data.draw(st.integers(0, len(a)), label="start")
    e = data.draw(st.integers(s, len(a)), label="end")
    infix = a[s:e]
    got = parses(infix)
    starts = [0, *itertools.accumulate(len(psi_symbol(x)) for x in w)]
    # the cut [s, e) implies the parse whose center is every code inside it;
    # an infix strictly inside one code implies none
    first = next(j for j, b in enumerate(starts) if b >= s)
    last = max(j for j, b in enumerate(starts) if b <= e)
    if first <= last:
        implied = Parse(a[s : starts[first]], RankedWord(w[first:last]), a[starts[last] : e])
        assert implied in got, (infix, implied)
    assert all(p.value == infix for p in got)
    assert [len(p.left) for p in got] == sorted(len(p.left) for p in got)
    if len(infix) <= 14:
        assert list(map(_parse_key, got)) == parses_all_splits(infix), infix


def test_parses_of_long_and_pathological_words():
    # long (C)* chains, and failing tails after which the regex engine tries
    # every shorter chain before it gives up
    got = parses("0" * 100_000)
    assert [(p.left, p.right) for p in got] == [("", ""), ("0", "000"), ("00", "00"), ("000", "0")]
    assert [len(p.center) for p in got] == [25_000, 24_999, 24_999, 24_999]
    assert all(p.value == "0" * 100_000 for p in got)
    assert parses("000100" * 16_000 + "0101") == []
    (p,) = parses("0000" * 25_000 + "010")
    assert (p.left, p.right) == ("00", "00010")
    assert p.center == RankedWord([sym(0, 1)] * 24_999)
    assert parses("01" * 50_000) == []


def test_chain_cache_stays_bounded():
    info = coding._decode_chain.cache_info
    coding._decode_chain.cache_clear()
    # every chain of 0^100000 is over the cached length, so none is kept
    parses("0" * 100_000)
    assert info().currsize == 0
    # 0^128 has the chains (0000)^32 and (0000)^31; one more code adds the
    # chain (0000)^33, which is over the cached length
    longest = "0000" * (coding._CACHED_CHAIN_BITS // 4)
    parses(longest)
    assert info().currsize == 2
    parses(longest + "0000")
    assert info().currsize == 2
    # codes of order 1 to 4 spell more distinct short chains than the cache holds
    codes = [psi_symbol(sym(b, k)) for b in (0, 1) for k in range(1, 5)]
    for chain in itertools.islice(itertools.product(codes, repeat=4), 2 * info().maxsize):
        parses("".join(chain))
    assert info().misses > info().maxsize
    assert info().currsize <= info().maxsize


def test_parse_contract():
    u = RankedWord.parse("0_1 0_1")
    p = Parse("", u, "00")
    assert Parse._fields == ("left", "center", "right")
    assert (p.left, p.center, p.right) == ("", u, "00")
    assert p.value == "0" * 10
    assert str(p) == "(e, 0_1 0_1, 00)"
    assert str(Parse("000", RankedWord.parse("0_1"), "000")) == "(000, 0_1, 000)"
    assert str(Parse("", RankedWord(), "")) == "(e, e, e)"
    assert repr(p) == "Parse(left='', center=RankedWord('0_1 0_1'), right='00')"
    q = Parse(left="", center=RankedWord.parse("0_1 0_1"), right="00")
    assert p == q and hash(p) == hash(q) and len({p, q}) == 1
    assert p != Parse("0", u, "0")
    assert parses("0" * 10)[0] == p


def test_unique_parse_for_non_simple_infixes():
    w = counter(5, 3)
    a = psi(w)
    checked = 0
    for s in range(len(a)):
        for e in range(s + 1, min(len(a), s + 40) + 1):
            infix = a[s:e]
            if not is_simple(infix):
                assert len(parses(infix)) == 1, infix
                checked += 1
    assert checked > 0


def test_parse_occurrences_trivial():
    p = Parse("", RankedWord.parse("0_1"), "")
    assert parse_occurrences(p, RankedWord.parse("0_1")) == [0]


def test_parse_occurrence_boundaries():
    w = RankedWord.parse("1_2 0_1 1_2")
    # left "11" is a suffix of psi(1_2)=110111 and of psi(1_1)=1111
    p = Parse("11", RankedWord.parse("0_1"), "1")
    offs = parse_occurrences(p, w)
    assert offs == [1]
    ctx = context_of(p, w, 1)
    assert ctx.word == w and ctx.start == 0
    # value of the parse is an infix of psi(context)
    assert p.value in psi(ctx.word)


def test_context_span_rules():
    w = RankedWord.parse("0_1 0_2 1_1")
    p_plain = Parse("", RankedWord.parse("0_2"), "")
    ctx = context_of(p_plain, w, 1)
    assert ctx.word == RankedWord.parse("0_2") and ctx.start == 1
    # offsets off the center, before the word or past its end are rejected,
    # for an empty center too
    p_empty = Parse("", RankedWord(), "")
    assert context_of(p_empty, w, 3).word == RankedWord()
    for p, m in [(p_plain, 0), (p_plain, -1), (p_plain, 2), (p_plain, 9), (p_empty, -1), (p_empty, 4)]:
        with pytest.raises(ValueError):
            context_of(p, w, m)


def test_bijection_small_case():
    # occurrences of a non-simple infix of psi(w) correspond one to one,
    # order-preserving, to occurrences of its parse in w
    w = RankedWord.parse("0_2 1_1 0_2 1_1 0_2")
    a = psi(w)
    infix = psi(RankedWord.parse("0_2 1_1")) + "000"  # non-simple piece of a
    assert not is_simple(infix)
    p = parse_of(infix)
    occ_alpha = occurrences(infix, a)
    occ_parse = parse_occurrences(p, w)
    assert len(occ_alpha) == len(occ_parse) == 2
    lens = [len(psi_symbol(s)) for s in w]
    for m, h in zip(occ_parse, occ_alpha):
        assert sum(lens[:m]) - len(p.left) == h
