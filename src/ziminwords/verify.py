"""Executable checks for the lemma and theorem suites.

Each check computes something and compares it against what the statements
promise, returning a CheckResult; the CLI renders these as PASS/FAIL lines.
Each suite is defined once: ``run_suite`` concatenates them for ``verify``,
and the per-module CLI commands (``counters check``, ``psi verify-lemmas``,
``regular check-identities``, ``abelian oracles``) call the same functions.
Every oracle runs once per distinct input.  Scale "small" keeps to the
checks that take seconds; "full" adds the f(3,2) search and the order-4
counter suites.
"""

from __future__ import annotations

import itertools
import random
from math import floor, log2
from typing import NamedTuple

from . import automata as au
from .abelian import (
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
)
from .coding import (
    context_of,
    encoded_counter,
    is_simple,
    language_dfas,
    parse_occurrences,
    parses,
    psi,
    psi_symbol,
)
from .counters import counter, counter_stream, decode_counter
from .errors import ResourceLimitError
from .oracles import (
    parses_all_splits,
    simple_brute,
    zimin_index_enumerated,
    zimin_type_recursive,
)
from .search import (
    longest_avoiding,
    match_count_enumerated,
    match_probability,
)
from .words import RankedWord, occurrences, sym, tau
from .zimin import ZiminSuffixTracker, zimin_index, zimin_type


class CheckResult(NamedTuple):
    name: str
    passed: bool
    details: str = ""

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}" + (
            f"  [{self.details}]" if self.details else ""
        )


def _binary_words(max_len, min_len=0):
    for n in range(min_len, max_len + 1):
        for bits in itertools.product("01", repeat=n):
            yield "".join(bits)


# ---------------------------------------------------------------------------
# regular-language identities (the "observations" lemma)


def check_regular_identities() -> list[CheckResult]:
    d = language_dfas()
    out = []
    lr = au.concat(d.L, d.R)
    eq, ce = au.equivalent(au.intersect(lr, d.C), au.from_regex("0000|1111"))
    out.append(
        CheckResult(
            "LR ∩ C = {0000, 1111}", eq, "" if eq else f"counterexample {ce!r}"
        )
    )
    lcr = au.concat(au.concat(d.L, au.star(d.C)), d.R)
    eq, ce = au.equivalent(au.intersect(lcr, d.F), au.intersect(lr, d.F))
    out.append(
        CheckResult(
            "LC*R ∩ F = LR ∩ F", eq, "" if eq else f"counterexample {ce!r}"
        )
    )
    lrf = au.intersect(lr, d.F)
    finite = au.is_finite(lrf)
    words = au.enumerate_language(lrf, 12) if finite else []
    expected = ["", "0", "1", "00", "01", "10", "11", "001", "011"]
    out.append(
        CheckResult(
            "LR ∩ F enumerated exactly",
            finite and words == expected,
            "set {" + ", ".join(w or "ε" for w in words) + "}",
        )
    )
    return out


# ---------------------------------------------------------------------------
# counter structure lemmas


def check_counter_structure(order: int) -> list[CheckResult]:
    """Distinctness, unique sub-counter occurrence, order-from-position.

    Every counter of the order is built, so orders above 4 are refused.
    """
    if order > 4:
        raise ResourceLimitError(
            f"order {order}: the structure check builds all tau({order}) counters; it stops at order 4"
        )
    out = []
    count = tau(order)
    as_bytes = {}
    order_profile = None
    profiles_agree = True
    for i in range(count):
        w = bytes(2 * s.order + s.bit for s in counter_stream(i, order))
        as_bytes[i] = w
        profile = bytes(b & ~1 for b in w)
        if order_profile is None:
            order_profile = profile
        elif profile != order_profile:
            profiles_agree = False
    out.append(
        CheckResult(
            f"order {order}: tau({order}) = {count} pairwise distinct counters",
            len(set(as_bytes.values())) == count,
        )
    )
    if order > 1:
        subs = [bytes(2 * s.order + s.bit for s in counter_stream(j, order - 1)) for j in range(tau(order - 1))]
        # a first hit and no later one: overlapping copies count too
        unique = all((i := w.find(sub)) >= 0 and w.find(sub, i + 1) < 0 for w in as_bytes.values() for sub in subs)
        out.append(
            CheckResult(
                f"order {order}: every order-{order - 1} counter occurs exactly once",
                unique,
            )
        )
        # the order of a symbol is a function of its distance to order-n
        # symbols; all counters of one order share the order profile
        orders = [b >> 1 for b in order_profile]
        top = [p for p, o in enumerate(orders) if o == order]
        diffs = sorted({p - q for p in top for q in top})
        ok = profiles_agree
        n_sym = len(orders)
        for dlt in diffs:
            for p in range(n_sym):
                q = p - dlt
                if 0 <= q < n_sym and orders[p] != orders[q]:
                    ok = False
        out.append(CheckResult(f"order {order}: order-from-position lemma", ok))
    return out


def check_counter_roundtrip(order: int, indices) -> CheckResult:
    ok = all(decode_counter(counter(i, order), order) == i for i in indices)
    return CheckResult(f"order {order}: decode(counter(i)) == i on {len(list(indices))} indices", ok)


def counter_suite(order: int) -> list[CheckResult]:
    """Structure and round trip of one order, as ``counters check`` prints
    them before the order's Zimin-index line."""
    return check_counter_structure(order) + [
        check_counter_roundtrip(order, range(min(tau(order), 256)))
    ]


# ---------------------------------------------------------------------------
# counter Zimin indices (exact-values theorem)


# Zimin indices the exact-values theorem gives for the counters of each
# order: the full list for orders 1 and 2; from order 3 on, all are order - 1
_COUNTER_INDICES = {1: [1, 1], 2: [2, 1, 1, 2]}


def _counter_indices(order: int, indices) -> dict[int, int]:
    return {i: zimin_index(counter(i, order), max_length=None) for i in indices}


def _counter_index_line(order: int, got: dict[int, int]) -> CheckResult:
    if order in _COUNTER_INDICES:
        want = _COUNTER_INDICES[order]
        ok = list(got.values()) == want[: len(got)]
    else:
        want = f"all {order - 1}"
        ok = set(got.values()) == {order - 1}
    return CheckResult(
        f"order {order}: counter Zimin indices match the theorem ({want})", ok, f"{len(got)} checked"
    )


def check_counter_zimin_for_order(order: int, indices=None) -> CheckResult:
    """zimin_index over counters of one order against the exact theorem."""
    if indices is None:
        indices = range(min(tau(order), 256))
    return _counter_index_line(order, _counter_indices(order, indices))


def check_counter_zimin_exact(order4_indices=range(256)) -> list[CheckResult]:
    """The theorem's indices for every counter of orders 1-3 and the given
    order-4 ones (which must include counter 0), each index computed once."""
    got = {n: _counter_indices(n, range(tau(n)) if n < 4 else order4_indices) for n in (1, 2, 3, 4)}
    out = [_counter_index_line(n, g) for n, g in got.items()]
    dominated = all(max(g.values()) <= g[0] for g in got.values())
    out.append(CheckResult("index of counter 0 dominates its order", dominated))
    return out


# ---------------------------------------------------------------------------
# psi lemmas


def check_infix_code(max_order: int = 8) -> CheckResult:
    codes = [psi_symbol(sym(b, k)) for k in range(1, max_order + 1) for b in (0, 1)]
    ok = all(c1 not in c2 for c1 in codes for c2 in codes if c1 != c2)
    return CheckResult(f"psi is an infix code up to order {max_order}", ok)


def _sigma2_words(max_len):
    sigma2 = [sym(0, 1), sym(1, 1), sym(0, 2), sym(1, 2)]
    for n in range(max_len + 1):
        for combo in itertools.product(sigma2, repeat=n):
            yield RankedWord(combo)


def _distinct_infixes(coded) -> set[str]:
    """The non-empty infixes of the given coded words, each once."""
    return {a[s:e] for a in coded for s in range(len(a)) for e in range(s + 1, len(a) + 1)}


def check_characterization(max_word_len: int = 4) -> CheckResult:
    """Infixes of coded words over Sigma_2 split into F or L C* R, with all
    orders bounded by 2."""
    base_codes = {psi_symbol(s) for s in (sym(0, 1), sym(1, 1), sym(0, 2), sym(1, 2))}
    strict_suffixes = {c[i:] for c in base_codes for i in range(1, len(c) + 1)}
    strict_prefixes = {c[:i] for c in base_codes for i in range(len(c))}
    strict_infixes = {
        c[i:j] for c in base_codes for i in range(1, len(c)) for j in range(i, len(c))
    }

    def in_lcr(a):
        for i in range(len(a) + 1):
            if a[:i] not in strict_suffixes:
                continue
            for j in range(i, len(a) + 1):
                if a[j:] in strict_prefixes and _in_cstar(a[i:j], base_codes):
                    return True
        return False

    seen = _distinct_infixes(psi(w) for w in _sigma2_words(max_word_len))
    ok = all(x in strict_infixes or in_lcr(x) for x in seen)
    return CheckResult(
        f"every infix of a coded Sigma_2^<={max_word_len} word is in F or LC*R", ok
    )


def _in_cstar(a, codes):
    if a == "":
        return True
    return any(a.startswith(c) and _in_cstar(a[len(c) :], codes) for c in codes)


def check_parse_counts_and_uniqueness() -> list[CheckResult]:
    """Parse counts against the all-splits oracle; uniqueness off simplicity."""
    unique_ok = True
    oracle_ok = True
    simple_ok = True
    for infix in _distinct_infixes(psi(w) for w in _sigma2_words(4)):
        found = parses(infix)
        if sorted(
            (p.left, tuple((q.bit, q.order) for q in p.center), p.right) for p in found
        ) != sorted(parses_all_splits(infix)):
            oracle_ok = False
        simple = is_simple(infix)
        if simple != simple_brute(infix):
            simple_ok = False
        if not simple and len(found) != 1:
            unique_ok = False
    results = [
        CheckResult("parse lists match the all-splits oracle (Sigma_2^<=4 corpus)", oracle_ok),
        CheckResult("simplicity matches its brute-force definition", simple_ok),
        CheckResult("non-simple infixes admit exactly one parse (Sigma_2^<=4)", unique_ok),
    ]
    unique4 = all(
        is_simple(infix) or len(parses(infix)) == 1
        for infix in _distinct_infixes(encoded_counter(i, 3) for i in range(16))
    )
    results.append(
        CheckResult("non-simple infixes of encoded order-3 counters parse uniquely", unique4)
    )
    return results


def check_occurrence_bijection() -> list[CheckResult]:
    """Bijection between infix occurrences and parse occurrences, plus the
    letter-occurrence transfer for symbols of order > 1."""
    bijection_ok = True
    letter_ok = True
    context_ok = True
    for w in itertools.chain(_sigma2_words(4), (counter(i, 3) for i in range(16))):
        a = psi(w)
        starts = [0, *itertools.accumulate(len(psi_symbol(s)) for s in w)]
        high = {x: psi_symbol(x) for x in w if x.order > 1}
        # occurrences depend on the word, so infixes are deduplicated per word
        for infix in _distinct_infixes([a]):
            if is_simple(infix):
                continue
            found = parses(infix)
            if len(found) != 1:
                bijection_ok = False
                continue
            p = found[0]
            occ_alpha = occurrences(infix, a)
            occ_parse = parse_occurrences(p, w)
            mapped = [starts[m] - len(p.left) for m in occ_parse]
            if mapped != occ_alpha:
                bijection_ok = False
            for m in occ_parse:
                ctx = context_of(p, w, m)
                if infix not in psi(ctx.word):
                    context_ok = False
            for x, code in high.items():
                hits = len(occurrences(code, infix))
                if hits > 1 and len(occurrences((x,), tuple(p.center))) != hits:
                    letter_ok = False
    return [
        CheckResult("occurrences of non-simple infixes biject with parse occurrences", bijection_ok),
        CheckResult("parse value is an infix of the coded context", context_ok),
        CheckResult("order->1 letter occurrences transfer to the parse center", letter_ok),
    ]


def check_boundary_theorem(orders=(2, 3)) -> list[CheckResult]:
    """The machine-checked base cases: all four products of an encoded
    counter with an adjacent order-(n+1) code have Zimin index <= n + 1."""
    out = []
    for n in orders:
        worst = 0
        ok = True
        for i in range(tau(n)):
            body = encoded_counter(i, n)
            for b in (sym(0, n + 1), sym(1, n + 1)):
                for word in (body + psi_symbol(b), psi_symbol(b) + body):
                    zi = zimin_index(word)
                    worst = max(worst, zi)
                    ok = ok and zi <= n + 1
        out.append(
            CheckResult(
                f"boundary products of order-{n} encoded counters have index <= {n + 1}",
                ok,
                f"max observed {worst}",
            )
        )
    return out


def check_simple_infix_bound(order: int = 4, sample_cap: int = 4000) -> CheckResult:
    """Simple infixes of encoded order-4 counters have Zimin index <= 3."""
    a = encoded_counter(0, order)
    rng = random.Random(20240 + order)
    ok = True
    checked = 0
    for _ in range(sample_cap):
        s = rng.randrange(len(a))
        e = min(len(a), s + rng.randrange(1, 15))
        infix = a[s:e]
        if is_simple(infix):
            checked += 1
            if zimin_index(infix) > order - 1:
                ok = False
    return CheckResult(
        f"simple infixes of an encoded order-{order} counter have index <= {order - 1}",
        ok and checked > 0,
        f"{checked} sampled",
    )


# ---------------------------------------------------------------------------
# zimin machinery oracles


def check_zimin_oracles(max_len: int = 14) -> list[CheckResult]:
    """zimin_type, zimin_index and the level-3 suffix tracker against the
    oracles, with one enumerated index per binary word."""
    type_ok = index_ok = tracker_ok = True
    for w in _binary_words(max_len):
        enumerated = zimin_index_enumerated(w)
        type_ok = type_ok and zimin_type(w) == zimin_type_recursive(w)
        index_ok = index_ok and zimin_index(w) == enumerated
        tracker = ZiminSuffixTracker(3, 2)
        rejected = not all(map(tracker.try_push, map(int, w)))
        tracker_ok = tracker_ok and rejected == (enumerated >= 3)
    return [
        CheckResult(f"zimin_type equals the recursive oracle on binary words <= {max_len}", type_ok),
        CheckResult(f"zimin_index equals the enumeration oracle on binary words <= {max_len}", index_ok),
        CheckResult(
            f"incremental encounter check matches enumeration (len <= {max_len}, n in (3,))", tracker_ok
        ),
    ]


def check_log_bound(samples: int = 10_000, max_len: int = 64, seed: int = 7) -> CheckResult:
    rng = random.Random(seed)
    ok = True
    for _ in range(samples):
        k = rng.choice((2, 3, 4))
        length = rng.randrange(1, max_len + 1)
        w = tuple(rng.randrange(k) for _ in range(length))
        if zimin_index(w) > floor(log2(length + 1)):
            ok = False
    return CheckResult(f"zimin_index <= floor(log2(|w|+1)) on {samples} random words", ok)


# ---------------------------------------------------------------------------
# searches and probabilities


def check_small_f_table() -> list[CheckResult]:
    out = []
    for k in (2, 3, 4, 5):
        f1 = longest_avoiding(1, k).implied_f()
        out.append(CheckResult(f"f(1,{k}) = 1", f1 == 1))
    for k in (2, 3, 4, 5):
        cert = longest_avoiding(2, k)
        out.append(
            CheckResult(
                f"f(2,{k}) = {2 * k + 1}",
                cert.implied_f() == 2 * k + 1 and cert.exhausted,
                f"witness {cert.witness}",
            )
        )
    return out


def check_f32() -> CheckResult:
    cert = longest_avoiding(3, 2)
    ok = (
        cert.implied_f() == 29
        and cert.exhausted
        and len(cert.witness) == 28
        and zimin_index(cert.witness) <= 2
    )
    return CheckResult(
        "f(3,2) = 29 by exhaustive search",
        ok,
        f"nodes {cert.nodes_explored}, witness {cert.witness}",
    )


def check_match_probabilities() -> list[CheckResult]:
    from fractions import Fraction

    out = []
    count, total = match_count_enumerated(2, 2)
    out.append(
        CheckResult(
            "4 of 8 length-3 binary words match Z_2",
            (count, total) == (4, 8) and match_probability(2, 2) == 0.5,
        )
    )
    count, total = match_count_enumerated(3, 2)
    out.append(
        CheckResult(
            "8 of 128 length-7 binary words match Z_3",
            (count, total) == (8, 128) and match_probability(3, 2) == Fraction(1, 16),
        )
    )
    for n, k in [(2, 2), (2, 3), (3, 2)]:
        count, total = match_count_enumerated(n, k)
        out.append(
            CheckResult(
                f"enumeration equals the closed form at (n,k)=({n},{k})",
                Fraction(count, total) == match_probability(n, k),
            )
        )
    return out


def check_abelian_suite() -> list[CheckResult]:
    from fractions import Fraction

    out = []
    agree = True
    for w in _binary_words(10):
        if (encounters_abelian_zimin(w, 2) is not None) != encounters_abelian_zimin_naive(w, 2):
            agree = False
    out.append(CheckResult("abelian encounter agrees with the naive oracle (len <= 10, n=2)", agree))
    ok_g1 = all(g_value(1, k)[0] == 1 for k in (2, 3, 4))
    out.append(CheckResult("g(1,k) = 1", ok_g1))
    for n, k in [(2, 2), (2, 3)]:
        g, cert = g_value(n, k)
        f_cert = longest_avoiding(n, k)
        out.append(
            CheckResult(
                f"g({n},{k}) computed exhaustively and <= f({n},{k})",
                cert.exhausted and g is not None and g <= f_cert.implied_f(),
                f"g = {g}, f = {f_cert.implied_f()}",
            )
        )
    claim1_ok = True
    for k in (2, 3):
        for h in (1, 2, 3):
            for m in (2, 3):
                if claim1_probability(k, h, m) > claim1_bound(k, m):
                    claim1_ok = False
    out.append(CheckResult("claim-1 oracle never exceeds (1/k)^(m-1) on the grid", claim1_ok))
    claim2_ok = True
    for k in (2, 3):
        for n in (1, 2):
            for width in range(2**n - 1, 7):
                for lam in assignments_of_width(n, width):
                    if claim2_probability(n, k, lam) > claim2_bound(n, k):
                        claim2_ok = False
    out.append(CheckResult("claim-2 oracle never exceeds k^(n-2^n+1) on the grid", claim2_ok))
    formulas = (
        g_lower_bound(3, 2) == 1
        and g_lower_bound(4, 2) == 2
        and g_lower_bound(3, 10) == 1
        and g_upper_bound(1, 2) == 2**8
        and g_upper_recurrence(2, 2) == 4
        and g_upper_recurrence(2, 2) <= g_upper_bound(2, 2)
        and delta_upper_bound(2, 2, 3) == Fraction(81, 2)
    )
    out.append(CheckResult("abelian bound formulas reproduce their stated values", formulas))
    return out


# ---------------------------------------------------------------------------
# aggregated suites


def psi_suite(scale: str = "small") -> list[CheckResult]:
    """The coded-word lemmas, as ``psi verify-lemmas`` prints them."""
    out = [check_infix_code(), check_characterization()]
    out += check_parse_counts_and_uniqueness()
    out += check_occurrence_bijection()
    if scale == "small":
        return out + check_boundary_theorem((2,))
    return out + check_boundary_theorem((2, 3)) + [check_simple_infix_bound()]


def run_suite(scale: str = "small") -> list[CheckResult]:
    """Every check at the requested scale, as one flat PASS/FAIL list."""
    if scale not in ("small", "full"):
        raise ValueError("scale must be 'small' or 'full'")
    full = scale == "full"
    out = check_regular_identities()
    for order in (1, 2, 3, 4) if full else (1, 2, 3):
        out += counter_suite(order)
    out += check_counter_zimin_exact(range(256) if full else range(4))
    out += psi_suite(scale)
    out += check_zimin_oracles(max_len=14 if full else 11)
    out.append(check_log_bound(samples=10_000 if full else 2000))
    out += check_small_f_table()
    out += check_match_probabilities()
    out += check_abelian_suite()
    if full:
        out.append(check_f32())
    return out
