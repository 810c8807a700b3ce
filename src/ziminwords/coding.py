"""The binary coding of ranked words and its partial-decoding machinery.

Each symbol is coded by

    psi(0_n) = 00 (01)^{n-1} 00        psi(1_n) = 11 (01)^{n-1} 11

so the code of an order-n symbol has 2n + 2 bits and the set of all codes
forms an infix code.  Around the codes live four regular languages: C (the
codes themselves), L (strict suffixes of codes), R (strict prefixes) and
F (strict infixes).  An infix of a coded word that is not "simple" admits
exactly one parse (l, u, r) in L x Sigma* x R with value l psi(u) r.

`parses` finds at most one chain of codes per left part, and decodes each
distinct chain once: it keeps the centers of up to 1,024 chains of at most
128 bits, because infixes of coded words share few chains (697 among all
23,082 distinct infixes of the order-3 counters).
"""

from __future__ import annotations

import re
from functools import lru_cache
from typing import Iterable, NamedTuple

from . import automata
from .automata import Dfa
from .counters import DEFAULT_SYMBOL_CAP, check_symbol_cap, counter_stream
from .words import RankedSymbol, RankedWord, occurrences

# Thresholds from the definition of a simple word.
SIMPLE_LENGTH_THRESHOLD = 11
RUN_LENGTH_THRESHOLD = 10

# The four languages as regular expressions over {0,1}.
C_REGEX = "00(01)*00|11(01)*11"
L_REGEX = "(|0|1)|(|1)(01)*11|(|0|1)(01)*00"
R_REGEX = "(|0|1)|11(01)*(|0|1)|00(01)*(|0)"
F_REGEX = "(|0)(01)*(|0)|(|1)(01)*(|0|1)"


def psi_symbol(s: RankedSymbol) -> str:
    b = "0" if s.bit == 0 else "1"
    return b + b + "01" * (s.order - 1) + b + b


def psi(w: Iterable[RankedSymbol]) -> str:
    """Code of a ranked word; accepts any iterable of symbols."""
    return "".join(psi_symbol(s) for s in w)


def encoded_counter(index: int, order: int, symbol_cap: int | None = DEFAULT_SYMBOL_CAP) -> str:
    """psi(C_index^order), built from the counter stream."""
    check_symbol_cap(order, symbol_cap)
    return psi(counter_stream(index, order))


class LanguageDfas(NamedTuple):
    C: Dfa
    L: Dfa
    R: Dfa
    F: Dfa


@lru_cache(maxsize=1)
def language_dfas() -> LanguageDfas:
    """Minimal DFAs for C, L, R and F, built once from the regexes."""
    return LanguageDfas(
        C=automata.minimize(automata.from_regex(C_REGEX)),
        L=automata.minimize(automata.from_regex(L_REGEX)),
        R=automata.minimize(automata.from_regex(R_REGEX)),
        F=automata.minimize(automata.from_regex(F_REGEX)),
    )


def _check_binary(a: str):
    bad = a.strip("01")
    if bad:
        raise ValueError(f"symbol {bad[0]!r} not in alphabet ('0', '1')")


def is_simple(a: str) -> bool:
    """len < 11, or a strict infix of one code, or containing a 10-run."""
    _check_binary(a)
    if len(a) < SIMPLE_LENGTH_THRESHOLD:
        return True
    if "0" * RUN_LENGTH_THRESHOLD in a or "1" * RUN_LENGTH_THRESHOLD in a:
        return True
    return language_dfas().F.accepts(a)


class Parse(NamedTuple):
    """A partial decoding (left, center, right) with value left psi(center) right."""

    left: str
    center: RankedWord
    right: str

    @property
    def value(self) -> str:
        return self.left + psi(self.center) + self.right

    def __str__(self):
        return f"({self.left or 'e'}, {str(self.center) or 'e'}, {self.right or 'e'})"


class ParseContext(NamedTuple):
    """The infix of the host word spanned by a parse occurrence.

    Covers the center plus one extra symbol on each side on which the
    parse has a non-empty left/right part.
    """

    word: RankedWord
    start: int


# C and R as Python regexes, their groups non-capturing ("(" only opens
# groups in the regexes above) so that findall returns whole codes and group 1
# of _TAIL is the chain.  parses makes one fullmatch of (C)*R per left part.
# C is a prefix code: at most one code begins at any position, so the greedy
# (C)* match is the unique maximal chain.  Every cut of that chain but the
# last is followed by a whole code, and no word of R (a strict prefix of a
# code) begins with a whole code, so when R fails after the greedy chain,
# backtracking into a shorter chain can never succeed either: the match is
# exact, and at most one parse exists per left part.  The engine still tries
# those shorter chains before it gives up, but each R attempt ends inside the
# code after its cut, so a failing tail costs time linear in its length.  A
# possessive (C)*+ would skip them, but it needs Python 3.11, and the package
# supports 3.10.
_C_CODE = re.compile(C_REGEX.replace("(", "(?:"))
_TAIL = re.compile(f"((?:{_C_CODE.pattern})*)(?:{R_REGEX.replace('(', '(?:')})")


# Each chain of at most _CACHED_CHAIN_BITS bits is decoded once and kept, at
# most 1,024 of them: 0.7 MB at most, measured with tracemalloc on chains of
# many orders.  Infixes of order-3 counters (112 bits) fall under the bound,
# and their 64,000 parses in the certify benchmark have 674 distinct chains.
# A longer chain is decoded on every call, so the cache stays bounded
# whatever the input.
_CACHED_CHAIN_BITS = 128


@lru_cache(maxsize=1024)
def _decode_chain(chain: str) -> RankedWord:
    """The ranked word u with psi(u) == chain, for a chain in C*."""
    codes = _C_CODE.findall(chain)
    # one RankedSymbol per distinct code; a list, not an iterator, so
    # RankedWord's tuple gets its exact size
    symbol = {code: RankedSymbol(int(code[0]), len(code) // 2 - 1) for code in set(codes)}
    return RankedWord(list(map(symbol.__getitem__, codes)))


def parses(a: str) -> list[Parse]:
    """Every triple (l, u, r) in L x Sigma* x R with l psi(u) r == a.

    At most one parse per left part, ordered by |l| ascending.  Non-simple
    infixes of coded words admit exactly one parse; unparseable words
    give [].  Each distinct short chain is decoded once, so parses of
    different words may share one center; RankedWord is immutable, so
    sharing it is safe.
    """
    _check_binary(a)
    out = []
    for i in language_dfas().L.accepting_prefixes(a):
        m = _TAIL.fullmatch(a, i)
        if m:
            end = m.end(1)
            decode = _decode_chain if end - i <= _CACHED_CHAIN_BITS else _decode_chain.__wrapped__
            out.append(Parse(a[:i], decode(a[i:end]), a[end:]))
    return out


def parse_of(a: str) -> Parse:
    """The unique parse of a non-simple infix of a coded word."""
    found = parses(a)
    if len(found) != 1:
        raise ValueError(f"expected a unique parse, found {len(found)} for {a!r}")
    return found[0]


def _occurs_at(p: Parse, w: RankedWord, m: int) -> bool:
    """Whether the center of p occurs in w at m and the boundary conditions hold."""
    u, symbols = p.center.symbols, w.symbols
    end = m + len(u)
    if m < 0 or end > len(symbols) or symbols[m:end] != u:
        return False
    if p.left and (m == 0 or not psi_symbol(symbols[m - 1]).endswith(p.left)):
        return False
    return not p.right or (end < len(symbols) and psi_symbol(symbols[end]).startswith(p.right))


def parse_occurrences(p: Parse, w: RankedWord) -> list[int]:
    """Offsets m of the parse center in w meeting the boundary conditions.

    The left part, when non-empty, must be a suffix of the code of the
    symbol before the center; symmetrically for the right part.
    """
    return [m for m in occurrences(p.center, w) if _occurs_at(p, w, m)]


def context_of(p: Parse, w: RankedWord, m: int) -> ParseContext:
    """The context of the occurrence m of parse p in w."""
    if not _occurs_at(p, w, m):
        raise ValueError(f"{m} is not an occurrence of the parse in the word")
    d0 = 1 if p.left else 0
    d1 = 1 if p.right else 0
    start = m - d0
    return ParseContext(word=w[start : m + len(p.center) + d1], start=start)
