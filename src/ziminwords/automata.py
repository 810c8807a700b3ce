"""A small deterministic-automaton algebra over explicit finite alphabets.

Supports exactly what the coded-word lemmas need: regex to DFA, product
intersection, partition refinement minimisation, equivalence with shortest
counterexample, language concatenation/star, bounded enumeration in
length-then-lex order, and a finiteness test.

Every construction is one call of ``_explore``, which numbers the states
reachable from a start breadth-first in alphabet order.  The states are
regexes for ``from_regex`` (a regex steps to its Brzozowski derivative and
accepts when it is nullable), pairs of states for the products, sets of
states for ``concat`` and ``star``, and blocks of the refined partition for
``minimize``.  Every question about the graph reads one table, ``_reaches``,
whose row r marks the states from which a word of exactly r letters is
accepted: the live states, finiteness and the pruning of the enumeration.

Regexes are literals over the alphabet, ``|``, ``*``, parentheses and empty
alternatives, as in ``(|0|1)(01)*00``; ``+``, ``?`` and ``{m,n}`` are
rejected with RegexSyntaxError.
"""

from __future__ import annotations

import operator
from typing import Iterable, Optional

from .errors import RegexSyntaxError, ResourceLimitError

DEFAULT_ENUMERATION_CAP = 200_000


class Dfa:
    """Total DFA: states 0..n-1, transition table state x symbol -> state;
    the scans read ``step[q]``, row q as a symbol -> state dict."""

    __slots__ = ("alphabet", "delta", "start", "accepting", "live", "step")

    def __init__(self, alphabet, delta, start, accepting):
        alphabet = tuple(alphabet)
        delta = tuple(tuple(row) for row in delta)
        for row in delta:
            if len(row) != len(alphabet):
                raise ValueError("transition table must be total over the alphabet")
            for t in row:
                if not 0 <= t < len(delta):
                    raise ValueError("transition target out of range")
        if not 0 <= start < len(delta):
            raise ValueError("start state out of range")
        accepting = frozenset(accepting)
        if any(not 0 <= q < len(delta) for q in accepting):
            raise ValueError("accepting state out of range")
        object.__setattr__(self, "alphabet", alphabet)
        object.__setattr__(self, "delta", delta)
        object.__setattr__(self, "start", start)
        object.__setattr__(self, "accepting", accepting)
        # a shortest accepted word visits no state twice, so it has fewer
        # than n letters
        rows = _reaches(delta, accepting, len(delta) - 1)
        object.__setattr__(self, "live", frozenset(q for q, column in enumerate(zip(*rows)) if any(column)))
        object.__setattr__(self, "step", tuple({c: row[alphabet.index(c)] for c in alphabet} for row in delta))

    def __setattr__(self, name, value):
        raise AttributeError("Dfa is immutable")

    @property
    def n_states(self) -> int:
        return len(self.delta)

    def accepts(self, word: Iterable) -> bool:
        """Whether word is accepted; stops at the first dead state, so a
        symbol past that point is not read (nor checked against the alphabet)."""
        q, step, live = self.start, self.step, self.live
        if q not in live:
            return False
        for c in word:
            try:
                q = step[q][c]
            except (KeyError, TypeError):
                raise ValueError(f"symbol {c!r} not in alphabet {self.alphabet}") from None
            if q not in live:
                return False
        return q in self.accepting

    def accepting_prefixes(self, word) -> list[int]:
        """All i such that word[:i] is accepted; stops at the first dead state,
        so a symbol past that point is not read (nor checked against the alphabet)."""
        q, step, live, accepting = self.start, self.step, self.live, self.accepting
        out = [0] if q in accepting else []
        if q not in live:
            return out
        for i, c in enumerate(word, 1):
            try:
                q = step[q][c]
            except (KeyError, TypeError):
                raise ValueError(f"symbol {c!r} not in alphabet {self.alphabet}") from None
            if q in accepting:
                out.append(i)
            elif q not in live:
                break
        return out

    def __repr__(self):
        return f"<Dfa {self.n_states} states over {''.join(map(str, self.alphabet))}>"


def _explore(alphabet: tuple, start, step, accepting) -> Dfa:
    """Number the states reachable from start breadth-first, in alphabet order.

    States are any hashable values; step(state, symbol) gives the successor
    and accepting(state) decides acceptance.  State 0 is the start.
    """
    index = {start: 0}
    order = [start]
    delta = []
    for state in order:
        row = []
        for c in alphabet:
            t = step(state, c)
            if t not in index:
                index[t] = len(order)
                order.append(t)
            row.append(index[t])
        delta.append(row)
    return Dfa(alphabet, delta, 0, [i for i, state in enumerate(order) if accepting(state)])


# ---------------------------------------------------------------------------
# regexes as DFA states: a regex is ("empty",), ("eps",), ("lit", c),
# ("cat", r, s), ("alt", frozenset) or ("star", r), kept by the constructors
# in a normal form (concatenations nested to the right, alternatives as flat
# sets, star(star r) = star r, eps and empty absorbed) under which a regex
# has finitely many distinct derivatives (Brzozowski, J. ACM 1964).

_EMPTY = ("empty",)
_EPS = ("eps",)
_METACHARS = set("()|*+?{}")


def _cat(r, s):
    if r == _EMPTY or s == _EMPTY:
        return _EMPTY
    if r == _EPS:
        return s
    if s == _EPS:
        return r
    if r[0] == "cat":
        return _cat(r[1], _cat(r[2], s))
    return ("cat", r, s)


def _alt(*branches):
    items = set()
    for r in branches:
        if r[0] == "alt":
            items |= r[1]
        elif r != _EMPTY:
            items.add(r)
    if len(items) > 1:
        return ("alt", frozenset(items))
    return items.pop() if items else _EMPTY


def _star(r):
    if r[0] == "star":
        return r
    if r in (_EMPTY, _EPS):
        return _EPS
    return ("star", r)


def _nullable(r) -> bool:
    kind = r[0]
    if kind == "cat":
        return _nullable(r[1]) and _nullable(r[2])
    if kind == "alt":
        return any(map(_nullable, r[1]))
    return kind in ("eps", "star")


def _derivative(r, c):
    """The regex of the words w with c w in the language of r."""
    kind = r[0]
    if kind == "lit":
        return _EPS if r[1] == c else _EMPTY
    if kind == "cat":
        head = _cat(_derivative(r[1], c), r[2])
        return _alt(head, _derivative(r[2], c)) if _nullable(r[1]) else head
    if kind == "alt":
        return _alt(*(_derivative(x, c) for x in r[1]))
    if kind == "star":
        return _cat(_derivative(r[1], c), r)
    return _EMPTY


def _parse_regex(text: str, alphabet: tuple):
    pos = 0

    def peek():
        return text[pos] if pos < len(text) else None

    def take():
        nonlocal pos
        c = text[pos]
        pos += 1
        return c

    def parse_alt():
        branches = [parse_cat()]
        while peek() == "|":
            take()
            branches.append(parse_cat())
        return _alt(*branches)

    def parse_cat():
        node = _EPS
        while peek() is not None and peek() not in "|)":
            node = _cat(node, parse_rep())
        return node

    def parse_rep():
        node = parse_atom()
        while peek() == "*":
            take()
            node = _star(node)
        return node

    def parse_atom():
        c = peek()
        if c is None:
            raise RegexSyntaxError("unexpected end of regex")
        if c == "(":
            take()
            node = parse_alt()
            if peek() != ")":
                raise RegexSyntaxError("missing closing parenthesis")
            take()
            return node
        if c in _METACHARS:
            raise RegexSyntaxError(f"unexpected metacharacter {c!r}")
        take()
        if c not in alphabet:
            raise RegexSyntaxError(f"literal {c!r} outside the alphabet {alphabet}")
        return ("lit", c)

    node = parse_alt()
    if pos != len(text):
        raise RegexSyntaxError(f"trailing characters at position {pos}")
    return node


def from_regex(text: str, alphabet="01") -> Dfa:
    alphabet = tuple(alphabet)
    return _explore(alphabet, _parse_regex(text, alphabet), _derivative, _nullable)


# ---------------------------------------------------------------------------
# DFA algebra


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal DFA via partition refinement; the final numbering
    never visits the blocks of states the start cannot reach."""
    delta, accepting = dfa.delta, dfa.accepting
    n = dfa.n_states

    block = [int(q in accepting) for q in range(n)]
    n_blocks = len(set(block))
    while True:
        signatures = {}
        new_block = [0] * n
        for q in range(n):
            sig = (block[q], tuple(block[t] for t in delta[q]))
            if sig not in signatures:
                signatures[sig] = len(signatures)
            new_block[q] = signatures[sig]
        if len(signatures) == n_blocks:
            break
        block = new_block
        n_blocks = len(signatures)

    # canonical numbering: breadth-first from the start block in alphabet order
    rep = {b: q for q, b in enumerate(block)}
    return _explore(
        dfa.alphabet, block[dfa.start], lambda b, c: block[dfa.step[rep[b]][c]], lambda b: rep[b] in accepting
    )


def _product(a: Dfa, b: Dfa, accept) -> Dfa:
    """The pairs of states; a pair accepts when accept(in a, in b) holds."""
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    return _explore(
        a.alphabet,
        (a.start, b.start),
        lambda s, c: (a.step[s[0]][c], b.step[s[1]][c]),
        lambda s: accept(s[0] in a.accepting, s[1] in b.accepting),
    )


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the words both a and b accept."""
    return _product(a, b, operator.and_)


def equivalent(a: Dfa, b: Dfa) -> tuple[bool, Optional[str]]:
    """Language equality; on inequality also a shortest distinguishing word.

    Among shortest counterexamples the lexicographically first (in alphabet
    order) is returned, as a string when symbols are characters.
    """
    diff = _product(a, b, operator.ne)
    if not diff.accepting:
        return True, None
    # In the breadth-first numbering the least accepting state is the one
    # reached by the shortest, alphabetically first word, and the first edge
    # into a state in (state, symbol) order is the one that discovered it.
    parent = {}
    for q, row in enumerate(diff.delta):
        for c, t in zip(diff.alphabet, row):
            parent.setdefault(t, (q, c))
    word = []
    q = min(diff.accepting)
    while q != 0:
        q, c = parent[q]
        word.append(str(c))
    return False, "".join(reversed(word))


def concat(a: Dfa, b: Dfa) -> Dfa:
    """Subset construction: a state of a and the set of b's states in play."""
    if a.alphabet != b.alphabet:
        raise ValueError("alphabet mismatch")

    def enter(qa, qbs):  # b starts wherever a accepts
        return (qa, qbs | {b.start}) if qa in a.accepting else (qa, qbs)

    return _explore(
        a.alphabet,
        enter(a.start, frozenset()),
        lambda s, c: enter(a.step[s[0]][c], frozenset(b.step[q][c] for q in s[1])),
        lambda s: not b.accepting.isdisjoint(s[1]),
    )


def star(a: Dfa) -> Dfa:
    """Subset construction over a's states, restarting a wherever it accepts.
    The start, which accepts the empty word, is the empty set: as a is
    total, no step yields it."""

    def step(qs, c):
        nxt = frozenset(a.step[q][c] for q in qs or (a.start,))
        return nxt if a.accepting.isdisjoint(nxt) else nxt | {a.start}

    return _explore(a.alphabet, frozenset(), step, lambda qs: not qs or not a.accepting.isdisjoint(qs))


# ---------------------------------------------------------------------------
# language inspection


def _reaches(delta, accepting, steps) -> list[list[bool]]:
    """Row r, for r = 0..steps, marks the states from which some word of
    exactly r letters is accepted."""
    rows = [[q in accepting for q in range(len(delta))]]
    first = {}
    for r in range(steps):
        last = rows[r]
        # a row that repeats row j is followed by the row that followed j
        j = first.setdefault(tuple(last), r)
        rows.append(rows[j + 1] if j < r else [any(last[t] for t in row) for row in delta])
    return rows


def enumerate_language(
    dfa: Dfa, max_len: int, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[str]:
    """All accepted words of length <= max_len in length-then-lex order."""
    can = _reaches(dfa.delta, dfa.accepting, max_len)
    out: list[str] = []
    symbols = [str(c) for c in dfa.alphabet]

    for length in range(max_len + 1):
        stack = [(dfa.start, 0, "")]
        # depth-first in alphabet order; stack holds (state, depth, word)
        while stack:
            q, depth, word = stack.pop()
            if depth == length:
                if q in dfa.accepting:
                    out.append(word)
                    if len(out) > max_count:
                        raise ResourceLimitError(
                            f"enumeration exceeds the cap of {max_count} words"
                        )
                continue
            remaining = length - depth - 1
            for s in range(len(dfa.alphabet) - 1, -1, -1):
                t = dfa.delta[q][s]
                if can[remaining][t]:
                    stack.append((t, depth + 1, word + symbols[s]))
    return out


def is_finite(dfa: Dfa) -> bool:
    """No accepted word has a length in [n, 2n), n the number of states.

    An accepted word of n letters or more repeats a state, so pumping its
    loop gives infinitely many; and one of 2n or more keeps n or more when
    a loop of at most n letters is cut out of it."""
    n = dfa.n_states
    rows = _reaches(dfa.delta, dfa.accepting, 2 * n - 1)
    return not any(row[dfa.start] for row in rows[n:])
