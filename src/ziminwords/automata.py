"""A small deterministic-automaton algebra over explicit finite alphabets.

Supports exactly what the coded-word lemmas need: regex to NFA (Thompson)
to DFA (subset construction), product intersection, partition refinement
minimisation, equivalence with shortest counterexample, language
concatenation/star, bounded enumeration in length-then-lex order, and a
finiteness test.

Regexes are literals over the alphabet, ``|``, ``*``, parentheses and empty
alternatives, as in ``(|0|1)(01)*00``; ``+``, ``?`` and ``{m,n}`` are
rejected with RegexSyntaxError.
"""

from __future__ import annotations

from collections import deque
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
        object.__setattr__(self, "live", _live_states(delta, accepting))
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


class Nfa:
    """Epsilon-NFA used as the construction intermediate; symbol None = eps."""

    def __init__(self, alphabet):
        self.alphabet = tuple(alphabet)
        self.transitions: list[dict] = []
        self.start = self.new_state()
        self.accepting: set[int] = set()

    def new_state(self) -> int:
        self.transitions.append({})
        return len(self.transitions) - 1

    def add(self, src: int, symbol, dst: int):
        self.transitions[src].setdefault(symbol, set()).add(dst)

    def eps_closure(self, states) -> frozenset:
        seen = set(states)
        stack = list(states)
        while stack:
            q = stack.pop()
            for t in self.transitions[q].get(None, ()):
                if t not in seen:
                    seen.add(t)
                    stack.append(t)
        return frozenset(seen)


# ---------------------------------------------------------------------------
# regex -> NFA -> DFA

_METACHARS = set("()|*+?{}")


def _parse_regex(text: str, alphabet: tuple) -> "_Node":
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
        return ("alt", branches) if len(branches) > 1 else branches[0]

    def parse_cat():
        items = []
        while peek() is not None and peek() not in "|)":
            items.append(parse_rep())
        if not items:
            return ("eps",)
        node = items[0]
        for item in items[1:]:
            node = ("cat", node, item)
        return node

    def parse_rep():
        node = parse_atom()
        while peek() == "*":
            take()
            node = ("star", node)
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


def _thompson(node, nfa: Nfa) -> tuple[int, int]:
    kind = node[0]
    if kind == "eps":
        s = nfa.new_state()
        t = nfa.new_state()
        nfa.add(s, None, t)
        return s, t
    if kind == "lit":
        s = nfa.new_state()
        t = nfa.new_state()
        nfa.add(s, node[1], t)
        return s, t
    if kind == "cat":
        s1, t1 = _thompson(node[1], nfa)
        s2, t2 = _thompson(node[2], nfa)
        nfa.add(t1, None, s2)
        return s1, t2
    if kind == "alt":
        s = nfa.new_state()
        t = nfa.new_state()
        for branch in node[1]:
            bs, bt = _thompson(branch, nfa)
            nfa.add(s, None, bs)
            nfa.add(bt, None, t)
        return s, t
    if kind == "star":
        s = nfa.new_state()
        t = nfa.new_state()
        bs, bt = _thompson(node[1], nfa)
        nfa.add(s, None, bs)
        nfa.add(s, None, t)
        nfa.add(bt, None, bs)
        nfa.add(bt, None, t)
        return s, t
    raise AssertionError(f"unknown node {node!r}")


def regex_to_nfa(text: str, alphabet="01") -> Nfa:
    alphabet = tuple(alphabet)
    nfa = Nfa(alphabet)
    s, t = _thompson(_parse_regex(text, alphabet), nfa)
    nfa.add(nfa.start, None, s)
    nfa.accepting = {t}
    return nfa


def determinize(nfa: Nfa) -> Dfa:
    """Subset construction; the result is total (empty subset = dead state)."""
    alphabet = nfa.alphabet
    start = nfa.eps_closure({nfa.start})
    index = {start: 0}
    order = [start]
    delta = []
    i = 0
    while i < len(order):
        subset = order[i]
        row = []
        for c in alphabet:
            nxt = set()
            for q in subset:
                nxt |= nfa.transitions[q].get(c, set())
            closed = nfa.eps_closure(nxt)
            if closed not in index:
                index[closed] = len(order)
                order.append(closed)
            row.append(index[closed])
        delta.append(row)
        i += 1
    accepting = {i for i, subset in enumerate(order) if subset & nfa.accepting}
    return Dfa(alphabet, delta, 0, accepting)


def from_regex(text: str, alphabet="01") -> Dfa:
    return determinize(regex_to_nfa(text, alphabet))


# ---------------------------------------------------------------------------
# DFA algebra


def _reachable(dfa: Dfa) -> list[int]:
    seen = {dfa.start}
    order = [dfa.start]
    for q in order:
        for t in dfa.delta[q]:
            if t not in seen:
                seen.add(t)
                order.append(t)
    return order


def minimize(dfa: Dfa) -> Dfa:
    """Canonical minimal DFA via partition refinement on reachable states."""
    reach = _reachable(dfa)
    remap = {q: i for i, q in enumerate(reach)}
    delta = [[remap[dfa.delta[q][a]] for a in range(len(dfa.alphabet))] for q in reach]
    accepting = {remap[q] for q in reach if q in dfa.accepting}
    n = len(reach)

    block = [1 if q in accepting else 0 for q in range(n)]
    n_blocks = 2 if accepting and len(accepting) < n else 1
    if n_blocks == 1:
        block = [0] * n
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

    # canonical numbering: BFS from the start block in alphabet order
    start_block = block[0]
    canon = {start_block: 0}
    order = [start_block]
    rep = {block[q]: q for q in reversed(range(n))}
    for b in order:
        q = rep[b]
        for a in range(len(dfa.alphabet)):
            tb = block[delta[q][a]]
            if tb not in canon:
                canon[tb] = len(order)
                order.append(tb)
    new_delta = [[0] * len(dfa.alphabet) for _ in order]
    for b in order:
        q = rep[b]
        for a in range(len(dfa.alphabet)):
            new_delta[canon[b]][a] = canon[block[delta[q][a]]]
    new_accepting = {canon[block[q]] for q in range(n) if q in accepting}
    return Dfa(dfa.alphabet, new_delta, 0, new_accepting)


def intersect(a: Dfa, b: Dfa) -> Dfa:
    """Product automaton accepting the words both a and b accept."""
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    index = {(a.start, b.start): 0}
    order = [(a.start, b.start)]
    delta = []
    i = 0
    while i < len(order):
        qa, qb = order[i]
        row = []
        for s in range(len(a.alphabet)):
            nxt = (a.delta[qa][s], b.delta[qb][s])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta.append(row)
        i += 1
    accepting = {
        i for i, (qa, qb) in enumerate(order) if qa in a.accepting and qb in b.accepting
    }
    return Dfa(a.alphabet, delta, 0, accepting)


def equivalent(a: Dfa, b: Dfa) -> tuple[bool, Optional[str]]:
    """Language equality; on inequality also a shortest distinguishing word.

    Among shortest counterexamples the lexicographically first (in alphabet
    order) is returned, as a string when symbols are characters.
    """
    if a.alphabet != b.alphabet:
        raise ValueError(f"alphabet mismatch: {a.alphabet} vs {b.alphabet}")
    start = (a.start, b.start)
    parent: dict = {start: None}
    queue = deque([start])
    while queue:
        qa, qb = queue.popleft()
        if (qa in a.accepting) != (qb in b.accepting):
            word = []
            node = (qa, qb)
            while parent[node] is not None:
                node, sym = parent[node]
                word.append(sym)
            word.reverse()
            return False, "".join(str(c) for c in word)
        for s, c in enumerate(a.alphabet):
            nxt = (a.delta[qa][s], b.delta[qb][s])
            if nxt not in parent:
                parent[nxt] = ((qa, qb), c)
                queue.append(nxt)
    return True, None


# language operations that leave the deterministic world


def dfa_to_nfa(dfa: Dfa) -> Nfa:
    nfa = Nfa(dfa.alphabet)
    base = [nfa.new_state() for _ in range(dfa.n_states)]
    nfa.add(nfa.start, None, base[dfa.start])
    for q in range(dfa.n_states):
        for s, c in enumerate(dfa.alphabet):
            nfa.add(base[q], c, base[dfa.delta[q][s]])
    nfa.accepting = {base[q] for q in dfa.accepting}
    return nfa


def concat(a: Dfa, b: Dfa) -> Dfa:
    na, nb = dfa_to_nfa(a), dfa_to_nfa(b)
    if na.alphabet != nb.alphabet:
        raise ValueError("alphabet mismatch")
    out = Nfa(na.alphabet)
    offset_a = _embed(out, na)
    offset_b = _embed(out, nb)
    out.add(out.start, None, na.start + offset_a)
    for q in na.accepting:
        out.add(q + offset_a, None, nb.start + offset_b)
    out.accepting = {q + offset_b for q in nb.accepting}
    return determinize(out)


def star(a: Dfa) -> Dfa:
    na = dfa_to_nfa(a)
    out = Nfa(na.alphabet)
    offset = _embed(out, na)
    out.accepting = {out.start}
    out.add(out.start, None, na.start + offset)
    for q in na.accepting:
        out.add(q + offset, None, out.start)
    return determinize(out)


def _embed(out: Nfa, src: Nfa) -> int:
    offset = len(out.transitions)
    for _ in range(len(src.transitions)):
        out.new_state()
    for q, row in enumerate(src.transitions):
        for symbol, targets in row.items():
            for t in targets:
                out.add(q + offset, symbol, t + offset)
    return offset


# ---------------------------------------------------------------------------
# language inspection


def _live_states(delta, accepting) -> frozenset:
    """The states from which some word is accepted."""
    live = set(accepting)
    grow = True
    while grow:
        grow = False
        for q, row in enumerate(delta):
            if q not in live and any(t in live for t in row):
                live.add(q)
                grow = True
    return frozenset(live)


def _co_reachable_table(dfa: Dfa, max_len: int) -> list[list[bool]]:
    # can[r][q]: some accepting state reachable from q in exactly r steps
    can = [[q in dfa.accepting for q in range(dfa.n_states)]]
    for _ in range(max_len):
        prev = can[-1]
        can.append([any(prev[t] for t in dfa.delta[q]) for q in range(dfa.n_states)])
    return can


def enumerate_language(
    dfa: Dfa, max_len: int, max_count: int = DEFAULT_ENUMERATION_CAP
) -> list[str]:
    """All accepted words of length <= max_len in length-then-lex order."""
    can = _co_reachable_table(dfa, max_len)
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
    """No cycle lies on a path from the start to an accepting state."""
    useful = set(_reachable(dfa)) & dfa.live
    color = {}  # 0 = in progress, 1 = done

    def has_cycle(q):
        color[q] = 0
        for t in dfa.delta[q]:
            if t not in useful:
                continue
            if color.get(t) == 0:
                return True
            if t not in color and has_cycle(t):
                return True
        color[q] = 1
        return False

    return not any(has_cycle(q) for q in useful if q not in color)
