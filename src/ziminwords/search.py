"""Exhaustive search for words avoiding Zimin patterns, and f(n, k).

f(n, k) is the least length forcing every word over a k-letter alphabet to
encounter Z_n.  Encountering is infix-monotone, so avoidance is closed
under prefixes and the avoiding words form a k-ary tree explored by depth
first search; f equals one plus the depth of that tree when the search
exhausts it.

A new encounter created by appending one letter must lie in a suffix of
the extended word, so each node asks whether some suffix of w·c has Zimin
type >= n.  ``zimin.ZiminSuffixTracker``, the engine of ``zimin_index``,
answers that within the push: it builds the levels of the new position,
the shortest suffix of each type, each from the latest earlier copy of
the one below it that ends at least one letter before it starts, and
refuses the letter when they would reach type n.

Encountering Z_n, plainly or abelian, does not depend on letter names, so
the tree is symmetric.  At a node w let u be the smallest letter absent
from w.  For any other absent letter c, swapping u and c fixes w and maps
the subtree of w·u one-to-one onto that of w·c, keeping avoidance and
depth.  The subtree of w·c therefore holds no word deeper than those under
w·u, which come first in the letters-ascending order, so it cannot change
the witness.  The search walks the subtree of w·u only and adds its size
to the node count at the place of each renamed copy: ``nodes_explored``
counts every node of the letters-ascending tree up to the stop, and the
nodes of renamed copies are counted, not visited.  From the empty word
only canonical words are visited, whose letters first occur in ascending
order.

The search is one serial walk.  Splitting it into subtree tasks at a
fixed depth would hand each renamed copy above that depth to its own
task, to be walked in full, and the copies are most of the tree.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import time
from typing import NamedTuple, Optional

from .errors import ResourceLimitError
from .words import DEFAULT_DIGIT_CAP, guarded_power, power_exceeds, tau
from .zimin import ZiminSuffixTracker, matches, zimin_index, zimin_pattern

CHECKPOINT_VERSION = 3
CHECKPOINT_EVERY = 100_000
LETTERS = "0123456789abcdefghijklmnopqrstuvwxyz"


def render_word(word) -> str:
    return "".join(LETTERS[c] for c in word)


def parse_rendered_word(text: str) -> list[int]:
    return [LETTERS.index(c) for c in text]


class SearchCertificate(NamedTuple):
    """Outcome of one avoidance search.

    When ``exhausted`` the full tree was explored and f = implied_f();
    otherwise only the lower bound f > max_avoiding_length is certified.
    The witness is the lexicographically smallest avoiding word of maximal
    explored length.  ``nodes_explored`` counts every node of the
    letters-ascending tree up to the stop, including the nodes of subtrees
    that are renamed copies of explored ones: those are counted, not
    visited, because renaming letters keeps avoidance and depth.
    """

    n: int
    k: int
    max_avoiding_length: int
    witness: str
    exhausted: bool
    nodes_explored: int

    def implied_f(self) -> Optional[int]:
        return self.max_avoiding_length + 1 if self.exhausted else None

    def f_lower_bound(self) -> int:
        # an avoiding word of length m shows f >= m + 1
        return self.max_avoiding_length + 1

    def to_json(self) -> dict:
        return self._asdict()


def _make_tracker(mode: str, n: int, k: int):
    if mode == "zimin":
        return ZiminSuffixTracker(n, k)
    if mode == "abelian":
        from .abelian import AbelianSuffixTracker

        return AbelianSuffixTracker(n, k)
    raise ValueError(f"unknown tracker mode {mode!r}")


def _depth_first(tracker, max_nodes, deadline=None, *, resume=None, checkpoint_path=None, meta=None):
    """Letters-ascending DFS over the avoiding tree rooted at tracker.word,
    over ``tracker.k`` letters, counting the renamed copies of subtrees
    instead of walking them (see the module docstring).

    Returns (best_length, best_word, exhausted, nodes), with best_word
    rendered and the node count including tracker.word itself.  The walk
    may start from a non-empty ``tracker.word``: any avoiding word, not
    only a canonical one.  The budget stops the walk at a node entry, or
    at a renamed copy whose count would reach ``max_nodes``; the walk
    through that copy would stop at max_nodes, so that is the count
    reported.  Checkpoints record the current path with the skip state of
    every node on it, the deepest node's next letter and its skip, so a
    resumed run continues exactly where the file says, at the copy letter
    too, once the signs of the skips agree with the letters of the path.
    Skips jump over node counts, so a periodic checkpoint is written at the
    first entry at or past each multiple of ``CHECKPOINT_EVERY``.
    """
    k = tracker.k
    word = tracker.word
    base_depth = len(word)
    # The path is ``word``; a pop makes the popped letter + 1 the next to
    # try.  At the deepest node: ``cur``, the next letter to try; ``absent``,
    # the bitmask of the letters absent from its word plus bit k, so that u,
    # its lowest bit, is the smallest absent letter or k; and ``skip``, the
    # size of the subtree of its child u once that is closed (0 if the child
    # does not avoid) or, while it is open, minus the node count before the
    # child.  Once every letter occurs (u = k), skip stays 0 and absent and u
    # stay put, so only the nodes that miss a letter, a prefix of the path,
    # save (u, skip, absent) in ``saved``.  The best word is word[:keep] +
    # tail[::-1]: a pop through its end moves the letter to ``tail``, and the
    # letter tried next there is larger, so the path never matches more.
    absent = (1 << (k + 1)) - 1
    for c in word:
        absent &= ~(1 << c)
    saved: list[tuple[int, int, int]] = []
    best_len = keep = base_depth
    tail: list[int] = []
    nodes = 1
    if resume is not None:
        for c, skip in zip(parse_rendered_word(resume["path"])[base_depth:], resume["skip_state"]):
            u = (absent & -absent).bit_length() - 1
            if c >= k or not tracker.try_push(c):
                raise ValueError(f"checkpoint path is not an avoiding word over {k} letters")
            # 0 before u is tried, negative while its subtree is open, >= 0 after
            if not (skip == 0 if c < u else skip < 0 if c == u else skip >= 0 and not absent >> c & 1):
                raise ValueError("checkpoint skip_state contradicts its path")
            if u < k:
                saved.append((u, skip, absent))
                absent &= ~(1 << c)
        best_len, keep = resume["best_length"], 0
        tail = parse_rendered_word(resume["best_witness"])[::-1]
        nodes = resume["nodes_explored"]
    u = (absent & -absent).bit_length() - 1
    cur, skip = (0, 0) if resume is None else (resume["next_letter"], resume["skip"])
    if skip and cur <= u:
        raise ValueError("checkpoint skip counts a subtree before its next letter")
    every = CHECKPOINT_EVERY if checkpoint_path else 0
    next_checkpoint = (nodes // every + 1) * every if every else 0
    entered = True
    exhausted = False
    in_copy = False
    while True:
        if entered:
            entered = False
            depth = len(word)
            if depth > best_len:
                best_len = keep = depth
                tail = []
            if (max_nodes is not None and nodes >= max_nodes) or (
                deadline is not None and time.monotonic() > deadline
            ):
                break
            if every and nodes >= next_checkpoint:
                best = word[:keep] + tail[::-1]
                _write_checkpoint(checkpoint_path, tracker, saved, cur, skip, best_len, best, nodes, meta)
                next_checkpoint = (nodes // every + 1) * every
        if cur >= k:
            depth = len(word) - 1
            if depth < base_depth:
                exhausted = True
                break
            cur = word[depth] + 1
            if depth < keep:
                keep = depth
                tail.append(cur - 1)
            tracker.pop()
            if len(saved) > depth - base_depth:
                u, skip, absent = saved.pop()
                if skip < 0:
                    skip += nodes
            continue
        c = cur
        if c > u and absent >> c & 1:
            # the subtree of w·c is that of w·u with u and c swapped
            if max_nodes is not None and nodes + skip >= max_nodes:
                in_copy = True
                break
            nodes += skip
            cur += 1
            continue
        cur += 1
        if tracker.try_push(c):
            if u < k:
                saved.append((u, -nodes if c == u else skip, absent))
                if absent >> c & 1:
                    absent ^= 1 << c
                    u = (absent & -absent).bit_length() - 1
            nodes += 1
            cur = 0
            skip = 0
            entered = True
    best = word[:keep] + tail[::-1]
    if checkpoint_path and not exhausted:
        _write_checkpoint(checkpoint_path, tracker, saved, cur, skip, best_len, best, nodes, meta)
    return best_len, render_word(best), exhausted, max_nodes if in_copy else nodes


def _write_checkpoint(path, tracker, saved, cur, skip, best_len, best, nodes, meta):
    payload = {
        "version": CHECKPOINT_VERSION,
        "path": render_word(tracker.word),
        # the nodes past the records have every letter, so their skips are 0
        "skip_state": [record[1] for record in saved] + [0] * (len(tracker.word) - len(saved)),
        "next_letter": cur,
        "skip": skip,
        "best_length": best_len,
        "best_witness": render_word(best),
        "nodes_explored": nodes,
    }
    payload.update(meta or {})
    # a crash or power loss mid-write leaves the previous checkpoint intact:
    # the new file is on disk before it replaces the old one, and the
    # directory is synced so that the replacement is too
    tmp = f"{os.fspath(path)}.tmp"
    with open(tmp, "w") as fh:
        # one C-encoded string: json.dump's chunked encoder is pure Python
        fh.write(json.dumps(payload) + "\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(os.path.abspath(path)), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


_CHECKPOINT_FIELDS = {
    "path": str,
    "skip_state": list,
    "next_letter": int,
    "skip": int,
    "best_length": int,
    "best_witness": str,
    "nodes_explored": int,
}


def load_checkpoint(path) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("checkpoint is not a JSON object")
    if data.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
    for key, kind in _CHECKPOINT_FIELDS.items():
        value = data.get(key)
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValueError(f"checkpoint field {key!r} missing or not a {kind.__name__}")
    if data["best_length"] != len(data["best_witness"]):
        raise ValueError("checkpoint best_length does not match best_witness")
    skips, nodes = data["skip_state"], data["nodes_explored"]
    if len(skips) != len(data["path"]) or not all(
        isinstance(s, int) and not isinstance(s, bool) and -nodes <= s <= nodes for s in skips
    ):
        raise ValueError("checkpoint skip_state is not one signed node count per path letter")
    if data["next_letter"] < 0 or not 0 <= data["skip"] <= nodes:
        raise ValueError("checkpoint next_letter or skip is negative, or skip exceeds nodes_explored")
    return data


def longest_avoiding(
    n: int,
    k: int,
    *,
    max_nodes: Optional[int] = None,
    max_seconds: Optional[float] = None,
    mode: str = "zimin",
    checkpoint_path=None,
    resume: bool = False,
) -> SearchCertificate:
    """Explore the Z_n-avoiding prefix tree over [k] exhaustively.

    One serial DFS, counting renamed subtrees instead of walking them (see
    the module docstring).  ``max_nodes`` and ``max_seconds`` bound the
    whole search; each must be >= 0, and ``max_seconds`` finite.  A
    checkpointed run stops where a plain one does.  With
    ``checkpoint_path`` the search state is written every
    ``CHECKPOINT_EVERY`` nodes and when the budget ends; ``resume``
    continues from that file, which it needs.
    """
    if n < 1 or k < 1:
        raise ValueError("need n >= 1 and k >= 1")
    if resume and not checkpoint_path:
        raise ValueError("resuming needs a checkpoint path")
    if k > len(LETTERS):
        raise ValueError(f"need k <= {len(LETTERS)}: witnesses are rendered one letter per symbol")
    if max_nodes is not None and max_nodes < 0:
        raise ValueError("need max_nodes >= 0")
    # NaN would switch the time budget off, and neither NaN nor inf is JSON
    if max_seconds is not None and not 0 <= max_seconds < math.inf:
        raise ValueError("need max_seconds finite and >= 0")
    deadline = None if max_seconds is None else time.monotonic() + max_seconds
    meta = {"mode": mode, "n": n, "k": k}
    tracker = _make_tracker(mode, n, k)
    resume_state = None
    if resume:
        resume_state = load_checkpoint(checkpoint_path)
        for key in ("mode", "n", "k"):
            if resume_state.get(key) != meta[key]:
                raise ValueError(f"checkpoint {key} mismatch")
        # the resumed walk reports this witness, so it must really avoid; it
        # is recorded at node entry, before the checkpoint, so it is no
        # shorter than the path
        witness = parse_rendered_word(resume_state["best_witness"])
        replay = _make_tracker(mode, n, k)
        if not all(c < k and replay.try_push(c) for c in witness):
            raise ValueError(f"checkpoint best_witness is not an avoiding word over {k} letters")
        if resume_state["best_length"] < len(resume_state["path"]):
            raise ValueError("checkpoint best_length is shorter than its path")
        if resume_state["next_letter"] >= k:
            raise ValueError(f"checkpoint next_letter is not one of {k} letters")
    best_len, best, exhausted, nodes = _depth_first(
        tracker,
        max_nodes,
        deadline,
        resume=resume_state,
        checkpoint_path=checkpoint_path,
        meta=meta,
    )
    return SearchCertificate(n, k, best_len, best, exhausted, nodes)


def f_value(n: int, k: int, **kwargs) -> tuple[Optional[int], SearchCertificate]:
    """(f(n,k), certificate) when the search exhausts; (None, certificate) else."""
    cert = longest_avoiding(n, k, **kwargs)
    return cert.implied_f(), cert


# ---------------------------------------------------------------------------
# first-moment quantities


def match_probability(n: int, k: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> Fraction:
    """Probability that a uniform word of length 2^n - 1 matches Z_n.

    Exactly k^(n+1-2^n): each variable x_i is free at its first occurrence
    and forced at its other 2^(n-i) - 1 ones.  Raises ResourceLimitError
    when the denominator would exceed ``digit_cap`` decimal digits.
    """
    from fractions import Fraction

    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    return Fraction(1, guarded_power(k, guarded_power(2, n, digit_cap) - n - 1, digit_cap))


def match_count_enumerated(n: int, k: int, cap: int = 2_000_000) -> tuple[int, int]:
    """(matching words, all words) of length 2^n - 1 over [k], by enumeration."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    # refused before 2^n is built: a length of n letters already has 2^n words
    if n >= cap.bit_length() or power_exceeds(k, 2**n - 1, cap):
        raise ResourceLimitError(
            f"enumerating the words of length 2**{n} - 1 over {k} letters exceeds the cap of {cap}"
        )
    length = 2**n - 1
    z = zimin_pattern(n)
    return sum(matches(w, z) is not None for w in itertools.product(range(k), repeat=length)), k**length


def first_moment_threshold(n: int, k: int, digit_cap: int = DEFAULT_DIGIT_CAP) -> int:
    """Length k^(2^n - n - 1) + 2^n past which the expected number of
    Z_n occurrences in a random word reaches 1."""
    if n < 1 or k < 2:
        raise ValueError("need n >= 1 and k >= 2")
    two_to_n = guarded_power(2, n, digit_cap)
    return guarded_power(k, two_to_n - n - 1, digit_cap) + two_to_n


def counter_witness_bounds(order: int, *, encoded: bool = False, indices=None) -> dict:
    """Certify the counter-based lower bounds by direct computation.

    A checked word w with zimin_index(w) <= n - 1 avoids Z_n, so it
    certifies f(n, k) > |w| over its alphabet; ``certifies`` names that
    bound.  The counters of one order, and so their codes, all have one
    length.  ``tower`` is the paper's formula tau(order - 1), which
    L_order >= tau(order - 1) puts below it.

    Ranked (encoded=False): checks zimin_index(C_i^order) <= order - 1
    (index 0 by default), certifying f(order, 2*order - 1) > L_order.

    Binary (encoded=True): checks zimin_index(psi(C_i^order)) <= order + 1
    over the given indices (all of them for order <= 3, a prefix of 256 by
    default beyond), certifying f(order + 2, 2) > |psi(C_i^order)|.
    """
    if order < 3:
        raise ValueError("the counter bounds are stated for order >= 3")
    t = tau(order - 1)
    if encoded:
        from .coding import encoded_counter as build

        kind, length_key, default = "encoded", "encoded_length", range(tau(order) if order <= 3 else 256)
        bound, n, k = order + 1, order + 2, 2
    else:
        from .counters import counter as build

        kind, length_key, default = "ranked", "counter_length", [0]
        bound, n, k = order - 1, order, 2 * order - 1
    if indices is None:
        indices = default
    checked = {}
    for i in indices:
        w = build(i, order)
        checked[i] = zimin_index(w, max_length=None)
    top = max(checked.values())  # no index checked is a ValueError here
    length = len(w)
    report = {
        "kind": f"{kind}-counter-bound",
        "order": order,
        "alphabet_size": k,
        "indices_checked": list(indices),
        "zimin_indices": checked,
        "zimin_bound": bound,
        length_key: length,
        "tower": t,
        "certifies": f"f({n}, {k}) > {length}",
        "ok": top <= bound and length >= t,
    }
    if encoded:
        del report["alphabet_size"]  # the binary alphabet is in ``certifies``
    return report
