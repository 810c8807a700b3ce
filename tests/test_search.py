import hashlib
import itertools
import json
import os
import random
import shutil
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ziminwords import search as search_module
from ziminwords import zimin as zimin_module
from ziminwords import zimin_index
from ziminwords.abelian import AbelianSuffixTracker
from ziminwords.errors import ResourceLimitError
from ziminwords.oracles import (
    OracleSuffixTracker,
    zimin_index_enumerated,
    zimin_index_per_start,
    zimin_type_recursive,
)
from ziminwords.search import (
    SearchCertificate,
    ZiminSuffixTracker,
    counter_witness_bounds,
    f_value,
    first_moment_threshold,
    load_checkpoint,
    longest_avoiding,
    match_count_enumerated,
    match_probability,
    render_word,
)


def test_f_one_is_one():
    for k in (2, 3, 5):
        cert = longest_avoiding(1, k)
        assert cert.implied_f() == 1
        assert cert.max_avoiding_length == 0 and cert.exhausted


def test_f_two_row_of_the_table():
    for k in (2, 3, 4, 5):
        value, cert = f_value(2, k)
        assert value == 2 * k + 1
        assert cert.exhausted
        assert len(cert.witness) == 2 * k
        assert zimin_index(cert.witness) <= 1


def test_witness_is_lexicographically_smallest():
    cert = longest_avoiding(2, 2)
    # enumerate all maximal avoiding words directly
    maximal = [
        "".join(w)
        for w in itertools.product("01", repeat=cert.max_avoiding_length)
        if zimin_index("".join(w)) < 2
    ]
    assert cert.witness == min(maximal)


def test_prefix_closure_of_witness():
    cert = longest_avoiding(3, 2, max_nodes=2000)
    for i in range(len(cert.witness)):
        assert zimin_index(cert.witness[: i + 1]) < 3


def test_budget_certificate_reports_lower_bound_only():
    cert = longest_avoiding(3, 2, max_nodes=500)
    assert not cert.exhausted
    assert cert.implied_f() is None
    assert cert.f_lower_bound() == cert.max_avoiding_length + 1
    assert cert.nodes_explored == 500


# the trackers whose plain preorder a search is checked against: the
# search's own, and for the "zimin" search also the naive oracle's
_TRACKERS = {"zimin": ZiminSuffixTracker, "zimin-oracle": OracleSuffixTracker, "abelian": AbelianSuffixTracker}


def _mode(reference):
    # the search mode that a reference tracker checks
    return reference.removesuffix("-oracle")


def _preorder(tracker, k):
    """The avoiding tree below tracker.word, letters ascending, every node
    visited: no use of the renaming symmetry."""
    yield tracker.word[:]
    for c in range(k):
        if tracker.try_push(c):
            yield from _preorder(tracker, k)
            tracker.pop()


def _reference(reference, n, k, base=()):
    """The certificates of a search from ``base`` at every budget 1..size+1."""
    tracker = _TRACKERS[reference](n, k)
    assert all(tracker.try_push(c) for c in base)
    certs, best = [], list(base)
    for count, word in enumerate(_preorder(tracker, k), start=1):
        if len(word) > len(best):
            best = word
        certs.append(SearchCertificate(n, k, len(best), render_word(best), False, count))
    return certs + [certs[-1]._replace(exhausted=True)]


_SMALL_TREES = [("zimin", 2, 3), ("zimin", 2, 4), ("zimin-oracle", 2, 3), ("zimin-oracle", 2, 4),
                ("abelian", 2, 3), ("abelian", 2, 4)]


@pytest.mark.parametrize("reference, n, k", _SMALL_TREES)
def test_search_matches_plain_preorder_at_every_budget(reference, n, k):
    expected = _reference(reference, n, k)
    mode = _mode(reference)
    assert longest_avoiding(n, k, mode=mode) == expected[-1]
    for budget, cert in enumerate(expected, start=1):
        assert longest_avoiding(n, k, mode=mode, max_nodes=budget) == cert, budget


@pytest.mark.parametrize("reference, n, k", _SMALL_TREES)
def test_worker_search_from_base_words_matches_plain_preorder(reference, n, k):
    # a walk may start from any avoiding word, canonical or not
    bases = [w for w in _preorder(_TRACKERS[reference](n, k), k) if 1 <= len(w) <= 3]
    for base in bases:
        expected = _reference(reference, n, k, base)
        for budget in [None, *range(1, len(expected) + 1)]:
            cert = expected[-1 if budget is None else budget - 1]
            tracker = search_module._make_tracker(_mode(reference), n, k)
            assert all(tracker.try_push(c) for c in base)
            got = search_module._depth_first(tracker, budget)
            expected_result = (cert.max_avoiding_length, cert.witness, cert.exhausted, cert.nodes_explored)
            assert got == expected_result, (base, budget)


def test_tracker_matches_index_recomputation():
    for n in (2, 3):
        for length in range(1, 11):
            for bits in itertools.product((0, 1), repeat=length):
                tracker = ZiminSuffixTracker(n, 2)
                rejected = False
                for c in bits:
                    if not tracker.try_push(c):
                        rejected = True
                        break
                assert rejected == (zimin_index_enumerated(bits) >= n)


def test_tracker_push_pop_consistency():
    tracker = ZiminSuffixTracker(3, 2)
    word = [0, 0, 1, 0, 0, 1, 0, 0]
    for c in word:
        assert tracker.try_push(c)
    for _ in range(4):
        tracker.pop()
    # re-extend along a different branch; results must match a fresh tracker
    for c in (1, 1, 0, 1):
        fresh = ZiminSuffixTracker(3, 2)
        ok_fresh = True
        for d in tracker.word + [c]:
            if not fresh.try_push(d):
                ok_fresh = False
                break
        assert tracker.try_push(c) == ok_fresh
        if not ok_fresh:
            break


def _levels_by_oracle(word):
    # L_j, the length of the shortest suffix of type >= j, for j = 1..top,
    # the highest type of a suffix
    types = [zimin_type_recursive(word[len(word) - length :]) for length in range(1, len(word) + 1)]
    return tuple(next(i for i, t in enumerate(types, 1) if t >= j) for j in range(1, max(types, default=0) + 1))


def _state(tracker):
    # the word, top, the number of levels of every position, the mirror, the
    # latest and the previous positions of the letters, and the tables of ends
    return (
        tracker.word[:],
        tracker.top,
        bytes(tracker._tops),
        bytes(tracker._text),
        tracker._last[:],
        tracker._prev[:],
        [{key: hits[:] for key, hits in ends.items()} for ends in tracker._ends],
    )


def _fresh_state(n, k, word):
    fresh = ZiminSuffixTracker(n, k)
    assert all(fresh.try_push(c) for c in word)
    return _state(fresh)


def _walk_against_oracle(rng, n, k, letters):
    # one random walk of pushes and pops, step by step against the oracle
    fast, slow = ZiminSuffixTracker(n, k), OracleSuffixTracker(n, k)
    max_len = rng.randrange(20, 61)
    for _ in range(150):
        if fast.word and (len(fast.word) >= max_len or rng.random() < 0.25):
            fast.pop()
            slow.pop()
        else:
            c = rng.choice(letters)
            assert fast.try_push(c) == slow.try_push(c), (n, k, fast.word, c)
        assert fast.word == slow.word
        # after a push, a refused push or a pop, the state is that of a
        # tracker built on the word from scratch
        levels = _levels_by_oracle(fast.word)
        assert fast.top == len(levels), (n, k, fast.word)
        if fast.word:
            # the levels of the last position above L_1 are the keys whose
            # lists hold it; an exact key is the level's letters before its last
            m = len(fast.word) - 1
            keys = [key for key, hits in fast._ends[fast.word[-1]].items() if m in hits]
            if all(isinstance(key, str) for key in keys):
                rebuilt = (1, *sorted(len(key) // fast._width + 1 for key in keys))
                assert rebuilt == levels, (n, k, fast.word)
        assert _state(fast) == _fresh_state(n, k, fast.word), (n, k, fast.word)


def test_tracker_random_walks_match_oracle():
    # Z_2 = x1 x2 x1: at n = 2 a push is refused as soon as the new suffix
    # has an earlier copy clear of it
    tracker = ZiminSuffixTracker(2, 2)
    assert tracker.try_push(0) and tracker.try_push(0) and tracker.try_push(1)
    assert not tracker.try_push(0)
    assert tracker.try_push(1)
    assert not tracker.try_push(0) and not tracker.try_push(1)
    assert _state(tracker) == _fresh_state(2, 2, [0, 0, 1, 1])
    rng = random.Random(20190215)
    for n in (2, 3, 4, 5):
        # 300 letters take two bytes each in the mirror, where the letters
        # 1, 256 hold the bytes of 257 across their boundary
        wide = (300, (0, 1, 255, 256, 257, 299), 1)
        for k, letters, walks in [(k, range(k), 6) for k in (1, 2, 3, 4)] + [wide]:
            for _ in range(walks):
                _walk_against_oracle(rng, n, k, letters)


def test_tracker_survives_hash_collisions(monkeypatch):
    # every key is hashed, and every hash is equal: each table of ends then
    # holds one list for all the level strings of its letter, and only the
    # check against the mirror tells a copy from a collision; no key names
    # its level's length, so the walks check top, the oracle's decisions and
    # the state of a fresh tracker
    monkeypatch.setattr(zimin_module, "_EXACT_KEY", 0)
    monkeypatch.setattr(zimin_module, "hash", lambda key: 0, raising=False)
    rng = random.Random(20191105)
    for n in (3, 4, 5):
        for k, letters, walks in [(k, range(k), 4) for k in (1, 2, 3)] + [(300, (0, 1, 256, 257), 1)]:
            for _ in range(walks):
                _walk_against_oracle(rng, n, k, letters)


def test_zimin_index_memory_does_not_grow_with_the_alphabet():
    # 4,000 distinct letters: no level above the first, so no table grows
    tracemalloc.start()
    try:
        assert zimin_index(tuple(range(4000))) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 30_000_000, peak


def _slots(tracker):
    # the state and the undo records
    return _state(tracker), [[hits[:] for hits in record[:-1]] + record[-1:] for record in tracker._undo]


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(1, 5),
    k=st.integers(1, 4),
    # each step: a letter to push, or None to pop
    steps=st.lists(st.one_of(st.none(), st.integers(0, 3)), max_size=120),
)
def test_tracker_push_pop_restores_the_state(n, k, steps):
    tracker = ZiminSuffixTracker(n, k)
    before = []  # the state before each accepted push on the path
    for step in steps:
        if step is None:
            if not tracker.word:
                continue
            tracker.pop()
            assert _state(tracker) == before.pop()[0]
        else:
            c = step % k
            snapshot = _slots(tracker)
            if tracker.try_push(c):
                before.append(snapshot)
            else:
                # a refused push changes nothing
                assert _slots(tracker) == snapshot
    assert _state(tracker) == _fresh_state(n, k, tracker.word)


def test_deep_search_memory_per_position():
    # a position keeps one byte for its top: 20,000 nodes of f(5, 2) reach
    # depth 19,916 within about 7.9 MB, where a tuple of levels per position
    # would take about 9.4 MB
    tracemalloc.start()
    try:
        longest_avoiding(5, 2, max_nodes=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8_500_000, peak


def test_deep_f52_search_pinned():
    cert = longest_avoiding(5, 2, max_nodes=20_000)
    assert (cert.max_avoiding_length, cert.nodes_explored, cert.exhausted) == (19_916, 20_000, False)
    assert hashlib.sha256(cert.witness.encode()).hexdigest() == (
        "d103dd4109cadaea724f68950ea87076e37db4092cd4d2524cbb19c6daf58303"
    )


def test_deep_f42_search_pinned():
    cert = longest_avoiding(4, 2, max_nodes=3000)
    assert cert.max_avoiding_length == 2378 and len(cert.witness) == 2378
    assert cert.nodes_explored == 3000 and not cert.exhausted
    assert zimin_index(cert.witness, max_length=None) == zimin_index_per_start(cert.witness) == 3


def test_checkpoint_resume_roundtrip(tmp_path):
    target = longest_avoiding(3, 2)
    ck = tmp_path / "run.json"
    cert = longest_avoiding(3, 2, max_nodes=700, checkpoint_path=str(ck))
    assert not cert.exhausted
    state = load_checkpoint(ck)
    assert state["n"] == 3 and state["k"] == 2 and state["nodes_explored"] == 700
    resumed = longest_avoiding(3, 2, checkpoint_path=str(ck), resume=True)
    assert resumed == target


def test_certificate_json_roundtrip():
    cert = longest_avoiding(2, 2)
    data = json.loads(json.dumps(cert.to_json()))
    assert SearchCertificate(**data) == cert


def test_match_probability_values():
    assert match_probability(2, 2) == Fraction(1, 2)
    assert match_probability(3, 2) == Fraction(1, 16)
    assert match_probability(1, 7) == 1
    assert match_probability(21, 2) == Fraction(1, 2 ** (2**21 - 22))
    with pytest.raises(ResourceLimitError):
        match_probability(40, 2, digit_cap=10**6)


def test_match_count_enumerations():
    assert match_count_enumerated(2, 2) == (4, 8)
    assert match_count_enumerated(3, 2) == (8, 128)
    count, total = match_count_enumerated(2, 3)
    assert Fraction(count, total) == match_probability(2, 3)
    with pytest.raises(ResourceLimitError):
        match_count_enumerated(4, 3)


def test_first_moment_quantities_refuse_a_huge_n_before_building_2_to_the_n():
    for quantity in (match_probability, first_moment_threshold, match_count_enumerated):
        with pytest.raises(ResourceLimitError):
            quantity(10**12, 2)


def test_first_moment_threshold_values():
    assert first_moment_threshold(2, 2) == 6
    assert first_moment_threshold(3, 2) == 24
    assert first_moment_threshold(2, 3) == 7


def test_counter_witness_bounds_ranked():
    report = counter_witness_bounds(3)
    assert report["ok"]
    assert report["zimin_indices"][0] == 2
    assert report["counter_length"] == 20 and report["tower"] == 4
    assert report["certifies"] == "f(3, 5) > 20"
    report4 = counter_witness_bounds(4)
    assert report4["ok"] and report4["zimin_indices"][0] == 3
    assert report4["counter_length"] == 336 and report4["tower"] == 16
    # the checked word's length, not the paper's tower
    assert report4["certifies"] == "f(4, 7) > 336"


def test_counter_witness_bounds_encoded():
    report = counter_witness_bounds(3, encoded=True)
    assert report["ok"]
    assert set(report["zimin_indices"]) == set(range(16))
    assert max(report["zimin_indices"].values()) <= 4
    assert report["encoded_length"] == 112
    assert report["certifies"] == "f(5, 2) > 112"


def test_counter_witness_bounds_encoded_order4_sample():
    # full order-4 runs cover 256 indices; two suffice to pin the shape
    report = counter_witness_bounds(4, encoded=True, indices=(0, 65535))
    assert report["ok"]
    assert report["encoded_length"] == 1952
    assert report["certifies"] == "f(6, 2) > 1952"
    assert max(report["zimin_indices"].values()) <= 5


def test_checkpoint_survives_crash_mid_write(tmp_path, monkeypatch):
    ck = tmp_path / "run.json"
    longest_avoiding(3, 2, max_nodes=300, checkpoint_path=str(ck))
    assert [p.name for p in tmp_path.iterdir()] == ["run.json"]
    before = ck.read_text()

    def crash(fd):
        os.ftruncate(fd, 18)  # only part of the new file reached the disk
        raise OSError("disk full")

    monkeypatch.setattr(os, "fsync", crash)
    with pytest.raises(OSError):
        longest_avoiding(3, 2, max_nodes=400, checkpoint_path=str(ck))
    assert ck.read_text() == before
    assert load_checkpoint(ck)["nodes_explored"] == 300


@pytest.mark.parametrize("mode, n, k", [("zimin", 2, 3), ("abelian", 2, 3)])
def test_checkpoint_resumes_at_every_budget(tmp_path, monkeypatch, mode, n, k):
    # with k = 3, renamed copies are counted below the root too, so budgets
    # end inside them, where every search stops at once and the file names
    # the copy's letter with the count before it
    target = longest_avoiding(n, k, mode=mode)
    ck = tmp_path / "run.json"
    tracker = _TRACKERS[mode]
    pushes = []
    push = tracker.try_push
    monkeypatch.setattr(tracker, "try_push", lambda self, c: pushes.append(c) or push(self, c))
    for budget in range(1, target.nodes_explored + 1):
        pushes.clear()
        plain = longest_avoiding(n, k, mode=mode, max_nodes=budget)
        unchecked = len(pushes)
        stopped = longest_avoiding(n, k, mode=mode, max_nodes=budget, checkpoint_path=str(ck))
        assert stopped == plain
        assert len(pushes) - unchecked == unchecked, budget
        assert load_checkpoint(ck)["nodes_explored"] <= budget
        resumed = longest_avoiding(n, k, mode=mode, max_nodes=budget, checkpoint_path=str(ck), resume=True)
        assert resumed == stopped, budget
        assert longest_avoiding(n, k, mode=mode, checkpoint_path=str(ck), resume=True) == target, budget
        if budget % 9 == 0:
            later = budget + 31
            resumed = longest_avoiding(n, k, mode=mode, max_nodes=later, checkpoint_path=str(ck), resume=True)
            assert resumed == longest_avoiding(n, k, mode=mode, max_nodes=later), budget


def test_periodic_checkpoints_pass_every_multiple(tmp_path, monkeypatch):
    # renamed copies jump over node counts; each multiple of CHECKPOINT_EVERY
    # is checkpointed at the first node entered at or past it
    target = longest_avoiding(2, 4)
    ck = tmp_path / "run.json"
    write = search_module._write_checkpoint
    copies = []

    def keep(path, *args):
        write(path, *args)
        copies.append(shutil.copy(path, tmp_path / f"copy{len(copies)}.json"))

    monkeypatch.setattr(search_module, "_write_checkpoint", keep)
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 10)
    assert longest_avoiding(2, 4, checkpoint_path=str(ck)) == target
    counts = [load_checkpoint(c)["nodes_explored"] for c in copies]
    assert counts == [10, 20, 82, 96, 100]  # counted copies jump from below 30 to 82
    monkeypatch.undo()
    for copy in copies:
        assert longest_avoiding(2, 4, checkpoint_path=str(copy), resume=True) == target


def test_periodic_checkpoint_at_a_depth_record_holds_the_best_word(tmp_path, monkeypatch):
    # the first nodes of f(4,2) are each a new depth record, where the best
    # word is the path
    ck = tmp_path / "run.json"
    write = search_module._write_checkpoint
    states = []

    def keep(path, *args):
        write(path, *args)
        states.append(load_checkpoint(path))

    monkeypatch.setattr(search_module, "_write_checkpoint", keep)
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 10)
    cert = longest_avoiding(4, 2, max_nodes=25, checkpoint_path=str(ck))
    assert [state["nodes_explored"] for state in states] == [10, 20, 25]
    for state in states:
        assert state["best_witness"] == state["path"] and state["best_length"] == len(state["path"])
    assert states[-1]["best_witness"] == cert.witness
    monkeypatch.undo()
    assert longest_avoiding(4, 2, max_nodes=25, checkpoint_path=str(ck), resume=True) == cert


def test_periodic_checkpoint_after_pops_from_a_record_holds_the_record(tmp_path, monkeypatch):
    # the path is back at the record's depth on another branch: the file
    # holds the record, the letters of which past the branch point the
    # search keeps apart from the path
    ck = tmp_path / "run.json"
    write = search_module._write_checkpoint
    copies = []

    def keep(path, *args):
        write(path, *args)
        copies.append(shutil.copy(path, tmp_path / f"copy{len(copies)}.json"))

    monkeypatch.setattr(search_module, "_write_checkpoint", keep)
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 7)
    plain = longest_avoiding(3, 2, max_nodes=100)
    assert longest_avoiding(3, 2, max_nodes=100, checkpoint_path=str(ck)) == plain
    monkeypatch.undo()
    apart = []
    for copy in copies:
        state = load_checkpoint(copy)
        if state["best_length"] == len(state["path"]) and state["best_witness"] != state["path"]:
            apart.append(state["nodes_explored"])
            assert state["best_witness"] < state["path"]
            assert longest_avoiding(3, 2, max_nodes=100, checkpoint_path=str(copy), resume=True) == plain
    assert apart == [28, 91]


def test_best_word_is_built_once_per_checkpoint_and_at_the_end(tmp_path, monkeypatch):
    # pops do not copy the path: a new depth record and the pops after it
    # cost O(1) each, however deep the walk
    slices = []

    class Word(list):
        def __getitem__(self, index):
            if isinstance(index, slice):
                slices.append(index)
            return super().__getitem__(index)

    write = search_module._write_checkpoint
    writes = []

    def keep(path, *args):
        writes.append(args[-2])
        write(path, *args)

    monkeypatch.setattr(search_module, "_write_checkpoint", keep)
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 5_000)
    for checkpoint_path in (None, str(tmp_path / "run.json")):
        slices.clear()
        tracker = ZiminSuffixTracker(5, 2)
        tracker.word = Word()
        best_len, best, exhausted, nodes = search_module._depth_first(
            tracker, 20_000, checkpoint_path=checkpoint_path, meta={}
        )
        assert (best_len, len(best), exhausted, nodes) == (19_916, 19_916, False, 20_000)
        assert len(slices) <= (len(writes) if checkpoint_path else 0) + 1
    assert writes == [5_000, 10_000, 15_000, 20_000]


def test_resume_writes_no_checkpoint_it_was_read_from(tmp_path, monkeypatch):
    ck = tmp_path / "run.json"
    monkeypatch.setattr(search_module, "CHECKPOINT_EVERY", 10)
    longest_avoiding(2, 4, max_nodes=20, checkpoint_path=str(ck))
    write = search_module._write_checkpoint
    counts = []

    def keep(path, *args):
        counts.append(args[-2])
        write(path, *args)

    monkeypatch.setattr(search_module, "_write_checkpoint", keep)
    longest_avoiding(2, 4, max_nodes=25, checkpoint_path=str(ck), resume=True)
    assert counts == [23]  # the stop before a renamed copy, not the node 20 it resumed at


@pytest.mark.parametrize(
    "field, value",
    [("path", None), ("best_length", None), ("best_witness", None), ("nodes_explored", None),
     ("path", 7), ("best_length", "12"), ("best_witness", 0), ("nodes_explored", True),
     ("best_length", 3), ("skip_state", None), ("skip_state", 0), ("skip_state", []),
     ("next_letter", None), ("next_letter", "0"), ("next_letter", -1),
     ("skip", None), ("skip", False), ("skip", -1)],
)
def test_checkpoint_schema_validated(tmp_path, field, value):
    ck = tmp_path / "run.json"
    longest_avoiding(3, 2, max_nodes=200, checkpoint_path=str(ck))
    data = json.loads(ck.read_text())
    if value is None:
        del data[field]
    else:
        data[field] = value
    ck.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        load_checkpoint(ck)
    with pytest.raises(ValueError):
        longest_avoiding(3, 2, checkpoint_path=str(ck), resume=True)


@pytest.mark.parametrize("value", [True, -201, 201, "0"])
def test_checkpoint_skip_state_entries_validated(tmp_path, value):
    ck = tmp_path / "run.json"
    longest_avoiding(3, 2, max_nodes=200, checkpoint_path=str(ck))
    data = json.loads(ck.read_text())
    data["skip_state"][-1] = value  # a signed node count, at most nodes_explored in size
    ck.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        longest_avoiding(3, 2, checkpoint_path=str(ck), resume=True)


def test_checkpoint_path_outside_alphabet_rejected(tmp_path):
    ck = tmp_path / "run.json"
    longest_avoiding(3, 2, max_nodes=200, checkpoint_path=str(ck))
    data = json.loads(ck.read_text())
    data["path"] = "0120"
    ck.write_text(json.dumps(data))
    with pytest.raises(ValueError):
        longest_avoiding(3, 2, checkpoint_path=str(ck), resume=True)


def test_checkpoint_next_letter_outside_alphabet_rejected(tmp_path):
    ck = _tampered_checkpoint(tmp_path, next_letter=2)
    with pytest.raises(ValueError, match="next_letter"):
        longest_avoiding(3, 2, checkpoint_path=str(ck), resume=True)


def _tampered_checkpoint(tmp_path, **fields):
    ck = tmp_path / "run.json"
    longest_avoiding(3, 2, max_nodes=500, checkpoint_path=str(ck))
    data = json.loads(ck.read_text())
    data.update(fields)
    ck.write_text(json.dumps(data))
    return ck


@pytest.mark.parametrize(
    "witness, length",
    [
        ("0" * 40, 40),  # encounters Z_3, so it would certify a false exact f
        ("0120", 4),  # a letter outside the alphabet
        ("0", 1),  # shorter than the path the checkpoint was written at
    ],
)
def test_resumed_best_witness_is_rechecked(tmp_path, witness, length):
    ck = _tampered_checkpoint(tmp_path, best_witness=witness, best_length=length)
    with pytest.raises(ValueError):
        longest_avoiding(3, 2, checkpoint_path=str(ck), resume=True)


@pytest.mark.parametrize(
    "fields",
    [
        # a letter present before the smallest absent one: its child u is untried
        {"skip_state": [-1, 3, 0, 0]},
        # the smallest absent letter: its subtree is open (the forged f(3,2) = 28)
        {"path": "011", "skip_state": [0, 0, 0], "best_witness": "011", "best_length": 3},
        {"skip_state": [2, 0, 0, 0]},
        # a letter above the smallest absent one must already occur
        {"path": "02", "skip_state": [-1, 0], "best_witness": "02", "best_length": 2, "k": 3},
        # the deepest node has not reached its child u
        {"skip": 2},
    ],
    ids=["below-u", "at-u", "at-u-positive", "absent-above-u", "deepest"],
)
def test_resume_refuses_skips_that_contradict_the_path(tmp_path, fields):
    # the f(3,2) checkpoint at 5 nodes: path 0000, skips [-1, 0, 0, 0]
    ck = tmp_path / "run.json"
    k = fields.get("k", 2)  # the file names k too
    longest_avoiding(3, k, max_nodes=5, checkpoint_path=str(ck))
    data = json.loads(ck.read_text())
    data.update(fields)
    ck.write_text(json.dumps(data))
    with pytest.raises(ValueError, match="skip"):
        longest_avoiding(3, k, max_nodes=1_000, checkpoint_path=str(ck), resume=True)


def test_resume_skip_rule_above_u_from_a_base_word():
    # from the non-canonical word 1 over three letters, u = 0 and the
    # present letter 1 follows its closed child 0, whose size is >= 0
    def resume(skip):
        tracker = ZiminSuffixTracker(3, 3)
        assert tracker.try_push(1)
        state = {"path": "11", "skip_state": [skip], "next_letter": 0, "skip": 0,
                 "best_length": 2, "best_witness": "11", "nodes_explored": 5}
        return search_module._depth_first(tracker, 5, resume=state)

    assert resume(0) == (2, "11", False, 5)
    with pytest.raises(ValueError, match="skip_state"):
        resume(-1)


def test_zero_budgets_are_allowed():
    # negative, NaN and infinite budgets are refused (see test_cli)
    assert longest_avoiding(3, 2, max_nodes=0).nodes_explored == 1
    assert isinstance(longest_avoiding(2, 2, max_seconds=0.0), SearchCertificate)


def test_checkpoint_is_synced_before_it_replaces_the_old_one(tmp_path, monkeypatch):
    calls = []
    fsync, replace = os.fsync, os.replace

    def record_fsync(fd):
        calls.append(("fsync", os.fstat(fd).st_ino))
        fsync(fd)

    def record_replace(src, dst):
        calls.append(("replace", os.path.basename(src)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", record_fsync)
    monkeypatch.setattr(os, "replace", record_replace)
    ck = tmp_path / "run.json"
    longest_avoiding(3, 2, max_nodes=300, checkpoint_path=str(ck))
    # the file is synced under its temporary name, then the directory after the rename
    assert calls == [("fsync", ck.stat().st_ino), ("replace", "run.json.tmp"), ("fsync", tmp_path.stat().st_ino)]


def test_budget_inside_a_renamed_copy_stops_at_once_without_a_checkpoint(tmp_path, monkeypatch):
    # a checkpointed run stops there too: its file names the copy's letter
    pushes = []
    push = ZiminSuffixTracker.try_push
    monkeypatch.setattr(ZiminSuffixTracker, "try_push", lambda self, c: pushes.append(c) or push(self, c))
    plain = longest_avoiding(2, 3, max_nodes=35)
    unchecked = len(pushes)
    assert longest_avoiding(2, 3, max_nodes=35, checkpoint_path=str(tmp_path / "run.json")) == plain
    assert (unchecked, len(pushes) - unchecked) == (41, 41)
