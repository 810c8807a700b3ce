import itertools

import pytest

from ziminwords import verify
from ziminwords.cli import EXIT_FAIL, EXIT_OK, run
from ziminwords.counters import counter
from ziminwords.verify import (
    CheckResult,
    check_boundary_theorem,
    check_characterization,
    check_counter_structure,
    check_counter_zimin_exact,
    check_counter_zimin_for_order,
    check_f32,
    check_infix_code,
    check_log_bound,
    check_match_probabilities,
    check_regular_identities,
    check_simple_infix_bound,
    check_small_f_table,
    check_zimin_oracles,
    run_suite,
)
from ziminwords.words import sym
from ziminwords.zimin import ZiminSuffixTracker, zimin_index, zimin_type


def test_check_result_lines():
    assert CheckResult("x", True).line() == "PASS  x"
    assert CheckResult("x", False, "why").line() == "FAIL  x  [why]"


def test_regular_identity_checks_pass():
    results = check_regular_identities()
    assert len(results) == 3
    assert all(r.passed for r in results)
    assert "001, 011" in results[-1].details


def test_counter_structure_checks_pass():
    for order in (1, 2, 3):
        assert all(r.passed for r in check_counter_structure(order))


@pytest.mark.parametrize("copies", [0, 2])
def test_counter_structure_notices_a_sub_counter_not_found_exactly_once(monkeypatch, copies):
    # order-1 counter 0 made to occur twice in order-2 counter 0, or nowhere
    real = verify.counter_stream

    def stream(i, order):
        if (i, order) == (0, 2) and copies == 2:
            return itertools.chain(real(0, 2), real(0, 1))
        if (i, order) == (0, 1) and copies == 0:
            return iter([sym(0, 5)])
        return real(i, order)

    monkeypatch.setattr(verify, "counter_stream", stream)
    results = {r.name: r.passed for r in check_counter_structure(2)}
    assert results["order 2: every order-1 counter occurs exactly once"] is False


def test_counter_zimin_per_order():
    for order in (1, 2, 3):
        assert check_counter_zimin_for_order(order).passed
    assert check_counter_zimin_for_order(4, indices=range(8)).passed


def test_boundary_theorem_order2():
    results = check_boundary_theorem((2,))
    assert all(r.passed for r in results)
    assert "max observed 3" in results[0].details


def test_incremental_tracker_check():
    assert all(r.passed for r in check_zimin_oracles(max_len=8))


def test_log_bound_check():
    assert check_log_bound(samples=200).passed


def test_small_f_table_checks():
    assert all(r.passed for r in check_small_f_table())


@pytest.mark.parametrize(
    "check",
    [
        check_infix_code,
        check_characterization,
        check_simple_infix_bound,
        check_f32,
        check_match_probabilities,
    ],
)
def test_fast_checks_pass(check):
    results = check()
    results = results if isinstance(results, list) else [results]
    assert results and all(r.passed for r in results)


def test_abelian_oracles_command():
    # check_abelian_suite, through the command
    code, report = run(["abelian", "oracles"])
    assert code == EXIT_OK and report["all_passed"] is True


@pytest.fixture
def fast_parse_checks(monkeypatch):
    # about 2.4 s each; criteria 07 and 08 check the same lemmas
    for name in ("check_parse_counts_and_uniqueness", "check_occurrence_bijection"):
        monkeypatch.setattr(verify, name, lambda name=name: [CheckResult(name, True)])


def test_small_suite_passes(fast_parse_checks):
    results = run_suite("small")
    assert results and all(r.passed for r in results)


def test_psi_lemmas_command(fast_parse_checks):
    code, report = run(["psi", "verify-lemmas"])
    assert code == EXIT_OK and report["all_passed"] is True
    assert len(report["checks"]) == 5


def test_verify_command_reports_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr(
        verify, "run_suite", lambda scale: [CheckResult("holds", True), CheckResult(scale, False)]
    )
    code, report = run(["verify", "--lines"])
    assert code == EXIT_FAIL and report["all_passed"] is False
    assert capsys.readouterr().out.splitlines() == ["PASS  holds", "FAIL  small"]


def test_run_suite_rejects_bad_scale():
    with pytest.raises(ValueError):
        run_suite("medium")


def _failing(results):
    return [r.name.split(" ")[0] for r in results if not r.passed]


def test_zimin_pass_flags_a_wrong_index(monkeypatch):
    monkeypatch.setattr(verify, "zimin_index", lambda w: zimin_index(w) + (w == "0110"))
    assert _failing(check_zimin_oracles(max_len=8)) == ["zimin_index"]


def test_zimin_pass_flags_a_wrong_type(monkeypatch):
    monkeypatch.setattr(verify, "zimin_type", lambda w: zimin_type(w) + (w == "10101"))
    assert _failing(check_zimin_oracles(max_len=8)) == ["zimin_type"]


def test_zimin_pass_flags_a_wrong_tracker(monkeypatch):
    class Tracker(ZiminSuffixTracker):
        # accepts the last letter of 0100010 = Z_3(0, 1, 0), which closes Z_3
        def try_push(self, c):
            return super().try_push(c) or self.word == [0, 1, 0, 0, 0, 1]

    monkeypatch.setattr(verify, "ZiminSuffixTracker", Tracker)
    assert _failing(check_zimin_oracles(max_len=8)) == ["incremental"]


def test_counter_index_checks_flag_a_wrong_index(monkeypatch):
    wrong = counter(5, 3)
    monkeypatch.setattr(
        verify, "zimin_index", lambda w, max_length=None: zimin_index(w, max_length) - (w == wrong)
    )
    assert not check_counter_zimin_for_order(3).passed
    results = check_counter_zimin_exact(range(1))
    assert [r.name for r in results if not r.passed] == [
        "order 3: counter Zimin indices match the theorem (all 2)"
    ]
