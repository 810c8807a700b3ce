import contextlib
import errno
import io
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ziminwords.cli import (
    EXIT_FAIL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    _decimal,
    _jsonable,
    _run_checks,
    main,
    run,
)
from ziminwords.coding import parses
from ziminwords.words import (
    DEFAULT_DIGIT_CAP,
    DEFAULT_INDEX_LENGTH_CAP,
    DEFAULT_SYMBOL_CAP,
    DEFAULT_ZIMIN_PATTERN_CAP,
)
from ziminwords.verify import CheckResult


def invoke(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out.strip()
    return code, json.loads(out) if out else None


def test_zimin_index_command(capsys):
    code, report = invoke(["zimin", "index", "baaabaaa"], capsys)
    assert code == EXIT_OK
    assert report["result"] == 3
    assert report["inputs"]["word"] == "baaabaaa"


def test_zimin_type_and_ranked(capsys):
    code, report = invoke(["zimin", "type", "0_1 0_2 1_1 0_2", "--ranked"], capsys)
    assert code == EXIT_OK and report["result"] == 1


def test_counters_make(capsys):
    code, report = invoke(["counters", "make", "--order", "2", "--index", "0"], capsys)
    assert code == EXIT_OK
    assert report["result"] == "0_1 0_2 1_1 0_2"


def test_counters_make_stream(capsys):
    code = main(["counters", "make", "--order", "1", "--index", "1", "--stream"])
    assert code == EXIT_OK
    assert capsys.readouterr().out == "1_1\n"


def test_counters_make_out_of_range(capsys):
    code, _ = invoke(["counters", "make", "--order", "2", "--index", "9"], capsys)
    assert code == EXIT_USAGE


def test_counters_make_over_cap(capsys):
    code, report = invoke(["counters", "make", "--order", "5", "--index", "0"], capsys)
    assert code == EXIT_RESOURCE
    assert "error" in report


def test_symbol_cap_flag_refuses_a_longer_counter(capsys):
    code, _ = invoke(["counters", "make", "--order", "2", "--index", "0", "--symbol-cap", "3"], capsys)
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize(
    "argv",
    [
        ["zimin", "index", "aaaa", "--length-cap", "0"],
        ["counters", "make", "--order", "2", "--index", "0", "--symbol-cap", "0"],
        ["abelian", "bounds", "--n", "2", "--k", "2", "--digit-cap", "0"],
        ["zimin", "unavoidable", "xyx", "--pattern-cap", "0"],
    ],
)
def test_cap_of_zero_is_honoured(argv):
    code, out, err = _run_in_process(argv)
    _assert_one_json_line(code, out, err)
    assert code == EXIT_RESOURCE


@pytest.mark.parametrize(
    "argv, cap, default",
    [
        (["zimin", "index", "abc"], "length_cap", DEFAULT_INDEX_LENGTH_CAP),
        (["zimin", "unavoidable", "xyx"], "pattern_cap", DEFAULT_ZIMIN_PATTERN_CAP),
        (["counters", "make", "--order", "2", "--index", "0"], "symbol_cap", DEFAULT_SYMBOL_CAP),
        (["search", "moment", "--n", "3", "--k", "2"], "digit_cap", DEFAULT_DIGIT_CAP),
        (["abelian", "bounds", "--n", "3", "--k", "2"], "digit_cap", DEFAULT_DIGIT_CAP),
    ],
)
def test_inputs_name_the_cap_the_run_applied(argv, cap, default):
    code, out, err = _run_in_process(argv)
    _assert_one_json_line(code, out, err)
    assert code == EXIT_OK
    assert json.loads(out)["inputs"][cap] == default


@pytest.mark.parametrize(
    "argv",
    [
        ["zimin", "index", "abc", "--length-cap", "-1"],
        ["zimin", "unavoidable", "xyx", "--pattern-cap", "-1"],
        ["counters", "make", "--order", "2", "--index", "0", "--symbol-cap", "-1"],
        ["search", "moment", "--n", "3", "--k", "2", "--digit-cap", "-1"],
        ["abelian", "bounds", "--n", "3", "--k", "2", "--digit-cap", "-1"],
    ],
)
def test_negative_cap_is_usage_error(argv):
    code, out, err = _run_in_process(argv)
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE
    assert "a cap is an integer of 0 or more, got '-1'" in json.loads(out)["error"]


@pytest.mark.parametrize(
    "argv",
    [["search", "bounds", "--order", "6", "--encoded", "--indices", "1"], ["psi", "encode", "--counter", "0,6"]],
)
def test_order_6_counters_are_over_the_symbol_cap(argv):
    # L_6 has more than 4,300 digits: the message names the order and the cap
    code, out, err = _run_in_process(argv)
    _assert_one_json_line(code, out, err)
    assert code == EXIT_RESOURCE
    assert json.loads(out)["error"] == "order-6 counters are longer than the cap of 10000000 symbols"


def test_enumeration_over_the_count_cap_names_the_length_not_the_count():
    # 2**16383 words: the count has more digits than str() prints
    code, out, err = _run_in_process(["search", "moment", "--n", "14", "--k", "2", "--enumerate"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_RESOURCE
    error = json.loads(out)["error"]
    assert len(error) < 200
    assert "words of length 2**14 - 1" in error and "the cap of 2000000" in error


@pytest.mark.parametrize("command", ["search moment", "abelian bounds"])
def test_huge_n_is_refused_before_2_to_the_n_is_built(command):
    start = time.perf_counter()
    code, out, err = _run_in_process([*command.split(), "--n", "1000000000000", "--k", "2"])
    assert time.perf_counter() - start < 1
    _assert_one_json_line(code, out, err)
    assert code == EXIT_RESOURCE


def test_search_f_small(capsys):
    code, report = invoke(["search", "f", "--n", "2", "--k", "2"], capsys)
    assert code == EXIT_OK
    assert report["f"] == 5
    assert report["certificate"]["witness"] == "0011"
    assert report["certificate"]["exhausted"] is True
    assert list(report["inputs"]) == [
        "budget_nodes", "budget_seconds", "checkpoint", "cmd", "k", "n", "resume", "search_cmd",
    ]


@pytest.mark.parametrize("flag", ["--parallel", "--split-depth", "--checkpoint-every", "--oracle"])
def test_search_f_has_one_serial_path(flag):
    code, out, err = _run_in_process(["search", "f", "--n", "2", "--k", "2", flag, "2"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE
    assert f"unrecognized arguments: {flag} 2" in json.loads(out)["error"]


def test_search_refuses_exact_value_on_budget(capsys):
    code, report = invoke(
        ["search", "f", "--n", "3", "--k", "2", "--budget-nodes", "100"], capsys
    )
    assert code == EXIT_RESOURCE
    assert report["f"] is None
    assert "refusing" in report["note"]


def test_search_f42_not_claimed(capsys):
    # f(4,2) is out of desk scale; a budgeted run must never print an exact f
    code, report = invoke(
        ["search", "f", "--n", "4", "--k", "2", "--budget-nodes", "3000"], capsys
    )
    assert code == EXIT_RESOURCE
    assert report["f"] is None
    assert report["certificate"]["exhausted"] is False


def test_search_output_deterministic(capsys):
    _, first = invoke(["search", "f", "--n", "2", "--k", "3"], capsys)
    _, second = invoke(["search", "f", "--n", "2", "--k", "3"], capsys)
    assert first == second


def test_abelian_g_command(capsys):
    code, report = invoke(["abelian", "g", "--n", "2", "--k", "2"], capsys)
    assert code == EXIT_OK
    assert report["g"] == 5
    # abelian g takes the flags of search f, and its inputs name them all
    assert list(report["inputs"]) == [
        "abelian_cmd", "budget_nodes", "budget_seconds", "checkpoint", "cmd", "k", "n", "resume",
    ]


def test_abelian_g_checkpoint_resumes_to_the_plain_certificate(tmp_path):
    ck = tmp_path / "g.json"
    g = ["abelian", "g", "--n=3", "--k=2"]
    code, plain, _ = _run_in_process([*g, "--budget-nodes=1000"])
    assert code == EXIT_RESOURCE
    assert _run_in_process([*g, "--budget-nodes=500", f"--checkpoint={ck}"])[0] == EXIT_RESOURCE
    assert json.loads(ck.read_text())["nodes_explored"] == 500
    code, resumed, err = _run_in_process([*g, "--budget-nodes=1000", f"--checkpoint={ck}", "--resume"])
    _assert_one_json_line(code, resumed, err)
    assert code == EXIT_RESOURCE
    assert json.loads(resumed)["certificate"] == json.loads(plain)["certificate"]
    assert json.loads(resumed)["inputs"]["resume"] is True
    # the resume reads its file: a missing one is a usage error
    code, out, err = _run_in_process([*g, f"--checkpoint={tmp_path / 'none.json'}", "--resume"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE


def test_abelian_bounds_command(capsys):
    code, report = invoke(["abelian", "bounds", "--n", "2", "--k", "2"], capsys)
    assert code == EXIT_OK
    assert report["lower_bound"] == 1
    assert report["upper_recurrence"] == 4
    # closed form 2^((4k)^n (n-1)!) = 2^64 at (2,2)
    assert report["upper_closed_form"] == str(2**64)


def test_search_bounds_command(capsys):
    code, report = invoke(["search", "bounds", "--order", "3"], capsys)
    assert code == EXIT_OK
    assert report["report"]["ok"] is True


def test_regular_check_identities(capsys):
    code, report = invoke(["regular", "check-identities"], capsys)
    assert code == EXIT_OK
    assert report["all_passed"] is True
    names = [c["name"] for c in report["checks"]]
    assert any("0000" in n for n in names)


def test_psi_commands(capsys):
    code, report = invoke(["psi", "encode", "1_2"], capsys)
    assert report["result"] == "110111"
    code, report = invoke(["psi", "parses", "0000"], capsys)
    assert code == EXIT_OK
    assert {"left": "", "center": "0_1", "right": ""} in report["result"]
    code, report = invoke(["psi", "simple", "0110100101"], capsys)
    assert report["result"] is True


def test_run_api_returns_report():
    code, report = run(["zimin", "type", "aba"])
    assert code == EXIT_OK
    assert report["result"] == 2


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ziminwords.cli", "zimin", "index", "bbaba"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == 2


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "ziminwords.cli", "zimin", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == EXIT_USAGE


def _cli(*argv, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "ziminwords.cli", *argv], capture_output=True, text=True, timeout=timeout
    )


def test_search_alphabet_too_large_is_usage_error():
    proc = _cli("search", "f", "--n", "2", "--k", "40")
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "k <= 36" in json.loads(proc.stdout)["error"]


def test_resume_from_checkpoint_without_path_is_usage_error(tmp_path):
    ck = tmp_path / "run.json"
    proc = _cli("search", "f", "--n", "3", "--k", "2", "--budget-nodes", "200", "--checkpoint", str(ck))
    assert proc.returncode == EXIT_RESOURCE
    data = json.loads(ck.read_text())
    del data["path"]
    ck.write_text(json.dumps(data))
    proc = _cli("search", "f", "--n", "3", "--k", "2", "--checkpoint", str(ck), "--resume")
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "'path'" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize("version", [1, 2])
def test_old_checkpoint_versions_are_usage_errors(tmp_path, version):
    ck = tmp_path / "run.json"
    search = ["search", "f", "--n=3", "--k=2", f"--checkpoint={ck}"]
    assert _run_in_process([*search, "--budget-nodes=200"])[0] == EXIT_RESOURCE
    data = json.loads(ck.read_text())
    data["version"] = version
    # version 1 had no skip_state, and neither version had next_letter or skip
    for key in ("skip_state", "next_letter", "skip")[version - 1 :]:
        del data[key]
    ck.write_text(json.dumps(data))
    code, out, err = _run_in_process([*search, "--resume"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE
    assert f"unsupported checkpoint version {version}" in json.loads(out)["error"]


def test_resume_without_a_checkpoint_is_usage_error():
    code, out, err = _run_in_process(["search", "f", "--n", "3", "--k", "2", "--resume"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE
    assert json.loads(out)["error"] == "resuming needs a checkpoint path"


def test_tampered_checkpoint_witness_is_usage_error(tmp_path):
    # a forged witness that encounters Z_3 must not become f: 41, exhausted
    ck = tmp_path / "run.json"
    search = ["search", "f", "--n=3", "--k=2", f"--checkpoint={ck}"]
    assert _run_in_process([*search, "--budget-nodes=500"])[0] == EXIT_RESOURCE
    data = json.loads(ck.read_text())
    data.update(best_witness="0" * 40, best_length=40)
    ck.write_text(json.dumps(data))
    code, out, err = _run_in_process([*search, "--resume"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE
    assert "best_witness" in json.loads(out)["error"]


def test_resumed_exact_value_notes_the_trusted_counts(tmp_path):
    # the resume checks the skips' signs but trusts their sizes and the node
    # count, so an exact value that rests on a checkpoint says so
    ck = tmp_path / "run.json"
    search = ["search", "f", "--n=3", "--k=2"]
    code, plain, _ = _run_in_process(search)
    assert code == EXIT_OK and "note" not in json.loads(plain)
    assert _run_in_process([*search, "--budget-nodes=20000", f"--checkpoint={ck}"])[0] == EXIT_RESOURCE
    code, out, err = _run_in_process([*search, f"--checkpoint={ck}", "--resume"])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_OK
    report = json.loads(out)
    assert (report["f"], report["certificate"]["nodes_explored"]) == (29, 77381)
    assert report["certificate"] == json.loads(plain)["certificate"]
    assert "node count and skip sizes" in report["note"]


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("budget", ["--budget-nodes=-5", "--budget-seconds=nan", "--budget-seconds=inf",
                                    "--budget-seconds=-1"])
@pytest.mark.parametrize("command", [["search", "f"], ["abelian", "g"]])
def test_budgets_that_are_not_counts_are_usage_errors(command, budget):
    code, out, err = _run_in_process([*command, "--n=4", "--k=2", "--budget-nodes=20000", budget])
    _assert_one_json_line(code, out, err)
    assert code == EXIT_USAGE
    report = json.loads(out, parse_constant=_reject_constant)
    assert "max_" in report["error"]


def test_pretty_follows_the_parsed_flag():
    # a word that reads "--pretty" is an argument, not the flag
    code, out, err = _run_in_process(["zimin", "type", "--", "--pretty"])
    assert code == EXIT_OK and json.loads(out)["result"] == 1
    assert err == ""
    code, out, err = _run_in_process(["--pretty", "zimin", "type", "aba"])
    assert code == EXIT_OK and err == "result: 2\n"


@pytest.mark.parametrize("value", ["1", "1,x", "1,2,3"])
def test_psi_encode_malformed_counter_is_usage_error(value):
    proc = _cli("psi", "encode", "--counter", value)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "INDEX,ORDER" in json.loads(proc.stdout)["error"]


def test_zimin_encounters_long_pattern_is_not_a_crash():
    proc = _cli("zimin", "encounters", "01" * 600, " ".join(["x1 x2"] * 550))
    assert proc.returncode == EXIT_OK
    assert "Traceback" not in proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"] is True and report["witness"] == {"x1": "0", "x2": "1"}


def test_counters_make_stream_out_of_range_is_usage_error():
    proc = _cli("counters", "make", "--order", "2", "--index", "4", "--stream")
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "out of range" in json.loads(proc.stdout)["error"]


def test_search_moment_respects_digit_cap():
    # the denominator 2^(2^40 - 41) has ~3.3e11 digits; unguarded, this never returns
    proc = _cli("search", "moment", "--n", "40", "--k", "2", timeout=30)
    assert proc.returncode == EXIT_RESOURCE
    assert "Traceback" not in proc.stderr
    assert "digit" in json.loads(proc.stdout)["error"]


def test_report_integers_render_as_str():
    # below str()'s default limit of 4,300 digits, so str() is the reference
    rng = random.Random(631300)
    values = [0, 1, 2**53, 2**3000, 2**3001 - 1, 10**1000, 10**4000 - 1]
    values += [rng.getrandbits(rng.randrange(1, 14_000)) for _ in range(200)]
    for x in values:
        assert _decimal(x) == str(x) and _decimal(-x) == str(-x)
    assert _jsonable(Fraction(-(3**4000), 2**14_000 + 1)) == f"{-(3**4000)}/{2**14_000 + 1}"


@pytest.mark.parametrize("word", ["012", "01201201201"])
def test_psi_simple_non_binary_is_usage_error(word):
    proc = _cli("psi", "simple", word)
    assert proc.returncode == EXIT_USAGE
    assert "Traceback" not in proc.stderr
    assert "'2'" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize(
    "word, stdout",
    [
        ("0000002", """{"command": "psi", "error": "symbol '2' not in alphabet ('0', '1')"}\n"""),
        ("1111x", """{"command": "psi", "error": "symbol 'x' not in alphabet ('0', '1')"}\n"""),
        ("0101012", """{"command": "psi", "error": "symbol '2' not in alphabet ('0', '1')"}\n"""),
        ("0110002", """{"command": "psi", "error": "symbol '2' not in alphabet ('0', '1')"}\n"""),
        ("10010x2", """{"command": "psi", "error": "symbol 'x' not in alphabet ('0', '1')"}\n"""),
    ],
)
def test_psi_parses_non_binary_is_usage_error(word, stdout):
    # in the last two words every L and R scan stops at a dead state before
    # the first bad symbol, so only the up-front alphabet check rejects them
    with pytest.raises(ValueError):
        parses(word)
    code, out, err = _run_in_process(["psi", "parses", word])
    assert code == EXIT_USAGE
    assert out == stdout
    assert "Traceback" not in err


def test_psi_simple_and_parses_name_a_bad_symbol_alike():
    simple, parsed = _run_in_process(["psi", "simple", "0000002"]), _run_in_process(["psi", "parses", "0000002"])
    assert simple == parsed
    assert simple[:2] == (EXIT_USAGE, """{"command": "psi", "error": "symbol '2' not in alphabet ('0', '1')"}\n""")


def test_psi_parses_stdout_is_pinned():
    code, out, err = _run_in_process(["psi", "parses", "0000000000"])
    assert code == EXIT_OK
    assert out == (
        '{"command": "psi", "inputs": {"cmd": "psi", "psi_cmd": "parses", "word": "0000000000"}, '
        '"result": [{"left": "", "center": "0_1 0_1", "right": "00"}, '
        '{"left": "0", "center": "0_1 0_1", "right": "0"}, '
        '{"left": "00", "center": "0_1 0_1", "right": ""}, '
        '{"left": "000", "center": "0_1", "right": "000"}], "count": 4}\n'
    )


class _ClosedPipe(io.StringIO):
    """A stdout whose reader has gone: every write raises BrokenPipeError."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(errno.EPIPE, "Broken pipe")

    def fileno(self):
        return self.fd


def _closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["zimin", "index", "0101"], EXIT_OK),
        (["counters", "make", "--order", "2", "--index", "9"], EXIT_USAGE),
        (["counters", "make", "--order", "3", "--index", "0", "--stream"], EXIT_OK),
    ],
)
def test_closed_stdout_keeps_the_exit_code(argv, expected):
    fd = _closed_pipe()
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(_ClosedPipe(fd)), contextlib.redirect_stderr(err):
            code = main(argv)
        # main pointed the descriptor at devnull, so the flush at exit is silent
        assert os.write(fd, b"x") == 1
    finally:
        os.close(fd)
    assert code == expected
    assert err.getvalue() == ""


def test_check_lines_on_a_closed_stdout_keep_the_verdict():
    fd = _closed_pipe()
    try:
        checks = [CheckResult("holds", True), CheckResult("breaks", False)]
        report, code = _run_checks(checks, _ClosedPipe(fd))
    finally:
        os.close(fd)
    assert code == EXIT_FAIL and report["all_passed"] is False


@pytest.mark.parametrize(
    "argv", [["zimin", "index", "0101"], ["counters", "make", "--order", "5", "--index", "0", "--stream"]]
)
def test_closed_pipe_prints_no_traceback(argv):
    # as `ziminwords ... | head -c 0`: the reader is gone before the first
    # write; the order-5 stream would run to 22,085,632 lines.  stdout is
    # block-buffered, as by default, so the report fails at its flush
    read_end, write_end = os.pipe()
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    proc = subprocess.Popen(
        [sys.executable, "-m", "ziminwords.cli", *argv], stdout=write_end, stderr=subprocess.PIPE, text=True, env=env
    )
    os.close(write_end)
    os.close(read_end)
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_OK
    assert err == ""


def test_counters_check_order_5_is_refused():
    # all tau(5) = 2^65536 counters would be built; unguarded, this never returns
    proc = _cli("counters", "check", "--order", "5", timeout=30)
    assert proc.returncode == EXIT_RESOURCE
    assert "Traceback" not in proc.stderr
    assert "tau(5)" in json.loads(proc.stdout)["error"]


@pytest.mark.parametrize(
    "argv", [["--order=3", "--indices=0"], ["--order=3", "--indices=-2"], ["--order=4", "--encoded", "--indices=0"]]
)
def test_search_bounds_nonpositive_indices_is_usage_error(argv):
    code, out, err = _run_in_process(["search", "bounds", *argv])
    assert code == EXIT_USAGE
    _assert_one_json_line(code, out, err)
    assert "--indices takes a positive count" in json.loads(out)["error"]


def test_check_lines_follow_redirected_stderr():
    code, out, err = _run_in_process(["counters", "check", "--order", "3"])
    assert code == EXIT_OK
    passes = [line for line in err.splitlines() if line.startswith("PASS")]
    assert len(passes) == len(json.loads(out)["checks"]) > 0


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _assert_one_json_line(code, out, err):
    assert code in (0, 1, 2, 3)
    assert out.endswith("\n") and out.count("\n") == 1
    assert isinstance(json.loads(out), dict)
    assert "Traceback" not in err


@settings(max_examples=120, deadline=None)
@given(order=st.integers(max_value=5), index=st.integers())
def test_fuzz_counters_make(order, index):
    _assert_one_json_line(*_run_in_process(["counters", "make", f"--order={order}", f"--index={index}"]))


@settings(max_examples=120, deadline=None)
@given(
    text=st.one_of(
        st.text(),
        st.builds(lambda i, o: f"{i},{o}", st.integers(min_value=-3), st.integers(min_value=-2, max_value=6)),
    )
)
def test_fuzz_psi_encode_counter(text):
    _assert_one_json_line(*_run_in_process(["psi", "encode", f"--counter={text}"]))


def _optional_flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [f"--{name}={v}"]))


_small_int = st.integers(min_value=-2, max_value=8)
_word = st.text(alphabet="01ab", max_size=12)
_pattern = st.one_of(
    st.text(alphabet="xyz", max_size=4),
    st.lists(st.sampled_from(["x1", "x2", "x3", "x0", "y", "7"]), max_size=4).map(" ".join),
)


@st.composite
def _search_bounds(draw):
    order = draw(st.integers(-1, 5))
    encoded = draw(st.booleans())
    if encoded and order == 4:
        # by default encoded order 4 checks all 256 counters, about 30 s
        indices = [f"--indices={draw(st.integers(1, 3))}"]
    else:
        indices = draw(_optional_flag("indices", st.integers(0, 3)))
    return ["search", "bounds", f"--order={order}", *indices, *(["--encoded"] if encoded else [])]


# searches are always budgeted: an unbudgeted f(4,2) search never ends
_budget = st.integers(max_value=200)
_cli_commands = st.one_of(
    _word.map(lambda w: ["zimin", "type", w]),
    st.builds(lambda w, cap: ["zimin", "index", w, *cap], _word, _optional_flag("length-cap", _small_int)),
    st.builds(lambda w, p: ["zimin", "encounters", w, p], _word, _pattern),
    st.builds(
        lambda p, cap: ["zimin", "unavoidable", p, *cap], _pattern, _optional_flag("pattern-cap", _small_int)
    ),
    st.builds(
        lambda n, k, b: ["search", "f", f"--n={n}", f"--k={k}", f"--budget-nodes={b}"],
        _small_int, st.integers(min_value=-1, max_value=40), _budget,
    ),
    st.builds(
        lambda n, k, b: ["abelian", "g", f"--n={n}", f"--k={k}", f"--budget-nodes={b}"],
        _small_int, _small_int, _budget,
    ),
    st.builds(
        lambda n, k, cap: ["search", "moment", f"--n={n}", f"--k={k}", *cap],
        _small_int, st.integers(min_value=-1, max_value=50), _optional_flag("digit-cap", st.integers(-1, 100)),
    ),
    st.builds(
        lambda n, k, cap: ["abelian", "bounds", f"--n={n}", f"--k={k}", *cap],
        _small_int, _small_int, _optional_flag("digit-cap", st.integers(-1, 100)),
    ),
    st.builds(
        lambda cmd, w: ["psi", cmd, w], st.sampled_from(["parses", "simple"]), st.text(alphabet="01a", max_size=40)
    ),
    _search_bounds(),
    st.sampled_from([-1, 0, 1, 2, 3, 5, 6, 7]).map(lambda order: ["counters", "check", f"--order={order}"]),
    st.sampled_from([["regular"], ["regular", "check-identities"], ["regular", "nonsense"]]),
)


@settings(max_examples=200, deadline=None)
@given(argv=_cli_commands)
def test_fuzz_query_commands(argv):
    _assert_one_json_line(*_run_in_process(argv))
