"""Command line interface.

One subcommand tree per module: zimin, counters, psi, regular, search,
abelian, verify.  Machine-readable JSON goes to stdout (fixed key order,
byte-identical across runs for identical inputs and budgets); pass
--pretty for human-readable lines on stderr.  --timing adds wall-clock
seconds to the report and is the one switch that breaks byte-identity.

Exit codes: 0 success/PASS, 1 property FAIL, 2 usage error, 3 budget or
resource exhaustion.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from numbers import Rational

from .errors import ResourceLimitError
from .words import (
    DEFAULT_DIGIT_CAP,
    DEFAULT_INDEX_LENGTH_CAP,
    DEFAULT_ZIMIN_PATTERN_CAP,
    RankedWord,
)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _decimal(x: int) -> str:
    """str(x) in quasi-linear time, for the tower-sized report values that
    the digit caps allow: str() is quadratic in the digit count and refuses
    more than 4,300 digits by default.

    x = hi * 2^w + lo is converted half by half, and the halves are joined
    by decimal's exact arithmetic, whose multiplication is quasi-linear.
    """
    import decimal

    if x < 0:
        return "-" + _decimal(-x)
    ctx = decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
    powers: dict[int, decimal.Decimal] = {}

    def convert(n: int, bits: int) -> decimal.Decimal:
        if bits <= 3000:
            return decimal.Decimal(n)
        w = bits >> 1
        if w not in powers:
            powers[w] = ctx.power(decimal.Decimal(2), w)
        hi = n >> w
        return ctx.add(ctx.multiply(convert(hi, bits - w), powers[w]), convert(n - (hi << w), w))

    return str(convert(x, x.bit_length()))


def _jsonable(x):
    # a Fraction, tested without importing fractions, which only the
    # commands that make one load
    if isinstance(x, Rational) and not isinstance(x, int):
        return f"{_decimal(x.numerator)}/{_decimal(x.denominator)}"
    if isinstance(x, int) and abs(x) >= 2**53:
        return _decimal(x)
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, range)):
        return [_jsonable(v) for v in x]
    if isinstance(x, RankedWord):
        return str(x)
    return x


def _word_arg(args):
    if getattr(args, "ranked", False):
        return RankedWord.parse(args.word)
    return args.word


def _silence(stream):
    """After a BrokenPipeError on stream: its reader has gone, as in `| head`.
    Point its descriptor at devnull, as the signal module's docs advise, so
    that later writes and the flush at exit stay silent and the exit code is
    the run's own."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _run_checks(checks, stream=None) -> tuple[dict, int]:
    """Print the PASS/FAIL lines (stderr by default) and build the report."""
    stream = stream or sys.stderr
    try:
        for c in checks:
            print(c.line(), file=stream)
    except BrokenPipeError:
        _silence(stream)
    report = {
        "checks": [
            {"name": c.name, "passed": c.passed, "details": c.details} for c in checks
        ],
        "all_passed": all(c.passed for c in checks),
    }
    return report, EXIT_OK if report["all_passed"] else EXIT_FAIL


# ---------------------------------------------------------------------------
# handlers


def _cmd_zimin(args):
    from .zimin import Pattern, encounters, is_unavoidable, zimin_index, zimin_type

    if args.zimin_cmd == "type":
        return {"result": zimin_type(_word_arg(args))}, EXIT_OK
    if args.zimin_cmd == "index":
        cap = DEFAULT_INDEX_LENGTH_CAP if args.length_cap is None else args.length_cap
        return {"result": zimin_index(_word_arg(args), max_length=cap)}, EXIT_OK
    if args.zimin_cmd == "encounters":
        pattern = Pattern.parse(args.pattern)
        got = encounters(_word_arg(args), pattern)
        if got is None:
            return {"result": False}, EXIT_OK
        offset, witness = got
        return {
            "result": True,
            "offset": offset,
            "witness": {f"x{v}": img for v, img in sorted(witness.assignment.items())},
        }, EXIT_OK
    if args.zimin_cmd == "unavoidable":
        cap = DEFAULT_ZIMIN_PATTERN_CAP if args.pattern_cap is None else args.pattern_cap
        return {"result": is_unavoidable(Pattern.parse(args.pattern), cap=cap)}, EXIT_OK
    raise AssertionError


def _cmd_counters(args):
    from .counters import DEFAULT_SYMBOL_CAP, counter, counter_stream

    if args.counters_cmd == "make":
        if args.stream:
            try:
                for s in counter_stream(args.index, args.order):
                    sys.stdout.write(f"{s}\n")
            except BrokenPipeError:
                _silence(sys.stdout)
            return None, EXIT_OK
        cap = DEFAULT_SYMBOL_CAP if args.symbol_cap is None else args.symbol_cap
        w = counter(args.index, args.order, symbol_cap=cap)
        return {"result": str(w), "length": len(w)}, EXIT_OK
    if args.counters_cmd == "check":
        from .verify import check_counter_zimin_for_order, counter_suite

        return _run_checks(counter_suite(args.order) + [check_counter_zimin_for_order(args.order)])
    raise AssertionError


def _counter_arg(text: str) -> tuple[int, int]:
    index, _, order = text.partition(",")
    try:
        return int(index), int(order)
    except ValueError:
        raise ValueError(f"--counter takes INDEX,ORDER (two integers, e.g. 5,3), got {text!r}") from None


def _cmd_psi(args):
    from .coding import encoded_counter, is_simple, parses, psi

    if args.psi_cmd == "encode":
        if args.counter:
            index, order = _counter_arg(args.counter)
            return {"result": encoded_counter(index, order)}, EXIT_OK
        return {"result": psi(RankedWord.parse(args.word))}, EXIT_OK
    if args.psi_cmd == "parses":
        found = parses(args.word)
        return {
            "result": [
                {"left": p.left, "center": str(p.center), "right": p.right} for p in found
            ],
            "count": len(found),
        }, EXIT_OK
    if args.psi_cmd == "simple":
        return {"result": is_simple(args.word)}, EXIT_OK
    if args.psi_cmd == "verify-lemmas":
        from .verify import psi_suite

        return _run_checks(psi_suite(args.scale))
    raise AssertionError


def _cmd_regular(args):
    from .verify import check_regular_identities

    return _run_checks(check_regular_identities())


def _certificate_report(cert, value_name, resumed):
    value = cert.implied_f()
    report = {
        "certificate": cert.to_json(),
        value_name: value,
        f"{value_name}_lower_bound": cert.f_lower_bound(),
    }
    if value is None:
        report["note"] = (
            "search not exhausted: refusing to claim an exact value; "
            f"only {value_name} > {cert.max_avoiding_length} is certified"
        )
        return report, EXIT_RESOURCE
    if resumed:
        # a resume replays the witness and checks the sign of each skip, but
        # does not re-walk the subtrees the checkpoint counts as explored
        report["note"] = (
            f"resumed from a checkpoint: the exact {value_name} also rests on the "
            "checkpoint's node count and skip sizes, which the resume does not re-walk"
        )
    return report, EXIT_OK


def _cmd_search(args):
    from .search import longest_avoiding

    cert = longest_avoiding(
        args.n,
        args.k,
        max_nodes=args.budget_nodes,
        max_seconds=args.budget_seconds,
        checkpoint_path=args.checkpoint,
        resume=args.resume,
    )
    return _certificate_report(cert, "f", args.resume)


def _cmd_abelian(args):
    from . import abelian as ab

    if args.abelian_cmd == "g":
        resume = getattr(args, "resume", False)
        value, cert = ab.g_value(
            args.n,
            args.k,
            max_nodes=args.budget_nodes,
            max_seconds=args.budget_seconds,
            checkpoint_path=getattr(args, "checkpoint", None),
            resume=resume,
        )
        return _certificate_report(cert, "g", resume)
    if args.abelian_cmd == "bounds":
        cap = DEFAULT_DIGIT_CAP if args.digit_cap is None else args.digit_cap
        report = {
            "n": args.n,
            "k": args.k,
            "lower_bound": ab.g_lower_bound(args.n, args.k, cap) if args.n >= 2 else None,
            "upper_closed_form": ab.g_upper_bound(args.n, args.k, cap),
            "upper_recurrence": ab.g_upper_recurrence(args.n, args.k, cap),
        }
        return report, EXIT_OK
    if args.abelian_cmd == "oracles":
        from .verify import check_abelian_suite

        return _run_checks(check_abelian_suite())
    raise AssertionError


def _cmd_bounds(args):
    from .search import counter_witness_bounds

    if args.indices is not None and args.indices <= 0:
        raise ValueError(f"--indices takes a positive count N (indices 0..N-1), got {args.indices}")
    return {
        "report": counter_witness_bounds(
            args.order,
            encoded=args.encoded,
            indices=range(args.indices) if args.indices else None,
        )
    }, EXIT_OK


def _cmd_moment(args):
    from .search import first_moment_threshold, match_count_enumerated, match_probability

    cap = DEFAULT_DIGIT_CAP if args.digit_cap is None else args.digit_cap
    report = {
        "match_probability": match_probability(args.n, args.k, cap),
        "first_moment_threshold": first_moment_threshold(args.n, args.k, cap),
    }
    if args.enumerate:
        count, total = match_count_enumerated(args.n, args.k)
        report["enumeration"] = {"matching": count, "total": total}
    return report, EXIT_OK


def _cmd_verify(args):
    from .verify import run_suite

    return _run_checks(run_suite(args.scale), sys.stdout if args.lines else None)


# ---------------------------------------------------------------------------
# parser


class _UsageError(Exception):
    pass


def _cap(text: str) -> int:
    """The type of the cap flags: an integer of 0 or more (0 is a cap too)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"a cap is an integer of 0 or more, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    """Turns a malformed command line into an exception that ``run``
    reports like any other usage error, rather than exiting inside
    ``parse_args``; its subparsers are of this class too."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(f"{self.prog}: error: {message}")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="ziminwords", description="Zimin patterns, counters, codings, searches."
    )
    top.add_argument("--pretty", action="store_true", help="human-readable lines on stderr")
    top.add_argument("--timing", action="store_true", help="add wall-clock seconds to the report")
    sub = top.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("zimin", help="Zimin type/index, encounters, unavoidability")
    zsub = p.add_subparsers(dest="zimin_cmd", required=True)
    for name in ("type", "index"):
        q = zsub.add_parser(name)
        q.add_argument("word")
        q.add_argument("--ranked", action="store_true", help="parse the word as ranked text")
        if name == "index":
            q.add_argument(
                "--length-cap",
                type=_cap,
                default=None,
                help=f"refuse longer words with exit 3 (default {DEFAULT_INDEX_LENGTH_CAP}: "
                "a periodic word of that length takes about 0.4 s)",
            )
        q.set_defaults(handler=_cmd_zimin)
    q = zsub.add_parser("encounters")
    q.add_argument("word")
    q.add_argument("pattern")
    q.add_argument("--ranked", action="store_true")
    q.set_defaults(handler=_cmd_zimin)
    q = zsub.add_parser("unavoidable")
    q.add_argument("pattern")
    q.add_argument(
        "--pattern-cap",
        type=_cap,
        default=None,
        help="refuse patterns with more distinct variables with exit 3 "
        f"(default {DEFAULT_ZIMIN_PATTERN_CAP})",
    )
    q.set_defaults(handler=_cmd_zimin)

    p = sub.add_parser("counters", help="build and check higher-order counters")
    csub = p.add_subparsers(dest="counters_cmd", required=True)
    q = csub.add_parser("make")
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--index", type=int, required=True)
    q.add_argument("--stream", action="store_true", help="stream symbols, one per line")
    q.add_argument("--symbol-cap", type=_cap, default=None)
    q.set_defaults(handler=_cmd_counters)
    q = csub.add_parser("check")
    q.add_argument("--order", type=int, required=True)
    q.set_defaults(handler=_cmd_counters)

    p = sub.add_parser("psi", help="binary coding and parses")
    psub = p.add_subparsers(dest="psi_cmd", required=True)
    q = psub.add_parser("encode")
    q.add_argument("word", nargs="?", default="")
    q.add_argument("--counter", help="encode a counter, as INDEX,ORDER")
    q.set_defaults(handler=_cmd_psi)
    for name in ("parses", "simple"):
        q = psub.add_parser(name)
        q.add_argument("word")
        q.set_defaults(handler=_cmd_psi)
    q = psub.add_parser("verify-lemmas")
    q.add_argument("--scale", choices=("small", "full"), default="small")
    q.set_defaults(handler=_cmd_psi)

    p = sub.add_parser("regular", help="regular-language identities")
    rsub = p.add_subparsers(dest="regular_cmd", required=True)
    q = rsub.add_parser("check-identities")
    q.set_defaults(handler=_cmd_regular)

    p = sub.add_parser("search", help="exhaustive avoidance search")
    ssub = p.add_subparsers(dest="search_cmd", required=True)
    q = ssub.add_parser("f")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument(
        "--budget-nodes",
        type=int,
        default=None,
        help="stop after this many nodes; a deep run holds about 550 bytes per letter "
        "of depth (103 MB at depth 158,835)",
    )
    q.add_argument("--budget-seconds", type=float, default=None)
    q.add_argument("--checkpoint", default=None)
    q.add_argument("--resume", action="store_true")
    q.set_defaults(handler=_cmd_search)
    q = ssub.add_parser("bounds", help="counter-based lower-bound certificates")
    q.add_argument("--order", type=int, required=True)
    q.add_argument("--encoded", action="store_true")
    q.add_argument("--indices", type=int, default=None, help="check indices 0..N-1")
    q.set_defaults(handler=_cmd_bounds)
    q = ssub.add_parser("moment", help="first-moment quantities")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--enumerate", action="store_true")
    q.add_argument("--digit-cap", type=_cap, default=None)
    q.set_defaults(handler=_cmd_moment)

    p = sub.add_parser("abelian", help="abelian encounters, g(n,k), bounds")
    asub = p.add_subparsers(dest="abelian_cmd", required=True)
    q = asub.add_parser("g")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--budget-nodes", type=int, default=None)
    q.add_argument("--budget-seconds", type=float, default=None)
    # under the report's inputs only when given: the report of a run
    # without them names no checkpoint
    q.add_argument("--checkpoint", default=argparse.SUPPRESS)
    q.add_argument("--resume", action="store_true", default=argparse.SUPPRESS)
    q.set_defaults(handler=_cmd_abelian)
    q = asub.add_parser("bounds")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--digit-cap", type=_cap, default=None)
    q.set_defaults(handler=_cmd_abelian)
    q = asub.add_parser("oracles")
    q.set_defaults(handler=_cmd_abelian)

    p = sub.add_parser("verify", help="run the lemma/theorem suites")
    p.add_argument("--scale", choices=("small", "full"), default="small")
    p.add_argument("--lines", action="store_true", help="PASS/FAIL lines on stdout")
    p.set_defaults(handler=_cmd_verify)

    return top


def run(argv=None) -> tuple[int, dict | None]:
    """Parse argv, execute, and return (exit code, report dict)."""
    code, report, _ = _run(argv)
    return code, report


def _run(argv):
    """``run``, also returning the parsed arguments (None if argv is malformed)."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        return EXIT_USAGE, {"error": str(exc)}, None
    started = time.monotonic()
    inputs = {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("handler", "pretty", "timing") and not callable(v)
    }
    try:
        result, code = args.handler(args)
    except ResourceLimitError as exc:
        return EXIT_RESOURCE, {"command": args.cmd, "error": str(exc)}, args
    except (ValueError, OSError) as exc:
        return EXIT_USAGE, {"command": args.cmd, "error": str(exc)}, args
    if result is None:
        return code, None, args
    report = {"command": args.cmd, "inputs": _jsonable(inputs)}
    report.update(_jsonable(result))
    if args.timing:
        report["timing_seconds"] = round(time.monotonic() - started, 3)
    return code, report, args


def main(argv=None) -> int:
    code, report, args = _run(argv)
    try:
        if report is not None:
            print(json.dumps(report))
        sys.stdout.flush()
    except BrokenPipeError:
        _silence(sys.stdout)
        return code
    if report is not None and args is not None and args.pretty:
        _pretty(report)
    return code


def _pretty(report, stream=None):
    for key, value in report.items():
        if key in ("command", "inputs"):
            continue
        print(f"{key}: {value}", file=stream or sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
