"""Command-line interface exposing matrices, equivalence, classes, and checks.

Each command returns its exit code and its text, which main writes once.
Exit codes form the contract: 0 success or Equivalent, 1 NotEquivalent,
2 invalid input or an --output or stdout that cannot be written, 3 budget
exceeded, out of memory or a worker that died or never started, 4 a failed
check.
"""

import argparse
import csv
import io
import json
import os
import random
import sys

from .classify import (
    DEFAULT_VECTOR_BUDGET,
    POOL_MIN_RECORDS,
    ClassRecord,
    NotFoundBelow,
    partition_classes,
    phitilde_search,
    verify_conjectures,
)
from .equivalence import decide_equiv
from .errors import (
    BudgetExceededError,
    InvalidParamsError,
    InvariantViolationError,
    QlensError,
)
from .invariants import check_divisibility, congruence_main, phitilde_formula
from .lensgraph import LensParams, _check_rn, _units
from .numtheory import factorize
from .pathmatrix import POOL_MIN_ROW_STEPS, count_matrix, poly_1to6

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_INPUT_ERROR = 2
EXIT_BUDGET = 3
EXIT_MISMATCH = 4

LEMMA_SAMPLES = 10
# Most row steps (r per column the row DP sweeps) of verify --suite lemmas
# over all of --r, each r costing (15 + 10 * 28 + 10 * sum(alpha * p)) * r, p^alpha
# exactly dividing r: the poly check, divisibility samples at n <= 8 and
# congruence samples at n <= p + 1. On 2 CPUs r = 1009 (1.05 * 10^7 steps) took
# 1.2-1.4 s and r = 1409 (2.03 * 10^7) 3.2-3.7 s; r = 3001 (9.1 * 10^7) 22 s.
LEMMA_MAX_ROW_STEPS = 2 * 10**7


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise InvalidParamsError(f"cannot parse {what} {text!r}: {exc}") from None


def _default_jobs() -> int:
    env = os.environ.get("QLENS_JOBS")
    if env is None:
        return os.cpu_count() or 1
    try:
        jobs = int(env)
    except ValueError:
        raise InvalidParamsError(f"QLENS_JOBS must be an integer, got {env!r}") from None
    if jobs < 1:
        raise InvalidParamsError(f"QLENS_JOBS must be >= 1, got {jobs}")
    return jobs


def _emit(text: str, output: str | None) -> None:
    """text and a line end to output, or to stdout when it is None. A failed
    write is an input error; stdout is then pointed at os.devnull, so that
    the interpreter's flush at exit cannot fail a second time."""
    try:
        if output is None:
            print(text, flush=True)
            return
        with open(output, "w", encoding="utf-8") as handle:
            print(text, file=handle)
    except OSError as exc:
        if output is None:
            output, devnull = "stdout", os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        raise InvalidParamsError(f"cannot write {output}: {exc.strerror}") from None


def _csv(rows) -> str:
    """rows as CSV with CRLF line ends; the last LF is left to _emit."""
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue().rstrip("\n")


def cmd_matrix(args: argparse.Namespace) -> tuple[int, str]:
    params = LensParams(args.r, _parse_ints(args.m, "m vector"))
    matrix = count_matrix(params, jobs=args.jobs)
    if args.format == "json":
        entries = [str(v) for row in matrix.entries for v in row]
        return EXIT_OK, json.dumps({"r": matrix.r, "m": matrix.m, "n": matrix.n, "entries": entries})
    if args.format == "csv":
        return EXIT_OK, _csv(matrix.entries)
    return EXIT_OK, json.dumps(matrix.entries, separators=(",", ":"))


def cmd_equiv(args: argparse.Namespace) -> tuple[int, str]:
    a = count_matrix(LensParams(args.r, _parse_ints(args.m1, "m vector")), jobs=args.jobs)
    b = count_matrix(LensParams(args.r, _parse_ints(args.m2, "m vector")), jobs=args.jobs)
    decision = decide_equiv(a, b)
    w = decision.witness  # U and V in decimal strings, so that JSON readers keep every digit
    witness = None if w is None else {k: [[str(v) for v in row] for row in m] for k, m in zip("UV", w)}
    code = EXIT_OK if decision.equivalent else EXIT_NOT_EQUIVALENT
    if args.format == "json":
        payload = decision._asdict()
        payload["witness"] = witness
        payload["obstruction"] = decision.obstruction._asdict() if decision.obstruction else None
        return code, json.dumps(payload, separators=(",", ":"))
    lines = ["Equivalent" if decision.equivalent else "NotEquivalent"]
    lines.append(f"reason: {decision.reason}")
    if witness is not None:
        lines.append("witness: " + json.dumps(witness))
    if decision.obstruction is not None:
        lines.append("obstruction: " + decision.obstruction.describe())
    return code, "\n".join(lines)


def cmd_classes(args: argparse.Namespace) -> tuple[int, str]:
    part = partition_classes(args.r, args.n, budget=args.budget, jobs=args.jobs)
    if args.format == "json":
        classes = [{**c._asdict(), "signature": c.signature._asdict()} for c in part.classes]
        return EXIT_OK, json.dumps({**part._asdict(), "classes": classes})
    if args.format == "csv":
        rows = [
            (",".join(map(str, c.representative_m)), c.size, c.size_matrices,
             json.dumps(c.signature), c.matrix_digest)
            for c in part.classes
        ]
        return EXIT_OK, _csv([ClassRecord._fields, *rows])
    lines = [f"phi = {part.phi} (lower bound {part.lower_bound})"]
    for cls in part.classes:
        vec = "(" + ", ".join(str(v) for v in cls.representative_m) + ")"
        lines.append(
            f"class {vec}: {cls.size} vectors, {cls.size_matrices} matrices"
        )
    return EXIT_OK, "\n".join(lines)


def cmd_phitilde(args: argparse.Namespace) -> tuple[int, str]:
    formula = phitilde_formula(args.r)
    found = phitilde_search(args.r, args.n_max, budget=args.budget)
    searched = None if isinstance(found, NotFoundBelow) else found
    match = formula == searched if searched is not None else formula > args.n_max
    code = EXIT_OK if match else EXIT_MISMATCH
    if args.format == "json":
        payload = {
            "r": args.r,
            "formula": formula,
            "search": searched,
            "n_max": args.n_max,
            "match": match,
        }
        return code, json.dumps(payload, separators=(",", ":"))
    shown = str(searched) if searched is not None else f"not found below {args.n_max}"
    return code, f"formula {formula}, search {shown}"


def _check_lemma_steps(r_values: tuple[int, ...]) -> None:
    """Refuse the lemma suite before any sample past LEMMA_MAX_ROW_STEPS."""
    steps = 0
    for r in r_values:
        _check_rn(r)
        steps += (15 + LEMMA_SAMPLES * 28) * r
        if steps <= LEMMA_MAX_ROW_STEPS:  # r is factored only below the bound
            steps += LEMMA_SAMPLES * r * sum(a * p for p, a in factorize(r).odd_primes)
        if steps > LEMMA_MAX_ROW_STEPS:
            raise BudgetExceededError(
                f"lemma suite needs over {LEMMA_MAX_ROW_STEPS} row steps by r = {r}"
            )


def _lemma_checks(r: int, rng: random.Random) -> tuple[list[str], list[str]]:
    """Per-check report lines and failure lines for one modulus."""
    lines: list[str] = []
    failures: list[str] = []

    direct = count_matrix(LensParams(r, (1, 1, -1, 1, 1, 1))).entry(1, 6)
    value = poly_1to6(r)
    if value == direct:
        lines.append(f"poly r={r}: ok ({value})")
    else:
        failures.append(f"poly r={r}: formula {value} != matrix entry {direct}")

    units = _units(r)
    for index in range(LEMMA_SAMPLES):
        n = rng.randint(4, 8)
        params = LensParams(r, tuple(rng.choice(units) for _ in range(n)))
        report = check_divisibility(params)
        if report.passed:
            lines.append(
                f"divisibility r={r} sample {index}: ok ({len(report.checks)} checks)"
            )
        else:
            bad = [c for c in report.checks if not c.passed]
            failures.append(
                f"divisibility r={r} m={params.m}: {len(bad)} failed checks"
            )

    fact = factorize(r)
    for p, max_alpha in fact.odd_primes:
        for alpha in range(1, max_alpha + 1):
            for index in range(LEMMA_SAMPLES):
                n = rng.randint(2, p + 1)
                params = LensParams(r, tuple(rng.choice(units) for _ in range(n)))
                try:
                    lhs, rhs = congruence_main(params, p, alpha)
                except InvariantViolationError as exc:
                    failures.append(f"congruence r={r} p={p} alpha={alpha}: {exc}")
                else:
                    lines.append(
                        f"congruence r={r} p={p} alpha={alpha} sample {index}:"
                        f" ok ({lhs})"
                    )
    return lines, failures


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    r_values = _parse_ints(args.r, "--r list")
    if args.suite == "lemmas":
        _check_lemma_steps(r_values)
        rng = random.Random(args.seed)
        lines: list[str] = []
        failures: list[str] = []
        for r in r_values:
            ok, bad = _lemma_checks(r, rng)
            lines.extend(ok)
            failures.extend(bad)
        code = EXIT_MISMATCH if failures else EXIT_OK
        if args.format == "json":
            payload = {
                "suite": "lemmas",
                "r": r_values,
                "checks": len(lines) + len(failures),
                "failures": failures,
            }
            return code, json.dumps(payload, separators=(",", ":"))
        body = lines + failures
        body.append(
            f"lemmas: {len(lines)} checks passed, {len(failures)} failed"
        )
        return code, "\n".join(body)

    reports = []
    for r in r_values:
        for n in range(1, args.n_max + 1):
            reports.append(
                verify_conjectures(r, n, budget=args.budget, jobs=args.jobs)
            )
    code = EXIT_OK if all(report.passed for report in reports) else EXIT_MISMATCH
    if args.format == "json":
        return code, json.dumps([report._asdict() for report in reports], separators=(",", ":"))
    lines = []
    for report in reports:
        status = "pass" if report.passed else "FAIL"
        lines.append(
            f"verify r={report.r} n={report.n}: {status}"
            f" (phi={report.phi}, lower bound {report.lower_bound},"
            f" buckets {report.buckets})"
        )
        lines.extend("  " + note for note in report.details)
    return code, "\n".join(lines)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qlens",
        description="Path-counting matrices of lens-space graphs and their"
        " equivalence classes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, formats: tuple[str, ...]) -> None:
        p.add_argument("--format", choices=formats, default="plain")
        p.add_argument("--output", default=None, help="write to a file instead of stdout")
        p.add_argument(
            "--jobs",
            type=int,
            default=None,
            help="worker processes (default: QLENS_JOBS or the CPU count), started only"
            f" by matrix and equiv at r*n*(rows computed) >= {POOL_MIN_ROW_STEPS}, one per"
            f" row at most, and by classes and verify at >= {POOL_MIN_RECORDS} distinct matrices"
            " in more than one signature bucket, at most one per bucket; phitilde"
            " ignores it",
        )

    p_matrix = sub.add_parser("matrix", help="print the path-counting matrix")
    p_matrix.add_argument("--r", type=int, required=True)
    p_matrix.add_argument("--m", required=True, help="comma-separated m vector")
    common(p_matrix, ("plain", "json", "csv"))
    p_matrix.set_defaults(handler=cmd_matrix)

    p_equiv = sub.add_parser("equiv", help="decide equivalence of two matrices")
    p_equiv.add_argument("--r", type=int, required=True)
    p_equiv.add_argument("--m1", required=True)
    p_equiv.add_argument("--m2", required=True)
    common(p_equiv, ("plain", "json"))
    p_equiv.set_defaults(handler=cmd_equiv)

    p_classes = sub.add_parser("classes", help="partition the (r, n) matrices")
    p_classes.add_argument("--r", type=int, required=True)
    p_classes.add_argument("--n", type=int, required=True)
    p_classes.add_argument("--budget", type=int, default=DEFAULT_VECTOR_BUDGET)
    common(p_classes, ("plain", "json", "csv"))
    p_classes.set_defaults(handler=cmd_classes)

    p_phi = sub.add_parser("phitilde", help="search the least n with phi > 1")
    p_phi.add_argument("--r", type=int, required=True)
    p_phi.add_argument("--n-max", type=int, default=8)
    p_phi.add_argument("--budget", type=int, default=DEFAULT_VECTOR_BUDGET)
    common(p_phi, ("plain", "json"))
    p_phi.set_defaults(handler=cmd_phitilde)

    p_verify = sub.add_parser("verify", help="run the lemma or conjecture suites")
    p_verify.add_argument("--suite", choices=("lemmas", "conjectures"), required=True)
    p_verify.add_argument("--r", required=True, help="comma-separated moduli")
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--budget", type=int, default=DEFAULT_VECTOR_BUDGET)
    p_verify.add_argument("--seed", type=int, default=0)
    common(p_verify, ("plain", "json"))
    p_verify.set_defaults(handler=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # entries and witnesses may pass Python's int-to-str digit limit (none
    # before 3.10.7), so output runs without it until main returns
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        if args.jobs is None:
            args.jobs = _default_jobs()
        for flag in ("jobs", "budget", "n_max"):
            if getattr(args, flag, 1) < 1:
                raise InvalidParamsError(
                    f"--{flag.replace('_', '-')} must be >= 1, got {getattr(args, flag)}"
                )
        code, text = args.handler(args)
        _emit(text, args.output)
        return code
    except (BudgetExceededError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_BUDGET
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except QlensError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)
