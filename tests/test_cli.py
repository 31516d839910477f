"""End-to-end tests of the command-line interface and its exit codes."""

import concurrent.futures
import hashlib
import importlib
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

import qlens
import qlens.classify
import qlens.cli
import qlens.errors
import qlens.invariants
import qlens.pathmatrix
from qlens.classify import partition_classes
from qlens.cli import main
from qlens.equivalence import EquivDecision, Witness, verify_witness
from qlens.lensgraph import LensParams
from qlens.pathmatrix import count_matrix


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_matrix_plain(capsys):
    code, out, _ = run(capsys, "matrix", "--r", "5", "--m", "1,2,1")
    assert code == 0
    assert out.strip() == "[[1,5,15],[0,1,5],[0,0,1]]"


def test_matrix_corner_value(capsys):
    code, out, _ = run(capsys, "matrix", "--r", "3", "--m", "1,2,1,1", "--format", "json")
    assert code == 0
    # entries are row-major decimal strings: (1, 4) is the fourth
    assert json.loads(out)["entries"][3] == "11"


def _json_values(record):
    """A record as JSON reads it back: NamedTuples as objects, tuples as arrays."""
    if hasattr(record, "_asdict"):
        return {k: _json_values(v) for k, v in record._asdict().items()}
    return [_json_values(v) for v in record] if isinstance(record, tuple) else record


def test_matrix_json_round_trip(capsys):
    code, out, _ = run(capsys, "matrix", "--r", "7", "--m", "1,3,2,1", "--format", "json")
    assert code == 0
    entries = count_matrix(LensParams(7, (1, 3, 2, 1))).entries
    assert json.loads(out) == {
        "r": 7, "m": [1, 3, 2, 1], "n": 4, "entries": [str(v) for row in entries for v in row]
    }


def test_matrix_csv(capsys):
    code, out, _ = run(capsys, "matrix", "--r", "5", "--m", "1,2,1", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "1,5,15"


def test_matrix_non_unit_exit_2(capsys):
    code, _, err = run(capsys, "matrix", "--r", "4", "--m", "1,2,1")
    assert code == 2
    assert "m_2" in err
    code, _, err = run(capsys, "matrix", "--r", "3", "--m", "3")
    assert code == 2
    assert "m_1 = 3 is not a unit modulo 3" in err


def test_matrix_negative_entries_reduced(capsys):
    code, out, _ = run(capsys, "matrix", "--r", "7", "--m", "1,-1,1", "--format", "json")
    assert code == 0
    assert json.loads(out)["m"] == [1, 6, 1]


def test_matrix_unparsable_m(capsys):
    code, _, err = run(capsys, "matrix", "--r", "5", "--m", "1,x,1")
    assert code == 2
    assert "cannot parse" in err


def test_equiv_not_equivalent(capsys):
    code, out, _ = run(capsys, "equiv", "--r", "3", "--m1", "1,1,1,1", "--m2", "1,2,1,1")
    assert code == 1
    assert out.splitlines()[0] == "NotEquivalent"


def test_equiv_equivalent_with_verified_witness(capsys):
    code, out, _ = run(
        capsys,
        "equiv", "--r", "5", "--m1", "1,1,1,1", "--m2", "1,3,1,1",
        "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["equivalent"] is True
    assert payload["obstruction"] is None
    witness = Witness(
        *(tuple(tuple(map(int, row)) for row in payload["witness"][k]) for k in "UV")
    )
    a = count_matrix(LensParams(5, (1, 1, 1, 1)))
    b = count_matrix(LensParams(5, (1, 3, 1, 1)))
    assert verify_witness(a, b, witness)


def test_equiv_obstruction_in_json(capsys):
    code, out, _ = run(
        capsys,
        "equiv", "--r", "3", "--m1", "1,1,1,1", "--m2", "1,2,1,1",
        "--format", "json",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["equivalent"] is False
    assert payload["witness"] is None
    assert payload["obstruction"]["k"] == 3
    assert payload["obstruction"]["position"] == [1, 4]


def test_equiv_length_mismatch_exit_2(capsys):
    code, _, err = run(capsys, "equiv", "--r", "5", "--m1", "1,1", "--m2", "1,1,1")
    assert code == 2
    assert err.startswith("error:")


def test_classes_plain(capsys):
    code, out, _ = run(capsys, "classes", "--r", "3", "--n", "4")
    assert code == 0
    assert out.splitlines()[0] == "phi = 2 (lower bound 2)"


def test_classes_json_round_trip(capsys):
    code, out, _ = run(capsys, "classes", "--r", "3", "--n", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == _json_values(partition_classes(3, 5))


def test_classes_csv_header(capsys):
    code, out, _ = run(capsys, "classes", "--r", "5", "--n", "4", "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == "representative_m,size,size_matrices,signature,matrix_digest"


def test_classes_budget_exit_3(capsys):
    code, _, err = run(capsys, "classes", "--r", "7", "--n", "8", "--budget", "100")
    assert code == 3
    assert "budget" in err


# The budget of 10^400 admits r = 3's 2^1097 ~ 10^330 vectors, so only the
# depth refuses n = 1100: its walk would nest 1098 generators, past the
# recursion limit, and end on a RecursionError.
DEEP_WALK = ("classes", "--r", "3", "--n", "1100", "--budget", str(10**400))


def test_deep_walk_exit_3_before_any_vector(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, *DEEP_WALK)
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "error: the walk nests n - 2 generators, so n must be <= 500, half the recursion limit; got 1100\n"


def test_deep_walk_exit_3_in_a_process():
    command, env = _cli_command()
    proc = subprocess.run([*command, *DEEP_WALK], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


EXIT_CODES = {qlens.errors.InputError: 2, qlens.errors.BudgetExceededError: 3, qlens.errors.InvariantViolationError: 4}


@pytest.mark.parametrize(
    "error",
    [getattr(qlens.errors, name) for name in qlens.errors.__all__ if name != "QlensError"],
    ids=lambda error: error.__name__,
)
def test_each_error_exits_with_its_roots_code(capsys, monkeypatch, error):
    # the exception tree is the exit-code table: every error has one root
    codes = [code for root, code in EXIT_CODES.items() if issubclass(error, root)]
    assert len(codes) == 1

    def fail(*args, **kwargs):
        raise error("planted")

    monkeypatch.setattr(qlens.cli, "count_matrix", fail)
    assert run(capsys, "matrix", "--r", "5", "--m", "1,2,1") == (codes[0], "", "error: planted\n")


def test_out_of_memory_exit_3(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("qlens.cli.count_matrix", exhausted)
    code, out, err = run(capsys, "matrix", "--r", "5", "--m", "1,2,1")
    assert code == 3
    assert out == ""
    assert err.startswith("error: ")


def test_phitilde_match(capsys):
    code, out, _ = run(capsys, "phitilde", "--r", "12")
    assert code == 0
    assert out.strip() == "formula 4, search 4"


def test_phitilde_not_found_below(capsys):
    code, out, _ = run(
        capsys, "phitilde", "--r", "35", "--n-max", "5", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "r": 35,
        "formula": 6,
        "search": None,
        "n_max": 5,
        "match": True,
    }


def test_phitilde_bad_r_exit_2(capsys):
    code, _, err = run(capsys, "phitilde", "--r", "2")
    assert code == 2
    assert err.startswith("error:")


@pytest.mark.parametrize("r", ["1", "0", "-7"])
@pytest.mark.parametrize(
    "argv",
    [("classes", "--n", "4"), ("verify", "--suite", "conjectures"), ("phitilde",)],
)
def test_small_modulus_exit_2(capsys, argv, r):
    code, out, err = run(capsys, *argv, "--r", r)
    assert code == 2
    assert out == ""
    assert err == f"error: modulus r must be an integer > 2, got {r}\n"


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "lemmas", "--r", "9,12")
    assert code == 0
    assert out.splitlines()[-1].endswith("0 failed")


def test_verify_lemmas_seed_deterministic(capsys):
    _, first, _ = run(capsys, "verify", "--suite", "lemmas", "--r", "9", "--seed", "7")
    _, second, _ = run(capsys, "verify", "--suite", "lemmas", "--r", "9", "--seed", "7")
    assert first == second


def test_verify_lemmas_refuses_a_large_modulus_before_sampling(capsys):
    # 10 congruence samples at n <= p + 1 cost about 10 * p * r row steps
    start = time.perf_counter()
    code, out, err = run(capsys, "verify", "--suite", "lemmas", "--r", "100003")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err == "error: lemma suite needs over 20000000 row steps by r = 100003\n"


def test_equiv_prints_witness_entries_past_the_digit_limit(capsys, monkeypatch):
    # 10^5000 + 7 has 5,001 digits, past Python's default limit of 4,300 for
    # int to str; it is built without a conversion, and so is its text
    big = 10**5000 + 7
    digits = "1" + "0" * 4999 + "7"
    ident = ((1, 0), (0, 1))
    decision = EquivDecision(True, "witness found", Witness(((1, big), (0, 1)), ident))
    monkeypatch.setattr(qlens.cli, "decide_equiv", lambda a, b: decision)
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    for fmt in ("plain", "json"):
        code, out, err = run(capsys, "equiv", "--r", "5", "--m1", "1,1", "--m2", "1,1", "--format", fmt)
        assert code == 0
        assert err == ""
        assert f'"{digits}"' in out
        # the caller's limit is back once main returns
        assert getattr(sys, "get_int_max_str_digits", lambda: None)() == limit


def _wrong_poly(monkeypatch):
    real = qlens.cli.poly_1to6
    monkeypatch.setattr(qlens.cli, "poly_1to6", lambda r: real(r) + 1)


def _wrong_entry(monkeypatch):
    # entry (1, 2) of each divisibility sample is r + 1, which r does not divide
    real = qlens.invariants.count_matrix

    def wrong(params):
        matrix = real(params)
        head, *tail = matrix.entries
        return matrix._replace(entries=((1, head[1] + 1, *head[2:]), *tail))

    monkeypatch.setattr(qlens.invariants, "count_matrix", wrong)


def _wrong_corner(monkeypatch):
    # the corner entry that each congruence sample checks is one too large
    real = qlens.invariants._count_rows

    def wrong(r, m, rows):
        return [row[:-1] + (row[-1] + 1,) for row in real(r, m, rows)]

    monkeypatch.setattr(qlens.invariants, "_count_rows", wrong)


def _unmet_hypothesis(monkeypatch):
    # entry (1, 2) of each congruence sample is r + 1, which r does not divide
    real = qlens.invariants._count_rows

    def wrong(r, m, rows):
        return [row[:1] + (row[1] + 1,) + row[2:] for row in real(r, m, rows)]

    monkeypatch.setattr(qlens.invariants, "_count_rows", wrong)


@pytest.mark.parametrize(
    "wrong, failure, summary",
    [
        (_wrong_poly, "poly r=5: formula 310 != matrix entry 309", "lemmas: 20 checks passed, 1 failed"),
        (
            _wrong_entry,
            "divisibility r=5 m=(4, 1, 3, 4, 4, 3, 4): 1 failed checks",
            "lemmas: 11 checks passed, 10 failed",
        ),
        (
            _wrong_corner,
            "congruence r=5 p=5 alpha=1: congruence failed at (5; (1, 2)): 1 != 0 mod 5",
            "lemmas: 11 checks passed, 10 failed",
        ),
        (
            _unmet_hypothesis,
            "congruence r=5 p=5 alpha=1: entry (1, 2) = 6 is not divisible by 5",
            "lemmas: 11 checks passed, 10 failed",
        ),
    ],
    ids=["poly", "divisibility", "congruence", "hypothesis"],
)
def test_verify_lemmas_reports_failures(capsys, monkeypatch, wrong, failure, summary):
    wrong(monkeypatch)
    code, out, err = run(capsys, "verify", "--suite", "lemmas", "--r", "5")
    assert code == 4
    assert err == ""
    lines = out.splitlines()
    assert failure in lines
    assert lines[-1] == summary


def test_verify_conjectures_reports_failures(capsys, monkeypatch):
    # the first class listed twice, once one vector larger, and a bound one
    # above phi: a split bucket, unequal class sizes and phi off the product
    real = qlens.classify.partition_classes

    def wrong(*args, **kwargs):
        part = real(*args, **kwargs)
        first = part.classes[0]
        classes = (first._replace(size=first.size + 1), *part.classes)
        return part._replace(lower_bound=part.lower_bound + 1, classes=classes)

    monkeypatch.setattr(qlens.classify, "partition_classes", wrong)
    code, out, err = run(capsys, "verify", "--suite", "conjectures", "--r", "3", "--n-max", "1")
    assert code == 4
    assert err == ""
    assert out == (
        "verify r=3 n=1: FAIL (phi=1, lower bound 2, buckets 1)\n"
        "  buckets with more than one class: [((3,), ((),))]\n"
        "  phi = 1 differs from the product 2\n"
        "  class sizes over vectors differ: [1, 2]\n"
    )


def test_partition_below_the_lower_bound_exits_4(capsys, monkeypatch):
    real = qlens.classify.lower_bound_classes
    monkeypatch.setattr(qlens.classify, "lower_bound_classes", lambda r, n: real(r, n) + 1)
    code, out, err = run(capsys, "classes", "--r", "5", "--n", "6")
    assert code == 4
    assert out == ""
    assert err == "error: found 4 classes for (r=5, n=6), below the proven bound 5\n"


def test_verify_conjectures(capsys):
    code, out, _ = run(
        capsys,
        "verify", "--suite", "conjectures", "--r", "3", "--n-max", "5",
        "--format", "json",
    )
    assert code == 0
    reports = json.loads(out)
    assert [rep["n"] for rep in reports] == [1, 2, 3, 4, 5]
    assert all(rep["phi"] >= rep["lower_bound"] for rep in reports)


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "matrix.json"
    code, out, _ = run(
        capsys,
        "matrix", "--r", "5", "--m", "1,2,1", "--format", "json",
        "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["entries"][2] == "15"


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--r", "5", "--m", "1,2,1"),
        ("equiv", "--r", "5", "--m1", "1,1,1", "--m2", "1,2,1"),
        ("classes", "--r", "3", "--n", "4"),
    ],
)
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_unwritable_output_exit_2(capsys, tmp_path, argv, where):
    target = tmp_path / "missing" / "out.txt" if where == "missing directory" else tmp_path
    code, out, err = run(capsys, *argv, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert "Traceback" not in err


def _equivalent_pair_to(stdout):
    """equiv on an equivalent pair in a child process, its stdout on the given file."""
    command, env = _cli_command()
    argv = ("equiv", "--r", "5", "--m1", "1,2,1", "--m2", "1,2,1")
    return subprocess.run([*command, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, env=env, timeout=60)


def _assert_unwritable_stdout_exit_2(proc):
    # exit 2, not Equivalent's 0 or the 1 of an uncaught error, and no second
    # failure when the interpreter flushes stdout at exit
    assert proc.returncode == 2
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("error: cannot write stdout: ")
    assert "Traceback" not in proc.stderr


def test_closed_stdout_pipe_exit_2():
    read, write = os.pipe()
    os.close(read)
    try:
        proc = _equivalent_pair_to(write)
    finally:
        os.close(write)
    _assert_unwritable_stdout_exit_2(proc)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_full_stdout_exit_2():
    with open("/dev/full", "w") as full:
        proc = _equivalent_pair_to(full)
    _assert_unwritable_stdout_exit_2(proc)


# Exact bytes, so that key order, separators and CSV line endings stay fixed.
PINNED_OUTPUTS = [
    (
        ("classes", "--r", "3", "--n", "4", "--format", "json"),
        '{"r": 3, "n": 4, "phi": 2, "lower_bound": 2, "classes": ['
        '{"representative_m": [1, 1, 1, 1], "size": 1, "size_matrices": 1,'
        ' "signature": {"primes": [3], "windows": [[1]]},'
        ' "matrix_digest": "1,3,6,10;0,1,3,6;0,0,1,3;0,0,0,1"},'
        ' {"representative_m": [1, 1, 2, 1], "size": 1, "size_matrices": 1,'
        ' "signature": {"primes": [3], "windows": [[2]]},'
        ' "matrix_digest": "1,3,6,11;0,1,3,6;0,0,1,3;0,0,0,1"}]}\n',
    ),
    (
        ("classes", "--r", "3", "--n", "4", "--format", "csv"),
        "representative_m,size,size_matrices,signature,matrix_digest\r\n"
        '"1,1,1,1",1,1,"[[3], [[1]]]","1,3,6,10;0,1,3,6;0,0,1,3;0,0,0,1"\r\n'
        '"1,1,2,1",1,1,"[[3], [[2]]]","1,3,6,11;0,1,3,6;0,0,1,3;0,0,0,1"\r\n',
    ),
    (
        ("verify", "--suite", "conjectures", "--r", "3", "--n-max", "4", "--format", "json"),
        "["
        + ",".join(
            f'{{"r":3,"n":{n},"phi":{phi},"lower_bound":{phi},"buckets":{phi},'
            '"signature_iff":true,"counts_match":true,"equal_sizes_vectors":true,'
            '"equal_sizes_matrices":true,"details":[]}'
            for n, phi in ((1, 1), (2, 1), (3, 1), (4, 2))
        )
        + "]\n",
    ),
    (
        ("equiv", "--r", "3", "--m1", "1,1,1,1", "--m2", "1,2,1,1", "--format", "json"),
        '{"equivalent":false,"reason":"corner entries at (1, 4) differ modulo 3: 1 vs 2",'
        '"witness":null,'
        '"obstruction":{"k":3,"position":[1,4],"lhs_residue":1,"rhs_residue":2}}\n',
    ),
    (
        ("equiv", "--r", "5", "--m1", "1,1,1", "--m2", "1,2,1", "--format", "json"),
        '{"equivalent":true,"reason":"matrices are equal",'
        '"witness":{"U":[["1","0","0"],["0","1","0"],["0","0","1"]],'
        '"V":[["1","0","0"],["0","1","0"],["0","0","1"]]},"obstruction":null}\n',
    ),
    (
        ("equiv", "--r", "5", "--m1", "1,1,1,1", "--m2", "1,3,1,1", "--format", "json"),
        '{"equivalent":true,"reason":"witness found",'
        '"witness":{"U":[["1","0","1","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]],'
        '"V":[["1","0","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]},'
        '"obstruction":null}\n',
    ),
    (
        ("equiv", "--r", "4", "--m1", "1,1,1,1,3,1,3,3,1", "--m2", "1,1,3,3,1,1,3,1,1", "--format", "json"),
        '{"equivalent":false,"reason":"Diophantine system infeasible","witness":null,"obstruction":null}\n',
    ),
    (
        ("phitilde", "--r", "55", "--format", "json"),
        '{"r":55,"formula":6,"search":6,"n_max":8,"match":true}\n',
    ),
    (("phitilde", "--r", "35"), "formula 6, search 6\n"),
    (
        ("phitilde", "--r", "35", "--n-max", "5", "--format", "json"),
        '{"r":35,"formula":6,"search":null,"n_max":5,"match":true}\n',
    ),
    (
        ("matrix", "--r", "3", "--m", "1,1,2,1", "--format", "json"),
        '{"r": 3, "m": [1, 1, 2, 1], "n": 4,'
        ' "entries": ["1", "3", "6", "11", "0", "1", "3", "6", "0", "0", "1", "3", "0", "0", "0", "1"]}\n',
    ),
    (
        ("matrix", "--r", "3", "--m", "1,1,2,1", "--format", "csv"),
        "1,3,6,11\r\n0,1,3,6\r\n0,0,1,3\r\n0,0,0,1\r\n",
    ),
    (
        ("equiv", "--r", "5", "--m1", "1,1,1,1", "--m2", "1,3,1,1"),
        "Equivalent\nreason: witness found\n"
        'witness: {"U": [["1", "0", "1", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],'
        ' ["0", "0", "0", "1"]], "V": [["1", "0", "0", "0"], ["0", "1", "0", "0"],'
        ' ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}\n',
    ),
]


@pytest.mark.parametrize(
    "argv, expected",
    PINNED_OUTPUTS,
    ids=[
        "classes-json",
        "classes-csv",
        "verify-json",
        "equiv-obstruction",
        "equiv-witness",
        "equiv-solved-witness",
        "equiv-infeasible",
        "phitilde-55-json",
        "phitilde-35-plain",
        "phitilde-35-not-found-json",
        "matrix-json",
        "matrix-csv",
        "equiv-solved-witness-plain",
    ],
)
def test_output_bytes_pinned(capsys, argv, expected):
    code, out, err = run(capsys, *argv)
    assert code == (1 if '"equivalent":false' in expected else 0)
    assert out == expected
    assert err == ""


# SHA-256 of stdout where a literal would be too long: the 4 | r cell
# (12, 7) in JSON and every class of (5, 7) in CSV.
PINNED_DIGESTS = [
    (
        ("classes", "--r", "12", "--n", "7", "--format", "json"),
        "28963777ae93a78685fd09a7af859083249e7b67a255b8324616099e5a892f9e",
    ),
    (
        ("classes", "--r", "5", "--n", "7", "--format", "csv"),
        "81e1df7530ca6d53e24382e62e41c288c2d05d7acfe1dfb416496c5fd09616ee",
    ),
    # same-form joins: 256 matrices in 16 forms, 4 classes
    (
        ("classes", "--r", "8", "--n", "7", "--format", "json"),
        "b7e0a836176382f332141c37f4d565c2771922ae1c531869d03a23a6b027950e",
    ),
    (
        ("classes", "--r", "5", "--n", "8", "--format", "json"),
        "293226a59422862fb53e81b1bba6513d0fd42f78d11180d478ec252ab90c7f00",
    ),
    (
        ("classes", "--r", "9", "--n", "7", "--format", "json"),
        "eef487c9270240f3fc8064ef43794f1b2b5fa4604c45532a2f2def7dcda21a5d",
    ),
    # a 12x12 system solved for its witness
    (
        ("equiv", "--r", "13", "--m1", "1,2,3,4,5,6,7,8,9,10,11,12",
         "--m2", "1,5,3,4,5,6,7,8,9,10,11,12", "--format", "json"),
        "c018c112656b65c20670b62c6e17b36ee5dfc4111f5b0a98944d36add9feba0c",
    ),
    # every lemma check of five moduli at two seeds, under the suite's bound
    (
        ("verify", "--suite", "lemmas", "--r", "3,5,12,15,45", "--seed", "0"),
        "cc2a43f667d6a147c450325ebc73d89f903091a91a398d51f0ada1437041953c",
    ),
    (
        ("verify", "--suite", "lemmas", "--r", "3,5,12,15,45", "--seed", "1"),
        "4c696b1f1918d2d6d716440ec43ce96292ed2be6f477e708535725f4ae67f993",
    ),
]


@pytest.mark.parametrize(
    "argv, digest",
    PINNED_DIGESTS,
    ids=[
        "classes-12-7-json", "classes-5-7-csv", "classes-8-7-json", "classes-5-8-json",
        "classes-9-7-json", "equiv-13-solved-json", "verify-lemmas-seed-0", "verify-lemmas-seed-1",
    ],
)
def test_output_digest_pinned(capsys, argv, digest):
    code, out, err = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    assert err == ""


def _readme_examples():
    """(command line, stdout) for each `$ qlens ...` line of README's Examples block."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Examples:\n\n```sh\n", 1)[1].split("```", 1)[0]
    return [tuple(f"{chunk}\n".split("\n", 1)) for chunk in block.strip().split("\n\n")]


README_EXAMPLES = _readme_examples()


@pytest.mark.parametrize(
    "line, expected", README_EXAMPLES, ids=[line.removeprefix("$ qlens ") for line, _ in README_EXAMPLES]
)
def test_readme_example(capsys, line, expected):
    # the shell's `cmd | tail -N` keeps the last N lines, `cmd; echo $?` adds the exit code
    shell = re.fullmatch(r"\$ qlens ([^|;]*?)(?: \| tail -(\d+))?(; echo \$\?)?", line)
    command, tail, echo = shell.groups()
    code, out, _ = run(capsys, *shlex.split(command))
    if tail:
        out = "".join(out.splitlines(keepends=True)[-int(tail):])
    if echo:
        out += f"{code}\n"
    else:
        assert code == 0
    assert out == expected


def test_jobs_env_override(capsys, monkeypatch):
    monkeypatch.setenv("QLENS_JOBS", "1")
    code, out, _ = run(capsys, "matrix", "--r", "5", "--m", "1,2,1")
    assert code == 0
    assert out.strip() == "[[1,5,15],[0,1,5],[0,0,1]]"


def test_jobs_env_invalid(capsys, monkeypatch):
    monkeypatch.setenv("QLENS_JOBS", "zero")
    code, _, err = run(capsys, "matrix", "--r", "5", "--m", "1,2,1")
    assert code == 2
    assert "QLENS_JOBS" in err
    monkeypatch.setenv("QLENS_JOBS", "0")
    code, _, err = run(capsys, "matrix", "--r", "5", "--m", "1,2,1")
    assert code == 2
    assert "QLENS_JOBS" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("classes", "--r", "7", "--n", "3", "--budget", "-5"),
        ("classes", "--r", "7", "--n", "2", "--budget", "-5"),
        ("classes", "--r", "7", "--n", "1", "--budget", "0"),
        ("phitilde", "--r", "7", "--budget", "0"),
        ("verify", "--suite", "conjectures", "--r", "3", "--n-max", "2", "--budget", "0"),
        ("verify", "--suite", "lemmas", "--r", "5", "--budget", "-1"),
        ("matrix", "--r", "5", "--m", "1,1", "--jobs", "0"),
        ("equiv", "--r", "5", "--m1", "1,1", "--m2", "1,1", "--jobs", "-2"),
        ("classes", "--r", "7", "--n", "2", "--jobs", "0"),
        ("phitilde", "--r", "7", "--jobs", "0"),
        ("verify", "--suite", "lemmas", "--r", "5", "--jobs", "0"),
        ("phitilde", "--r", "7", "--n-max", "0"),
        ("verify", "--suite", "conjectures", "--r", "5", "--n-max", "0"),
    ],
)
def test_budget_and_jobs_below_one_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {argv[-2]} must be >= 1")


def test_verify_unparsable_r_list(capsys):
    for suite in ("conjectures", "lemmas"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--r", "5,x")
        assert code == 2
        assert out == ""
        assert err.startswith("error: cannot parse --r list '5,x'")


def test_jobs_flag_parallel_matches_serial(capsys):
    # (5, 7) has 244 distinct matrices, enough for the bucket pool
    code, serial, _ = run(
        capsys,
        "classes", "--r", "5", "--n", "7", "--format", "json", "--jobs", "1",
    )
    assert code == 0
    code, parallel, _ = run(
        capsys,
        "classes", "--r", "5", "--n", "7", "--format", "json", "--jobs", "2",
    )
    assert code == 0
    assert serial == parallel


def test_small_inputs_start_no_pool(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    m = tuple(range(1, 17))
    assert count_matrix(LensParams(17, m), jobs=2) == count_matrix(LensParams(17, m))
    assert partition_classes(3, 7, jobs=2) == partition_classes(3, 7)
    scaled = ",".join(str(3 * v % 17) for v in m)
    code, out, _ = run(
        capsys,
        "equiv", "--r", "17", "--m1", ",".join(map(str, m)), "--m2", scaled, "--jobs", "2",
    )
    assert code == 0
    assert out.startswith("Equivalent")


def test_pool_width_capped_at_work(monkeypatch):
    # A stand-in executor that starts no process: map runs in process and
    # each pool's width and task count are recorded.
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.record = [max_workers, 0]
            pools.append(self.record)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            results = list(map(fn, *iterables))
            self.record[1] = len(results)
            return results

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(qlens.pathmatrix, "POOL_MIN_ROW_STEPS", 0)
    assert partition_classes(5, 7, jobs=10**6) == partition_classes(5, 7)
    # ratios (5, 4, 2) repeat no tail, so top = n - 2 = 3 rows are computed
    params = LensParams(7, (1, 2, 3, 5, 3))
    assert count_matrix(params, jobs=10**6) == count_matrix(params)
    # (5, 7) has 16 signature buckets; the matrix computes 3 rows
    assert pools == [[16, 16], [3, 3]]


def test_dead_worker_exits_3(capsys, monkeypatch):
    # A stand-in executor whose map fails as a pool does when a worker dies.
    class BrokenPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            raise BrokenProcessPool("a worker was killed")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", BrokenPool)
    monkeypatch.setattr(qlens.pathmatrix, "POOL_MIN_ROW_STEPS", 0)
    # a vector with no repeated ratio tail, so more than one row is computed
    code, out, err = run(capsys, "matrix", "--r", "7", "--m", "1,2,3,5,3", "--jobs", "2")
    assert code == 3
    assert out == ""
    assert err == "error: a worker process died or could not start: a worker was killed\n"


def test_serial_commands_never_import_a_pool():
    # Start-up cost: the pool modules load only when a pool starts, and the
    # records and the CLI's JSON and CSV writers load no dataclasses or inspect
    # (checked against what the interpreter's site loaded before qlens).
    probe = (
        "import sys\n"
        "preloaded = set(sys.modules)\n"
        "import qlens.cli\n"
        "codes = [qlens.cli.main(argv.split()) for argv in (\n"
        "    'phitilde --r 35 --format json',\n"
        "    'equiv --r 15 --m1 1,1,1,1 --m2 1,2,1,1 --format json',\n"
        "    'equiv --r 5 --m1 1,1,1,1 --m2 1,1,2,1 --format json',\n"
        "    'classes --r 5 --n 6 --format csv',\n"
        "    'verify --suite conjectures --r 5 --n-max 5 --format json',\n"
        ")]\n"
        "loaded = [m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules]\n"
        "loaded += [m for m in ('dataclasses', 'inspect') if m in sys.modules.keys() - preloaded]\n"
        "print(codes, loaded)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_source_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[0, 1, 0, 0, 0] []"


def test_library_import_loads_no_output_format_module():
    # the records are plain data: json and csv are the CLI's alone
    probe = (
        "import sys\n"
        "preloaded = set(sys.modules)\n"
        "import qlens\n"
        "print(sorted({'json', 'csv'} & (sys.modules.keys() - preloaded)))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=_source_env()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ("matrix", "--r", "5", "--m", "1,2,1", "--format", "csv"),
        ("equiv", "--r", "3", "--m1", "1,1,1,1", "--m2", "1,2,1,1", "--format", "json"),
        ("classes", "--r", "5", "--n", "6", "--format", "json"),
        ("phitilde", "--r", "5", "--format", "json"),
        ("verify", "--suite", "conjectures", "--r", "3,4", "--n-max", "5"),
        ("verify", "--suite", "lemmas", "--r", "5", "--format", "json"),
    ],
)
def test_every_command_accepts_jobs_1(capsys, monkeypatch, argv):
    # The benchmark harness appends --jobs 1 to every command it runs in process.
    monkeypatch.delenv("QLENS_JOBS", raising=False)
    default = run(capsys, *argv)
    assert run(capsys, *argv, "--jobs", "1") == default
    assert default[0] in (0, 1)


def test_unknown_command_exits_2():
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


def _cli_command():
    """The installed ``qlens`` script if it is on PATH, else ``python -m qlens``.

    The fallback's child process gets the source tree of the imported
    ``qlens`` package first on its ``PYTHONPATH``, so it runs the code under
    test whatever the working directory.
    """
    script = shutil.which("qlens")
    if script is not None:
        return [script], None
    return [sys.executable, "-m", "qlens"], _source_env()


def _source_env():
    """The environment with the imported ``qlens`` source tree first on ``PYTHONPATH``."""
    src = str(Path(qlens.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))


def test_console_script():
    command, env = _cli_command()
    proc = subprocess.run(
        [*command, "equiv", "--r", "3", "--m1", "1,1,1,1", "--m2", "1,2,1,1"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines()[0] == "NotEquivalent"


def test_console_script_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    module_name, _, attr = scripts["qlens"].partition(":")
    module = importlib.import_module(module_name)
    assert getattr(module, attr) is main
