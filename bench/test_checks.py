"""The benchmark's output checks accept real program output and reject corrupted output.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest

import checks

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from qlens.cli import main as qlens_main  # noqa: E402


def run_cli(*argv: str) -> tuple[str, int]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qlens_main([*argv, "--jobs", "1"])
    return out.getvalue(), code


def brute_force_paths(r: int, m: list[int]) -> list[list[int]]:
    """Legal paths counted one by one with a depth-first search of the N-kind graph."""
    n = len(m)

    def count(s: int, t: int, j: int) -> int:
        # At (s, t) with t != 0: step horizontally, or descend while s < j.
        total = 0
        nxt = (t + m[s]) % r
        if nxt == 0:
            total += 1  # enter column 0 in subgraph s, then descend to (j, 0)
        else:
            total += count(s, nxt, j)
        if s < j:
            total += count(s + 1, t, j)
        return total

    return [[count(i, m[i] % r, j) if j >= i else 0 for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("r, m", [(3, [1, 2, 1, 1]), (4, [1, 3, 3, 1, 3]), (5, [2, 1, 4, 3]), (6, [1, 5, 5])])
def test_path_matrix_counts_legal_paths(r, m):
    assert checks.path_matrix(r, m) == brute_force_paths(r, m)


def test_path_matrix_all_ones_is_binomial():
    r, n = 7, 6
    rows = checks.path_matrix(r, [1] * n)
    assert all(rows[i][j] == math.comb(r - 1 + j - i, j - i) for i in range(n) for j in range(i, n))


def test_small_number_theory():
    assert checks.prime_powers(10125) == [(3, 4), (5, 3)]
    assert checks.totient(12) == 4
    assert [checks.phitilde(r) for r in (3, 4, 8, 12, 35, 20)] == [4, 6, 6, 4, 6, 6]
    assert checks.lower_bound(15, 7) == 2**4 * 4**2


def test_classes_check_accepts_and_rejects_phi_off_by_one():
    out, code = run_cli("classes", "--r", "5", "--n", "7", "--format", "json")
    assert checks.check_classes(out, code, 5, 7, None) is None
    part = json.loads(out)
    part["phi"] += 1
    assert "phi" in checks.check_classes(json.dumps(part), code, 5, 7, None)
    part = json.loads(out)
    part["classes"][0]["size"] += 1
    assert "sizes sum" in checks.check_classes(json.dumps(part), code, 5, 7, None)
    part = json.loads(out)
    part["classes"][0]["signature"]["windows"][0][0] += 1
    assert "signature" in checks.check_classes(json.dumps(part), code, 5, 7, None)


def test_classes_check_uses_the_reference_when_4_divides_r():
    out, code = run_cli("classes", "--r", "4", "--n", "6", "--format", "json")
    phi = json.loads(out)["phi"]
    assert checks.check_classes(out, code, 4, 6, phi) is None
    assert "reference" in checks.check_classes(out, code, 4, 6, phi + 1)
    assert "no reference" in checks.check_classes(out, code, 4, 6, None)


def test_verify_check_rejects_phi_off_by_one():
    out, code = run_cli("verify", "--suite", "conjectures", "--r", "3", "--n-max", "5", "--format", "json")
    assert checks.check_verify(out, code, [3], 5, {}) is None
    reports = json.loads(out)
    reports[-1]["phi"] -= 1
    assert "phi" in checks.check_verify(json.dumps(reports), code, [3], 5, {})


def test_phitilde_check_rejects_a_wrong_search():
    out, code = run_cli("phitilde", "--r", "5", "--format", "json")
    assert checks.check_phitilde(out, code, 5) is None
    payload = json.loads(out)
    payload["search"] += 1
    assert checks.check_phitilde(json.dumps(payload), code, 5) is not None


@pytest.mark.parametrize("r, m", [(15, [1, 2, 4, 7, 8, 11, 13]), (9, [1] * 6)])
def test_matrix_check_rejects_a_wrong_forced_entry(r, m):
    out, code = run_cli("matrix", "--r", str(r), "--m", ",".join(map(str, m)))
    assert checks.check_matrix(out, code, r, m) is None
    rows = json.loads(out)
    for i, j in ((0, 0), (1, 2), (2, 4)):
        bad = [row[:] for row in rows]
        bad[i][j] += 1
        assert "forced entry" in checks.check_matrix(json.dumps(bad), code, r, m)


def test_matrix_check_rejects_divisibility_and_closed_form_breaks():
    r, m = 9, [1] * 6
    out, code = run_cli("matrix", "--r", str(r), "--m", ",".join(map(str, m)))
    rows = json.loads(out)
    bad = [row[:] for row in rows]
    bad[0][3] += 3  # entry (1, 4), three steps from the diagonal: 9 need not divide it
    assert "C(" in checks.check_matrix(json.dumps(bad), code, r, m)
    r, m = 15, [1, 2, 4, 7, 8, 11]
    rows = json.loads(run_cli("matrix", "--r", str(r), "--m", ",".join(map(str, m)))[0])
    rows[0][3] += 3  # 5 must divide entry (1, 4)
    assert "5^1 does not divide" in checks.check_matrix(json.dumps(rows), 0, r, m)
    rows[1][0] = 1
    assert "below the diagonal" in checks.check_matrix(json.dumps(rows), 0, r, m)


def test_equiv_check_rejects_a_flipped_witness_entry():
    r, m1, m2 = 7, [1, 2, 3, 4, 5, 6], [1, 1, 1, 1, 1, 1]
    out, code = run_cli("equiv", "--r", str(r), "--m1", ",".join(map(str, m1)), "--m2", ",".join(map(str, m2)), "--format", "json")
    assert code == 0
    assert checks.check_equiv(out, code, r, m1, m2, True) is None
    payload = json.loads(out)
    payload["witness"]["U"][0][2] = str(int(payload["witness"]["U"][0][2]) + 1)
    assert "witness fails" in checks.check_equiv(json.dumps(payload), code, r, m1, m2, True)
    payload = json.loads(out)
    payload["witness"]["V"][1][1] = "2"
    assert "unipotent" in checks.check_equiv(json.dumps(payload), code, r, m1, m2, True)
    assert "exit code" in checks.check_equiv(out, 1, r, m1, m2, True)
    assert "theorem" in checks.check_equiv(out, code, r, m1, m2, False)


def test_equiv_check_verifies_corner_obstructions():
    r, m1, m2 = 7, [3, 5, 6, 2, 5, 4, 4, 5], [3, 1, 5, 1, 1, 6, 4, 6]
    out, code = run_cli("equiv", "--r", str(r), "--m1", ",".join(map(str, m1)), "--m2", ",".join(map(str, m2)), "--format", "json")
    payload = json.loads(out)
    assert code == 1 and payload["obstruction"] is not None
    assert checks.check_equiv(out, code, r, m1, m2, False) is None
    payload["obstruction"]["k"] = 5
    assert checks.check_equiv(json.dumps(payload), code, r, m1, m2, False) is not None


def test_uncaught_exception_output_is_not_a_verdict():
    # An uncaught exception exits 1 with nothing on stdout: exit 1 alone is not NotEquivalent.
    assert "not JSON" in checks.check_equiv("", 1, 5, [1, 1, 1], [1, 1, 1], None)
