"""Tests for the path-count DP, closed forms, and normalization."""

import concurrent.futures
import csv
import io
import json
import math
import random
import time

import pytest

import qlens.pathmatrix
from qlens.cli import main
from qlens.errors import (
    BadModulusError,
    BudgetExceededError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParamsError,
)
from qlens.lensgraph import LensParams, build_graph, enumerate_legal_paths, scale
from qlens.pathmatrix import (
    PathMatrix,
    _count_rows,
    _repeated_tail,
    closed_form_all_ones,
    count_matrix,
    normalize,
    poly_1to6,
)


def units_of(r):
    return [u for u in range(1, r) if math.gcd(u, r) == 1]


def random_params(rng, r_max=40, n_max=8, r_min=3):
    r = rng.randrange(r_min, r_max + 1)
    n = rng.randrange(1, n_max + 1)
    us = units_of(r)
    return LensParams(r, tuple(rng.choice(us) for _ in range(n)))


def reference_rows(r, m):
    """Rows (i, i..n) by the recurrence itself, one column at a time: the
    next subgraph, with unit u, takes f to g[t] = f[t] + g[t - u], and
    closing into its column 0 adds g[r - u]."""
    rows = []
    for i in range(1, len(m) + 1):
        f = [0] + [1] * (r - 1)
        row = [1]
        for u in m[i:]:
            g = [0] * r
            t = 0
            for _ in range(r - 1):
                t = (t + u) % r
                g[t] = f[t] + g[(t - u) % r]
            f = g
            row.append(row[-1] + f[r - u])
        rows.append(tuple(row))
    return rows


def check_rows(r, m):
    expected = reference_rows(r, m)
    n = len(m)
    assert _count_rows(r, m, range(1, n + 1)) == expected, (r, m)
    # any subset of sources, in any order, as the row pool hands them out
    picked = list(range(n, 0, -2))
    assert _count_rows(r, m, picked) == [expected[i - 1] for i in picked], (r, m)


def test_count_rows_repeated_shifts_match_reference():
    # a repeated unit advances with stride 1, a bare prefix sum
    for r, m in [(7, (1,) * 6), (12, (5, 5, 5, 7, 7, 1)), (9, (2, 2, 4, 4, 2, 2, 2))]:
        check_rows(r, m)


def test_count_rows_distinct_shifts_match_reference():
    rng = random.Random(22)
    for r, m in [(13, (1, 2, 3, 4, 5, 6, 7)), (12, (1, 5, 7, 11, 5, 1))]:
        check_rows(r, m)
    for _ in range(8):
        p = random_params(rng, r_max=60, n_max=7)
        check_rows(p.r, p.m)


def test_count_rows_typecode_boundaries_match_reference():
    # gather indexes are one byte up to r = 256 and two up to r = 65536
    for r in (255, 256, 257, 65535, 65536, 65537):
        us = units_of(r) if r < 1000 else [u for u in (3, 5, 7, 11, 13) if math.gcd(u, r) == 1]
        check_rows(r, tuple(us[:3]))


def test_count_rows_one_and_two_columns_match_reference():
    for r in (3, 4, 10):
        for m in [(r - 1,), (1, r - 1), (r - 1, r - 1)]:
            check_rows(r, m)
    assert _count_rows(5, (2,), (1,)) == [(1,)]
    assert _count_rows(5, (2, 3), (1, 2)) == [(1, 5), (1,)]


def shared_row_cases(rng):
    """Vectors whose rows repeat in every way count_matrix can copy them."""
    r = 13
    us = units_of(r)
    cases = [(r, (1,) * 9), (r, tuple(4 * pow(6, k, r) % r for k in range(10)))]
    for period in (2, 3, 4):
        steps = [rng.choice(us) for _ in range(period)]
        m = [1]
        while len(m) < 11:
            m.append(m[-1] * steps[len(m) % period] % r)
        cases.append((r, tuple(m)))
        head = [rng.choice(us) for _ in range(4)]
        cases.append((r, tuple(head + [head[-1] * v % r for v in m[1:8]])))
    # m = k! mod r has ratios 3, 4, .., 8: no tail repeats
    cases.append((r, tuple(math.prod(range(2, k + 1)) % r for k in range(1, 9))))
    cases += [(r, (5,)), (r, (5, 2)), (r, (5, 2, 7)), (30, (1, 7, 11, 7, 11, 7))]
    return cases


def test_count_matrix_shared_rows_match_reference():
    for r, m in shared_row_cases(random.Random(23)):
        expected = tuple((0,) * i + row for i, row in enumerate(reference_rows(r, m)))
        assert count_matrix(LensParams(r, m)).entries == expected, (r, m)


def brute_repeated_tail(ratios, n):
    size = n - 2
    if size < 1:
        return n
    return min(
        top
        for top in range(size + 1)
        for p in range(1, top + 1)
        if all(ratios[i:] == ratios[i - p : size - p] for i in range(top, size + 1))
    )


def test_repeated_tail_matches_brute_force():
    rng = random.Random(2023)
    for _ in range(400):
        n = rng.randrange(0, 13)
        ratios = tuple(rng.randrange(rng.randrange(1, 4)) for _ in range(max(n - 2, 0)))
        top, p = _repeated_tail(ratios, n)
        assert top == brute_repeated_tail(ratios, n), (ratios, n)
        if n >= 3:
            assert 1 <= p <= top <= n - 2
            assert ratios[top:] == ratios[top - p : n - 2 - p]
        else:
            assert (top, p) == (n, 1)


def test_all_ones_matrix_computes_one_row(capsys, monkeypatch):
    # Every row of the all-ones vector is a prefix of row 1.
    calls = []
    count_rows = qlens.pathmatrix._count_rows

    def spy(r, m, rows):
        calls.append(list(rows))
        return count_rows(r, m, rows)

    monkeypatch.setattr(qlens.pathmatrix, "_count_rows", spy)
    assert main(["matrix", "--r", "10007", "--m", ",".join(["1"] * 64), "--format", "json"]) == 0
    assert calls == [[1]]
    entries = closed_form_all_ones(10007, 64).entries
    assert json.loads(capsys.readouterr().out) == {
        "r": 10007, "m": [1] * 64, "n": 64, "entries": [str(v) for row in entries for v in row]
    }


def test_shared_rows_in_pool_match_serial(monkeypatch):
    # jobs=3 with the gate forced to 0: each computed row group goes to a worker
    serial = [count_matrix(LensParams(r, m)) for r, m in shared_row_cases(random.Random(29))]
    monkeypatch.setattr(qlens.pathmatrix, "POOL_MIN_ROW_STEPS", 0)
    pooled = [count_matrix(LensParams(r, m), jobs=3) for r, m in shared_row_cases(random.Random(29))]
    assert pooled == serial


def test_count_matrix_frozen_examples():
    assert count_matrix(LensParams(3, (1, 1, 1, 1))).entry(1, 4) == 10
    assert count_matrix(LensParams(3, (1, 2, 1, 1))).entry(1, 4) == 11
    assert count_matrix(LensParams(5, (1, 2, 1))).entries == (
        (1, 5, 15),
        (0, 1, 5),
        (0, 0, 1),
    )


def test_count_matrix_matches_oracle():
    rng = random.Random(20260815)
    cases = [(3, (1, 2, 1, 1)), (3, (1, 1, 1, 1)), (5, (1, 2, 1)), (7, (2, 5, 3, 1))]
    for r in (3, 4, 5, 6):
        us = units_of(r)
        for _ in range(2):
            n = rng.randrange(1, 5)
            cases.append((r, tuple(rng.choice(us) for _ in range(n))))
    for r, m in cases:
        p = LensParams(r, m)
        mat = count_matrix(p)
        g = build_graph(p, "N")
        for i in range(1, p.n + 1):
            for j in range(i, p.n + 1):
                assert mat.entry(i, j) == enumerate_legal_paths(g, i, j), (r, m, i, j)


def test_count_matrix_shape_invariants():
    rng = random.Random(11)
    for _ in range(20):
        p = random_params(rng)
        mat = count_matrix(p)
        assert mat.n == p.n
        for i in range(1, p.n + 1):
            assert mat.entry(i, i) == 1
            for j in range(1, i):
                assert mat.entry(i, j) == 0
            for j in range(i, p.n + 1):
                assert mat.entry(i, j) > 0
        for i in range(1, p.n):
            assert mat.entry(i, i + 1) == p.r
        for i in range(1, p.n - 1):
            assert mat.entry(i, i + 2) == p.r * (p.r + 1) // 2


def test_count_matrix_scaling_invariance():
    rng = random.Random(5150)
    for _ in range(12):
        p = random_params(rng, r_max=25, n_max=6)
        b = rng.choice(units_of(p.r))
        assert count_matrix(p).entries == count_matrix(scale(p, b)).entries


def test_count_matrix_ignores_first_and_last_entry():
    rng = random.Random(314)
    for _ in range(12):
        p = random_params(rng, r_max=25, n_max=6)
        us = units_of(p.r)
        m2 = list(p.m)
        m2[0] = rng.choice(us)
        m2[-1] = rng.choice(us)
        q = LensParams(p.r, tuple(m2))
        assert count_matrix(p).entries == count_matrix(q).entries


def test_count_matrix_submatrix_consistency():
    rng = random.Random(777)
    for _ in range(10):
        p = random_params(rng, r_max=20, n_max=7)
        mat = count_matrix(p)
        i = rng.randrange(1, p.n + 1)
        j = rng.randrange(i, p.n + 1)
        sub = count_matrix(LensParams(p.r, p.m[i - 1 : j]))
        for a in range(i, j + 1):
            for b in range(i, j + 1):
                assert mat.entry(a, b) == sub.entry(a - i + 1, b - i + 1)


def ratios_of(p):
    return tuple(u * pow(f, -1, p.r) % p.r for f, u in zip(p.m[1:], p.m[2:]))


def test_count_matrix_parallel_matches_serial(monkeypatch):
    # r * n * top = 3001 * 64 * 61 (the last two ratios agree) is above the
    # row pool's gate
    rng = random.Random(3001)
    p = LensParams(3001, tuple(rng.choice(units_of(3001)) for _ in range(64)))
    top, _ = _repeated_tail(ratios_of(p), p.n)
    assert p.r * p.n * top >= qlens.pathmatrix.POOL_MIN_ROW_STEPS
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    serial = count_matrix(p)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert count_matrix(p, jobs=2) == serial
    assert started == [{"max_workers": 2}]
    assert count_matrix(p, jobs=1) == serial
    assert len(started) == 1


def test_one_row_starts_no_pool(monkeypatch):
    # One task runs in process whatever jobs and the gate say.
    def refuse(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(qlens.pathmatrix, "POOL_MIN_ROW_STEPS", 0)
    assert count_matrix(LensParams(7, (3,)), jobs=2).entries == ((1,),)


@pytest.mark.parametrize("n", [1, 2])
def test_row_pool_with_more_jobs_than_rows_matches_serial(monkeypatch, n):
    # min(jobs, n) row groups: two workers at n = 2, none at n = 1
    monkeypatch.setattr(qlens.pathmatrix, "POOL_MIN_ROW_STEPS", 0)
    p = LensParams(11, (3, 7)[:n])
    assert count_matrix(p, jobs=3).entries == tuple(
        (0,) * i + row for i, row in enumerate(reference_rows(11, p.m))
    )


def test_count_matrix_refuses_past_the_row_step_bound_before_any_state(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("a row state was built")

    monkeypatch.setattr(qlens.pathmatrix, "_count_rows", refuse)
    start = time.perf_counter()
    assert main(["matrix", "--r", "1000000000", "--m", "1"]) == 3
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: matrix needs over 100000000 row steps (r * n^2)\n"
    # r * n^2 at the bound is allowed (63), past it is not (72)
    monkeypatch.undo()
    monkeypatch.setattr(qlens.pathmatrix, "MATRIX_MAX_ROW_STEPS", 7 * 3**2)
    assert count_matrix(LensParams(7, (1, 2, 3))).entry(1, 3) == 28
    with pytest.raises(BudgetExceededError):
        count_matrix(LensParams(8, (1, 3, 5)))


def test_closed_form_examples():
    assert closed_form_all_ones(5, 3).entry(1, 3) == 15
    assert closed_form_all_ones(3, 4).entry(1, 4) == 10
    mat = closed_form_all_ones(7, 5)
    for i in range(1, 6):
        assert mat.entry(i, i) == 1


def test_closed_form_matches_dp():
    for r in range(3, 31):
        assert closed_form_all_ones(r, 8).entries == count_matrix(LensParams(r, (1,) * 8)).entries


def test_closed_form_validation():
    with pytest.raises(BadModulusError):
        closed_form_all_ones(2, 3)
    with pytest.raises(InvalidParamsError):
        closed_form_all_ones(5, 0)


def test_poly_1to6_values():
    assert poly_1to6(4) == 109
    assert poly_1to6(5) == 309
    assert poly_1to6(3) == count_matrix(LensParams(3, (1, 1, 2, 1, 1, 1))).entry(1, 6)


def test_poly_1to6_matches_dp():
    for r in (3, 4, 5, 7, 8, 9, 11, 12):
        p = LensParams(r, (1, 1, r - 1, 1, 1, 1))
        assert poly_1to6(r) == count_matrix(p).entry(1, 6)


def test_poly_1to6_validation():
    with pytest.raises(BadModulusError):
        poly_1to6(2)


def test_normalize_examples():
    assert normalize(LensParams(5, (2, 4, 2, 2))).m == (1, 1, 3, 1)
    assert normalize(LensParams(5, (1, 1, 1, 1))).m == (1, 1, 1, 1)
    assert normalize(LensParams(3, (2, 2))).m == (1, 1)
    assert normalize(LensParams(7, (3,))).m == (1,)


def test_normalize_preserves_matrix():
    rng = random.Random(2024)
    for _ in range(12):
        p = random_params(rng, r_max=20, n_max=6)
        q = normalize(p)
        assert q.m[0] == 1 and q.m[-1] == 1
        if q.n >= 2:
            assert q.m[1] == 1
        assert count_matrix(p).entries == count_matrix(q).entries


def test_json_round_trip(capsys):
    mat = count_matrix(LensParams(5, (1, 2, 1)))
    assert main(["matrix", "--r", "5", "--m", "1,2,1", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["r"] == 5
    assert payload["m"] == [1, 2, 1]
    assert payload["n"] == 3
    assert payload["entries"] == ["1", "5", "15", "0", "1", "5", "0", "0", "1"]
    # row-major decimal strings of the library's entries
    assert payload["entries"] == [str(v) for row in mat.entries for v in row]


def test_csv_matches_entries(capsys):
    mat = count_matrix(LensParams(5, (1, 2, 1)))
    assert main(["matrix", "--r", "5", "--m", "1,2,1", "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [[int(v) for v in row] for row in rows] == [list(r) for r in mat.entries]


def test_entry_bounds_checked():
    mat = count_matrix(LensParams(5, (1, 2, 1)))
    for i, j in [(0, 1), (1, 4), (4, 4), (2, 0)]:
        with pytest.raises(IndexOutOfRangeError):
            mat.entry(i, j)


def test_pathmatrix_shape_validation():
    with pytest.raises(DimensionMismatchError):
        PathMatrix(5, (1, 1), ((1, 2), (0,)))
    with pytest.raises(DimensionMismatchError):
        PathMatrix(5, (1,), ((1, 2), (0, 1)))
    with pytest.raises(DimensionMismatchError):
        PathMatrix(5, (1,), ((1,),))._replace(m=(1, 1))
