"""Tests for the path-count DP, closed forms, and normalization."""

import concurrent.futures
import csv
import io
import json
import math
import random

import pytest

import qlens.pathmatrix
from qlens.cli import main
from qlens.errors import (
    BadModulusError,
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParamsError,
)
from qlens.lensgraph import LensParams, build_graph, enumerate_legal_paths, scale
from qlens.pathmatrix import (
    PathMatrix,
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


def test_count_matrix_parallel_matches_serial(monkeypatch):
    # r * n^2 = 2003 * 48^2 is above the row pool's gate
    rng = random.Random(2003)
    p = LensParams(2003, tuple(rng.choice(units_of(2003)) for _ in range(48)))
    assert p.r * p.n**2 >= qlens.pathmatrix.POOL_MIN_ROW_STEPS
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
    payload = json.loads(mat.to_json())
    assert payload["r"] == 5
    assert payload["m"] == [1, 2, 1]
    assert payload["n"] == 3
    assert payload["entries"] == ["1", "5", "15", "0", "1", "5", "0", "0", "1"]
    # matrix --format json prints this JSON, byte for byte
    assert main(["matrix", "--r", "5", "--m", "1,2,1", "--format", "json"]) == 0
    assert capsys.readouterr().out == mat.to_json() + "\n"


def test_csv_matches_entries():
    mat = count_matrix(LensParams(5, (1, 2, 1)))
    rows = list(csv.reader(io.StringIO(mat.to_csv())))
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
