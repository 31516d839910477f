"""Tests for Diophantine solving and the equivalence decision."""

import itertools
import json
import math
import random
from fractions import Fraction

import pytest

from qlens.errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParamsError,
)
from qlens.classify import DEFAULT_VECTOR_BUDGET, _build_records
from qlens.cli import main
from qlens.equivalence import (
    CornerObstruction,
    Witness,
    _best_corner_obstruction,
    block_obstruction,
    decide_equiv,
    distance_normal_form,
    obstruction_mod_k,
    solve_diophantine,
    submatrix_necessary,
    unipotent_inverse,
    verify_witness,
)
from qlens.lensgraph import LensParams
from qlens.pathmatrix import closed_form_all_ones, count_matrix


def matmul(x, y):
    return [
        [sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0]))]
        for i in range(len(x))
    ]


def dense_system(a, b):
    """Dense M, c of the equation in the equivalence module docstring: one
    row per strictly-upper (i, j), unknowns U' then V' in row-major order."""
    n = len(a)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    index = {pos: e for e, pos in enumerate(positions)}
    half = len(positions)
    matrix, c = [], []
    for i, j in positions:
        row = [0] * (2 * half)
        for k in range(i + 1, j):
            row[index[i, k]] += a[k][j]
            row[half + index[k, j]] -= b[i][k]
        matrix.append(row)
        c.append(b[i][j] - a[i][j])
    return matrix, c


def witness_from(n, x):
    """(U, V) read from a solution x of dense_system."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for e, (i, j) in enumerate(positions):
        u[i][j] = x[e]
        v[i][j] = x[len(positions) + e]
    return Witness(tuple(map(tuple, u)), tuple(map(tuple, v)))


def test_solve_examples():
    assert solve_diophantine([[1, 0], [0, 1]], (3, -4)) == (3, -4)
    assert solve_diophantine([[2]], [3]) is None
    assert solve_diophantine([[2, 0], [0, 3]], (4, 3)) == (2, 1)


def test_solve_zero_rows():
    assert solve_diophantine([[0, 0]], [0]) == (0, 0)
    assert solve_diophantine([[0, 0]], [5]) is None


def test_solve_dimension_mismatch():
    with pytest.raises(DimensionMismatchError):
        solve_diophantine([[1, 2]], [1, 2])


def test_snf_rejects_ragged():
    # Ragged rows are rejected by the column-echelon solve that replaced
    # the Smith normal form.
    with pytest.raises(DimensionMismatchError):
        solve_diophantine([[1, 2], [3]], [1, 2])


def test_solve_random_feasible():
    rng = random.Random(616)
    for _ in range(60):
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 7)
        matrix = [[rng.randrange(-8, 9) for _ in range(cols)] for _ in range(rows)]
        x = [rng.randrange(-5, 6) for _ in range(cols)]
        c = [sum(mv * xv for mv, xv in zip(row, x)) for row in matrix]
        sol = solve_diophantine(matrix, c)
        assert sol is not None
        assert [sum(mv * sv for mv, sv in zip(row, sol)) for row in matrix] == c


def random_unimodular(rng, n):
    """Identity scrambled by row additions, swaps and sign changes."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            q = rng.randrange(-3, 4)
            m[i] = [a + q * b for a, b in zip(m[i], m[j])]
            if rng.random() < 0.3:
                m[i], m[j] = m[j], m[i]
        elif rng.random() < 0.3:
            m[i] = [-a for a in m[i]]
    return m


def test_solve_detects_infeasible():
    assert solve_diophantine([[2, 4], [0, 2]], (1, 0)) is None
    assert solve_diophantine([[3, 3]], [2]) is None
    # M = P diag(d) Q and c = P e with P, Q unimodular: M x = c is
    # solvable iff d_i divides e_i for every i (e_i = 0 where d_i = 0 or
    # there is no d_i). One e_i is drawn to break that, then mended.
    rng = random.Random(2718)
    for _ in range(60):
        rows = rng.randrange(1, 7)
        cols = rng.randrange(1, 8)
        d = [rng.randrange(0, 7) for _ in range(min(rows, cols))] + [0] * max(0, rows - cols)
        e = [d[i] * rng.randrange(-5, 6) for i in range(rows)]
        bad = rng.randrange(rows)
        if d[bad] == 1:
            d[bad] = rng.randrange(2, 7)
        e[bad] += rng.randrange(1, d[bad]) if d[bad] else rng.choice([-1, 1]) * rng.randrange(1, 9)
        diag = [[d[i] if i == j else 0 for j in range(cols)] for i in range(rows)]
        p = random_unimodular(rng, rows)
        matrix = matmul(matmul(p, diag), random_unimodular(rng, cols))
        c = [sum(pv * ev for pv, ev in zip(row, e)) for row in p]
        assert solve_diophantine(matrix, c) is None, (matrix, c)
        e[bad] = d[bad] * rng.randrange(-5, 6)
        c = [sum(pv * ev for pv, ev in zip(row, e)) for row in p]
        x = solve_diophantine(matrix, c)
        assert x is not None
        assert [sum(mv * xv for mv, xv in zip(row, x)) for row in matrix] == c


def test_solve_systems_shaped_like_equivalence():
    # Like the systems of decide_equiv: more columns than rows, all-zero
    # columns (unknowns no equation uses) and all-zero rows (equations
    # without unknowns), around a core M = P diag(d) Q with c = P e that
    # is solvable iff d_i divides e_i for every i.
    rng = random.Random(4242)
    for _ in range(80):
        core_rows = rng.randrange(1, 6)
        core_cols = rng.randrange(core_rows, core_rows + 4)
        rows = core_rows + rng.randrange(0, 4)
        cols = max(rows + 1, core_cols + rng.randrange(1, 4))
        d = [rng.randrange(0, 7) for _ in range(core_rows)]
        e = [di * rng.randrange(-5, 6) for di in d]
        p = random_unimodular(rng, core_rows)
        diag = [[d[i] if i == j else 0 for j in range(core_cols)] for i in range(core_rows)]
        core = matmul(matmul(p, diag), random_unimodular(rng, core_cols))
        row_at = sorted(rng.sample(range(rows), core_rows))
        col_at = sorted(rng.sample(range(cols), core_cols))
        matrix = [[0] * cols for _ in range(rows)]
        c = [0] * rows
        for ci, i in enumerate(row_at):
            c[i] = sum(pv * ev for pv, ev in zip(p[ci], e))
            for cj, j in enumerate(col_at):
                matrix[i][j] = core[ci][cj]
        x = solve_diophantine(matrix, c)
        assert x is not None, (matrix, c)
        assert [sum(mv * xv for mv, xv in zip(row, x)) for row in matrix] == c
        assert all(x[j] == 0 for j in range(cols) if j not in col_at)
        if rows > core_rows:
            zero_row = rng.choice([i for i in range(rows) if i not in row_at])
            shifted = c[:zero_row] + [rng.choice([-1, 1])] + c[zero_row + 1:]
            assert solve_diophantine(matrix, shifted) is None
        bad = rng.randrange(core_rows)
        if d[bad] != 1:
            e[bad] += rng.randrange(1, d[bad]) if d[bad] else rng.choice([-1, 1])
            for ci, i in enumerate(row_at):
                c[i] = sum(pv * ev for pv, ev in zip(p[ci], e))
            assert solve_diophantine(matrix, c) is None, (matrix, c)


def test_decide_equiv_equal_matrices():
    x = count_matrix(LensParams(5, (1, 2, 1)))
    decision = decide_equiv(x, x)
    assert decision.equivalent
    assert decision.witness is not None
    assert verify_witness(x, x, decision.witness)
    n = x.n
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    assert decision.witness.U == ident
    assert decision.witness.V == ident


def test_decide_equiv_negative_pair():
    a = count_matrix(LensParams(3, (1, 1, 1, 1)))
    b = count_matrix(LensParams(3, (1, 2, 1, 1)))
    decision = decide_equiv(a, b)
    assert not decision.equivalent
    assert decision.obstruction is not None
    assert decision.obstruction.k == 3
    assert decision.obstruction.position == (1, 4)
    # the full system agrees: it has no integer solution
    assert solve_diophantine(*dense_system(a.entries, b.entries)) is None


def test_decide_equiv_positive_pair():
    a = count_matrix(LensParams(5, (1, 1, 1, 1)))
    b = count_matrix(LensParams(5, (1, 2, 1, 1)))
    decision = decide_equiv(a, b)
    assert decision.equivalent
    assert verify_witness(a, b, decision.witness)
    x = solve_diophantine(*dense_system(a.entries, b.entries))
    assert verify_witness(a, b, witness_from(4, x))


def test_corner_obstruction_picks_the_prime_power():
    def pair(corner):
        a = ((1, 12, 0), (0, 1, 12), (0, 0, 1))
        return a, ((1, 12, corner), (0, 1, 12), (0, 0, 1))

    for corner, k, rhs in ((4, 3, 1), (3, 4, 3), (6, 4, 2)):
        decision = decide_equiv(*pair(corner))
        assert not decision.equivalent
        assert decision.reason == f"corner entries at (1, 3) differ modulo {k}: 0 vs {rhs}"
        assert decision.obstruction == obstruction_mod_k(*pair(corner), k)
    decision = decide_equiv(*pair(12))
    assert decision.equivalent and decision.reason == "witness found"
    assert verify_witness(*pair(12), decision.witness)


def smallest_separating_prime_power(a, b):
    """Corner obstruction at the prime power of the smallest prime of d, the
    gcd of every non-corner strictly-upper entry, on which the corners
    differ, found by trial division of d; None when there is none."""
    n = len(a)
    d = math.gcd(*(m[i][j] for m in (a, b) for i in range(n) for j in range(i + 1, n)
                   if (i, j) != (0, n - 1)))
    rest, p = d, 2
    while rest > 1:
        k = 1
        while rest % p == 0:
            rest //= p
            k *= p
        if (a[0][-1] - b[0][-1]) % k:
            return CornerObstruction(k, (1, n), a[0][-1] % k, b[0][-1] % k)
        p += 1
    return None


def test_corner_obstruction_matches_trial_division():
    # on path matrices the gcd reading gives the smallest separating prime power
    cells = [(15, 4, None), (45, 4, None), (72, 4, None), (120, 4, None), (10, 6, None), (40, 6, 120)]
    for r, n, first in cells:
        entries = [rec.entries for rec in _build_records(r, n, DEFAULT_VECTOR_BUDGET)[:first]]
        fired = 0
        for a, b in itertools.combinations(entries, 2):
            expected = smallest_separating_prime_power(a, b)
            assert _best_corner_obstruction(a, b) == expected, (r, n, a, b)
            if expected is not None:
                fired += 1
                assert decide_equiv(a, b).obstruction == expected, (r, n, a, b)
        assert fired, (r, n)


def test_corner_obstruction_takes_every_separating_prime():
    # d = 15 and the corners differ modulo both 3 and 5
    a = ((1, 15, 0), (0, 1, 15), (0, 0, 1))
    b = ((1, 15, 1), (0, 1, 15), (0, 0, 1))
    decision = decide_equiv(a, b)
    assert not decision.equivalent
    assert decision.reason == "corner entries at (1, 3) differ modulo 15: 0 vs 1"
    assert decision.obstruction == CornerObstruction(15, (1, 3), 0, 1)


def test_corner_obstruction_does_not_factor():
    # d is the 54-bit square of the prime 100000007: trial division of d
    # takes seconds
    p = 100000007
    d = p * p
    a = ((1, d, 0), (0, 1, d), (0, 0, 1))
    b = ((1, d, p), (0, 1, d), (0, 0, 1))
    assert decide_equiv(a, b).obstruction == CornerObstruction(d, (1, 3), 0, p)


def test_decide_equiv_proof_matrices_6x6():
    def six_by_six(corner):
        strict = [
            [0, 4, 2, 0, 1, corner],
            [0, 0, 4, 2, 0, 1],
            [0, 0, 0, 4, 2, 0],
            [0, 0, 0, 0, 4, 2],
            [0, 0, 0, 0, 0, 4],
            [0, 0, 0, 0, 0, 0],
        ]
        return tuple(
            tuple(v + int(i == j) for j, v in enumerate(row))
            for i, row in enumerate(strict)
        )

    for corner in (1, -1):
        decision = decide_equiv(six_by_six(corner), six_by_six(0))
        assert not decision.equivalent
        assert decision.reason == "Diophantine system infeasible"


def test_decide_equiv_proof_matrices_5x5():
    def five_by_five(r, x2):
        strict = [
            [0, r, r // 2, 0, x2 * r // 4],
            [0, 0, r, r * (r + 1) // 2, 0],
            [0, 0, 0, r, r // 2],
            [0, 0, 0, 0, r],
            [0, 0, 0, 0, 0],
        ]
        return tuple(
            tuple(v + int(i == j) for j, v in enumerate(row))
            for i, row in enumerate(strict)
        )

    for r in (4, 8):
        a = five_by_five(r, 1)
        b = five_by_five(r, 3)
        decision = decide_equiv(a, b)
        assert decision.equivalent
        assert verify_witness(a, b, decision.witness)


def test_obstruction_mod_k_examples():
    a = count_matrix(LensParams(3, (1, 1, 1, 1)))
    b = count_matrix(LensParams(3, (1, 2, 1, 1)))
    obstruction = obstruction_mod_k(a, b, 3)
    assert obstruction is not None
    assert obstruction.position == (1, 4)
    assert {obstruction.lhs_residue, obstruction.rhs_residue} == {10 % 3, 11 % 3}
    assert obstruction_mod_k(a, a, 3) is None
    assert obstruction_mod_k(
        closed_form_all_ones(5, 3), count_matrix(LensParams(5, (1, 2, 1))), 5
    ) is None


def test_obstruction_mod_k_validates_k():
    a = count_matrix(LensParams(3, (1, 1, 1)))
    with pytest.raises(InvalidParamsError):
        obstruction_mod_k(a, a, 1)


def test_obstruction_mod_k_small_and_mismatched():
    assert obstruction_mod_k(((1,),), ((1,),), 2) is None
    with pytest.raises(DimensionMismatchError):
        obstruction_mod_k(((1, 2), (0, 1)), ((1, 2, 0), (0, 1, 2), (0, 0, 1)), 2)


def test_pair_functions_share_the_size_message():
    small = ((1, 2), (0, 1))
    large = ((1, 2, 0), (0, 1, 2), (0, 0, 1))
    for call in (decide_equiv, lambda x, y: obstruction_mod_k(x, y, 2),
                 lambda x, y: submatrix_necessary(x, y, 1, 1)):
        with pytest.raises(DimensionMismatchError, match="^matrices have dimensions 2 and 3$"):
            call(small, large)
        with pytest.raises(DimensionMismatchError, match="^matrices have dimensions 3 and 2$"):
            call(large, small)


def test_obstruction_never_contradicts_solver():
    a = count_matrix(LensParams(3, (1, 1, 1, 1)))
    b = count_matrix(LensParams(3, (1, 2, 1, 1)))
    assert obstruction_mod_k(a, b, 3) is not None
    assert solve_diophantine(*dense_system(a.entries, b.entries)) is None


def random_unipotent(rng, n, span=4):
    return tuple(
        tuple(
            1 if i == j else (rng.randrange(-span, span + 1) if j > i else 0)
            for j in range(n)
        )
        for i in range(n)
    )


def transformed_pair(rng, params):
    """(A, B) guaranteed equivalent: B - I = U (A - I) V^{-1}."""
    a = count_matrix(params).entries
    n = len(a)
    u = random_unipotent(rng, n)
    v = random_unipotent(rng, n)
    a_minus = [[a[i][j] - int(i == j) for j in range(n)] for i in range(n)]
    prod = matmul(matmul([list(r) for r in u], a_minus), [list(r) for r in unipotent_inverse(v)])
    b = tuple(
        tuple(prod[i][j] + int(i == j) for j in range(n)) for i in range(n)
    )
    return a, b


def test_decide_equiv_recognizes_transforms():
    rng = random.Random(424242)
    small = ((rng.choice([3, 4, 5, 7, 9]), rng.randrange(2, 7)) for _ in range(15))
    large = ((7, 12), (4, 12), (11, 16), (9, 16))
    for r, n in itertools.chain(small, large):
        us = [u for u in range(1, r) if math.gcd(u, r) == 1]
        params = LensParams(r, tuple(rng.choice(us) for _ in range(n)))
        a, b = transformed_pair(rng, params)
        decision = decide_equiv(a, b)
        assert decision.equivalent, (params, b)
        assert verify_witness(a, b, decision.witness)


def test_decide_equiv_eq_matrices_fast_path_consistency():
    # For 4 not dividing r with odd part s, matrices with the two forced
    # diagonals and all other strict-upper entries divisible by s are
    # pairwise equivalent; the solver must confirm on generated instances.
    rng = random.Random(9090)
    for r in (3, 5, 6, 7, 9, 10):
        s = r if r % 2 else r // 2
        for n in (4, 5):
            def sample():
                rows = []
                for i in range(n):
                    row = []
                    for j in range(n):
                        if j == i:
                            row.append(1)
                        elif j == i + 1:
                            row.append(r)
                        elif j == i + 2:
                            row.append(r * (r + 1) // 2)
                        elif j > i:
                            row.append(s * rng.randrange(0, 12))
                        else:
                            row.append(0)
                    rows.append(tuple(row))
                return tuple(rows)

            a, b = sample(), sample()
            decision = decide_equiv(a, b)
            assert decision.equivalent, (r, n, a, b)
            assert verify_witness(a, b, decision.witness)


def test_equivalence_relation_properties():
    params = [
        LensParams(3, (1, 1, 1, 1)),
        LensParams(3, (1, 2, 1, 1)),
        LensParams(3, (1, 1, 2, 1)),
        LensParams(3, (1, 2, 2, 1)),
    ]
    mats = [count_matrix(p) for p in params]
    for x in mats:
        assert decide_equiv(x, x).equivalent
    verdicts = {}
    for i, x in enumerate(mats):
        for j, y in enumerate(mats):
            verdicts[(i, j)] = decide_equiv(x, y).equivalent
            assert verdicts[(i, j)] == verdicts.get((j, i), verdicts[(i, j)])
    for i in range(len(mats)):
        for j in range(len(mats)):
            for k in range(len(mats)):
                if verdicts[(i, j)] and verdicts[(j, k)]:
                    assert verdicts[(i, k)]


def test_verify_witness_rejects_bad_shapes():
    x = count_matrix(LensParams(5, (1, 2, 1)))
    n = x.n
    ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
    bad_diag = tuple(
        tuple(2 if i == j == 0 else int(i == j) for j in range(n)) for i in range(n)
    )
    assert verify_witness(x, x, Witness(ident, ident))
    assert not verify_witness(x, x, Witness(bad_diag, ident))
    lower = tuple(
        tuple(1 if (i, j) == (2, 0) else int(i == j) for j in range(n))
        for i in range(n)
    )
    assert not verify_witness(x, x, Witness(lower, ident))
    small = ((1, 0), (0, 1))
    assert not verify_witness(x, x, Witness(small, small))


def test_verify_witness_rejects_tampering():
    a = count_matrix(LensParams(5, (1, 1, 1, 1)))
    b = count_matrix(LensParams(5, (1, 2, 1, 1)))
    w = decide_equiv(a, b).witness
    u = [list(row) for row in w.U]
    u[0][1] += 1
    assert not verify_witness(a, b, Witness(tuple(tuple(r) for r in u), w.V))


def test_verify_witness_matches_reference_product():
    # B - I = U (A - I) V^-1 makes (U, V) a witness; the file's own matmul
    # is the reference. A has a nonzero superdiagonal, so a changed U[0][1]
    # changes row 0 of U(A - I); U[i][n-1] meets row n-1 of A - I and V[0][j]
    # meets column 0 of B - I, both zero, so those entries are free.
    rng = random.Random(1616)

    def strict(m):
        return [[x - (i == j) for j, x in enumerate(row)] for i, row in enumerate(m)]

    def holds(a, b, u, v):
        return matmul(u, strict(a)) == matmul(strict(b), v)

    def changed(m, i, j):
        m = [list(row) for row in m]
        m[i][j] += 1
        return tuple(map(tuple, m))

    for n in range(1, 7):
        for _ in range(20):
            a = [list(row) for row in random_unipotent(rng, n)]
            for i in range(n - 1):
                a[i][i + 1] = rng.choice([-3, -2, -1, 1, 2, 3])
            u = random_unipotent(rng, n)
            v = random_unipotent(rng, n)
            prod = matmul(matmul(u, strict(a)), unipotent_inverse(v))
            b = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(prod)]
            cases = [(u, v, True)]
            if n >= 2:
                cases.append((changed(u, 0, 1), v, n < 3))
                cases.append((changed(u, rng.randrange(n - 1), n - 1), v, True))
                cases.append((u, changed(v, 0, rng.randrange(1, n)), True))
            for uu, vv, expected in cases:
                assert holds(a, b, uu, vv) == expected
                assert verify_witness(a, b, Witness(uu, vv)) == expected, (a, b, uu, vv)
    short = (u[0], u[1][:-1]) + u[2:]
    assert verify_witness(a, b, Witness(short, v)) is False
    assert verify_witness(a, b, Witness(u, v[:-1] + (v[-1][1:],))) is False


def test_submatrix_necessary():
    a = count_matrix(LensParams(3, (1, 1, 1, 1)))
    b = count_matrix(LensParams(3, (1, 2, 1, 1)))
    assert submatrix_necessary(a, a, 1, 3)
    assert not submatrix_necessary(a, b, 1, 3)
    assert submatrix_necessary(a, b, 1, 2)
    assert submatrix_necessary(a, b, 2, 2)
    with pytest.raises(IndexOutOfRangeError):
        submatrix_necessary(a, b, 1, 4)
    with pytest.raises(IndexOutOfRangeError):
        submatrix_necessary(a, b, 0, 2)


def test_unipotent_inverse():
    rng = random.Random(31337)
    for _ in range(20):
        n = rng.randrange(1, 8)
        u = random_unipotent(rng, n, span=6)
        inv = unipotent_inverse(u)
        ident = [[int(i == j) for j in range(n)] for i in range(n)]
        assert matmul([list(r) for r in u], [list(r) for r in inv]) == ident


def test_decide_equiv_validates_input():
    a = count_matrix(LensParams(5, (1, 2, 1)))
    b = count_matrix(LensParams(5, (1, 2, 1, 1)))
    with pytest.raises(DimensionMismatchError):
        decide_equiv(a, b)
    with pytest.raises(InvalidParamsError):
        decide_equiv(((2, 0), (0, 1)), ((1, 0), (0, 1)))
    with pytest.raises(InvalidParamsError):
        decide_equiv(((1, 0), (1, 1)), ((1, 0), (0, 1)))


def test_decide_equiv_deterministic_witness():
    a = count_matrix(LensParams(5, (1, 1, 1, 1)))
    b = count_matrix(LensParams(5, (1, 3, 1, 1)))
    w1 = decide_equiv(a, b).witness
    w2 = decide_equiv(a, b).witness
    assert w1 == w2


def _equiv_json(capsys, r, m1, m2) -> dict:
    argv = ["equiv", "--r", str(r), "--m1", m1, "--m2", m2, "--format", "json"]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_decide_equiv_witness_entries_stay_small(capsys):
    # A pair from classes --r 12 --n 7 on which a Smith-normal-form solve
    # gives 10,135-bit witness entries, where this solver's stay below 256 bits.
    a = count_matrix(LensParams(12, (1, 1, 5, 7, 5, 1, 1)))
    b = count_matrix(LensParams(12, (1, 1, 11, 1, 11, 1, 1)))
    decision = decide_equiv(a, b)
    assert decision.equivalent
    w = decision.witness
    assert all(abs(v) < 2**256 for mat in (w.U, w.V) for row in mat for v in row)
    payload = _equiv_json(capsys, 12, "1,1,5,7,5,1,1", "1,1,11,1,11,1,1")
    assert Witness(*(tuple(tuple(map(int, row)) for row in payload["witness"][k]) for k in "UV")) == w


def test_witness_json_round_trip(capsys):
    a = count_matrix(LensParams(5, (1, 1, 1, 1)))
    b = count_matrix(LensParams(5, (1, 2, 1, 1)))
    w = decide_equiv(a, b).witness
    # entries are decimal strings, in equiv --format json as on plain equiv's witness line
    decimal = {k: [[str(v) for v in row] for row in m] for k, m in (("U", w.U), ("V", w.V))}
    assert _equiv_json(capsys, 5, "1,1,1,1", "1,2,1,1")["witness"] == decimal
    assert main(["equiv", "--r", "5", "--m1", "1,1,1,1", "--m2", "1,2,1,1"]) == 0
    line = capsys.readouterr().out.splitlines()[2]
    assert line.startswith("witness: ") and json.loads(line.removeprefix("witness: ")) == decimal


def test_library_refuses_entries_that_are_not_integers():
    # int() would truncate 2.7 to 2 and call the pair equal
    with pytest.raises(InvalidParamsError, match=r"^A entry \(1, 2\) is not an integer: 2\.7$"):
        decide_equiv(((1, 2.7), (0, 1)), ((1, 2), (0, 1)))
    with pytest.raises(InvalidParamsError, match=r"^B entry \(1, 2\) is not an integer: '2'$"):
        decide_equiv(((1, 2), (0, 1)), ((1, "2"), (0, 1)))
    # int() would solve 2x = 5
    with pytest.raises(InvalidParamsError, match=r"^matrix entry \(1, 1\) is not an integer: 2\.5$"):
        solve_diophantine([[2.5]], [5])
    with pytest.raises(InvalidParamsError, match=r"^right-hand side entry \(1, 2\) is not an integer: '5'$"):
        solve_diophantine([[2], [3]], [4, "5"])
    with pytest.raises(InvalidParamsError, match="matrix entry"):
        unipotent_inverse(((1, 0.5), (0, 1)))
    # exact integers of any integer type are read as ints
    assert solve_diophantine([[True, 2]], [3]) == (3, 0)


def test_verify_witness_refuses_a_rational_witness():
    # decide_equiv refutes this pair modulo 2, yet U(A - I) = (B - I)V holds
    # over the rationals with U[0][1] = 1/2
    a = ((1, 2, 0), (0, 1, 2), (0, 0, 1))
    b = ((1, 2, 1), (0, 1, 2), (0, 0, 1))
    assert not decide_equiv(a, b).equivalent
    ident = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    for half in (0.5, Fraction(1, 2)):
        u = ((1, half, 0), (0, 1, 0), (0, 0, 1))
        with pytest.raises(InvalidParamsError, match=r"^U entry \(1, 2\) is not an integer"):
            verify_witness(a, b, Witness(u, ident))
        with pytest.raises(InvalidParamsError, match=r"^V entry \(1, 2\) is not an integer"):
            verify_witness(a, b, Witness(ident, u))


def _random_unipotent(rng, n):
    return [[int(i == j) if j <= i else rng.randint(-3, 3) for j in range(n)] for i in range(n)]


def test_block_obstruction_pinned_pair():
    a = count_matrix(LensParams(3, (1, 1, 1, 1)))
    b = count_matrix(LensParams(3, (1, 2, 1, 1)))
    assert block_obstruction(a, b) == (1, 4)
    assert block_obstruction(a, a) is None
    # differing superdiagonal entries: a 2x2 block, non-corner gcd 0
    assert block_obstruction([[1, 2, 0], [0, 1, 3], [0, 0, 1]], [[1, 2, 0], [0, 1, 4], [0, 0, 1]]) == (2, 3)
    # matrices of different sizes are rejected in either order
    small = [[1, 0], [0, 1]]
    large = [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
    for x, y in [(small, large), (large, small)]:
        with pytest.raises(DimensionMismatchError):
            block_obstruction(x, y)


def test_block_obstruction_and_normal_form_check_their_input():
    # the checks of the module's other public functions: a float entry, a
    # short row and a 2x3 matrix are refused, not read as integers or as 2x2
    with pytest.raises(InvalidParamsError, match=r"^A entry \(1, 2\) is not an integer: 0\.5$"):
        block_obstruction(((1, 0.5), (0, 1)), ((1, 1), (0, 1)))
    with pytest.raises(DimensionMismatchError, match="^matrix must be square$"):
        block_obstruction(((1, 1), (0, 1)), ((1, 2), (0,)))
    for matrix in (((1, 2), (0,)), ((1, 2, 3), (0, 1, 1))):
        with pytest.raises(DimensionMismatchError, match="^matrix must be square$"):
            distance_normal_form(matrix)


def test_block_obstruction_silent_on_transformed_pairs():
    # the transformed pairs of acceptance criterion 12: (A, U (A - I) V^-1 + I)
    rng = random.Random(12)
    for _ in range(500):
        r = rng.randint(3, 30)
        n = rng.randint(4, 8)
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        a = count_matrix(LensParams(r, tuple(rng.choice(units) for _ in range(n))))
        c = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(a.entries)]
        u = _random_unipotent(rng, n)
        v = _random_unipotent(rng, n)
        d = matmul(matmul(u, c), unipotent_inverse(v))
        b = [[d[i][j] + (i == j) for j in range(n)] for i in range(n)]
        assert block_obstruction(a, b) is None, (a.entries, b)


def test_distance_normal_form_general_matrices():
    # any superdiagonal, zero and negative entries included
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 7)
        a = [[int(i == j) if j <= i else rng.randint(-30, 30) for j in range(n)] for i in range(n)]
        nf = distance_normal_form(a)
        form = nf.form
        strict = [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(a)]
        assert [list(row) for row in form] == matmul(strict, nf.Q)
        assert nf.certifies(a)
        for i in range(n):
            for j in range(i + 2, n):
                g = form[i][i + 1]
                assert g == 0 or form[i][j] == form[i][j] % g
        # a transformed copy is certified against its own form; an equal
        # form gives the witness (I, Q_b Q_a^-1) by transitivity
        u = _random_unipotent(rng, n)
        v = _random_unipotent(rng, n)
        b = [[x + (i == j) for j, x in enumerate(row)] for i, row in enumerate(matmul(matmul(u, strict), v))]
        nf_b = distance_normal_form(b)
        assert nf_b.certifies(b)
        if nf_b.form == form:
            ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
            v = tuple(map(tuple, matmul(nf_b.Q, unipotent_inverse(nf.Q))))
            assert verify_witness(a, b, Witness(ident, v))
