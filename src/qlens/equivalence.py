"""Exact decision of unipotent upper-triangular equivalence over the integers.

Two unit-diagonal upper-triangular matrices A and B are equivalent when
there exist unipotent upper-triangular integer matrices U, V with
U(A - I) = (B - I)V. Writing U = I + U' and V = I + V' with strictly
upper unknowns turns this into a linear Diophantine system with one
equation per strictly-upper position:

    sum_{i<k<j} (A-I)[k][j] * U'[i][k]
  - sum_{i<k<j} (B-I)[i][k] * V'[k][j]  =  B[i][j] - A[i][j].

decide_equiv converts A and B once, tries a corner obstruction, then
builds the system as sparse {row: value} columns straight from A and B
and solves it completely over the integers by a column-echelon
elimination with forward substitution; the column operations are logged
and replayed in reverse on the pivot values to give the solution. Every
verdict is exact: Equivalent comes with a witness checked as
UA - U = BV - V and NotEquivalent with either a modular corner
obstruction or infeasibility of the system. The columns that depend on
A alone are eliminated first, in a pass the classification joins cache
per A; decide_equiv runs the same two steps from an empty cache.

Two cheaper tools serve the classification pipeline: distance_normal_form,
a reduction R = (A - I)Q by column operations alone, whose Q certifies
A ~ R + I (checked as AQ - Q = R by the same dot-product kernel as
witnesses) so that equal forms prove equivalence, and block_obstruction, a
corner obstruction on any contiguous principal block, which proves
non-equivalence. Its O(n^2) gcd scan also serves the corner obstructions:
their gcd is that of the last block, the whole matrix.
"""

from __future__ import annotations

import math
from operator import index, mul
from typing import NamedTuple

from .errors import (
    DimensionMismatchError,
    IndexOutOfRangeError,
    InvalidParamsError,
    InvariantViolationError,
)
from .numtheory import _integer

__all__ = [
    "Witness",
    "CornerObstruction",
    "EquivDecision",
    "solve_diophantine",
    "decide_equiv",
    "obstruction_mod_k",
    "verify_witness",
    "submatrix_necessary",
    "unipotent_inverse",
    "block_obstruction",
    "NormalForm",
    "distance_normal_form",
]

IntMatrix = tuple[tuple[int, ...], ...]


class Witness(NamedTuple):
    """Unipotent upper-triangular U, V with U(A-I) = (B-I)V."""

    U: IntMatrix
    V: IntMatrix


class CornerObstruction(NamedTuple):
    """Certificate that the corner entries differ modulo k while every
    other strictly-upper entry of both matrices is divisible by k."""

    k: int
    position: tuple[int, int]
    lhs_residue: int
    rhs_residue: int

    def describe(self) -> str:
        i, j = self.position
        return (
            f"corner entries at ({i}, {j}) differ modulo {self.k}: "
            f"{self.lhs_residue} vs {self.rhs_residue}"
        )


class EquivDecision(NamedTuple):
    """Outcome of decide_equiv; the solver is complete, so there is no
    undecided state."""

    equivalent: bool
    reason: str
    witness: Witness | None = None
    obstruction: CornerObstruction | None = None


def _int_rows(rows, name: str) -> IntMatrix:
    """rows read with operator.index, which refuses the float or string that
    int() would truncate or parse; the error names the entry, 1-based, or
    the argument when it is not a sequence of rows."""
    try:
        return tuple(tuple(map(index, row)) for row in rows)
    except TypeError:
        for i, row in enumerate(rows if hasattr(rows, "__iter__") else (), 1):
            for j, v in enumerate(row if hasattr(row, "__iter__") else (), 1):
                if not hasattr(type(v), "__index__"):
                    msg = f"{name} entry ({i}, {j}) is not an integer: {v!r}"
                    raise InvalidParamsError(msg) from None
        raise InvalidParamsError(f"{name} must be a sequence of rows of integers") from None


def _as_entries(matrix, name: str) -> IntMatrix:
    """matrix read by _int_rows and checked to be square, unit-diagonal and
    upper triangular: the domain on which every certificate here is proved."""
    rows = _int_rows(getattr(matrix, "entries", matrix), name)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise DimensionMismatchError("matrix must be square")
    for i, row in enumerate(rows):
        for j in (i, *range(i)):  # each row's diagonal entry first
            if row[j] != (i == j):
                shape = "have unit diagonal" if i == j else "be upper triangular"
                raise InvalidParamsError(f"{name} must {shape}; entry ({i + 1}, {j + 1}) is {row[j]}")
    return rows


def _as_pair(A, B) -> tuple[IntMatrix, IntMatrix]:
    """A and B converted by _as_entries, checked to be of equal size."""
    a, b = _as_entries(A, "A"), _as_entries(B, "B")
    if len(b) != len(a):
        raise DimensionMismatchError(f"matrices have dimensions {len(a)} and {len(b)}")
    return a, b


def _identity(n: int) -> list[list[int]]:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _unitriangular(m, n: int) -> bool:
    """True iff m is n x n, unipotent and upper triangular."""
    return len(m) == n and all(
        len(row) == n and row[i] == 1 and not any(row[:i]) for i, row in enumerate(m)
    )


def _product_minus(x, y_columns, z) -> list[list[int]]:
    """XY - Z with Y given by its columns: one dot product per entry."""
    return [
        [sum(map(mul, row, col)) - z_ij for col, z_ij in zip(y_columns, z_row)]
        for row, z_row in zip(x, z)
    ]


def solve_diophantine(matrix, c) -> tuple[int, ...] | None:
    """One integer solution x of M*x = c, or None when infeasible.

    M is converted once to sparse columns and solved by _solve_columns.
    """
    matrix = _int_rows(matrix, "matrix")
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    residual = list(_int_rows((c,), "right-hand side")[0])
    if len(residual) != rows:
        raise DimensionMismatchError(
            f"right-hand side has {len(residual)} entries for {rows} equations"
        )
    if any(len(row) != cols for row in matrix):
        raise DimensionMismatchError("matrix rows must have equal length")
    columns = [{i: v for i, v in enumerate(column) if v} for column in zip(*matrix)]
    return _solve_columns(columns, residual)


def _solve_columns(columns: list[dict], c: list[int], log=None) -> tuple[int, ...] | None:
    """One integer solution of the system with these columns and right-hand
    side c, or None when infeasible; columns, c and log are consumed.

    Column-echelon solve (Cohen, A Course in Computational Algebraic
    Number Theory, section 2.4) on sparse columns, each a {row: value}
    dict without zeros. Row by row, the columns not yet used as pivots
    are reduced, smallest entry first (ties to the lowest column), until
    one of them is nonzero in that row; it becomes the pivot, and no later
    operation touches it. c is forward-substituted into the pivots as the
    rows go by: a pivot that does not divide what is left of c, or a
    pivot-free row where that is nonzero, proves the system infeasible.
    The unimodular T with M*T in echelon form is never built: each column
    operation (j, p, q), column j -= q * column p, is appended to log, and
    x = T*y follows from the pivot values y by replaying the log in reverse.

    A pass with c = 0 leaves only its pivots nonzero, none with an entry
    above its own row, so a call given copies of its columns (more may
    follow) and of its log continues it: each pivot stays untouched until
    its row comes.
    """
    free = [j for j, col in enumerate(columns) if col]
    y = [0] * len(columns)
    log = [] if log is None else log
    for i in range(len(c)):
        live = [j for j in free if i in columns[j]]
        while len(live) > 1:
            p = min(live, key=lambda j: abs(columns[j][i]))
            pivot = columns[p]
            for j in live:
                if j != p:
                    col = columns[j]
                    q = col[i] // pivot[i]
                    log.append((j, p, q))
                    for k, v in pivot.items():
                        if v := col.get(k, 0) - q * v:
                            col[k] = v
                        else:
                            del col[k]
            live = [j for j in live if i in columns[j]]
        if not live:
            if c[i]:
                return None
            continue
        p = live[0]
        free.remove(p)
        if c[i]:
            y[p], rem = divmod(c[i], columns[p][i])
            if rem:
                return None
            for k, v in columns[p].items():
                c[k] -= y[p] * v
    for j, p, q in reversed(log):
        y[p] -= q * y[j]
    return tuple(y)


def _obstructing_blocks(a: IntMatrix, b: IntMatrix):
    """Every contiguous principal block [t, s] (0-based) whose corners
    differ modulo g, the gcd of its other strictly-upper entries in both
    matrices (differ at all, for g = 0), as (t, s, g), by distance s - t:
    the whole matrix, when it obstructs, comes last. With E(t, s) the gcd of
    all the block's strictly-upper entries, g = gcd(E(t, s-1), E(t+1, s)),
    so the scan costs O(n^2) gcds.
    """
    n = len(a)
    gcds = [0] * n  # E(t, t) = 0: a 1x1 block has no strictly-upper entries
    for d in range(1, n):
        for t in range(n - d):
            s = t + d
            g = math.gcd(gcds[t], gcds[t + 1])
            x, y = a[t][s], b[t][s]
            if (x - y) % g if g else x != y:
                yield t, s, g
            gcds[t] = math.gcd(g, x, y)


def _corner_gcd(a: IntMatrix, b: IntMatrix) -> int | None:
    """gcd of every strictly-upper entry of a and b except the corner (1, n)
    when the corners differ modulo it, else None: the g of the scan's last
    block, if that block is the whole matrix."""
    return next((g for t, s, g in _obstructing_blocks(a, b) if s - t == len(a) - 1), None)


def _corner_obstruction(a: IntMatrix, b: IntMatrix, k: int) -> CornerObstruction | None:
    """The (1, n) obstruction at modulus k when the corners differ modulo k;
    k must divide every other strictly-upper entry."""
    n = len(a)
    lhs = a[0][n - 1] % k
    rhs = b[0][n - 1] % k
    return CornerObstruction(k, (1, n), lhs, rhs) if lhs != rhs else None


def obstruction_mod_k(A, B, k: int) -> CornerObstruction | None:
    """Corner obstruction of the pair (A, B) at modulus k, when present.

    Returns the position (1, n) when every strictly-upper entry of A - I
    and B - I other than the corner is divisible by k while the corner
    entries differ modulo k; returns None otherwise. A returned
    obstruction proves the matrices are not equivalent.
    """
    k = _integer(k, "obstruction modulus")
    if k < 2:
        raise InvalidParamsError(f"obstruction modulus must be >= 2, got {k}")
    a, b = _as_pair(A, B)
    g = _corner_gcd(a, b)
    return None if g is None or g % k else _corner_obstruction(a, b, k)


def _best_corner_obstruction(a: IntMatrix, b: IntMatrix) -> CornerObstruction | None:
    """Strongest corner obstruction available for the pair.

    Any modulus k admitting an obstruction must divide every non-corner
    strictly-upper entry, hence divides their gcd d; and the corners
    differing modulo some such k is equivalent to differing modulo d. They
    differ modulo p^v_p(d) exactly for the primes p of e = d / gcd(d, D),
    D the corner difference. Dividing those primes out of d by repeated
    gcds leaves rest, and the certificate's modulus is q = d / rest: the
    prime power of the one separating prime, or the product of those of
    several. d is never factored.
    """
    d = _corner_gcd(a, b)
    if d is None or d < 2:
        return None
    e = d // math.gcd(d, a[0][-1] - b[0][-1])
    rest = d
    while (h := math.gcd(rest, e)) > 1:
        rest //= h
    return _corner_obstruction(a, b, d // rest)


def block_obstruction(A, B) -> tuple[int, int] | None:
    """First contiguous principal block [t, s] (1-based) that certifies A and
    B non-equivalent, scanning by distance s - t; None when no block does.

    Unipotent upper-triangular U, V restrict to every such block, so the
    corner obstruction holds block by block: when every non-corner
    strictly-upper entry of the block in both matrices is divisible by g,
    the corners of equivalent matrices agree modulo g (exactly, for g = 0).
    """
    return _block_obstruction(*_as_pair(A, B))


def _block_obstruction(A, B) -> tuple[int, int] | None:
    """block_obstruction without the input check, for checked entries or
    the records that hold them."""
    a = getattr(A, "entries", A)
    b = getattr(B, "entries", B)
    for t, s, _ in _obstructing_blocks(a, b):
        return (t + 1, s + 1)
    return None


class NormalForm(NamedTuple):
    """R = (A - I) Q with Q unipotent upper triangular; see
    distance_normal_form."""

    form: IntMatrix
    Q: IntMatrix

    def certifies(self, matrix) -> bool:
        """True iff Q is unipotent upper triangular and (A - I) Q = R, so
        that (I, Q) proves A ~ R + I. Each entry of (A - I) Q is a dot
        product of a row of A with a column of Q, less that entry of Q."""
        a = getattr(matrix, "entries", matrix)
        q = self.Q
        n = len(self.form)
        if len(a) != n or any(len(row) != n for row in a) or not _unitriangular(q, n):
            return False
        return _product_minus(a, tuple(zip(*q)), q) == list(map(list, self.form))


def distance_normal_form(matrix) -> NormalForm:
    """Reduce N = A - I by unipotent column operations, distance by distance.

    For d = 2..n-1 and each (i, j = i + d), N[i][j] is reduced modulo
    g = N[i][i+1] by column j -= t * column (i+1), t = N[i][j] // g. That
    touches only rows 0..i of column j, whose other entries lie at distance
    > d, so every entry is reduced once and stays reduced, and the
    superdiagonal is never changed. Path matrices have g = r throughout.
    Each operation is applied to I as well, giving Q with R = (A - I) Q:
    (I, Q) proves A ~ R + I (NormalForm.certifies), so equal forms prove
    equivalence; the converse fails, as the form is not a complete
    invariant.
    """
    return _distance_normal_form(_as_entries(matrix, "matrix"))


def _distance_normal_form(matrix) -> NormalForm:
    """distance_normal_form without the input check, for checked entries or
    the records that hold them."""
    a = getattr(matrix, "entries", matrix)
    n = len(a)
    form = [[a[i][j] - (i == j) for j in range(n)] for i in range(n)]
    q = _identity(n)
    for d in range(2, n):
        for i in range(n - d):
            j = i + d
            g = form[i][i + 1]
            if not g or not (t := form[i][j] // g):
                continue
            for k in range(i + 2):
                form[k][j] -= t * form[k][i + 1]
                q[k][j] -= t * q[k][i + 1]
    return NormalForm(tuple(map(tuple, form)), tuple(map(tuple, q)))


def decide_equiv(A, B) -> EquivDecision:
    """Complete, exact decision of A ~ B with certificate.

    Each input is converted once. Equal matrices short-circuit with the
    identity witness. Otherwise a corner obstruction is sought as a cheap
    negative certificate (its gcd is the block scan's last block), and
    finally the full Diophantine system is solved; its solvability over
    the integers is equivalent to A ~ B.
    """
    a, b = _as_pair(A, B)
    n = len(a)
    if a == b:
        ident = tuple(tuple(row) for row in _identity(n))
        return EquivDecision(True, "matrices are equal", Witness(ident, ident))
    obstruction = _best_corner_obstruction(a, b)
    if obstruction is not None:
        return EquivDecision(False, obstruction.describe(), None, obstruction)
    witness = _system_witness(a, b, {})
    if witness is None:
        return EquivDecision(False, "Diophantine system infeasible")
    return EquivDecision(True, "witness found", witness)


# Sparse columns of the system: U'[i][k] enters equation (i, j) as a[k][j]
# for j > k, V'[k][j] enters it as -b[i][k] for i < k.
def _u_columns(a: IntMatrix, positions, eq) -> list[dict[int, int]]:
    return [{eq[i, j]: a[k][j] for j in range(k + 1, len(a)) if a[k][j]} for i, k in positions]


def _v_columns(b: IntMatrix, positions, eq) -> list[dict[int, int]]:
    return [{eq[i, j]: -b[i][k] for i in range(k) if b[i][k]} for k, j in positions]


def _system_witness(a: IntMatrix, b: IntMatrix, cache: dict) -> Witness | None:
    """A checked witness of A ~ B from the system, or None when it has
    none, for the entries a and b of unipotent upper-triangular matrices.

    With k0 the first column where b differs from a, every column but
    V'[k][j] for k >= k0 is a's own. Those are eliminated with c = 0 once
    per k0 and kept in cache, which belongs to a (decide_equiv passes an
    empty one); each call solves copies of them, then b's columns.
    """
    n = len(a)
    positions = [(i, j) for i in range(n) for j in range(i + 1, n)]
    eq = {pos: e for e, pos in enumerate(positions)}
    c, rows = [b[i][j] - a[i][j] for i, j in positions], len(positions)
    k0 = next((k for k in range(n) if any(a[i][k] != b[i][k] for i in range(k))), n)
    s = sum(n - 1 - i for i in range(k0))  # positions (i, j) with i < k0
    if k0 not in cache:
        columns, log = cache[k0] = _u_columns(a, positions, eq) + _v_columns(a, positions[:s], eq), []
        _solve_columns(columns, [0] * rows, log)
    columns, log = cache[k0]
    x = _solve_columns([dict(col) for col in columns] + _v_columns(b, positions[s:], eq), c, list(log))
    if x is None:
        return None
    u, v = _identity(n), _identity(n)
    for (i, k), u_ik, v_ik in zip(positions, x, x[rows:]):
        u[i][k], v[i][k] = u_ik, v_ik
    witness = Witness(tuple(map(tuple, u)), tuple(map(tuple, v)))
    if not _witness_holds(a, b, witness):
        raise InvariantViolationError("solver produced a witness that fails verification")
    return witness


def verify_witness(A, B, witness: Witness) -> bool:
    """True iff U, V are unipotent upper triangular and U(A-I) = (B-I)V,
    checked as UA - U = BV - V in 2n^2 dot products. Every entry of A, B,
    U and V must be an integer, and A and B unit upper triangular."""
    w = Witness(_int_rows(witness.U, "U"), _int_rows(witness.V, "V"))
    return _witness_holds(_as_entries(A, "A"), _as_entries(B, "B"), w)


def _witness_holds(a: IntMatrix, b: IntMatrix, witness: Witness) -> bool:
    """verify_witness on converted entries."""
    n, u, v = len(a), witness.U, witness.V
    if len(b) != n or not (_unitriangular(u, n) and _unitriangular(v, n)):
        return False
    return _product_minus(u, tuple(zip(*a)), u) == _product_minus(b, tuple(zip(*v)), v)


def submatrix_necessary(A, B, b: int, c: int) -> bool:
    """Equivalence of the corner blocks rows/columns b..b+c (1-based).

    A False result proves the full matrices are not equivalent; True is
    only a necessary condition.
    """
    ea, eb = _as_pair(A, B)
    n = len(ea)
    b, c = _integer(b, "block start b"), _integer(c, "block length c")
    if c < 0 or not (1 <= b <= b + c <= n):
        raise IndexOutOfRangeError(
            f"block [{b}, {b + c}] out of range for dimension {n}"
        )
    lo, hi = b - 1, b + c
    block_a = tuple(row[lo:hi] for row in ea[lo:hi])
    block_b = tuple(row[lo:hi] for row in eb[lo:hi])
    return decide_equiv(block_a, block_b).equivalent


def unipotent_inverse(matrix) -> IntMatrix:
    """Exact integer inverse of a unipotent upper-triangular matrix."""
    m = _as_entries(matrix, "matrix")
    n = len(m)
    inv = _identity(n)
    for j in range(n):
        for i in range(j - 1, -1, -1):
            acc = 0
            for k in range(i + 1, j + 1):
                acc += m[i][k] * inv[k][j]
            inv[i][j] = -acc
    return tuple(tuple(row) for row in inv)
