"""Path-count matrices computed by dynamic programming.

The matrix B attached to (r; m) is upper triangular with entry (i, j) equal
to the number of legal paths from (i, 0) to (j, 0). The DP sweeps subgraphs
left to right: f[t] counts walks from (i, 0) to (s, t) whose vertices after
the start all have t != 0. Reaching column 0 in subgraph s closes a path via
the unique vertical 0-tail, which is never walked explicitly.
"""

from __future__ import annotations

import math
import sys
from array import array
from functools import partial
from itertools import accumulate, chain, repeat
from operator import add, itemgetter
from typing import Iterator, NamedTuple

from .errors import BudgetExceededError, DimensionMismatchError, IndexOutOfRangeError, NonIntegerResultError
from .lensgraph import LensParams, _check_rn, _units, scale
from .numtheory import _integer, binomial, factorize, mod_inverse

__all__ = [
    "PathMatrix",
    "count_matrix",
    "closed_form_all_ones",
    "poly_1to6",
    "normalize",
]

# Fewest row steps computed (r * n * top) for which count_matrix's row pool
# pays. On 2 CPUs (7 alternating runs, jobs=2 against serial, top = n - 2) it
# lost at (1009, 32), (1511, 40), (2003, 48), (5003, 32) and (3001, 56),
# 9.1 * 10^6 steps, and won in median at (3001, 64) and (12007, 32), 1.15 * 10^7.
POOL_MIN_ROW_STEPS = 10**7
# Most row steps (r * n^2) count_matrix takes on. At it, on 2 CPUs under
# `ulimit -v 1500000`, n = 2 (r = 2.5 * 10^7) took 1.3 s and 972 MB peak RSS,
# n = 3 up to 7.8 s and 1,079 MB, n = 8 (r = 1.6 * 10^6) 16.5 s and 219 MB,
# n = 64 5.0 s and 26 MB; at twice it, n = 2 ran out of memory.
MATRIX_MAX_ROW_STEPS = 10**8
# Indexes of the gathers one _normalized_walk keeps, 8 bytes each. This holds
# every gather at r = 35, 55 and 211 (phi(r) * r <= 44,310). A table of all
# phi(r) gathers would hold 4 * 10^6 indexes at r = 2003: 31 MiB, built for
# 0.44 s before the first vector, where the capped walk peaks at 0.84 MiB.
GATHER_CACHE_INDEXES = 2**16
# A refused walk gives its vector count in full below this (4,300 digits, the
# default int-to-str limit) and as phi(r)^(n-3) past it; as phi(r) >= 2, the
# count is built to at most 14,285 + budget.bit_length() factors.
WALK_COUNT_CAP = 10**4300


class _PathMatrixFields(NamedTuple):
    r: int
    m: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]


class PathMatrix(_PathMatrixFields):
    """Upper-triangular integer matrix with its parameters, checked by _make too."""

    __slots__ = ()

    def __new__(cls, r: int, m: tuple[int, ...], entries: tuple[tuple[int, ...], ...]) -> PathMatrix:
        n = len(entries)
        if any(len(row) != n for row in entries):
            raise DimensionMismatchError("entries must form a square matrix")
        if len(m) != n:
            raise DimensionMismatchError(f"m has {len(m)} entries but the matrix is {n}x{n}")
        return super().__new__(cls, r, m, entries)

    @classmethod
    def _make(cls, iterable) -> PathMatrix:
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.entries)

    def entry(self, i: int, j: int) -> int:
        """1-based access to the (i, j) entry."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexOutOfRangeError(
                f"indices ({i}, {j}) out of range for an {self.n}x{self.n} matrix"
            )
        return self.entries[i - 1][j - 1]


def _count_rows(r: int, m: tuple[int, ...], rows) -> list[tuple[int, ...]]:
    """Entries (i, i..n) of the path-count matrix for each source i in rows.

    f[t] counts column-0-avoiding walks from (i, 0) to the current
    subgraph's column t, 1 off column 0 at the start. The next unit u takes
    it to g[t] = f[t] + g[t - u], a prefix sum along the cycle t = k*u mod r
    that visits every column but 0; closing into column 0 adds g[r - u],
    the last prefix sum. As in _normalized_walk, a state is kept in the
    cycle frame of its last unit f, s[k] = g[k*f mod r], so advancing by u
    is one gather with stride u * f^-1 mod r and one accumulate, both in C.
    The start state reads the same in every frame, so a row's first unit is
    paired with itself: that advance, like a repeated unit's, has stride 1
    and is a bare accumulate, and the start state is never built as a list.
    A row's last step is never taken: a gather permutes, so the entry adds the
    state's sum. Stride indexes are built once per call for all rows, in an
    array of the narrowest type that holds r - 1 (2 bytes up to r = 65536).
    """
    typecode = next(t for t in "BHIQ" if r <= 1 << 8 * array(t).itemsize)
    gathers: dict[int, array] = {}
    out = []
    for i in rows:
        row, state = [1], chain((0,), repeat(1, r - 1))
        for f, u in zip(m[i : i + 1] + m[i:], m[i:-1]):
            if u != f:
                w = u * mod_inverse(f, r) % r
                idx = gathers.get(w)
                if idx is None:
                    idx = gathers[w] = array(typecode, [k % r for k in range(0, r * w, w)])
                state = map(state.__getitem__, idx)
            state = list(accumulate(state))
            row.append(row[-1] + state[-1])
        if i < len(m):
            row.append(row[-1] + sum(state))
        out.append(tuple(row))
    return out


def _normalized_walk(
    r: int, n: int, budget: int
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """(m, entries) for every m = (1, 1, m_3, .., m_{n-1}, 1) with free
    entries from the units modulo r, in itertools.product order.

    (r, n) is checked, and the phi(r)^(n-3) vectors are held to budget
    (n <= 2 has one vector and is exempt), when the walk is made, from r's
    primes: before the units are listed or any vector is walked. So is the
    depth: each vector passes through n - 2 nested generators, so an n past
    half the recursion limit (500 by default) that the budget admits is
    refused, leaving the other half for the caller's frames. The default
    budget admits no n past 26.

    The closing value of subgraph s is the sum of the state before it, so
    entry (i, s) = entry (i, s-1) + sum(state of row i after subgraph s-1):
    column s needs only m_{i+1}..m_{s-1}, and row i starts from the same
    state whatever m_i is. A depth-first walk over the free positions
    carries each row's state down the tree, so work on a shared prefix is
    done once; the last column needs only the sums of the advanced states.

    Every state at a node was last advanced by the node's last shift f,
    and a fresh row's start state reads the same in any order, so each
    state is kept in the f-cycle frame s[k] = g[k*f mod r], the order in
    which _count_rows takes its prefix sums. Advancing by u is then a
    gather of s with stride w = u * f^-1 mod r followed by a prefix sum,
    which yields the new state in the u-cycle frame. The rows of a node
    share that frame, so they are packed into one list of r ints,
    packed[k] = sum_i s_i[k] << (i * width), width = n * r.bit_length():
    one gather and one accumulate (both in C) advance every row, the new
    row enters as the start state shifted into its slot, one sum(packed)
    gives every row's sum by shift and mask, and the last column takes only
    sum(accumulate(gather(packed))), so its states are never built.

    No slot carries into the next. Every value is nonnegative; the start
    state sums to r - 1, and an advance makes each value at most the sum
    before it, so it multiplies a row's sum by at most r - 1. A row is
    advanced at most n - 2 times, so every state value, prefix sum and
    state sum is at most (r-1)^(n-1) < r^n <= 2^width.

    Gathers are cached per walk up to GATHER_CACHE_INDEXES indexes and
    built for each use past that, so the walk's extra memory does not grow
    with r. _count_rows takes the same steps one row at a time, for the rows
    count_matrix cannot copy from an earlier row, sharing gathers among them.
    """
    r, n = _check_rn(r, n)
    budget = _integer(budget, "budget")
    if n <= 2:
        return iter([((1,) * n, count_matrix(LensParams(r, (1,) * n)).entries)])
    primes = [p for p, _ in factorize(r).odd_primes] + [2] * (r % 2 == 0)
    phi = r // math.prod(primes) * math.prod(p - 1 for p in primes)
    total, k = 1, 0
    while k < n - 3 and (total <= budget or total < WALK_COUNT_CAP):
        total, k = total * phi, k + 1
    if total > budget:
        count = total if k == n - 3 and total < WALK_COUNT_CAP else f"{phi}^{n - 3}"
        raise BudgetExceededError(
            f"enumeration needs {count} vectors, exceeding the budget of {budget}"
        )
    if n > (depth := sys.getrecursionlimit() // 2):
        raise BudgetExceededError(
            f"the walk nests n - 2 generators, so n must be <= {depth}, half the recursion limit; got {n}"
        )
    units = _units(r)
    width = n * r.bit_length()
    mask = (1 << width) - 1
    offsets = [i * width for i in range(n)]
    fresh = [[0] + [1 << off] * (r - 1) for off in offsets]
    pads = [(0,) * i for i in range(n)]
    # Gathers point into one list of index ints, so a cached gather costs
    # a pointer per index rather than an int object per index.
    ints = list(range(r))
    gathers: dict[int, itemgetter] = {}
    keep = GATHER_CACHE_INDEXES // r

    def gather(w):
        g = gathers.get(w)
        if g is None:
            g = itemgetter(*[ints[k % r] for k in range(0, r * w, w)])
            if len(gathers) < keep:
                gathers[w] = g
        return g

    def descend(m, rows, packed):
        # rows[i] holds row i+1 up to column len(m), slot i of packed its
        # state after subgraph len(m) in the m[-1]-cycle frame; the new
        # rows extend them to column len(m)+1.
        k = len(m)
        sums = sum(packed)
        rows = [row + (row[-1] + (sums >> off & mask),) for row, off in zip(rows, offsets)]
        choices = units if k >= 2 else (1,)
        f_inv = mod_inverse(m[-1], r)
        if k == n - 2:
            heads = [pads[i] + row for i, row in enumerate(rows)]
            tail = (pads[k] + (1, r), pads[k + 1] + (1,))
            for u in choices:
                sums = sum(accumulate(gather(u * f_inv % r)(packed)))
                yield m + (u, 1), tuple(
                    head + (head[-1] + (sums >> off & mask),)
                    for head, off in zip(heads, offsets)
                ) + tail
            return
        rows.append((1,))
        for u in choices:
            g = gather(u * f_inv % r)
            yield from descend(m + (u,), rows, list(map(add, accumulate(g(packed)), fresh[k])))

    return descend((1,), [(1,)], fresh[0])


def _pool_map(fn, items, jobs: int | None) -> list:
    """[fn(item) for item in items], in a pool of at most one process per
    item when jobs and items are both at least 2. The pool, and
    concurrent.futures, are loaded only then. A worker that dies (killed
    for memory, say) or never starts breaks the pool: BudgetExceededError."""
    items = list(items)
    workers = min(jobs or 1, len(items))
    if workers < 2:
        return [fn(item) for item in items]
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=1))
    except BrokenExecutor as exc:
        raise BudgetExceededError(f"a worker process died or could not start: {exc}") from None


def _repeated_tail(ratios: tuple[int, ...], n: int) -> tuple[int, int]:
    """Smallest top, and a shift p that reaches it, with ratios[i:] ==
    ratios[i - p : n - 2 - p] for every i >= top; (n, 1) for n <= 2. Z[p] of
    the reversed ratios is how many ratios before n - 2 and before n - 2 - p
    agree, so top is the least max(p, n - 2 - Z[p]), found in O(n)."""
    size = n - 2
    s = ratios[::-1]
    z = [0] * (size + 1)
    left = right = 0
    for k in range(1, size):
        z[k] = max(0, min(right - k, z[k - left]))
        while k + z[k] < size and s[z[k]] == s[k + z[k]]:
            z[k] += 1
        if k + z[k] > right:
            left, right = k, k + z[k]
    return min(((max(p, size - z[p]), p) for p in range(1, size + 1)), default=(n, 1))


def count_matrix(params: LensParams, jobs: int | None = None) -> PathMatrix:
    """Path-count matrix of (r; m) in O(top * n * r) time.

    Row i (0-based) depends on ratios[i:] alone, ratios[t] = m[t+2] / m[t+1]
    mod r, as its first step has stride 1 whatever m[i+1] is. So each row i
    from top on is row i - p cut short (_repeated_tail gives both), and only
    rows 0..top-1 are computed: with jobs > 1 and r * n * top at least
    POOL_MIN_ROW_STEPS, in min(jobs, top) interleaved groups in a pool.
    Assembly order is fixed, so the result is identical either way. Past
    MATRIX_MAX_ROW_STEPS (r * n^2) it refuses before building any state.
    """
    r, m, n = params.r, params.m, params.n
    jobs = None if jobs is None else _integer(jobs, "jobs")
    if r * n * n > MATRIX_MAX_ROW_STEPS:
        raise BudgetExceededError(f"matrix needs over {MATRIX_MAX_ROW_STEPS} row steps (r * n^2)")
    ratios = tuple(u * mod_inverse(f, r) % r for f, u in zip(m[1:], m[2:]))
    top, p = _repeated_tail(ratios, n)
    k = min(jobs or 1, top) if r * n * top >= POOL_MIN_ROW_STEPS else 1
    groups = [range(j + 1, top + 1, k) for j in range(k)]
    rows = _pool_map(partial(_count_rows, r, m), groups, k)
    full = [rows[i % k][i // k] for i in range(top)]
    for i in range(top, n):
        full.append(full[i - p][: n - i])
    return PathMatrix(r, m, tuple((0,) * i + row for i, row in enumerate(full)))


def closed_form_all_ones(r: int, n: int) -> PathMatrix:
    """Matrix for the all-ones vector: entry (i, j) = C(r-1+(j-i), j-i)."""
    r, n = _check_rn(r, n)
    entries = tuple(
        tuple(binomial(r - 1 + (j - i), j - i) if j >= i else 0 for j in range(n))
        for i in range(n)
    )
    return PathMatrix(r, (1,) * n, entries)


def poly_1to6(r: int) -> int:
    """Corner entry (1, 6) for the vector (1, 1, -1, 1, 1, 1).

    Evaluates (22r + 15r^2 - 5r^3 + 5r^4 + 3r^5) / 40 exactly. The
    division is always exact; a remainder would contradict the counting
    identity behind the formula, so it is reported loudly.
    """
    r, _ = _check_rn(r)
    numerator = 22 * r + 15 * r**2 - 5 * r**3 + 5 * r**4 + 3 * r**5
    quotient, remainder = divmod(numerator, 40)
    if remainder:
        raise NonIntegerResultError(
            f"polynomial numerator {numerator} is not divisible by 40 at r={r}"
        )
    return quotient


def normalize(params: LensParams) -> LensParams:
    """Equivalent parameters with m_1 = m_n = 1, and m_2 = 1 when n >= 2.

    Scales by the inverse of m_2 (making position 2 equal to 1), then
    overwrites the first and last positions with 1. Neither step changes
    the path-count matrix.
    """
    if params.n == 1:
        return LensParams(params.r, (1,))
    scaled = scale(params, mod_inverse(params.m[1], params.r))
    m = list(scaled.m)
    m[0] = 1
    m[-1] = 1
    return LensParams(params.r, tuple(m))
