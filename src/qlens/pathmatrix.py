"""Path-count matrices computed by dynamic programming.

The matrix B attached to (r; m) is upper triangular with entry (i, j) equal
to the number of legal paths from (i, 0) to (j, 0). The DP sweeps subgraphs
left to right: f[t] counts walks from (i, 0) to (s, t) whose vertices after
the start all have t != 0. Reaching column 0 in subgraph s closes a path via
the unique vertical 0-tail, which is never walked explicitly.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import add, itemgetter
from typing import Iterator

from .errors import BudgetExceededError, DimensionMismatchError, IndexOutOfRangeError, NonIntegerResultError
from .lensgraph import LensParams, _check_rn, _units, scale
from .numtheory import binomial, mod_inverse

__all__ = [
    "PathMatrix",
    "count_matrix",
    "closed_form_all_ones",
    "poly_1to6",
    "normalize",
]

# Fewest row steps (r * n^2) for which the row pool of count_matrix pays.
# On 2 CPUs (median of 5, jobs=2 against serial) the pool broke even at
# (1009, 32), 1.03 * 10^6 steps, and won from (1511, 40), 2.42 * 10^6 steps.
POOL_MIN_ROW_STEPS = 2_400_000
# Indexes of the gathers one _normalized_walk keeps, 8 bytes each. This holds
# every gather at r = 35, 55 and 211 (phi(r) * r <= 44,310). A table of all
# phi(r) gathers would hold 4 * 10^6 indexes at r = 2003: 31 MiB, built for
# 0.44 s before the first vector, where the capped walk peaks at 0.84 MiB.
GATHER_CACHE_INDEXES = 2**16


@dataclass(frozen=True)
class PathMatrix:
    """Upper-triangular integer matrix with its originating parameters."""

    r: int
    m: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.entries)
        if any(len(row) != n for row in self.entries):
            raise DimensionMismatchError("entries must form a square matrix")
        if len(self.m) != n:
            raise DimensionMismatchError(
                f"m has {len(self.m)} entries but the matrix is {n}x{n}"
            )

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

    def to_json(self) -> str:
        payload = {
            "r": self.r,
            "m": list(self.m),
            "n": self.n,
            "entries": [str(v) for row in self.entries for v in row],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "PathMatrix":
        payload = json.loads(text)
        n = int(payload["n"])
        flat = [int(v) for v in payload["entries"]]
        if len(flat) != n * n:
            raise DimensionMismatchError(
                f"expected {n * n} entries for n={n}, got {len(flat)}"
            )
        rows = tuple(tuple(flat[i * n : (i + 1) * n]) for i in range(n))
        return cls(int(payload["r"]), tuple(int(v) for v in payload["m"]), rows)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        for row in self.entries:
            writer.writerow([str(v) for v in row])
        return buf.getvalue()


def _advance(r: int, f: list[int], shift: int) -> list[int]:
    """Row state after one more subgraph, whose unit is shift.

    The recurrence g[t] = f[t] + g[t - shift] is a prefix sum along the
    cycle t = k*shift mod r, which visits every column but 0 once because
    shift is a unit. As f[0] = 0, its last term g[r - shift] is sum(f).
    """
    g = [0] * r
    acc = 0
    u = 0
    for _ in range(r - 1):
        u = (u + shift) % r
        acc += f[u]
        g[u] = acc
    return g


def _count_row(r: int, m: tuple[int, ...], i: int) -> tuple[int, ...]:
    """Entries (i, i..n) of the path-count matrix, 1-based source i.

    f[t] counts column-0-avoiding walks from (i, 0) to the current
    subgraph's column t. Closing into column 0 in subgraph s uses the
    walk count at column r - m_s.
    """
    f = [0] + [1] * (r - 1)
    total = f[r - m[i - 1]]
    row = [total]
    for shift in m[i:]:
        f = _advance(r, f, shift)
        total += f[r - shift]
        row.append(total)
    return tuple(row)


def _normalized_walk(
    r: int, n: int, budget: int
) -> Iterator[tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]]:
    """(m, entries) for every m = (1, 1, m_3, .., m_{n-1}, 1) with free
    entries from the units modulo r, in itertools.product order.

    (r, n) is checked, and the phi(r)^(n-3) vectors are held to budget
    (n <= 2 has one vector and is exempt), when the walk is made, before
    any vector is walked.

    The closing value of subgraph s is the sum of the state before it, so
    entry (i, s) = entry (i, s-1) + sum(state of row i after subgraph s-1):
    column s needs only m_{i+1}..m_{s-1}, and row i starts from the same
    state whatever m_i is. A depth-first walk over the free positions
    carries each row's state down the tree, so work on a shared prefix is
    done once; the last column needs only the sums of the advanced states.

    Every state at a node was last advanced by the node's last shift f,
    and a fresh row's start state reads the same in any order, so each
    state is kept in the f-cycle frame s[k] = g[k*f mod r]: the prefix sums
    that _advance built, in the order it built them. Advancing by u is then
    a gather of s with stride w = u * f^-1 mod r followed by a prefix sum,
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
    with r. count_matrix keeps the scalar _advance: each of its steps is
    made once per row, so a gather built per step costs more than the loop,
    and a prebuilt table of them costs more memory than the matrix.
    """
    _check_rn(r, n)
    if n <= 2:
        return iter([((1,) * n, count_matrix(LensParams(r, (1,) * n)).entries)])
    units = _units(r)
    total = len(units) ** (n - 3)
    if total > budget:
        raise BudgetExceededError(
            f"enumeration needs {total} vectors, exceeding the budget of {budget}"
        )
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


def _pool_map(fn, items, jobs: int | None, pays: bool) -> list:
    """[fn(item) for item in items], in a pool of at most one process per
    item when pays and jobs and items are both at least 2. The pool, and
    concurrent.futures, are loaded only then. A worker that dies (killed
    for memory, say) or never starts breaks the pool: BudgetExceededError."""
    items = list(items)
    workers = min(jobs or 1, len(items))
    if not pays or workers < 2:
        return [fn(item) for item in items]
    from concurrent.futures import BrokenExecutor, ProcessPoolExecutor

    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, items, chunksize=1))
    except BrokenExecutor as exc:
        raise BudgetExceededError(f"a worker process died or could not start: {exc}") from None


def count_matrix(params: LensParams, jobs: int | None = None) -> PathMatrix:
    """Path-count matrix of (r; m) in O(n^2 * r) time.

    With jobs > 1 and at least POOL_MIN_ROW_STEPS row steps, the
    per-source rows are computed in a pool of at most n processes;
    assembly order is fixed, so the result is identical either way.
    """
    r, m, n = params.r, params.m, params.n
    pays = r * n * n >= POOL_MIN_ROW_STEPS
    tails = _pool_map(partial(_count_row, r, m), range(1, n + 1), jobs, pays)
    entries = tuple((0,) * i + tail for i, tail in enumerate(tails))
    return PathMatrix(r, m, entries)


def closed_form_all_ones(r: int, n: int) -> PathMatrix:
    """Matrix for the all-ones vector: entry (i, j) = C(r-1+(j-i), j-i)."""
    _check_rn(r, n)
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
    _check_rn(r)
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
