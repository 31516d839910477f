"""Directed graphs attached to a modulus r and a unit vector m.

Two graph kinds share the vertex set {(s, t) : 1 <= s <= n, 0 <= t < r},
where s names a subgraph and t a residue column:

  M-kind: edge (s1, t1) -> (s2, t2) iff s1 <= s2 and t2 = (t1 + m_{s1}) mod r.
  N-kind: edge (s1, t1) -> (s2, t2) iff s1 + 1 = s2 and t2 = t1 (vertical),
          or s1 = s2 and t2 = (t1 + m_{s1}) mod r (horizontal).

A legal path runs from the 0-vertex (i, 0) to the 0-vertex (j, 0), visits at
least one vertex with t != 0, and once it stands on any 0-vertex after the
start every later vertex is a 0-vertex. The brute-force enumeration here is
the oracle that the dynamic program in pathmatrix is checked against.
"""

from __future__ import annotations

import math
from operator import index
from typing import Iterator, Literal, NamedTuple

from .errors import (
    BadModulusError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NonUnitError,
    TooLargeError,
)

__all__ = [
    "LensParams",
    "LensGraph",
    "Vertex",
    "LegalPath",
    "GraphKind",
    "scale",
    "build_graph",
    "enumerate_legal_paths",
    "to_dot",
]

Vertex = tuple[int, int]
LegalPath = tuple[Vertex, ...]
GraphKind = Literal["M", "N"]

DEFAULT_PATH_BUDGET = 10**8


class _LensParamsFields(NamedTuple):
    r: int
    m: tuple[int, ...]


class LensParams(_LensParamsFields):
    """Modulus r > 2 and a vector m of units modulo r.

    Entries of m may be any integers, not floats or strings; they are reduced
    into [0, r-1] and must be coprime to r, through _make and _replace too.
    """

    __slots__ = ()

    def __new__(cls, r: int, m: tuple[int, ...]) -> LensParams:
        if not isinstance(r, int) or r <= 2:
            raise BadModulusError(f"modulus r must be an integer > 2, got {r!r}")
        if not m:
            raise InvalidParamsError("m must contain at least one entry")
        for idx, value in enumerate(m, start=1):
            if not hasattr(type(value), "__index__"):
                raise InvalidParamsError(f"m_{idx} = {value!r} is not an integer")
            if math.gcd(value, r) != 1:
                raise NonUnitError(f"m_{idx} = {value} is not a unit modulo {r}")
        return super().__new__(cls, r, tuple(index(v) % r for v in m))

    @classmethod
    def _make(cls, iterable) -> LensParams:
        return cls(*iterable)

    @property
    def n(self) -> int:
        return len(self.m)

    def __str__(self) -> str:
        return f"({self.r}; ({', '.join(str(v) for v in self.m)}))"


def _check_rn(r: int, n: int | None = None) -> None:
    """The (r, n) check of the functions that take no LensParams: r > 2 and
    n >= 1, both integers (with __index__), so a float or string is refused."""
    if not hasattr(type(r), "__index__") or r <= 2:
        raise BadModulusError(f"modulus r must be an integer > 2, got {r!r}")
    if n is not None and not hasattr(type(n), "__index__"):
        raise InvalidParamsError(f"dimension n must be an integer, got {n!r}")
    if n is not None and n < 1:
        raise InvalidParamsError(f"dimension n must be >= 1, got {n}")


def _units(r: int) -> list[int]:
    """The units modulo r, increasing."""
    return [u for u in range(1, r) if math.gcd(u, r) == 1]


def scale(params: LensParams, b: int) -> LensParams:
    """Replace m by (b*m mod r) entrywise; b must be a unit modulo r."""
    b = b % params.r
    if math.gcd(b, params.r) != 1:
        raise NonUnitError(f"scale factor {b} is not a unit modulo {params.r}")
    return LensParams(params.r, tuple((b * v) % params.r for v in params.m))


class LensGraph(NamedTuple):
    """Immutable adjacency view of one M-kind or N-kind graph."""

    kind: GraphKind
    r: int
    m: tuple[int, ...]
    adjacency: dict[Vertex, tuple[Vertex, ...]]

    @property
    def n(self) -> int:
        return len(self.m)

    def out_neighbors(self, s: int, t: int) -> tuple[Vertex, ...]:
        key = (s, t % self.r)
        if key not in self.adjacency:
            raise IndexOutOfRangeError(f"no vertex ({s}, {t}) in a graph with n={self.n}, r={self.r}")
        return self.adjacency[key]


def build_graph(params: LensParams, kind: GraphKind) -> LensGraph:
    """Construct the M-kind or N-kind graph for params."""
    if kind not in ("M", "N"):
        raise InvalidParamsError(f"kind must be 'M' or 'N', got {kind!r}")
    r, n, m = params.r, params.n, params.m
    adjacency: dict[Vertex, tuple[Vertex, ...]] = {}
    for s in range(1, n + 1):
        shift = m[s - 1]
        for t in range(r):
            t2 = (t + shift) % r
            if kind == "M":
                out = tuple((s2, t2) for s2 in range(s, n + 1))
            else:
                out = ((s, t2), (s + 1, t)) if s < n else ((s, t2),)
            adjacency[(s, t)] = out
    return LensGraph(kind, r, m, adjacency)


def _iter_legal_paths(
    graph: LensGraph, i: int, j: int, budget: int = DEFAULT_PATH_BUDGET
) -> Iterator[LegalPath]:
    """Depth-first enumeration of legal paths from (i, 0) to (j, 0).

    Iterative with an explicit stack; raises TooLarge once more than
    `budget` path prefixes have been visited. Rows below j are pruned
    since no edge ever decreases the subgraph index.
    """
    n = graph.n
    if not (1 <= i <= j <= n):
        raise IndexOutOfRangeError(f"need 1 <= i <= j <= n={n}, got i={i}, j={j}")
    target = (j, 0)
    stack: list[LegalPath] = [((i, 0),)]
    visited = 0
    while stack:
        path = stack.pop()
        visited += 1
        if visited > budget:
            raise TooLargeError(
                f"path enumeration exceeded budget of {budget} visited prefixes"
            )
        last = path[-1]
        if last == target and len(path) > 1:
            if any(t != 0 for _, t in path[1:]):
                yield path
            # Any continuation would have to stay on 0-vertices and rows
            # never decrease, so no later return to the target is possible.
            continue
        in_tail = any(t == 0 for _, t in path[1:])
        for nxt in graph.adjacency[last]:
            if nxt[0] > j:
                continue
            if in_tail and nxt[1] != 0:
                continue
            stack.append(path + (nxt,))


def enumerate_legal_paths(
    graph: LensGraph, i: int, j: int, budget: int = DEFAULT_PATH_BUDGET
) -> int:
    """Exact count of legal paths from (i, 0) to (j, 0) by brute force."""
    return sum(1 for _ in _iter_legal_paths(graph, i, j, budget))


def to_dot(graph: LensGraph) -> str:
    """Render the graph in DOT format with vertex labels "s:t"."""
    lines = [f"digraph {graph.kind} {{"]
    for s, t in sorted(graph.adjacency):
        lines.append(f'  "{s}:{t}";')
    for (s, t), out in sorted(graph.adjacency.items()):
        for s2, t2 in out:
            lines.append(f'  "{s}:{t}" -> "{s2}:{t2}";')
    lines.append("}")
    return "\n".join(lines)
