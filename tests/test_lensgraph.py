"""Tests for graph construction and the brute-force path oracle."""

import math
import random

import pytest

from qlens.errors import (
    BadModulusError,
    IndexOutOfRangeError,
    InvalidParamsError,
    NonUnitError,
    TooLargeError,
)
from qlens.lensgraph import (
    LensParams,
    _iter_legal_paths,
    build_graph,
    enumerate_legal_paths,
    scale,
    to_dot,
)


def test_params_reduce_and_validate():
    p = LensParams(5, (-1, 3, 6))
    assert p.m == (4, 3, 1)
    assert p.n == 3
    assert str(p) == "(5; (4, 3, 1))"


def test_params_reject_bad_modulus():
    with pytest.raises(BadModulusError):
        LensParams(2, (1,))
    with pytest.raises(BadModulusError):
        LensParams(0, (1,))


def test_params_reject_empty_m():
    with pytest.raises(InvalidParamsError):
        LensParams(5, ())


def test_params_refuse_entries_that_are_not_integers():
    # int() would truncate 1.9 and 2.2 and give m = (1, 2, 1)
    with pytest.raises(InvalidParamsError, match=r"^m_1 = 1\.9 is not an integer$"):
        LensParams(5, (1.9, 2.2, 1))
    with pytest.raises(InvalidParamsError, match=r"^m_2 = '2' is not an integer$"):
        LensParams(5, (1, "2", 1))
    assert LensParams(5, (True, -1)).m == (1, 4)


def test_params_name_offending_entry():
    with pytest.raises(NonUnitError) as exc:
        LensParams(6, (1, 2, 5))
    assert "m_2" in str(exc.value)
    with pytest.raises(NonUnitError) as exc:
        LensParams(5, (1, 3, 10))
    assert "m_3" in str(exc.value)
    # the entry as given, not its residue
    with pytest.raises(NonUnitError, match=r"^m_2 = 12 is not a unit modulo 9$"):
        LensParams(9, (1, 12, 1))


def test_scale_examples():
    p = LensParams(5, (1, 2, 1))
    assert scale(p, 2).m == (2, 4, 2)
    assert scale(p, 1) == p
    assert scale(p, -1).m == (4, 3, 4)
    with pytest.raises(NonUnitError):
        scale(p, 5)


def test_build_graph_n_kind_structure():
    g = build_graph(LensParams(5, (1, 2, 1)), "N")
    assert len(g.adjacency) == 15
    for (s, _), out in g.adjacency.items():
        assert len(out) == (1 if s == 3 else 2)
    assert set(g.out_neighbors(1, 0)) == {(1, 1), (2, 0)}
    assert set(g.out_neighbors(2, 3)) == {(2, 0), (3, 3)}
    assert g.out_neighbors(3, 4) == ((3, 0),)


def test_build_graph_m_kind_structure():
    g = build_graph(LensParams(5, (1, 2, 1)), "M")
    assert len(g.adjacency) == 15
    for (s, _), out in g.adjacency.items():
        assert len(out) == 3 - s + 1
    assert set(g.out_neighbors(1, 0)) == {(1, 1), (2, 1), (3, 1)}
    assert set(g.out_neighbors(2, 4)) == {(2, 1), (3, 1)}
    assert g.out_neighbors(3, 2) == ((3, 3),)


def test_build_graph_single_subgraph_cycle():
    g = build_graph(LensParams(3, (1,)), "N")
    assert len(g.adjacency) == 3
    assert g.out_neighbors(1, 0) == ((1, 1),)
    assert g.out_neighbors(1, 1) == ((1, 2),)
    assert g.out_neighbors(1, 2) == ((1, 0),)


def test_build_graph_rejects_bad_kind():
    with pytest.raises(InvalidParamsError):
        build_graph(LensParams(5, (1,)), "X")


def test_oracle_small_window_counts():
    g = build_graph(LensParams(5, (1, 2, 1)), "N")
    assert enumerate_legal_paths(g, 1, 1) == 1
    assert enumerate_legal_paths(g, 1, 2) == 5
    assert enumerate_legal_paths(g, 2, 3) == 5
    assert enumerate_legal_paths(g, 1, 3) == 15


def test_oracle_m_kind_example():
    g = build_graph(LensParams(3, (1, 2, 1, 1)), "M")
    assert enumerate_legal_paths(g, 1, 4) == 11


def test_oracle_all_ones_binomial():
    g = build_graph(LensParams(3, (1, 1, 1, 1)), "M")
    assert enumerate_legal_paths(g, 1, 4) == 10


def test_m_and_n_counts_agree():
    rng = random.Random(97)
    cases = [(3, (1, 2, 1, 1)), (4, (1, 3, 3)), (5, (1, 2, 1)), (7, (3, 5, 1))]
    for _ in range(4):
        r = rng.choice([3, 4, 5, 6])
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        n = rng.randrange(1, 5)
        cases.append((r, tuple(rng.choice(units) for _ in range(n))))
    for r, m in cases:
        p = LensParams(r, m)
        gm = build_graph(p, "M")
        gn = build_graph(p, "N")
        for i in range(1, p.n + 1):
            for j in range(i, p.n + 1):
                assert enumerate_legal_paths(gm, i, j) == enumerate_legal_paths(gn, i, j)


def test_oracle_invariant_under_scaling():
    p = LensParams(5, (1, 2, 1))
    q = scale(p, 3)
    gp = build_graph(p, "N")
    gq = build_graph(q, "N")
    for i in range(1, 4):
        for j in range(i, 4):
            assert enumerate_legal_paths(gp, i, j) == enumerate_legal_paths(gq, i, j)


def test_oracle_paths_are_legal():
    g = build_graph(LensParams(5, (1, 2, 1)), "N")
    paths = list(_iter_legal_paths(g, 1, 3))
    assert len(paths) == 15
    for path in paths:
        assert path[0] == (1, 0)
        assert path[-1] == (3, 0)
        assert len(path) > 1
        for a, b in zip(path, path[1:]):
            assert b in g.adjacency[a]
        assert any(t != 0 for _, t in path[1:])
        interior = [t for _, t in path[1:]]
        first_zero = interior.index(0)
        assert all(t == 0 for t in interior[first_zero:])


def test_oracle_budget_enforced():
    g = build_graph(LensParams(5, (1, 2, 1)), "N")
    with pytest.raises(TooLargeError):
        enumerate_legal_paths(g, 1, 3, budget=10)


def test_oracle_index_validation():
    g = build_graph(LensParams(5, (1, 2, 1)), "N")
    for i, j in [(0, 1), (1, 4), (3, 2)]:
        with pytest.raises(IndexOutOfRangeError):
            enumerate_legal_paths(g, i, j)


def test_to_dot_contains_vertices_and_edges():
    g = build_graph(LensParams(3, (1, 2)), "N")
    dot = to_dot(g)
    assert dot.startswith("digraph N {")
    assert '"1:0";' in dot
    assert '"1:0" -> "1:1";' in dot
    assert '"1:0" -> "2:0";' in dot
    assert dot.rstrip().endswith("}")
