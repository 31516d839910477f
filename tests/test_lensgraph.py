"""Tests for graph construction and the brute-force path oracle."""

import math
import random
import re

import pytest

from qlens.classify import enumerate_matrices, partition_classes, phitilde_search, verify_conjectures
from qlens.equivalence import obstruction_mod_k, submatrix_necessary
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
from qlens.invariants import congruence_main, lower_bound_classes, phitilde_formula
from qlens.numtheory import binomial, factorize, is_prime, mod_inverse, padic_valuation
from qlens.pathmatrix import closed_form_all_ones, count_matrix, poly_1to6


def test_params_reduce_and_validate():
    p = LensParams(5, (-1, 3, 6))
    assert p.m == (4, 3, 1)
    assert p.n == 3
    assert str(p) == "(5; (4, 3, 1))"
    assert p._replace(m=(-1,)).m == LensParams._make((5, (9,))).m == (4,)


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


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (lower_bound_classes, (15.0, 7), BadModulusError, "modulus r must be an integer > 2, got 15.0"),
        (phitilde_formula, (6.0,), BadModulusError, "modulus r must be an integer > 2, got 6.0"),
        (partition_classes, (5.0, 4), BadModulusError, "modulus r must be an integer > 2, got 5.0"),
        (enumerate_matrices, (5, 4.0), InvalidParamsError, "dimension n must be an integer, got 4.0"),
        (closed_form_all_ones, (5, 3.0), InvalidParamsError, "dimension n must be an integer, got 3.0"),
    ],
    ids=["lower_bound_classes", "phitilde_formula", "partition_classes", "enumerate_matrices", "closed_form_all_ones"],
)
def test_functions_without_params_refuse_r_and_n_that_are_not_integers(call, args, error, message):
    # a float passes the range comparisons, so r and n are refused by type,
    # with the error class of an out-of-range value
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*args)


class Exact:
    """An integer type with __index__ alone: no arithmetic, no comparison,
    and no equality with int, so a value computed from it cannot pass."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


A3 = ((1, 3, 1), (0, 1, 3), (0, 0, 1))
B3 = ((1, 3, 2), (0, 1, 3), (0, 0, 1))
P25 = LensParams(25, (1, 2, 3))
N5 = build_graph(LensParams(5, (1, 2, 1)), "N")


def test_integer_parameters_are_read_with_index():
    # every integer parameter is read as an int before anything computes with it
    assert LensParams(Exact(5), (Exact(1), Exact(2))) == LensParams(5, (1, 2))
    assert scale(LensParams(5, (1, 2)), Exact(2)) == LensParams(5, (2, 4))
    assert factorize(Exact(45)) == factorize(45) == (0, ((3, 2), (5, 1)))
    assert lower_bound_classes(Exact(15), Exact(7)) == lower_bound_classes(15, 7)
    assert phitilde_formula(Exact(6)) == 4
    assert poly_1to6(Exact(10)) == poly_1to6(10)
    assert closed_form_all_ones(Exact(5), Exact(3)) == closed_form_all_ones(5, 3)
    assert enumerate_matrices(Exact(5), Exact(4)) == enumerate_matrices(5, 4)
    assert partition_classes(Exact(5), Exact(4)) == partition_classes(5, 4)
    assert phitilde_search(Exact(5), Exact(8)) == phitilde_search(5, 8) == 6
    assert verify_conjectures(Exact(5), Exact(4)) == verify_conjectures(5, 4)
    assert congruence_main(P25, Exact(5), Exact(2)) == congruence_main(P25, 5, 2)
    assert obstruction_mod_k(A3, B3, Exact(3)) == obstruction_mod_k(A3, B3, 3) == (3, (1, 3), 1, 2)
    assert submatrix_necessary(A3, B3, Exact(1), Exact(2)) is submatrix_necessary(A3, B3, 1, 2) is False
    assert is_prime(Exact(7)) is True
    assert padic_valuation(Exact(8), Exact(2)) == 3
    assert binomial(Exact(5), Exact(2)) == 10
    assert mod_inverse(Exact(2), Exact(5)) == 3
    assert count_matrix(P25, jobs=Exact(2)) == count_matrix(P25)
    assert partition_classes(5, 4, budget=Exact(100), jobs=Exact(2)) == partition_classes(5, 4)
    assert enumerate_legal_paths(N5, Exact(1), Exact(3), Exact(10**8)) == enumerate_legal_paths(N5, 1, 3) == 15


@pytest.mark.parametrize(
    "call, args, error, message",
    [
        (LensParams, (5.0, (1,)), BadModulusError, "modulus r must be an integer > 2, got 5.0"),
        (scale, (LensParams(5, (1,)), 2.0), InvalidParamsError, "scale factor must be an integer, got 2.0"),
        (factorize, (45.0,), BadModulusError, "r must be an integer, got 45.0"),
        (poly_1to6, (10.0,), BadModulusError, "modulus r must be an integer > 2, got 10.0"),
        (phitilde_search, (5, 8.0), InvalidParamsError, "n_max must be an integer, got 8.0"),
        (congruence_main, (P25, 5.0, 2), InvalidParamsError, "p must be an integer, got 5.0"),
        (congruence_main, (P25, 5, 2.0), InvalidParamsError, "alpha must be an integer, got 2.0"),
        (obstruction_mod_k, (A3, B3, 3.0), InvalidParamsError, "obstruction modulus must be an integer, got 3.0"),
        (submatrix_necessary, (A3, B3, 1.0, 2), InvalidParamsError, "block start b must be an integer, got 1.0"),
        (submatrix_necessary, (A3, B3, 1, 2.0), InvalidParamsError, "block length c must be an integer, got 2.0"),
        (is_prime, (7.0,), InvalidParamsError, "p must be an integer, got 7.0"),
        (padic_valuation, (8.0, 2), InvalidParamsError, "x must be an integer, got 8.0"),
        (padic_valuation, (8, 2.0), InvalidParamsError, "p must be an integer, got 2.0"),
        (binomial, (5.0, 2), InvalidParamsError, "a must be an integer, got 5.0"),
        (binomial, (-1, 2), InvalidParamsError, "binomial is defined for non-negative arguments, got (-1, 2)"),
        (mod_inverse, (2, 5.0), BadModulusError, "modulus must be an integer, got 5.0"),
        (mod_inverse, (2.0, 5), InvalidParamsError, "a must be an integer, got 2.0"),
        # refused at entry, also where the row pool would not start
        (lambda jobs: count_matrix(P25, jobs=jobs), ("2",), InvalidParamsError, "jobs must be an integer, got '2'"),
        (lambda jobs: count_matrix(P25, jobs=jobs), (2.0,), InvalidParamsError, "jobs must be an integer, got 2.0"),
        (partition_classes, (5, 8, 10**7, "2"), InvalidParamsError, "jobs must be an integer, got '2'"),
        (partition_classes, (5, 5, 2.5), InvalidParamsError, "budget must be an integer, got 2.5"),
        (enumerate_legal_paths, (N5, 1.0, 3), InvalidParamsError, "i must be an integer, got 1.0"),
        (enumerate_legal_paths, (N5, 1, 3.0), InvalidParamsError, "j must be an integer, got 3.0"),
        (enumerate_legal_paths, (N5, 1, 3, 2.5), InvalidParamsError, "budget must be an integer, got 2.5"),
        (enumerate_legal_paths, (N5, 1, 3, "x"), InvalidParamsError, "budget must be an integer, got 'x'"),
    ],
    ids=["LensParams", "scale", "factorize", "poly_1to6", "phitilde_search", "congruence_main-p",
         "congruence_main-alpha", "obstruction_mod_k", "submatrix_necessary-b", "submatrix_necessary-c",
         "is_prime", "padic_valuation-x", "padic_valuation-p", "binomial", "binomial-negative",
         "mod_inverse-r", "mod_inverse-a", "count_matrix-jobs-str", "count_matrix-jobs-float",
         "partition_classes-jobs", "partition_classes-budget", "enumerate_legal_paths-i",
         "enumerate_legal_paths-j", "enumerate_legal_paths-budget", "enumerate_legal_paths-budget-str"],
)
def test_integer_parameters_refuse_floats(call, args, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call(*args)


def test_fixed_width_integers_are_computed_with_exactly():
    np = pytest.importorskip("numpy")
    # in int64 these overflow: 14^25 wraps to 0, and poly_1to6's numerator
    # to a value that 40 does not divide
    assert lower_bound_classes(np.int64(15), 40) == 162259276829213363391578010288128
    assert poly_1to6(np.int64(10**4)) == 7501249875037505500
    assert type(partition_classes(np.int64(5), 5).r) is int
    assert type(LensParams(np.int64(5), (1, 2)).r) is int


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
    with pytest.raises(NonUnitError, match=r"^m_2 = 12 is not a unit modulo 9$"):
        LensParams(9, (1, 2, 1))._replace(m=(1, 12, 1))


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


def test_out_neighbors_refuses_a_missing_vertex():
    g = build_graph(LensParams(5, (1, 2, 1)), "N")
    assert g.out_neighbors(3, 9) == g.out_neighbors(3, 4)  # t is read modulo r
    for s in (0, 4):
        with pytest.raises(IndexOutOfRangeError, match=rf"^no vertex \({s}, 0\) in a graph with n=3, r=5$"):
            g.out_neighbors(s, 0)


def test_to_dot_contains_vertices_and_edges():
    g = build_graph(LensParams(3, (1, 2)), "N")
    dot = to_dot(g)
    assert dot.startswith("digraph N {")
    assert '"1:0";' in dot
    assert '"1:0" -> "1:1";' in dot
    assert '"1:0" -> "2:0";' in dot
    assert dot.rstrip().endswith("}")
