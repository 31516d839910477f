"""Tests for enumeration, partitioning, the phitilde search, and conjecture runs."""

import concurrent.futures
import itertools
import json
import math
import random
import time
import tracemalloc
from collections import Counter
from dataclasses import asdict

import pytest

import qlens.classify
import qlens.pathmatrix
from qlens.errors import (
    BadModulusError,
    BudgetExceededError,
    InvalidParamsError,
    InvariantViolationError,
)
from qlens.classify import (
    DEFAULT_VECTOR_BUDGET,
    NotFoundBelow,
    enumerate_matrices,
    partition_classes,
    phitilde_search,
    verify_conjectures,
    _build_records,
)
from qlens.cli import main
from qlens.equivalence import (
    NormalForm,
    Witness,
    block_obstruction,
    decide_equiv,
    distance_normal_form,
    unipotent_inverse,
    verify_witness,
)
from qlens.invariants import lower_bound_classes, phitilde_formula, signature
from qlens.lensgraph import LensParams
from qlens.pathmatrix import _normalized_walk, count_matrix


def test_enumerate_matrices_r3_n4():
    out = enumerate_matrices(3, 4)
    assert len(out) == 2
    corners = sorted(mat.entry(1, 4) for _, mat in out)
    assert corners == [10, 11]
    for params, _ in out:
        assert params.m[0] == params.m[1] == params.m[-1] == 1


def test_enumerate_matrices_forced_small_n():
    assert len(enumerate_matrices(5, 3)) == 1
    assert len(enumerate_matrices(7, 2)) == 1
    assert len(enumerate_matrices(11, 1)) == 1


def test_enumerate_matrices_r5_n4_all_equivalent():
    # m3 in {2, 3} yields the same matrix, so four vectors give three matrices
    out = enumerate_matrices(5, 4)
    assert len(out) == 3
    assert sorted(mat.entry(1, 4) for _, mat in out) == [35, 40, 45]
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            assert decide_equiv(out[i][1], out[j][1]).equivalent
    part = partition_classes(5, 4)
    assert part.phi == 1
    assert part.classes[0].size == 4
    assert part.classes[0].size_matrices == 3


def test_enumerate_matrices_deterministic():
    a = enumerate_matrices(9, 5)
    b = enumerate_matrices(9, 5)
    assert [(p.m, m.entries) for p, m in a] == [(p.m, m.entries) for p, m in b]


def test_enumerate_matrices_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_matrices(5, 10, budget=100)


def test_enumerate_matrices_rejects_bad_n():
    with pytest.raises(InvalidParamsError):
        enumerate_matrices(5, 0)


def test_normalized_walk_matches_count_matrix(monkeypatch):
    def check(r, n):
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        if n >= 3:
            vectors = [(1, 1) + mid + (1,) for mid in itertools.product(units, repeat=n - 3)]
        else:
            vectors = [(1,) * n]
        walked = list(_normalized_walk(r, n, DEFAULT_VECTOR_BUDGET))
        assert [vec for vec, _ in walked] == vectors, (r, n)
        for vec, entries in walked:
            assert entries == count_matrix(LensParams(r, vec)).entries, (r, vec)
        records = _build_records(r, n, DEFAULT_VECTOR_BUDGET)
        assert sum(rec.vector_count for rec in records) == len(vectors), (r, n)

    # (13, 6) and (55, 5) reach one depth through nodes of different last
    # shifts, so one u is gathered with several strides
    cases = [(21, 7), (8, 8), (5, 7), (13, 6), (55, 5)]
    # up to 8 rows share one packed int at (3, 10), 7 at (4, 9)
    packed = [(3, 10), (4, 9), (7, 7)]
    for r, n in cases + packed + [(r, n) for r in (3, 4, 12) for n in range(1, 5)]:
        check(r, n)
    # wide slots: every value of (2003, 5) fits in 5 * 11 bits
    for vec, entries in itertools.islice(_normalized_walk(2003, 5, DEFAULT_VECTOR_BUDGET), 200):
        assert entries == count_matrix(LensParams(2003, vec)).entries, vec
    # room for three gathers: the others are built for each use
    for r, n in cases[1:]:
        monkeypatch.setattr(qlens.pathmatrix, "GATHER_CACHE_INDEXES", 3 * r)
        check(r, n)


def test_normalized_walk_memory_is_bounded():
    # a table of all 2002 gathers at r = 2003 would hold 4 * 10^6 indexes
    r = 2003
    tracemalloc.start()
    try:
        # the walk's setup runs at the call, so it is measured with the vectors
        walk = _normalized_walk(r, 4, DEFAULT_VECTOR_BUDGET)
        for _ in itertools.islice(walk, 400):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_normalized_walk_checks_when_called():
    # the checks run when the walk is made, before any vector is asked for
    with pytest.raises(BadModulusError, match="modulus r must be an integer > 2, got 2"):
        _normalized_walk(2, 4, DEFAULT_VECTOR_BUDGET)
    with pytest.raises(InvalidParamsError):
        _normalized_walk(5, 0, DEFAULT_VECTOR_BUDGET)
    with pytest.raises(
        BudgetExceededError, match="enumeration needs 64000 vectors, exceeding the budget of 63999"
    ):
        _normalized_walk(55, 6, 63_999)
    # n <= 2 has one vector whatever the budget
    assert list(_normalized_walk(5, 2, 0)) == [((1, 1), ((1, 5), (0, 1)))]
    assert len(list(_normalized_walk(5, 6, 64))) == 64


def test_walk_refuses_without_building_the_count(capsys):
    # past 4,300 digits phi(7)^(n-3) is neither built nor printed, but
    # written as a power
    for n in (5529, 10_000, 10**9):
        start = time.perf_counter()
        assert main(["classes", "--r", "7", "--n", str(n)]) == 3
        assert time.perf_counter() - start < 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: enumeration needs 6^{n - 3} vectors, exceeding the budget of 10000000\n"
        )
    # up to 4,300 digits the count is given in full, as it always was
    assert main(["classes", "--r", "7", "--n", "5528"]) == 3
    count = capsys.readouterr().err.split()[3]
    assert len(count) == 4300 and count.isdigit()
    assert main(["classes", "--r", "7", "--n", "8", "--budget", "100"]) == 3
    assert capsys.readouterr().err == (
        "error: enumeration needs 7776 vectors, exceeding the budget of 100\n"
    )
    with pytest.raises(BudgetExceededError, match="needs 216 vectors, exceeding the budget of 0$"):
        _normalized_walk(7, 6, 0)


def test_normalized_walk_refuses_before_listing_units(monkeypatch):
    # phi(r) is read off r's primes, so a refused walk never lists the units
    def units(r):
        raise AssertionError(f"units listed for r = {r}")

    monkeypatch.setattr(qlens.pathmatrix, "_units", units)
    with pytest.raises(
        BudgetExceededError, match="enumeration needs 100000006 vectors, exceeding the budget of 10000000"
    ):
        _normalized_walk(100000007, 4, DEFAULT_VECTOR_BUDGET)
    # phi(360) = 96, with 2 among the primes
    with pytest.raises(BudgetExceededError, match="enumeration needs 9216 vectors"):
        _normalized_walk(360, 5, 9215)


def _brute_records(r, n):
    # first vector and vector count of each distinct matrix, in first-occurrence order
    units = [u for u in range(1, r) if math.gcd(u, r) == 1]
    table = {}
    for mid in itertools.product(units, repeat=n - 3):
        vec = (1, 1) + mid + (1,)
        row = table.setdefault(count_matrix(LensParams(r, vec)).entries, [vec, 0])
        row[1] += 1
    return [(entries, vec, count) for entries, (vec, count) in table.items()]


def test_build_records_match_brute_force():
    for r, n in [(5, 6), (12, 5), (15, 5), (7, 5)]:
        records = _build_records(r, n, DEFAULT_VECTOR_BUDGET)
        assert [(rec.entries, rec.m, rec.vector_count) for rec in records] == _brute_records(r, n)
        for rec in records:
            assert rec.signature == signature(LensParams(r, rec.m)), (r, rec.m)
        # one Signature object per distinct signature
        assert len({id(rec.signature) for rec in records}) == len({rec.signature for rec in records})


def test_build_records_stop_at_split():
    for r, n in [(12, 5), (15, 5), (3, 4), (9, 5)]:
        full = _build_records(r, n, DEFAULT_VECTOR_BUDGET)
        cut = _build_records(r, n, DEFAULT_VECTOR_BUDGET, stop_at_split=True)
        # the last record holds the first vector of the second signature
        second = next(rec for rec in full if rec.signature != full[0].signature)
        assert cut[-1].m == second.m and cut[-1].vector_count == 1, (r, n)
        assert all(rec.signature == full[0].signature for rec in cut[:-1]), (r, n)
        assert [rec.m for rec in cut] == [rec.m for rec in full[: len(cut)]], (r, n)
        assert all(a.vector_count <= b.vector_count for a, b in zip(cut, full)), (r, n)
    # one signature: the walk runs to the end and the counts are whole
    assert _build_records(5, 5, DEFAULT_VECTOR_BUDGET, stop_at_split=True) == _build_records(
        5, 5, DEFAULT_VECTOR_BUDGET
    )


def test_build_records_rejects_signature_disagreement(monkeypatch):
    # windows unique to each vector, so vectors sharing a matrix disagree
    monkeypatch.setattr(qlens.classify, "window_products", lambda primes, vec: (vec,))
    with pytest.raises(InvariantViolationError, match="share a matrix but disagree on the signature"):
        _build_records(5, 6, DEFAULT_VECTOR_BUDGET)


def test_partition_r3_n4():
    part = partition_classes(3, 4)
    assert part.phi == 2
    assert part.lower_bound == 2
    assert len(part.classes) == 2
    assert {c.representative_m for c in part.classes} == {(1, 1, 1, 1), (1, 1, 2, 1)}
    assert all(c.size == 1 and c.size_matrices == 1 for c in part.classes)


def test_partition_r5_n6():
    part = partition_classes(5, 6)
    assert part.phi == 4
    assert part.lower_bound == 4
    assert sum(c.size for c in part.classes) == 64
    assert len({c.size for c in part.classes}) == 1


def test_partition_r7_n5():
    part = partition_classes(7, 5)
    assert part.phi == 1
    assert sum(c.size for c in part.classes) == 36


def test_partition_classes_sorted_and_bounded():
    for r, n in [(3, 5), (5, 5), (9, 4), (6, 5), (12, 5)]:
        part = partition_classes(r, n)
        keys = [(c.signature.as_tuple(), c.representative_m) for c in part.classes]
        assert keys == sorted(keys)
        assert part.phi >= lower_bound_classes(r, n)


def test_partition_bucketing_matches_plain_solver():
    # the signature buckets must never change the partition; the keywords
    # are those of the benchmark's reference run
    for r, n in [(3, 6), (5, 6), (6, 6), (9, 6), (3, 5), (5, 5), (6, 5), (9, 5)]:
        bucketed = partition_classes(r, n)
        plain = partition_classes(r, n, jobs=2, use_signature_buckets=False)
        assert bucketed.to_json() == plain.to_json(), (r, n)


def test_partition_parallel_deterministic(monkeypatch):
    # (5, 7) has 244 distinct matrices in 5 buckets, above the pool's gate
    started = []

    class RecordingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs)
            super().__init__(*args, **kwargs)

    serial = partition_classes(5, 7)
    assert len(_build_records(5, 7, DEFAULT_VECTOR_BUDGET)) >= qlens.classify.POOL_MIN_RECORDS
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    parallel = partition_classes(5, 7, jobs=2)
    assert started == [{"max_workers": 2}]
    assert serial.to_json() == parallel.to_json()
    again = partition_classes(5, 7, jobs=2)
    assert parallel.to_json() == again.to_json()


def test_partition_budget_error():
    with pytest.raises(BudgetExceededError):
        partition_classes(7, 8, budget=1000)


def test_class_partition_json_round_trip(capsys):
    # classes --format json prints the library's own JSON, byte for byte
    assert main(["classes", "--r", "5", "--n", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out == partition_classes(5, 5).to_json() + "\n"


def test_phitilde_search_examples():
    assert phitilde_search(3, 8) == 4
    assert phitilde_search(12, 8) == 4
    assert phitilde_search(35, 5) == NotFoundBelow(5)


def test_phitilde_search_matches_formula_small():
    for r in (3, 5, 6, 9, 12, 15, 21, 25, 45, 55, 65, 85, 95):
        expected = phitilde_formula(r)
        assert phitilde_search(r, 8) == expected, r


def _record_walks(monkeypatch):
    # vectors walked per dimension, and the dimension of every solver call
    walked, solved = Counter(), []

    def walk(r, n, budget):
        for item in _normalized_walk(r, n, budget):
            walked[n] += 1
            yield item

    def recording(a, b):
        solved.append(len(a.m))
        return decide_equiv(a, b)

    monkeypatch.setattr(qlens.classify, "_normalized_walk", walk)
    monkeypatch.setattr(qlens.classify, "decide_equiv", recording)
    return walked, solved


def test_phitilde_search_stops_at_second_signature(monkeypatch):
    # n = 6 has 40^3 = 64,000 vectors at r = 55; the second signature
    # appears among the first, and its pair needs no solver call
    walked, solved = _record_walks(monkeypatch)
    assert phitilde_search(55, 8) == 6
    assert 0 < walked[6] < 100
    assert 6 not in solved
    assert max(walked) == 6


def test_phitilde_budget_refuses_the_split_dimension_unwalked(monkeypatch, capsys):
    walked, _ = _record_walks(monkeypatch)
    with pytest.raises(BudgetExceededError):
        phitilde_search(55, 8, budget=10_000)
    assert 6 not in walked and walked[5] == 40**2
    assert main(["phitilde", "--r", "55", "--budget", "10000"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: enumeration needs 64000 vectors, exceeding the budget of 10000\n"


def test_phitilde_search_power_of_two():
    assert phitilde_search(4, 8) == 6
    assert phitilde_search(8, 8) == 6


def test_verify_conjectures_r5_n6():
    report = verify_conjectures(5, 6)
    assert report.passed
    assert report.signature_iff is True
    assert report.counts_match is True
    assert report.equal_sizes_vectors is True
    # distinct vectors can share a matrix, so the matrix measure diverges here
    assert report.equal_sizes_matrices is False
    assert any("matrices" in note for note in report.details)
    assert report.phi == 4
    assert report.buckets == 4


def test_verify_conjectures_r9_n5():
    report = verify_conjectures(9, 5)
    assert report.passed
    assert report.phi == report.lower_bound == 4


def test_verify_conjectures_r3_n4():
    report = verify_conjectures(3, 4)
    assert report.passed
    assert report.phi == 2
    assert report.counts_match is True


def test_verify_conjectures_skips_equalities_for_4_divides_r():
    report = verify_conjectures(12, 4)
    assert report.signature_iff is None
    assert report.counts_match is None
    assert report.equal_sizes_vectors is None
    assert report.passed
    assert report.phi >= report.lower_bound


def test_verify_conjectures_json(capsys):
    argv = ["verify", "--suite", "conjectures", "--r", "5", "--n-max", "5", "--format", "json"]
    assert main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [report["n"] for report in payload] == [1, 2, 3, 4, 5]
    assert payload[-1] == json.loads(json.dumps(asdict(verify_conjectures(5, 5))))


def test_cross_bucket_check_fires(monkeypatch):
    # a cross-bucket pair without a block certificate stops the run
    monkeypatch.setattr(qlens.classify, "block_obstruction", lambda a, b: None)
    with pytest.raises(InvariantViolationError, match="representatives .* no block certificate"):
        partition_classes(5, 6)
    with pytest.raises(InvariantViolationError, match="representatives .* no block certificate"):
        verify_conjectures(5, 6)
    assert main(["classes", "--r", "5", "--n", "6"]) == 4
    # phitilde's split rests on the first records of two buckets
    with pytest.raises(InvariantViolationError, match="representatives .* no block certificate"):
        phitilde_search(35, 8)
    assert main(["phitilde", "--r", "35"]) == 4


def _failing_one_pair(monkeypatch, a_m, b_m):
    # a block scan that finds no certificate for the one pair {a_m, b_m}
    real = block_obstruction
    bad = frozenset((a_m, b_m))
    monkeypatch.setattr(
        qlens.classify,
        "block_obstruction",
        lambda a, b: None if frozenset((a.m, b.m)) == bad else real(a, b),
    )


def test_cross_bucket_check_covers_non_adjacent_pairs(monkeypatch):
    # (5, 6): 4 classes in 4 buckets; classes 0 and 2 are not adjacent
    classes = partition_classes(5, 6).classes
    assert len({c.signature for c in classes}) == len(classes) == 4
    _failing_one_pair(monkeypatch, classes[0].representative_m, classes[2].representative_m)
    with pytest.raises(InvariantViolationError, match="representatives .* no block certificate"):
        partition_classes(5, 6)
    assert main(["classes", "--r", "5", "--n", "6"]) == 4
    monkeypatch.undo()
    # (12, 6), where 4 | r: 16 classes in 8 buckets; the first and last
    # classes are not adjacent
    classes = partition_classes(12, 6).classes
    assert len(classes) == 16 and len({c.signature for c in classes}) == 8
    assert classes[0].signature != classes[-1].signature
    _failing_one_pair(monkeypatch, classes[0].representative_m, classes[-1].representative_m)
    with pytest.raises(InvariantViolationError, match="representatives .* no block certificate"):
        verify_conjectures(12, 6)


def test_verify_conjectures_solves_each_pair_once(monkeypatch):
    pairs = []

    def recording(a, b):
        pairs.append((frozenset((a.m, b.m)), a.signature == b.signature))
        return decide_equiv(a, b)

    monkeypatch.setattr(qlens.classify, "decide_equiv", recording)
    report = verify_conjectures(5, 6)
    assert report.passed
    # 4 buckets: block certificates settle all 6 cross-bucket pairs
    assert report.buckets == 4
    assert all(same for _, same in pairs)
    assert len(set(pairs)) == len(pairs)


def _strict(entries):
    return [[v - (i == j) for j, v in enumerate(row)] for i, row in enumerate(entries)]


def _matmul(x, y):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*y)] for row in x]


def test_normal_form_of_every_record():
    for r, n in [(8, 7), (12, 7), (5, 8), (9, 7)]:
        ident = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for rec in _build_records(r, n, DEFAULT_VECTOR_BUDGET):
            nf = distance_normal_form(rec)
            form = nf.form
            for i in range(n):
                for j in range(i + 2, n):
                    assert 0 <= form[i][j] < form[i][i + 1] == r, (r, n, rec.m)
            assert tuple(map(tuple, _matmul(_strict(rec.entries), nf.Q))) == form, (r, n, rec.m)
            # the certificate check agrees with the general witness check
            form_matrix = [[v + (i == j) for j, v in enumerate(row)] for i, row in enumerate(form)]
            assert verify_witness(form_matrix, rec, Witness(ident, nf.Q)), (r, n, rec.m)
            assert nf.certifies(rec), (r, n, rec.m)


def test_certifies_rejects_bad_certificates():
    rec = _build_records(8, 7, DEFAULT_VECTOR_BUDGET)[5]
    nf = distance_normal_form(rec)
    assert nf.certifies(rec)

    def changed(nf, i, j, delta):
        q = [list(row) for row in nf.Q]
        q[i][j] += delta
        return NormalForm(nf.form, tuple(map(tuple, q)))

    # column 0 of A - I is zero, so row 0 of Q never reaches the product:
    # only the unipotency check rejects a non-unit Q[0][0]
    assert not changed(nf, 0, 0, 1).certifies(rec)
    assert not changed(nf, 3, 3, -2).certifies(rec)
    assert not changed(nf, 5, 2, 1).certifies(rec)
    # one changed entry above the diagonal, outside row 0
    i, j = next((i, j) for i in range(1, 7) for j in range(i + 1, 7) if nf.Q[i][j])
    assert not changed(nf, i, j, 1).certifies(rec)
    # for A = I every Q gives R = 0: below the diagonal, only the
    # unipotency check rejects it
    ident = [[int(i == j) for j in range(4)] for i in range(4)]
    nf_i = distance_normal_form(ident)
    assert nf_i.certifies(ident) and changed(nf_i, 1, 2, 5).certifies(ident)
    assert not changed(nf_i, 2, 1, 1).certifies(ident)
    # a matrix of another size, or a Q of another size
    assert not nf.certifies(_build_records(8, 6, DEFAULT_VECTOR_BUDGET)[5])
    assert not nf.certifies([row[:6] for row in rec.entries[:6]])
    assert not NormalForm(nf.form, tuple(row[:6] for row in nf.Q[:6])).certifies(rec)


def test_same_form_witnesses_verify():
    by_form = {}
    for rec in _build_records(8, 7, DEFAULT_VECTOR_BUDGET):
        nf = distance_normal_form(rec)
        assert nf.certifies(rec)
        by_form.setdefault(nf.form, []).append((rec, nf.Q))
    assert len(by_form) == 16
    ident = tuple(tuple(int(i == j) for j in range(7)) for i in range(7))
    for recs in by_form.values():
        # (A - I) Q_a = R = (B - I) Q_b gives the witness (I, Q_b Q_a^-1)
        for (a, q_a), (b, q_b) in itertools.combinations(recs, 2):
            v = tuple(map(tuple, _matmul(q_b, unipotent_inverse(q_a))))
            assert verify_witness(a, b, Witness(ident, v))


def test_corrupted_composition_is_caught(monkeypatch, capsys):
    real = distance_normal_form

    def skipping(matrix):
        # the last column operation, column j -= t * column p, skips its
        # update of Q: undo it on the real Q
        form = _strict(matrix.entries)
        last = None
        for d in range(2, len(form)):
            for i in range(len(form) - d):
                g = form[i][i + 1]
                if g and (t := form[i][i + d] // g):
                    for row in form[: i + 1]:
                        row[i + d] -= t * row[i + 1]
                    last = (i + 1, i + d, t)
        nf = real(matrix)
        assert tuple(map(tuple, form)) == nf.form
        q = [list(row) for row in nf.Q]
        if last:
            p, j, t = last
            for row in q:
                row[j] += t * row[p]
        return NormalForm(nf.form, tuple(map(tuple, q)))

    monkeypatch.setattr(qlens.classify, "distance_normal_form", skipping)
    with pytest.raises(InvariantViolationError, match="normal form certificate for .* fails verification"):
        partition_classes(8, 7)
    assert main(["classes", "--r", "8", "--n", "7"]) == 4
    assert "fails verification" in capsys.readouterr().err


def test_block_scan_separates_cross_signature_representatives(monkeypatch):
    scanned = []

    def recording(a, b):
        obstruction = block_obstruction(a, b)
        scanned.append((frozenset((a.m, b.m)), obstruction))
        return obstruction

    monkeypatch.setattr(qlens.classify, "block_obstruction", recording)
    part = partition_classes(15, 6)
    # 32 classes, one per signature: every pair is scanned once and certified
    assert part.phi == len({c.signature for c in part.classes}) == 32
    assert len(scanned) == len({pair for pair, _ in scanned}) == 496
    assert all(obstruction is not None for _, obstruction in scanned)
    # seeded record pairs, where p^2 | r or 4 | r as well
    for r, n in [(9, 6), (45, 5), (36, 5), (12, 7), (20, 6)]:
        records = _build_records(r, n, DEFAULT_VECTOR_BUDGET)
        rng = random.Random(r * 100 + n)
        pairs = [rng.sample(records, 2) for _ in range(1000)]
        pairs = [(a, b) for a, b in pairs if a.signature != b.signature]
        assert len(pairs) > 500, (r, n)
        for a, b in pairs:
            assert block_obstruction(a, b) is not None, (r, a.m, b.m)
