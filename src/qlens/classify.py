"""Enumeration and exact classification of path matrices up to equivalence.

The enumeration domain fixes m_1 = m_2 = m_n = 1; every matrix of the full
parameter space is still produced because the matrix is invariant under
scaling and under changes to the first and last entries. The domain's
matrices come from one depth-first walk over m_3..m_{n-1} that shares the
row DP of every common prefix; each distinct matrix keeps its first
(smallest) vector in itertools.product order.

One pipeline serves partition_classes and phitilde_search, and
verify_conjectures is a report over partition_classes: matrices are
bucketed by signature (classes never span buckets), then each bucket is
reduced, then joined. Every matrix A is brought to its distance-order
normal form R = (A - I)Q, and its own certificate (I, Q) of A ~ R + I is
checked, so matrices of one form are equivalent by transitivity. Only a
new form runs the representative-first union-find on forms, joining the
first class whose representative's form it is equivalent to, by a solve
that continues an elimination cached per representative; this is exact
too, since representatives are pairwise non-equivalent by construction.
A partition must meet the proven lower bound, and every pair of
representatives of different buckets must carry a block certificate of
non-equivalence; the solver is never asked across buckets.
phitilde_search stops each walk at the second signature and
block-certifies that pair.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, NamedTuple

from .errors import InvariantViolationError
from .equivalence import (
    IntMatrix,
    _block_obstruction,
    _distance_normal_form,
    _system_witness,
)
from .invariants import Signature, lower_bound_classes, window_products
from .lensgraph import LensParams, _check_rn
from .numtheory import _integer, factorize
from .pathmatrix import PathMatrix, _normalized_walk, _pool_map

__all__ = [
    "MatrixRecord",
    "ClassRecord",
    "ClassPartition",
    "ConjectureReport",
    "NotFoundBelow",
    "DEFAULT_VECTOR_BUDGET",
    "enumerate_matrices",
    "partition_classes",
    "phitilde_search",
    "verify_conjectures",
]

DEFAULT_VECTOR_BUDGET = 10**7
# Below this many distinct matrices, starting the bucket pool costs more
# than the workers save.
POOL_MIN_RECORDS = 200


class MatrixRecord(NamedTuple):
    """One distinct matrix (its m is the smallest producing vector), its
    signature, and how many normalized vectors produce it."""

    m: tuple[int, ...]
    entries: tuple[tuple[int, ...], ...]
    signature: Signature
    vector_count: int


class ClassRecord(NamedTuple):
    representative_m: tuple[int, ...]
    size: int
    size_matrices: int
    signature: Signature
    matrix_digest: str


class ClassPartition(NamedTuple):
    r: int
    n: int
    phi: int
    lower_bound: int
    classes: tuple[ClassRecord, ...]


class NotFoundBelow(NamedTuple):
    """phitilde_search outcome when no dimension up to n_max splits."""

    n_max: int


def _build_records(
    r: int, n: int, budget: int, stop_at_split: bool = False
) -> list[MatrixRecord]:
    """Distinct matrices in lexicographic first-occurrence order.

    Vectors producing the same matrix must agree on the signature; that
    consistency is asserted on every walked vector because the buckets
    downstream would be ill-defined otherwise. With stop_at_split the walk
    ends at the first vector with a second signature: its record comes
    last, and the counts of the others are partial.
    """
    # made first, so its (r, n) and budget checks come before factorize
    walk = _normalized_walk(r, n, budget)
    primes = tuple(p for p, _ in factorize(r).odd_primes)
    signatures: dict[tuple, Signature] = {}
    # entries -> [first vector, its signature, vector count]
    table: dict[tuple[tuple[int, ...], ...], list] = {}
    for vec, entries in walk:
        windows = window_products(primes, vec)
        row = table.get(entries)
        if row is None:
            if windows not in signatures:
                signatures[windows] = Signature(primes, windows)
            row = table[entries] = [vec, signatures[windows], 0]
        elif row[1].windows != windows:
            raise InvariantViolationError(
                f"vectors {row[0]} and {vec} share a matrix but disagree "
                f"on the signature"
            )
        row[2] += 1
        if stop_at_split and len(signatures) > 1:
            break
    return [MatrixRecord(vec, entries, sig, count) for entries, (vec, sig, count) in table.items()]


def enumerate_matrices(
    r: int, n: int, budget: int = DEFAULT_VECTOR_BUDGET
) -> list[tuple[LensParams, PathMatrix]]:
    """All distinct matrices for (r, n), with smallest producing vectors."""
    r, n = _check_rn(r, n)
    return [
        (LensParams(r, rec.m), PathMatrix(r, rec.m, rec.entries))
        for rec in _build_records(r, n, budget)
    ]


def _classify_bucket(
    records: list[MatrixRecord], stop_after: int | None = None
) -> list[list[int]]:
    """Indexes of records grouped into classes, representative first.

    One pass in record order. Each record is brought to its distance-order
    normal form R = (A - I) Q, and the certificate (I, Q) of A ~ R + I is
    checked first; records of one form are thus equivalent by transitivity.
    A record whose form was seen joins that form's class. A new form R + I
    is solved against each class's representative form in turn, as one
    more elimination on top of that form's cached ones (_system_witness,
    its witness checked), and joins the first equivalent class, or starts
    one. A class's first record is thus the first record of its form.
    With stop_after the walk ends as soon as that many classes exist, so
    the later groups are incomplete.
    """
    groups: list[list[int]] = []
    joins: list[tuple[IntMatrix, dict]] = []  # each class's form R + I, join cache
    forms: dict[IntMatrix, list[int]] = {}
    for idx, rec in enumerate(records):
        nf = _distance_normal_form(rec)
        if not nf.certifies(rec):
            raise InvariantViolationError(
                f"normal form certificate for {rec.m} fails verification"
            )
        group = forms.get(nf.form)
        if group is None:
            b = tuple(tuple(v + (i == j) for j, v in enumerate(row)) for i, row in enumerate(nf.form))
            for group, (a, cache) in zip(groups, joins):
                if _system_witness(a, b, cache) is not None:
                    break
            else:
                group = []
                groups.append(group)
                joins.append((b, {}))
            forms[nf.form] = group
        group.append(idx)
        if len(groups) == stop_after:
            break
    return groups


def _check_cross_bucket(pairs: Iterable[tuple[MatrixRecord, MatrixRecord]]) -> None:
    """Each pair of representatives with different signatures must carry
    a block certificate of non-equivalence (block_obstruction, O(n^2)
    gcds). partition_classes passes every pair of its representatives;
    phitilde_search passes the one pair that proves its split.

    The signature's invariance proof is such a certificate: where the
    windows for an odd prime p (p^alpha exactly dividing r) differ at t,
    every entry of block [t, t+p] at distance < p is divisible by p^alpha
    while its corners differ modulo p^alpha. A pair without one means that
    proof failed, so it stops the run.
    """
    for a, b in pairs:
        if a.signature != b.signature and _block_obstruction(a, b) is None:
            raise InvariantViolationError(
                f"representatives {a.m} and {b.m} have different signatures "
                f"but no block certificate"
            )


def partition_classes(
    r: int,
    n: int,
    budget: int = DEFAULT_VECTOR_BUDGET,
    jobs: int | None = None,
    use_signature_buckets: bool = True,
) -> ClassPartition:
    """Exact partition of the (r, n) matrices into equivalence classes,
    sorted by signature and representative vector, meeting the proven
    lower bound.

    With use_signature_buckets=False the partition is computed without
    signature buckets (forms and the solver over all records), which is
    slower but does not rely on the signature being an invariant; the two
    modes must agree. With buckets, every pair of representatives with
    different signatures must carry a block certificate of
    non-equivalence. Large cells use at most one process per bucket.
    """
    r, n = _check_rn(r, n)
    jobs = None if jobs is None else _integer(jobs, "jobs")
    records = _build_records(r, n, budget)
    buckets = [records]
    if use_signature_buckets:
        shared: dict[Signature, list[MatrixRecord]] = {}
        for rec in records:
            shared.setdefault(rec.signature, []).append(rec)
        buckets = [shared[sig] for sig in sorted(shared)]
    grouped = _pool_map(_classify_bucket, buckets, jobs if len(records) >= POOL_MIN_RECORDS else 1)
    classes = sorted(
        (
            (bucket[group[0]], [bucket[i] for i in group])
            for bucket, groups in zip(buckets, grouped)
            for group in groups
        ),
        key=lambda c: (c[0].signature, c[0].m),
    )
    bound = lower_bound_classes(r, n)
    if len(classes) < bound:
        raise InvariantViolationError(
            f"found {len(classes)} classes for (r={r}, n={n}), below the proven bound {bound}"
        )
    if use_signature_buckets:
        _check_cross_bucket(itertools.combinations([rep for rep, _ in classes], 2))
    out = tuple(
        ClassRecord(
            rep.m,
            sum(member.vector_count for member in members),
            len(members),
            rep.signature,
            ";".join(",".join(str(v) for v in row) for row in rep.entries),
        )
        for rep, members in classes
    )
    return ClassPartition(r, n, len(out), bound, out)


def phitilde_search(
    r: int,
    n_max: int,
    budget: int = DEFAULT_VECTOR_BUDGET,
) -> int | NotFoundBelow:
    """Smallest n <= n_max with more than one class, else NotFoundBelow.

    Each dimension's walk stops at the first vector whose signature differs
    from the first vector's; that pair proves the split once it carries a
    block certificate. A walk that ends with one signature leaves one
    bucket, which is classified until a second class appears or the
    dimension is exhausted.
    """
    n_max = _integer(n_max, "n_max")
    for n in range(1, n_max + 1):
        records = _build_records(r, n, budget, stop_at_split=True)
        if records[0].signature != records[-1].signature:
            _check_cross_bucket([(records[0], records[-1])])
            return n
        if len(_classify_bucket(records, stop_after=2)) > 1:
            return n
    return NotFoundBelow(n_max)


class ConjectureReport(NamedTuple):
    """Verdicts of the three experimental conjecture checks.

    A None verdict means the check is not claimed for this r (the
    equality conjectures are stated only for r not divisible by 4);
    the lower-bound inequality is enforced unconditionally by the shared
    pipeline.
    """

    r: int
    n: int
    phi: int
    lower_bound: int
    buckets: int
    signature_iff: bool | None
    counts_match: bool | None
    equal_sizes_vectors: bool | None
    equal_sizes_matrices: bool | None
    details: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(
            v is not False
            for v in (
                self.signature_iff,
                self.counts_match,
                self.equal_sizes_vectors,
            )
        )


def verify_conjectures(
    r: int,
    n: int,
    budget: int = DEFAULT_VECTOR_BUDGET,
    jobs: int | None = None,
) -> ConjectureReport:
    """Run the three conjecture experiments on partition_classes(r, n).

    (a) equal signature iff equivalent: every bucket collapses to one
    class (the partition has already certified every cross-bucket
    representative pair non-equivalent); (b) phi equals the closed-form
    product; (c) all classes have the same number of members (vectors
    measure decides; the matrices measure is reported separately). When
    4 | r the three are not claimed.
    """
    r, n = _check_rn(r, n)
    part = partition_classes(r, n, budget, jobs)
    phi, bound = part.phi, part.lower_bound
    buckets = Counter(c.signature for c in part.classes)
    if r % 4 == 0:
        return ConjectureReport(r, n, phi, bound, len(buckets), None, None, None, None, ())
    split = [tuple(key) for key, count in buckets.items() if count > 1]
    vec_sizes = sorted({c.size for c in part.classes})
    mat_sizes = sorted({c.size_matrices for c in part.classes})
    details = []
    if split:
        details.append(f"buckets with more than one class: {split}")
    if phi != bound:
        details.append(f"phi = {phi} differs from the product {bound}")
    if len(vec_sizes) > 1:
        details.append(f"class sizes over vectors differ: {vec_sizes}")
    if len(mat_sizes) > 1:
        details.append(f"class sizes over matrices differ: {mat_sizes}")
    return ConjectureReport(
        r,
        n,
        phi,
        bound,
        len(buckets),
        signature_iff=not split,
        counts_match=phi == bound,
        equal_sizes_vectors=len(vec_sizes) <= 1,
        equal_sizes_matrices=len(mat_sizes) <= 1,
        details=tuple(details),
    )
