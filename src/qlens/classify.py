"""Enumeration and exact classification of path matrices up to equivalence.

The enumeration domain fixes m_1 = m_2 = m_n = 1; every matrix of the full
parameter space is still produced because the matrix is invariant under
scaling and under changes to the first and last entries. The domain's
matrices come from one depth-first walk over m_3..m_{n-1} that shares the
row DP of every common prefix; each distinct matrix keeps its first
(smallest) vector in itertools.product order. Classification buckets matrices by signature (classes never span buckets), then runs the
exact solver inside each bucket with a representative-first union-find:
each matrix is compared against the representatives of the classes found
so far, joining the first equivalent one. Transitivity makes this exact,
since representatives are pairwise non-equivalent by construction.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .errors import BudgetExceededError, InvalidParamsError, InvariantViolationError
from .equivalence import decide_equiv
from .invariants import Signature, lower_bound_classes, window_products
from .lensgraph import LensParams
from .numtheory import factorize
from .pathmatrix import PathMatrix, _normalized_walk, count_matrix

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


@dataclass(frozen=True)
class MatrixRecord:
    """One distinct matrix (its m is the smallest producing vector), its
    signature, and how many normalized vectors produce it."""

    matrix: PathMatrix
    signature: Signature
    vector_count: int


@dataclass(frozen=True)
class ClassRecord:
    representative_m: tuple[int, ...]
    size: int
    size_matrices: int
    signature: Signature
    matrix_digest: str


@dataclass(frozen=True)
class ClassPartition:
    r: int
    n: int
    phi: int
    lower_bound: int
    classes: tuple[ClassRecord, ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "r": self.r,
                "n": self.n,
                "phi": self.phi,
                "lower_bound": self.lower_bound,
                "classes": [
                    {
                        "representative_m": list(c.representative_m),
                        "size": c.size,
                        "size_matrices": c.size_matrices,
                        "signature": {
                            "primes": list(c.signature.primes),
                            "windows": [list(w) for w in c.signature.windows],
                        },
                        "matrix_digest": c.matrix_digest,
                    }
                    for c in self.classes
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "ClassPartition":
        payload = json.loads(text)
        classes = tuple(
            ClassRecord(
                tuple(int(v) for v in c["representative_m"]),
                int(c["size"]),
                int(c["size_matrices"]),
                Signature(
                    tuple(int(p) for p in c["signature"]["primes"]),
                    tuple(tuple(int(v) for v in w) for w in c["signature"]["windows"]),
                ),
                c["matrix_digest"],
            )
            for c in payload["classes"]
        )
        return cls(
            int(payload["r"]),
            int(payload["n"]),
            int(payload["phi"]),
            int(payload["lower_bound"]),
            classes,
        )


@dataclass(frozen=True)
class NotFoundBelow:
    """phitilde_search outcome when no dimension up to n_max splits."""

    n_max: int


def _digest(matrix: PathMatrix) -> str:
    return ";".join(",".join(str(v) for v in row) for row in matrix.entries)


def _build_records(r: int, n: int, budget: int) -> list[MatrixRecord]:
    """Distinct matrices in lexicographic first-occurrence order.

    Vectors producing the same matrix must agree on the signature; that
    consistency is asserted here because the buckets downstream would be
    ill-defined otherwise.
    """
    if n < 1:
        raise InvalidParamsError(f"dimension n must be >= 1, got {n}")
    units = []
    if n >= 3:
        units = [u for u in range(1, r) if math.gcd(u, r) == 1]
        total = len(units) ** (n - 3)
        if total > budget:
            raise BudgetExceededError(
                f"enumeration needs {total} vectors, exceeding the budget of {budget}"
            )
    primes = tuple(p for p, _ in factorize(r).odd_primes)
    by_entries: dict[tuple[tuple[int, ...], ...], list] = {}
    for vec, entries in _normalized_walk(r, n, units):
        windows = window_products(primes, vec)
        slot = by_entries.get(entries)
        if slot is None:
            by_entries[entries] = [PathMatrix(r, vec, entries), Signature(primes, windows), 1]
        elif slot[1].windows != windows:
            raise InvariantViolationError(
                f"vectors {slot[0].m} and {vec} share a matrix but disagree "
                f"on the signature"
            )
        else:
            slot[2] += 1
    return [MatrixRecord(*slot) for slot in by_entries.values()]


def enumerate_matrices(
    r: int, n: int, budget: int = DEFAULT_VECTOR_BUDGET
) -> list[tuple[LensParams, PathMatrix]]:
    """All distinct matrices for (r, n), with smallest producing vectors."""
    return [
        (LensParams(r, rec.matrix.m), rec.matrix)
        for rec in _build_records(r, n, budget)
    ]


def _bucketize(records: list[MatrixRecord]) -> list[list[MatrixRecord]]:
    buckets: dict[tuple, list[MatrixRecord]] = {}
    for rec in records:
        buckets.setdefault(rec.signature.as_tuple(), []).append(rec)
    return [buckets[key] for key in sorted(buckets)]


def _classify_bucket(records: list[MatrixRecord]) -> list[list[int]]:
    """Indexes of records grouped into classes, representative first."""
    groups: list[list[int]] = []
    for idx, rec in enumerate(records):
        for group in groups:
            if decide_equiv(records[group[0]].matrix, rec.matrix).equivalent:
                group.append(idx)
                break
        else:
            groups.append([idx])
    return groups


def _class_records(bucket: list[MatrixRecord], groups: list[list[int]]) -> list[ClassRecord]:
    out = []
    for group in groups:
        rep = bucket[group[0]]
        out.append(
            ClassRecord(
                rep.matrix.m,
                sum(bucket[i].vector_count for i in group),
                len(group),
                rep.signature,
                _digest(rep.matrix),
            )
        )
    return out


def partition_classes(
    r: int,
    n: int,
    budget: int = DEFAULT_VECTOR_BUDGET,
    jobs: int | None = None,
    use_signature_buckets: bool = True,
) -> ClassPartition:
    """Exact partition of the (r, n) matrices into equivalence classes.

    With use_signature_buckets=False the solver alone produces the
    partition, which is slower but does not rely on the signature being
    an invariant; the two modes must agree.
    """
    records = _build_records(r, n, budget)
    buckets = _bucketize(records) if use_signature_buckets else [records]
    if jobs is not None and jobs > 1 and len(buckets) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            grouped = list(pool.map(_classify_bucket, buckets, chunksize=1))
    else:
        grouped = [_classify_bucket(bucket) for bucket in buckets]
    classes: list[ClassRecord] = []
    for bucket, groups in zip(buckets, grouped):
        classes.extend(_class_records(bucket, groups))
    classes.sort(key=lambda c: (c.signature.as_tuple(), c.representative_m))
    phi = len(classes)
    bound = lower_bound_classes(r, n)
    if phi < bound:
        raise InvariantViolationError(
            f"found {phi} classes for (r={r}, n={n}), below the proven bound {bound}"
        )
    if use_signature_buckets and len(classes) > 1:
        _spot_check_cross_bucket(r, classes)
    return ClassPartition(r, n, phi, bound, tuple(classes))


def _spot_check_cross_bucket(r: int, classes: list[ClassRecord]) -> None:
    """Adjacent sorted classes with different signatures must stay
    non-equivalent; a failure would falsify the bucketing."""
    for first, second in zip(classes, classes[1:]):
        if first.signature == second.signature:
            continue
        a = count_matrix(LensParams(r, first.representative_m))
        b = count_matrix(LensParams(r, second.representative_m))
        if decide_equiv(a, b).equivalent:
            raise InvariantViolationError(
                f"representatives {first.representative_m} and "
                f"{second.representative_m} are equivalent across buckets"
            )


def phitilde_search(
    r: int,
    n_max: int,
    budget: int = DEFAULT_VECTOR_BUDGET,
) -> int | NotFoundBelow:
    """Smallest n <= n_max with more than one class, else NotFoundBelow.

    Two nonempty signature buckets prove the split immediately; otherwise
    the solver runs until a second class appears or the dimension is
    exhausted.
    """
    for n in range(1, n_max + 1):
        records = _build_records(r, n, budget)
        buckets = _bucketize(records)
        if len(buckets) > 1:
            return n
        if records and _has_second_class(buckets[0]):
            return n
    return NotFoundBelow(n_max)


def _has_second_class(records: list[MatrixRecord]) -> bool:
    reps: list[MatrixRecord] = []
    for rec in records:
        for rep in reps:
            if decide_equiv(rep.matrix, rec.matrix).equivalent:
                break
        else:
            reps.append(rec)
            if len(reps) > 1:
                return True
    return False


@dataclass(frozen=True)
class ConjectureReport:
    """Verdicts of the three experimental conjecture checks.

    A None verdict means the check is not claimed for this r (the
    equality conjectures are stated only for r not divisible by 4);
    the lower-bound inequality is enforced unconditionally inside
    partition_classes.
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

    def to_json(self) -> str:
        return json.dumps(
            {
                "r": self.r,
                "n": self.n,
                "phi": self.phi,
                "lower_bound": self.lower_bound,
                "buckets": self.buckets,
                "signature_iff": self.signature_iff,
                "counts_match": self.counts_match,
                "equal_sizes_vectors": self.equal_sizes_vectors,
                "equal_sizes_matrices": self.equal_sizes_matrices,
                "details": list(self.details),
            }
        )


def verify_conjectures(
    r: int,
    n: int,
    budget: int = DEFAULT_VECTOR_BUDGET,
    jobs: int | None = None,
) -> ConjectureReport:
    """Run the three conjecture experiments on the full (r, n) partition.

    (a) equal signature iff equivalent: every bucket collapses to one
    class and all cross-bucket representative pairs are non-equivalent;
    (b) phi equals the closed-form product; (c) all classes have the
    same number of members (vectors measure decides; the matrices
    measure is reported separately).
    """
    partition = partition_classes(r, n, budget, jobs)
    classes = partition.classes
    bucket_sizes: dict[tuple, int] = {}
    for c in classes:
        key = c.signature.as_tuple()
        bucket_sizes[key] = bucket_sizes.get(key, 0) + 1
    buckets = len(bucket_sizes)
    details: list[str] = []
    restricted = r % 4 != 0
    signature_iff: bool | None = None
    counts_match: bool | None = None
    equal_vectors: bool | None = None
    equal_matrices: bool | None = None
    if restricted:
        signature_iff = all(v == 1 for v in bucket_sizes.values())
        if not signature_iff:
            split = [k for k, v in bucket_sizes.items() if v > 1]
            details.append(f"buckets with more than one class: {split}")
        _assert_cross_bucket_reps(r, classes)
        counts_match = partition.phi == partition.lower_bound
        if not counts_match:
            details.append(
                f"phi = {partition.phi} differs from the product {partition.lower_bound}"
            )
        vec_sizes = {c.size for c in classes}
        mat_sizes = {c.size_matrices for c in classes}
        equal_vectors = len(vec_sizes) <= 1
        equal_matrices = len(mat_sizes) <= 1
        if not equal_vectors:
            details.append(f"class sizes over vectors differ: {sorted(vec_sizes)}")
        if not equal_matrices:
            details.append(f"class sizes over matrices differ: {sorted(mat_sizes)}")
    return ConjectureReport(
        r,
        n,
        partition.phi,
        partition.lower_bound,
        buckets,
        signature_iff,
        counts_match,
        equal_vectors,
        equal_matrices,
        tuple(details),
    )


def _assert_cross_bucket_reps(r: int, classes: tuple[ClassRecord, ...]) -> None:
    """All representative pairs from different buckets must be
    non-equivalent; equivalence here would falsify the necessity of the
    signature, so it stops the run."""
    mats = [count_matrix(LensParams(r, c.representative_m)) for c in classes]
    for i in range(len(classes)):
        for j in range(i + 1, len(classes)):
            if classes[i].signature == classes[j].signature:
                continue
            if decide_equiv(mats[i], mats[j]).equivalent:
                raise InvariantViolationError(
                    f"representatives {classes[i].representative_m} and "
                    f"{classes[j].representative_m} are equivalent with "
                    f"different signatures"
                )
