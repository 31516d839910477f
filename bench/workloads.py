"""The benchmark's workloads: seeded lists of qlens CLI commands.

Each operation is one CLI invocation plus the check its output must pass.
``classify`` and ``enumerate`` run fixed (r, n) cells, because the cost of
a cell is set by (r, n) alone; the seed only orders them. ``single`` draws
its vectors from the seed, except for the same-signature 4 | r pairs,
whose solver cost spans three orders of magnitude from one pair to the
next (0.03 s to over 19 s at r = 4, n = 9): a seeded draw would make the
figure measure the draw, so those pairs are fixed.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import checks

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# classes cells: single-bucket 4 | r, 4 | r with an odd part, and a cell of
# the published conjecture grid (4 does not divide r) at n = 8.
CLASSES_CELLS = ((8, 7), (12, 7), (5, 8))
# A small verify grid from the published conjecture grid.
VERIFY_RS, VERIFY_N_MAX = (3, 6), 7
# phitilde moduli whose answer (6) comes from signatures after a large
# enumeration at n = 4, 5 and 6.
PHITILDE_RS = (35, 55)
# Large matrices for the row DP: a prime with the all-ones vector (closed
# form) and 3^4 * 5^3 with a seeded vector (odd prime power divisibility).
MATRIX_ONES = (10007, 64)
MATRIX_SEEDED = (10125, 64)
# (r, n) with n < phitilde(r): every pair is equivalent, and the solver
# must find a witness for a 16x16, 15x15 or 12x12 system.
PHITILDE_PAIRS = ((17, 16), (19, 15), (13, 12))
# (r, n) with n > p for the odd prime p = r: pairs with different
# signatures are not equivalent. At n = p + 1 the corner prefilter proves
# it; at n = 9 > 6 the solver must.
SIGNATURE_PAIRS = ((5, 9), (7, 8), (11, 12))
# Scaling m by a unit and changing m_1, m_n leaves the matrix unchanged.
SCALED_PAIR = (11, 14)
# Same-signature pairs at r = 4, n = 9, where no theorem gives the verdict;
# the solver takes about 0.4 s, 0.6 s and 2.3 s on them.
FIXED_4R_PAIRS = (
    ((1, 1, 1, 1, 3, 1, 3, 3, 1), (1, 1, 3, 3, 1, 1, 3, 1, 1)),
    ((1, 1, 3, 3, 1, 3, 1, 3, 1), (1, 1, 3, 1, 3, 3, 1, 3, 1)),
    ((1, 1, 3, 3, 1, 3, 3, 1, 1), (1, 1, 1, 3, 1, 1, 1, 1, 1)),
)

WORKLOADS = ("classify", "enumerate", "single")


@dataclass(frozen=True)
class Op:
    """One CLI command (arguments after ``qlens``) and its output check."""

    argv: tuple[str, ...]
    check: Callable[[str, int], str | None]


def load_reference() -> dict[str, int]:
    """phi(r, n) for the 4 | r cells, keyed "r,n"."""
    return json.loads(REFERENCE.read_text())["phi"]


def reference_cells() -> list[tuple[int, int]]:
    """Every 4 | r cell a workload classifies; the reference must cover them."""
    cells = [cell for cell in CLASSES_CELLS if cell[0] % 4 == 0]
    cells += [(r, n) for r in VERIFY_RS if r % 4 == 0 for n in range(1, VERIFY_N_MAX + 1)]
    return cells


def _vec(m) -> str:
    return ",".join(str(v) for v in m)


def _equiv(r: int, m1, m2, expected: bool | None) -> Op:
    argv = ("equiv", "--r", str(r), "--m1", _vec(m1), "--m2", _vec(m2), "--format", "json")
    return Op(argv, partial(checks.check_equiv, r=r, m1=list(m1), m2=list(m2), expected=expected))


def _classify_ops(rng: random.Random) -> list[Op]:
    reference = load_reference()
    ops = [
        Op(
            ("classes", "--r", str(r), "--n", str(n), "--format", "json"),
            partial(checks.check_classes, r=r, n=n, reference_phi=reference.get(f"{r},{n}")),
        )
        for r, n in CLASSES_CELLS
    ]
    ops.append(
        Op(
            ("verify", "--suite", "conjectures", "--r", _vec(VERIFY_RS),
             "--n-max", str(VERIFY_N_MAX), "--format", "json"),
            partial(checks.check_verify, rs=list(VERIFY_RS), n_max=VERIFY_N_MAX, reference=reference),
        )
    )
    rng.shuffle(ops)
    return ops


def _enumerate_ops(rng: random.Random) -> list[Op]:
    ops = [
        Op(("phitilde", "--r", str(r), "--format", "json"), partial(checks.check_phitilde, r=r))
        for r in PHITILDE_RS
    ]
    rng.shuffle(ops)
    return ops


def _single_ops(rng: random.Random) -> list[Op]:
    ops = []
    r, n = MATRIX_ONES
    ops.append(Op(("matrix", "--r", str(r), "--m", _vec([1] * n)), partial(checks.check_matrix, r=r, m=[1] * n)))
    r, n = MATRIX_SEEDED
    m = [rng.choice(checks.units(r)) for _ in range(n)]
    ops.append(Op(("matrix", "--r", str(r), "--m", _vec(m)), partial(checks.check_matrix, r=r, m=m)))
    for r, n in PHITILDE_PAIRS:
        us = checks.units(r)
        ops.append(_equiv(r, [rng.choice(us) for _ in range(n)], [rng.choice(us) for _ in range(n)], True))
    for r, n in SIGNATURE_PAIRS:
        us = checks.units(r)
        m1 = [rng.choice(us) for _ in range(n)]
        m2 = [rng.choice(us) for _ in range(n)]
        while checks.signature(r, m2) == checks.signature(r, m1):
            m2 = [rng.choice(us) for _ in range(n)]
        ops.append(_equiv(r, m1, m2, False))
    r, n = SCALED_PAIR
    us = checks.units(r)
    m1 = [rng.choice(us) for _ in range(n)]
    c = rng.choice(us)
    m2 = [rng.choice(us)] + [c * v % r for v in m1[1:-1]] + [rng.choice(us)]
    ops.append(_equiv(r, m1, m2, True))
    for m1, m2 in FIXED_4R_PAIRS:
        ops.append(_equiv(4, m1, m2, None))
    rng.shuffle(ops)
    return ops


def operations(workload: str, seed: int) -> list[Op]:
    """The workload's command list for this seed; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return {"classify": _classify_ops, "enumerate": _enumerate_ops, "single": _single_ops}[workload](rng)
