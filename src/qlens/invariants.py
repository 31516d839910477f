"""Modular invariants and divisibility certificates for path matrices.

The signature collects windowed products of m-entries modulo each odd
prime divisor of r; equal signatures are necessary for equivalence. The
divisibility report and the congruence check certify the arithmetic
constraints that force the shape of every path matrix.
"""

from __future__ import annotations

from math import prod
from typing import NamedTuple

from .errors import HypothesisUnmetError, InvalidParamsError, InvariantViolationError
from .lensgraph import LensParams, _check_rn
from .numtheory import _integer, binomial, factorize, is_prime, mod_inverse, padic_valuation
from .pathmatrix import PathMatrix, _count_rows, count_matrix

__all__ = [
    "Signature",
    "DivisibilityCheck",
    "DivisibilityReport",
    "signature",
    "check_divisibility",
    "congruence_main",
    "lower_bound_classes",
    "phitilde_formula",
]


class Signature(NamedTuple):
    """Windowed unit products modulo each odd prime divisor of r.

    For each prime p (increasing) the window tuple holds
    prod(m_{t+1} .. m_{t+p-1}) mod p for t = 1 .. n-p; the tuple is
    empty when n <= p.
    """

    primes: tuple[int, ...]
    windows: tuple[tuple[int, ...], ...]

    def as_tuple(self) -> tuple:
        return (self.primes, self.windows)


def window_products(primes: tuple[int, ...], m: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The signature windows of m for the given odd primes of r."""
    return tuple(
        tuple(prod(m[t : t + p - 1]) % p for t in range(1, len(m) - p + 1))
        for p in primes
    )


def signature(params: LensParams) -> Signature:
    """The equivalence-necessary invariant of params."""
    primes = tuple(p for p, _ in factorize(params.r).odd_primes)
    return Signature(primes, window_products(primes, params.m))


class DivisibilityCheck(NamedTuple):
    law: str
    position: tuple[int, int]
    required: str
    passed: bool


class DivisibilityReport(NamedTuple):
    r: int
    m: tuple[int, ...]
    checks: tuple[DivisibilityCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def check_divisibility(params: LensParams, matrix: PathMatrix | None = None) -> DivisibilityReport:
    """Every applicable divisibility and valuation constraint, with verdicts.

    For each maximal odd prime power p^k of r, p^k divides every entry
    (a, b) with 0 < b - a < p. When 4 | r with 2^t the exact two-part,
    2^t divides every entry (a, a+3) and every entry (a, a+4) has 2-adic
    valuation exactly t - 2. A given matrix must be that of params.
    """
    if matrix is None:
        matrix = count_matrix(params)
    elif (matrix.r, matrix.m) != (params.r, params.m):
        raise InvalidParamsError(f"the matrix is of ({matrix.r}; {matrix.m}), not {params}")
    r, n = params.r, params.n
    fact = factorize(r)
    checks: list[DivisibilityCheck] = []
    for p, k in fact.odd_primes:
        pk = p**k
        for a in range(1, n + 1):
            for b in range(a + 1, min(a + p, n + 1)):
                checks.append(
                    DivisibilityCheck(
                        "odd-prime-power window",
                        (a, b),
                        f"{pk} divides entry",
                        matrix.entry(a, b) % pk == 0,
                    )
                )
    t = fact.two_exponent
    if t >= 2:
        pk = 2**t
        for a in range(1, n - 2):
            checks.append(
                DivisibilityCheck(
                    "two-power fourth entry",
                    (a, a + 3),
                    f"{pk} divides entry",
                    matrix.entry(a, a + 3) % pk == 0,
                )
            )
        for a in range(1, n - 3):
            checks.append(
                DivisibilityCheck(
                    "two-power fifth entry valuation",
                    (a, a + 4),
                    f"2-adic valuation equals {t - 2}",
                    padic_valuation(matrix.entry(a, a + 4), 2) == t - 2,
                )
            )
    return DivisibilityReport(r, params.m, tuple(checks))


def congruence_main(params: LensParams, p: int, alpha: int) -> tuple[int, int]:
    """Corner congruence modulo p^alpha: both residues, equality enforced.

    Requires p an odd prime with p^alpha | r and n <= p + 1. The corner
    entry (1, n) is congruent to binom(r+n-2, n-1) times the inverse of
    m_2 * ... * m_{n-1}, provided every shorter entry (1, a) is divisible
    by p^alpha. The odd-prime-power window law proves that for every path
    matrix; it is checked all the same, and a failure raises HypothesisUnmetError.
    """
    p, alpha = _integer(p, "p"), _integer(alpha, "alpha")
    if not is_prime(p) or p == 2:
        raise InvalidParamsError(f"p must be an odd prime, got {p}")
    if alpha < 1:
        raise InvalidParamsError(f"alpha must be >= 1, got {alpha}")
    if params.r % p**alpha:
        raise InvalidParamsError(f"{p}^{alpha} does not divide r = {params.r}")
    n = params.n
    if n > p + 1:
        raise InvalidParamsError(f"need n <= p + 1, got n = {n} for p = {p}")
    modulus = p**alpha
    (first_row,) = _count_rows(params.r, params.m, (1,))
    for a in range(2, n):
        if first_row[a - 1] % modulus:
            raise HypothesisUnmetError(
                f"entry (1, {a}) = {first_row[a - 1]} is not divisible by {modulus}"
            )
    lhs = first_row[n - 1] % modulus
    interior = prod(params.m[1 : n - 1]) if n >= 2 else 1
    rhs = (
        binomial(params.r + n - 2, n - 1) * mod_inverse(interior, modulus)
    ) % modulus
    if lhs != rhs:
        raise InvariantViolationError(
            f"congruence failed at {params}: {lhs} != {rhs} mod {modulus}"
        )
    return lhs, rhs


def lower_bound_classes(r: int, n: int) -> int:
    """Product over odd primes p of r of ceil((p-1)^(n-p)); 1 for 2-powers."""
    r, n = _check_rn(r, n)
    out = 1
    for p, _ in factorize(r).odd_primes:
        if n > p:
            out *= (p - 1) ** (n - p)
    return out


def phitilde_formula(r: int) -> int:
    """Least dimension with more than one class, in closed form.

    p + 1 when 4 does not divide r (p the smallest odd prime of r);
    min(6, p + 1) when 4 | r; 6 when r is a power of two.
    """
    r, _ = _check_rn(r)
    p = factorize(r).smallest_odd_prime
    if p is None:
        return 6
    if r % 4 == 0:
        return min(6, p + 1)
    return p + 1
