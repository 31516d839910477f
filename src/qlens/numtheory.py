"""Exact integer and modular arithmetic primitives.

Residues are always stored canonically in [0, r-1]. All arithmetic is
arbitrary precision; nothing here ever overflows or rounds.
"""

from __future__ import annotations

import math
from operator import index
from typing import NamedTuple

from .errors import BadModulusError, InvalidParamsError, NonUnitError, NotPrimeError

__all__ = [
    "Factorization",
    "mod_inverse",
    "factorize",
    "binomial",
    "padic_valuation",
    "is_prime",
]


def _integer(value, name: str, error: type[Exception] = InvalidParamsError) -> int:
    """value read with operator.index, which refuses the float or string that
    int() would truncate or parse, and turns a fixed-width integer exact."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


class Factorization(NamedTuple):
    """Prime factorization r = 2^two_exponent * prod(p^a for p, a in odd_primes).

    odd_primes is sorted by increasing prime, so odd_primes[0][0] is the
    smallest odd prime divisor when one exists.
    """

    two_exponent: int
    odd_primes: tuple[tuple[int, int], ...]

    @property
    def smallest_odd_prime(self) -> int | None:
        return self.odd_primes[0][0] if self.odd_primes else None


def mod_inverse(a: int, r: int) -> int:
    """Inverse of a modulo r, as a residue in [0, r-1].

    Raises NonUnitError when gcd(a, r) != 1 and BadModulusError when r <= 1.
    """
    if (r := _integer(r, "modulus", BadModulusError)) <= 1:
        raise BadModulusError(f"modulus must exceed 1, got {r}")
    a = _integer(a, "a") % r
    if math.gcd(a, r) != 1:
        raise NonUnitError(f"{a} is not a unit modulo {r}")
    return pow(a, -1, r)


def factorize(r: int) -> Factorization:
    """Factor r > 1 by trial division."""
    r = _integer(r, "r", BadModulusError)
    if r <= 1:
        raise BadModulusError(f"cannot factor {r}; need an integer > 1")
    two = 0
    while r % 2 == 0:
        r //= 2
        two += 1
    odd: list[tuple[int, int]] = []
    p = 3
    while p * p <= r:
        if r % p == 0:
            a = 0
            while r % p == 0:
                r //= p
                a += 1
            odd.append((p, a))
        p += 2
    if r > 1:
        odd.append((r, 1))
    return Factorization(two, tuple(odd))


def binomial(a: int, b: int) -> int:
    """Exact binomial coefficient C(a, b); zero when b > a."""
    a, b = _integer(a, "a"), _integer(b, "b")
    if a < 0 or b < 0:
        raise InvalidParamsError(f"binomial is defined for non-negative arguments, got ({a}, {b})")
    if b > a:
        return 0
    return math.comb(a, b)


def is_prime(p: int) -> bool:
    """Trial-division primality test; ample for the moduli handled here."""
    if (p := _integer(p, "p")) < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def padic_valuation(x: int, p: int) -> int | float:
    """Largest k with p^k dividing x; math.inf for x = 0."""
    x, p = _integer(x, "x"), _integer(p, "p")
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    if x == 0:
        return math.inf
    x = abs(x)
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    return k
