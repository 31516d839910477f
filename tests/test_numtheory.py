"""Tests for modular arithmetic and factorization helpers."""

import math
import random

import pytest

from qlens.errors import BadModulusError, NonUnitError, NotPrimeError
from qlens.numtheory import (
    Factorization,
    binomial,
    factorize,
    is_prime,
    mod_inverse,
    padic_valuation,
)


def test_mod_inverse_examples():
    assert mod_inverse(2, 5) == 3
    assert mod_inverse(3, 7) == 5
    assert mod_inverse(1, 2) == 1
    # negative representatives are reduced first
    assert mod_inverse(-1, 9) == 8


def test_mod_inverse_rejects_non_units():
    with pytest.raises(NonUnitError):
        mod_inverse(2, 4)
    with pytest.raises(NonUnitError):
        mod_inverse(0, 5)


def test_mod_inverse_rejects_bad_modulus():
    with pytest.raises(BadModulusError):
        mod_inverse(1, 1)
    with pytest.raises(BadModulusError):
        mod_inverse(1, 0)


def test_mod_inverse_all_units_up_to_200():
    for r in range(2, 201):
        for a in range(1, r):
            if math.gcd(a, r) != 1:
                continue
            inv = mod_inverse(a, r)
            assert 0 <= inv < r
            assert (a * inv) % r == 1


def test_factorize_examples():
    assert factorize(12) == Factorization(2, ((3, 1),))
    assert factorize(45) == Factorization(0, ((3, 2), (5, 1)))
    assert factorize(8) == Factorization(3, ())
    assert factorize(97) == Factorization(0, ((97, 1),))


def test_factorize_smallest_odd_prime():
    assert factorize(45).smallest_odd_prime == 3
    assert factorize(8).smallest_odd_prime is None
    assert factorize(70).smallest_odd_prime == 5


def test_factorize_rejects_small_input():
    with pytest.raises(BadModulusError):
        factorize(1)
    with pytest.raises(BadModulusError):
        factorize(0)


def test_factorize_reassembles():
    for r in range(2, 10001):
        f = factorize(r)
        assert (1 << f.two_exponent) * math.prod(p**a for p, a in f.odd_primes) == r
        assert all(is_prime(p) and p % 2 == 1 for p, _ in f.odd_primes)
        assert all(a >= 1 for _, a in f.odd_primes)
        primes = [p for p, _ in f.odd_primes]
        assert primes == sorted(primes)


def test_binomial_examples():
    assert binomial(5, 2) == 10
    assert binomial(4, 0) == 1
    assert binomial(3, 5) == 0
    assert binomial(57, 7) == 264385836


def test_binomial_rejects_negative():
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(3, -2)


def test_binomial_pascal_recurrence():
    rng = random.Random(20260815)
    for _ in range(300):
        a = rng.randrange(1, 201)
        b = rng.randrange(0, a + 1)
        assert binomial(a, b) + binomial(a, b + 1) == binomial(a + 1, b + 1)


def test_padic_valuation_examples():
    assert padic_valuation(18, 3) == 2
    assert padic_valuation(40, 2) == 3
    assert padic_valuation(7, 5) == 0
    assert padic_valuation(-12, 2) == 2
    assert padic_valuation(0, 3) == math.inf


def test_padic_valuation_requires_prime():
    with pytest.raises(NotPrimeError):
        padic_valuation(10, 4)
    with pytest.raises(NotPrimeError):
        padic_valuation(10, 1)


def test_padic_valuation_random_consistency():
    rng = random.Random(4217)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11, 13])
        k = rng.randrange(0, 6)
        u = rng.randrange(1, 1000)
        while u % p == 0:
            u += 1
        assert padic_valuation(u * p**k, p) == k


def test_is_prime_small_table():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for x in range(-3, 50):
        assert is_prime(x) == (x in known)
