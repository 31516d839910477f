"""Tests for signatures, divisibility certificates, and closed-form bounds."""

import itertools
import json
import math
import random

import pytest

from qlens.classify import partition_classes
from qlens.errors import BadModulusError, InvalidParamsError
from qlens.equivalence import decide_equiv
from qlens.invariants import (
    Signature,
    check_divisibility,
    congruence_main,
    lower_bound_classes,
    phitilde_formula,
    signature,
)
from qlens.lensgraph import LensParams, scale
from qlens.pathmatrix import count_matrix


def units_of(r):
    return [u for u in range(1, r) if math.gcd(u, r) == 1]


def test_signature_examples():
    assert signature(LensParams(3, (1, 1, 1, 1))) == Signature((3,), ((1,),))
    assert signature(LensParams(3, (1, 2, 1, 1))) == Signature((3,), ((2,),))
    assert signature(LensParams(5, (1, 1, 1, 1))) == Signature((5,), ((),))


def test_signature_power_of_two_is_empty():
    assert signature(LensParams(8, (1, 3, 5, 7))) == Signature((), ())


def test_signature_multi_prime_ordering():
    sig = signature(LensParams(15, (1, 2, 4, 7, 8, 1)))
    assert sig.primes == (3, 5)
    assert len(sig.windows[0]) == 3
    assert len(sig.windows[1]) == 1
    assert sig.windows[0] == ((2 * 4) % 3, (4 * 7) % 3, (7 * 8) % 3)
    assert sig.windows[1] == ((2 * 4 * 7 * 8) % 5,)


def test_signature_residues_are_units():
    rng = random.Random(60)
    for _ in range(20):
        r = rng.choice([3, 5, 6, 9, 15, 21, 45])
        n = rng.randrange(1, 9)
        us = units_of(r)
        sig = signature(LensParams(r, tuple(rng.choice(us) for _ in range(n))))
        for p, window in zip(sig.primes, sig.windows):
            assert all(1 <= v <= p - 1 for v in window)


def test_signature_json_round_trip():
    # at n = 6 both primes of 15 have windows
    part = partition_classes(15, 6)
    assert all(all(c.signature.windows) for c in part.classes)
    assert len({c.signature for c in part.classes}) > 1
    # the JSON carries both primes and a window for each, class by class
    classes = json.loads(part.to_json())["classes"]
    assert [c["signature"] for c in classes] == [
        {"primes": [3, 5], "windows": [list(w) for w in c.signature.windows]}
        for c in part.classes
    ]
    assert all(all(c["signature"]["windows"]) for c in classes)


def test_signature_necessity_small():
    # equivalent pairs always share a signature, checked exhaustively
    for r, n in [(3, 5), (6, 5)]:
        us = units_of(r)
        vecs = [
            (1, 1) + mid + (1,)
            for mid in itertools.product(us, repeat=n - 3)
        ]
        mats = {v: count_matrix(LensParams(r, v)) for v in vecs}
        for i, v in enumerate(vecs):
            for w in vecs[i + 1 :]:
                if decide_equiv(mats[v], mats[w]).equivalent:
                    assert signature(LensParams(r, v)) == signature(LensParams(r, w))


def test_check_divisibility_odd_prime_windows():
    report = check_divisibility(LensParams(9, (1, 2, 4)))
    assert report.passed
    laws = {c.law for c in report.checks}
    assert laws == {"odd-prime-power window"}
    positions = {c.position for c in report.checks}
    assert positions == {(1, 2), (1, 3), (2, 3)}


def test_check_divisibility_two_power_entries():
    rng = random.Random(12)
    for r in (4, 8, 12, 16, 20, 24):
        us = units_of(r)
        for n in (4, 5, 6):
            m = tuple(rng.choice(us) for _ in range(n))
            report = check_divisibility(LensParams(r, m))
            assert report.passed, (r, m, [c for c in report.checks if not c.passed])
            laws = {c.law for c in report.checks}
            assert "two-power fourth entry" in laws
            if n >= 5:
                assert "two-power fifth entry valuation" in laws


def test_check_divisibility_random_sweep():
    rng = random.Random(313)
    for _ in range(40):
        r = rng.randrange(3, 61)
        n = rng.randrange(1, 8)
        us = units_of(r)
        report = check_divisibility(LensParams(r, tuple(rng.choice(us) for _ in range(n))))
        assert report.passed


def test_congruence_main_examples():
    assert congruence_main(LensParams(3, (1, 2, 1, 1)), 3, 1) == (2, 2)
    assert congruence_main(LensParams(3, (1, 1, 1, 1)), 3, 1) == (1, 1)
    lhs, rhs = congruence_main(LensParams(5, (1, 2, 3, 1, 1, 1)), 5, 1)
    assert lhs == rhs


def test_congruence_main_higher_power():
    lhs, rhs = congruence_main(LensParams(9, (1, 2, 4, 1)), 3, 2)
    assert lhs == rhs
    lhs, rhs = congruence_main(LensParams(27, (1, 2, 4, 8)), 3, 3)
    assert lhs == rhs


def test_congruence_main_random():
    rng = random.Random(191)
    for _ in range(40):
        r = rng.randrange(3, 46)
        fact_primes = []
        x = r
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43):
            a = 0
            while x % p == 0:
                x //= p
                a += 1
            if a:
                fact_primes.append((p, a))
        if not fact_primes:
            continue
        p, a_max = rng.choice(fact_primes)
        alpha = rng.randrange(1, a_max + 1)
        n = rng.randrange(1, p + 2)
        us = units_of(r)
        params = LensParams(r, tuple(rng.choice(us) for _ in range(n)))
        lhs, rhs = congruence_main(params, p, alpha)
        assert lhs == rhs


def test_congruence_main_validation():
    p = LensParams(9, (1, 2, 4))
    with pytest.raises(InvalidParamsError):
        congruence_main(p, 2, 1)
    with pytest.raises(InvalidParamsError):
        congruence_main(p, 4, 1)
    with pytest.raises(InvalidParamsError):
        congruence_main(p, 5, 1)
    with pytest.raises(InvalidParamsError):
        congruence_main(p, 3, 3)
    with pytest.raises(InvalidParamsError):
        congruence_main(LensParams(3, (1, 1, 1, 1, 1)), 3, 1)
    with pytest.raises(InvalidParamsError):
        congruence_main(p, 3, 0)


def test_lower_bound_examples():
    assert lower_bound_classes(3, 4) == 2
    assert lower_bound_classes(5, 6) == 4
    assert lower_bound_classes(8, 10) == 1
    assert lower_bound_classes(15, 6) == 2**3 * 4**1
    assert lower_bound_classes(9, 5) == 4


def test_lower_bound_below_phitilde():
    for r in range(3, 61):
        if r % 4 == 0:
            continue
        for n in range(1, phitilde_formula(r)):
            assert lower_bound_classes(r, n) == 1, (r, n)


def test_lower_bound_validation():
    with pytest.raises(BadModulusError):
        lower_bound_classes(2, 4)
    with pytest.raises(InvalidParamsError):
        lower_bound_classes(5, 0)


def test_phitilde_formula_examples():
    assert phitilde_formula(12) == 4
    assert phitilde_formula(35) == 6
    assert phitilde_formula(20) == 6
    assert phitilde_formula(3) == 4
    assert phitilde_formula(5) == 6
    assert phitilde_formula(7) == 8
    assert phitilde_formula(4) == 6
    assert phitilde_formula(16) == 6
    assert phitilde_formula(10) == 6
    assert phitilde_formula(21) == 4


def test_phitilde_formula_validation():
    with pytest.raises(BadModulusError):
        phitilde_formula(2)


def test_scaling_lands_in_same_class():
    rng = random.Random(55)
    for _ in range(10):
        r = rng.choice([5, 9, 15])
        us = units_of(r)
        n = rng.randrange(1, 7)
        p = LensParams(r, tuple(rng.choice(us) for _ in range(n)))
        q = scale(p, rng.choice(us))
        assert count_matrix(p).entries == count_matrix(q).entries
