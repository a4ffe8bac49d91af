"""Residue arithmetic: frozen examples plus exhaustive small-prime oracles."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbicert.errors import ZeroInverse
from orbicert.fields import fp_inv, fp_sqrt_minus_one, is_prime, prime_modulus

from oracles import FpElement, fp_normalize, fp_pow

SMALL_PRIMES = [p for p in range(3, 200) if is_prime(p)]


def brute_inverse(a, p):
    return next(b for b in range(1, p) if a * b % p == 1)


def test_inverse_identity():
    for p in (3, 5, 7, 13, 17):
        assert fp_inv(1, p) == 1


def test_inverse_frozen_values():
    assert fp_inv(2, 5) == brute_inverse(2, 5) == 3
    assert fp_inv(2, 13) == brute_inverse(2, 13) == 7


def test_inverse_matches_brute_force_everywhere():
    for p in (3, 5, 7, 13, 17, 199):
        for a in range(1, p):
            assert fp_inv(a, p) == brute_inverse(a, p)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroInverse):
        fp_inv(0, 7)
    with pytest.raises(ZeroInverse):
        fp_inv(14, 7)


def test_inverse_needs_a_unit():
    # extended Euclid must check the gcd: 3 * 6 = 0 (mod 9)
    for a, n in [(3, 9), (6, 9), (5, 15), (10, 25)]:
        with pytest.raises(ZeroInverse):
            fp_inv(a, n)
    assert fp_inv(2, 9) == 5


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(SMALL_PRIMES + [65537, 2**31 - 1]), st.integers(-(10**12), 10**12))
@example(7, 0)
@example(7, -14)
@example(2**31 - 1, 2**31 - 2)
def test_inverse_matches_pow(p, a):
    if a % p == 0:
        with pytest.raises(ZeroInverse):
            fp_inv(a, p)
    else:
        assert fp_inv(a, p) == pow(a, -1, p)


def test_pow_frozen_values():
    acc = 1
    for _ in range(4):
        acc = acc * 2 % 7
    assert fp_pow(2, 4, 7) == acc == 2
    acc = 1
    for _ in range(8):
        acc = acc * 2 % 13
    assert fp_pow(2, 8, 13) == acc == 9


def test_pow_edge_cases():
    for p in (5, 13):
        for a in range(p):
            assert fp_pow(a, 1, p) == a
        assert fp_pow(0, 0, p) == 1


def test_fermat_exhaustive_small_primes():
    for p in SMALL_PRIMES:
        for a in range(1, p):
            assert fp_pow(a, p - 1, p) == 1


def test_sqrt_minus_one_frozen():
    assert fp_sqrt_minus_one(5) == 2  # 2^2 = 4 = -1
    assert fp_sqrt_minus_one(7) is None  # 7 = 3 (mod 4)
    roots = [i for i in range(13) if i * i % 13 == 12]
    assert fp_sqrt_minus_one(13) == min(roots) == 5


def test_sqrt_minus_one_dichotomy():
    for p in SMALL_PRIMES:
        root = fp_sqrt_minus_one(p)
        if p % 4 == 1:
            assert root is not None
            assert (root * root + 1) % p == 0
            assert root <= p - root  # smaller residue of the pair
        else:
            assert root is None


def test_normalize():
    assert fp_normalize(-7, 7) == 0
    for p in (5, 13):
        assert fp_normalize(0, p) == 0
    assert 481 == 13 * 37
    assert fp_normalize(481, 13) == 0
    assert fp_normalize(-1, 5) == 4


def test_prime_modulus_validation():
    assert prime_modulus(3) == 3
    assert prime_modulus(2**31 - 1) == 2**31 - 1  # largest allowed prime
    for bad in (1, 2, 4, 9, 15, 2**31 + 11):
        with pytest.raises(ValueError):
            prime_modulus(bad)


def test_fp_element_operators():
    p = prime_modulus(13)
    a = FpElement.of(7, p)
    b = FpElement.of(9, p)
    assert int(a + b) == 3
    assert int(a - b) == 11
    assert int(a * b) == 63 % 13
    assert int(-a) == 6
    assert int(a.inv() * a) == 1
    assert int(a**12) == 1
    assert int(b / b) == 1
    with pytest.raises(ValueError):
        FpElement(13, p)  # non-canonical
