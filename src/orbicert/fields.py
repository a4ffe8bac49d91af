"""Exact residue arithmetic in GF(p) for odd primes p.

All values returned are canonical residues in [0, p); a signed integer
argument is reduced mod p first.
"""

from __future__ import annotations

from .errors import ZeroInverse

MAX_MODULUS = 2**31  # products of residues then fit in 64-bit intermediates
MAX_PRIME = 10**4  # the largest p of the prime scan and of the cross-ratio table


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, adequate for n < 2^31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def prime_modulus(p: int) -> int:
    """p itself, once checked to be an odd prime with 3 <= p < 2^31."""
    if not (3 <= p < MAX_MODULUS):
        raise ValueError(f"modulus out of range: {p}")
    if p % 2 == 0 or not is_prime(p):
        raise ValueError(f"modulus must be an odd prime: {p}")
    return p


def fp_inv(a: int, p: int) -> int:
    """Inverse of a mod p via extended Euclid (hot path: avoid powering)."""
    a %= p
    if a == 0:
        raise ZeroInverse(f"0 has no inverse mod {p}")
    lo, hi = a, p
    x0, x1 = 1, 0
    while lo > 1:
        q = hi // lo
        x0, x1 = x1 - q * x0, x0
        lo, hi = hi - q * lo, lo
    if lo == 0:  # gcd(a, p) = hi > 1
        raise ZeroInverse(f"{a} has no inverse mod {p}")
    return x0 % p


def fp_sqrt_minus_one(p: int) -> int | None:
    """Smaller root i of i^2 = -1 mod p, or None when p = 3 (mod 4)."""
    if p % 4 != 1:
        return None
    # (g^((p-1)/4))^2 = -1 for any non-residue g; search g by trial.
    for g in range(2, p):
        if pow(g, (p - 1) // 2, p) == p - 1:
            root = pow(g, (p - 1) // 4, p)
            return min(root, p - root)
    raise AssertionError("unreachable: p = 1 (mod 4) has a non-residue")
