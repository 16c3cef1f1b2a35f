"""Slow reference implementations used as ground truth by tests and --oracle.

These deliberately avoid the clever paths: factoring is trial division,
root finding is an exhaustive residue scan or a power of a primitive
root, coprime counting divides every term by every prime.  They ship in
the library so the CLI can cross-check itself.
"""

from __future__ import annotations

import numpy as np

from .errors import BadFactorizationError, NoRootsError, RangeError
from .modarith import is_prime

NAIVE_COUNT_CAP = 10**6

_SCAN_CHUNK = 1 << 21


def naive_factor(v: int) -> list[tuple[int, int]]:
    """Factor an odd v >= 3 by trial division; exact, sorted by prime."""
    if v < 3 or v % 2 == 0:
        raise ValueError(f"naive_factor expects odd v >= 3, got {v}")
    out = []
    d = 3
    while d * d <= v:
        e = 0
        while v % d == 0:
            v //= d
            e += 1
        if e:
            out.append((d, e))
        d += 2
    if v > 1:
        out.append((v, 1))
    return out


def primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p.

    Verified by checking g**((p-1)/q) != 1 for every prime q dividing p-1.
    Accepts only primes in class 1 mod 4, the only ones this package needs.
    """
    if p % 4 != 1:
        raise NoRootsError(f"{p} is not congruent to 1 mod 4")
    if not is_prime(p):
        raise BadFactorizationError(f"{p} is not prime")
    if p > 10**12:
        raise RangeError(f"primitive_root supports p <= 10**12, got {p}")
    odd = p - 1
    while odd % 2 == 0:
        odd //= 2
    prime_divisors = [2] + ([q for q, _ in naive_factor(odd)] if odd > 1 else [])
    order_checks = [(p - 1) // q for q in prime_divisors]
    for g in range(2, p):
        if all(pow(g, e, p) != 1 for e in order_checks):
            return g
    raise AssertionError(f"no primitive root found for {p}")  # unreachable for prime p


def generator_root(p: int) -> int:
    """Least z with 4*z**2 + 1 = 0 (mod p), built from a primitive root.

    With g a primitive root and p = 4k + 1, t = g**k has t**2 = -1, so
    z = t/2 if t is even else (p - t)/2 solves 4*z**2 + 1 = 0; both land
    in [1, (p-1)/2], where only the lesser of the two roots lies.  It
    shares nothing with the non-residue route of the fast paths.
    """
    t = pow(primitive_root(p), (p - 1) // 4, p)
    return t // 2 if t % 2 == 0 else (p - t) // 2


def naive_root_scan(m: int) -> list[int]:
    """All z in [1, m-1] with 4*z**2 + 1 = 0 (mod m), by exhaustive scan.

    Possibly empty; that emptiness is itself a tested assertion elsewhere,
    so no shortcut based on the factorization of m is taken.
    """
    if m < 3 or m % 2 == 0:
        raise ValueError(f"naive_root_scan expects odd m >= 3, got {m}")
    if 4 * m * m + 1 > 2**63 - 1:
        raise RangeError(f"scan values for m={m} would exceed int64")
    roots = []
    for start in range(1, m, _SCAN_CHUNK):
        z = np.arange(start, min(start + _SCAN_CHUNK, m), dtype=np.int64)
        hits = z[(4 * z * z + 1) % m == 0]
        roots.extend(hits.tolist())
    return roots


def naive_coprime_count(primes, horizon: int) -> int:
    """Count n <= horizon with gcd(4*n**2 + 1, product of the primes) = 1.

    Tests every value 4*n**2 + 1 against every prime by division,
    with no roots and no progressions; capped at a desk-scale horizon (the
    values stay below 2**63), larger horizons use the exact count instead.
    """
    if horizon > NAIVE_COUNT_CAP:
        raise RangeError(
            f"naive_coprime_count is capped at horizon {NAIVE_COUNT_CAP}; "
            f"use exact_coprime_count for {horizon}"
        )
    n = np.arange(1, horizon + 1, dtype=np.int64)
    values = 4 * n * n + 1
    coprime = np.ones(n.size, dtype=bool)
    for p in primes:
        if p <= 4 * horizon * horizon + 1:  # a larger prime divides no value
            coprime &= values % p != 0
    return int(np.count_nonzero(coprime))
