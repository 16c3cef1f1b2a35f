"""Exact modular arithmetic and root construction for 4*z**2 + 1 = 0 (mod m).

Everything here works on plain Python integers, which are exact at any
size, so the only range policy needed is a refusal: inputs or results
beyond the supported 64-bit width raise RangeError rather than wrap.

All functions are pure; the module holds no mutable state.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .errors import BadFactorizationError, NoRootsError, RangeError

U64_MAX = 2**64 - 1

# Miller-Rabin with the first twelve primes as witnesses decides every
# v < psi_12 = 3.19e23, past 2**64.  psi_k is the least strong pseudoprime
# to the first k prime bases (Jaeschke 1993 up to k = 8, Sorenson and
# Webster 2017 beyond), so a v below psi_k needs only the first k witnesses.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_TIERS = (  # (psi_k, k); psi_7 = psi_8 and psi_9 = psi_10 = psi_11
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
    (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
    (3825123056546413051, 9),
)
_MR_BOUNDS = tuple(bound for bound, _ in _MR_TIERS)
_MR_COUNTS = tuple(k for _, k in _MR_TIERS) + (len(_MR_WITNESSES),)
_MR_PRODUCT = math.prod(_MR_WITNESSES)


def _check_modulus(m: int) -> None:
    if not isinstance(m, int):
        raise TypeError(f"modulus must be an int, got {type(m).__name__}")
    if m > U64_MAX:
        raise RangeError(f"modulus {m} exceeds the 64-bit range")
    if m < 3 or m % 2 == 0:
        raise NoRootsError(f"modulus must be odd and >= 3, got {m}")


def is_prime(v: int) -> bool:
    """Deterministic primality test for 2 <= v <= 2**64 - 1."""
    if v > U64_MAX:
        raise RangeError(f"{v} exceeds the 64-bit range")
    if v < 2:
        return False
    # one gcd stands in for twelve trial divisions: v shares a factor with
    # the product of the witnesses exactly when a witness divides it
    if math.gcd(v, _MR_PRODUCT) != 1:
        return v in _MR_WITNESSES
    # every prime factor of v is now >= 41, so below 41**2 v is itself prime
    if v < 1681:
        return True
    s = ((v - 1) & (1 - v)).bit_length() - 1  # 2**s is the largest power of 2 in v - 1
    d = (v - 1) >> s
    k = _MR_COUNTS[bisect_right(_MR_BOUNDS, v)]  # the first tier whose bound exceeds v
    for w in _MR_WITNESSES[:k]:
        x = pow(w, d, v)
        if x == 1 or x == v - 1:
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def sqrt_minus_one(p: int) -> int:
    """Least z with 4*z**2 + 1 = 0 (mod p), for prime p = 4k + 1.

    Construction: the smallest quadratic non-residue c has c**(2k) = -1,
    so s = c**k squares to -1; one pow per candidate c both tests it and
    yields s.  z = s/2 mod p solves 4*z**2 + 1 = 0, and folding it into
    [1, (p-1)/2] picks the lesser of the two roots z and p - z.  Python
    ints keep every step exact across the 64-bit range.
    _kernels.least_roots_bulk finds the same non-residue on int64 arrays
    but tests candidates by c**(2k) and computes c**k afterwards, so the
    two routes compute differently and agree only in their results.
    """
    if p % 4 != 1:
        raise NoRootsError(f"{p} is not congruent to 1 mod 4; no root exists")
    if not is_prime(p):
        raise BadFactorizationError(f"{p} is not prime")
    k = (p - 1) // 4
    c = 3 if p % 8 == 1 else 2  # here 2 is a residue exactly when p = 1 (mod 8)
    while True:
        # a prime's least non-residue c has c(c-1) < p; past that, p or pow lied
        if c * (c - 1) >= p:
            raise AssertionError(f"root construction failed for p={p}")
        s = pow(c, k, p)
        if s * s % p == p - 1:  # s**2 = c**(2k): Euler's criterion for c
            break
        c += 1
    r = s * ((p + 1) // 2) % p
    r = min(r, p - r)
    # a prime has exactly the two roots r and p - r, so a root in the lower
    # half is certified to be the least one
    if (4 * r * r + 1) % p != 0 or not (1 <= r <= (p - 1) // 2):
        raise AssertionError(f"root construction failed for p={p}")
    return r


def hensel_lift(root: int, p: int, e: int) -> int:
    """Lift a root of 4*z**2 + 1 mod p**(e-1) to the unique root mod p**e.

    The derivative 8*z is invertible mod p (p odd, z not divisible by p),
    so one Newton step lands exactly on the lift and preserves the residue
    mod p**(e-1).  No primality test: the lift is checked by substitution,
    which holds for any odd p, and a root mod p comes from sqrt_minus_one,
    which tests p, or from least_roots_bulk over primes the sieve found.
    """
    if e < 2:
        raise ValueError("target exponent must be >= 2; nothing to lift")
    modulus = p**e
    if modulus > U64_MAX:
        raise RangeError(f"{p}**{e} exceeds the 64-bit range")
    prev = modulus // p
    if not (1 <= root < prev):
        raise ValueError(f"root {root} is not a residue mod {prev}")
    f = 4 * root * root + 1
    if f % prev != 0:
        raise ValueError(f"{root} does not solve 4*z**2+1 = 0 (mod {prev})")
    inv = pow(8 * root % modulus, -1, modulus)
    lifted = (root - f * inv) % modulus
    if (4 * lifted * lifted + 1) % modulus != 0 or lifted % prev != root:
        raise AssertionError(f"lift failed for root={root} mod {p}**{e}")
    return lifted


def crt_combine(m1: int, roots_a, m2: int, roots_b) -> list[int]:
    """All residues mod m1*m2 solving 4*z**2 + 1 = 0, from the two root sets.

    Requires coprime moduli and complete, nonempty root sets for each; the
    |roots_a| * |roots_b| combinations are verified by substitution and
    returned sorted ascending.
    """
    _check_modulus(m1)
    _check_modulus(m2)
    if math.gcd(m1, m2) != 1:
        raise ValueError(f"moduli {m1} and {m2} are not coprime")
    if not roots_a or not roots_b:
        raise NoRootsError("root sets must be nonempty; rootless moduli stop earlier")
    m = m1 * m2
    if m > U64_MAX:
        raise RangeError(f"combined modulus {m1}*{m2} exceeds the 64-bit range")
    inv = pow(m1, -1, m2)
    out = []
    for a in roots_a:
        for b in roots_b:
            z = a + m1 * ((b - a) * inv % m2)
            if (4 * z * z + 1) % m != 0:
                raise AssertionError(f"combination {a},{b} failed for {m1},{m2}")
            out.append(z)
    out.sort()
    return out
