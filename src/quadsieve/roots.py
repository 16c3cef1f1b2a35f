"""Complete root sets and least-root summaries for composite moduli.

A modulus m whose prime factors all lie in class 1 mod 4 has exactly
2**k roots of 4*z**2 + 1 = 0 (mod m), k the number of distinct primes:
two per prime power (lifted from the prime), glued by the CRT.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .errors import BadFactorizationError, NoRootsError, RangeError
from .modarith import _check_modulus, crt_combine, hensel_lift, is_prime, sqrt_minus_one

FACTOR_CAP = 10**16  # largest composite m trial-divided: 7.2 s near 10**16, minutes near 2**64


@dataclass(frozen=True)
class RootSet:
    """All residues z mod m with 4*z**2 + 1 = 0 (mod m), sorted ascending."""

    m: int
    roots: tuple[int, ...]
    nu: int  # distinct prime factors of m

    def __post_init__(self) -> None:
        rs = self.roots
        if len(rs) != 2**self.nu:
            raise AssertionError(f"expected {2**self.nu} roots mod {self.m}, got {len(rs)}")
        for i, z in enumerate(rs):
            if not (1 <= z <= self.m - 1):
                raise AssertionError(f"root {z} outside [1, {self.m - 1}]")
            if i and rs[i - 1] >= z:
                raise AssertionError("roots must be strictly increasing")
            # complements pair up in sorted order: z and m - z
            if z + rs[len(rs) - 1 - i] != self.m:
                raise AssertionError(f"roots mod {self.m} not closed under z -> m-z")

    @property
    def least(self) -> int:
        return self.roots[0]


@dataclass(frozen=True)
class RootSummary:
    """Least root of a modulus and the exact cofactor (4*r**2 + 1) / m."""

    m: int
    least_root: int
    cofactor: int

    def __post_init__(self) -> None:
        m, r, x = self.m, self.least_root, self.cofactor
        if m * x != 4 * r * r + 1:
            raise AssertionError(f"cofactor identity fails for m={m}: {m}*{x} != 4*{r}**2+1")
        # 4r^2+1 >= m is exactly r >= sqrt(m-1)/2; both bounds are forced
        # by r being the least root, so a violation means a root bug
        if 4 * r * r + 1 < m or 2 * r > m - 1 or x > m - 2:
            raise AssertionError(f"least-root bounds violated for m={m}, r={r}, x={x}")


def _normalize_factorization(m: int, factorization) -> list[tuple[int, int]]:
    """Checked (p, e) pairs of m; primality is left to sqrt_minus_one."""
    _check_modulus(m)  # before any factoring: trial division of a huge m never ends
    if factorization is None and is_prime(m):  # a prime m skips trial division
        factorization = [(m, 1)]
    elif factorization is None:
        if m > FACTOR_CAP:  # refused before trial division, which would run to sqrt(m)
            raise RangeError(f"composite modulus {m} exceeds the trial-division cap {FACTOR_CAP}")
        factorization = oracle.naive_factor(m)
    pairs = []
    check = 1
    for p, e in factorization:
        if p % 4 != 1:
            raise NoRootsError(f"{m} has prime factor {p} in class {p % 4} mod 4; no roots exist")
        if e < 1:
            raise ValueError(f"exponent must be >= 1, got {e}")
        pairs.append((p, e))
        check *= p**e
    if check != m:
        raise BadFactorizationError(f"factorization multiplies to {check}, not {m}")
    if len({p for p, _ in pairs}) != len(pairs):
        raise BadFactorizationError(f"repeated prime in factorization of {m}")
    return pairs


def extend_roots(base: RootSet | None, q: int, z: int) -> RootSet:
    """Root set mod base.m * q from base and the pair (z, q - z) mod a coprime prime power q.

    Every root set grows by this one step (Lemma 3 and the CRT).  With no
    base, z is checked here by substitution; else crt_combine checks each.
    """
    if base is None:
        if (4 * z * z + 1) % q != 0:
            raise AssertionError(f"{z} is not a root mod {q}")
        return RootSet(m=q, roots=tuple(sorted((z, q - z))), nu=1)
    roots = crt_combine(base.m, base.roots, q, (z, q - z))
    return RootSet(m=base.m * q, roots=tuple(roots), nu=base.nu + 1)


def all_roots(m: int, factorization=None) -> RootSet:
    """Complete sorted root set of m; by default a composite m <= FACTOR_CAP is trial-divided.

    The factorization is (p, e) pairs.  A prime in class 3 mod 4 is
    precisely the case with no roots at all, and raises NoRootsError.
    """
    root_set = None
    for p, e in _normalize_factorization(m, factorization):
        z = sqrt_minus_one(p)  # the one primality and class test of p
        for k in range(2, e + 1):
            try:
                z = hensel_lift(z, p, k)
            except ValueError as exc:  # bad input to hensel_lift, but z is our own root
                raise AssertionError(str(exc)) from exc
        root_set = extend_roots(root_set, p**e, z)
    return root_set


def root_summary(m: int | RootSet, factorization=None) -> RootSummary:
    """Least root r of m and the cofactor x = (4*r**2 + 1) / m, exact.

    m is a modulus, or a RootSet already built for one, which saves a
    second factorization and CRT when the caller needs the roots too.
    """
    root_set = m if isinstance(m, RootSet) else all_roots(m, factorization)
    m, r = root_set.m, root_set.least
    # RootSummary refuses m*x != 4*r**2 + 1, so a floor quotient is checked
    return RootSummary(m=m, least_root=r, cofactor=(4 * r * r + 1) // m)

