"""Counting terms coprime to a product of basis primes.

Two routes must always agree.  The combinatorial route sums, over every
divisor d of the basis product N, the count of indices struck by d with
an alternating sign:

    sum over d | N of (-1)**nu(d) * sum over roots z of d of (n + z) // d

where nu(d) is the number of prime factors of d, the inner sum runs over
the full root set of d, and d = 1 contributes n (one empty root 0).  Each
floor term (n + z) // d counts indices m <= n with m = -z (mod d), and
root sets are closed under negation, so the inner sum counts exactly the
indices whose value d divides.  At horizon n = N every floor collapses
to N // d and the whole sum telescopes to the product of (p - 2).  The
divisors are walked depth first: each root set is one roots.extend_roots
step from its parent, the divisor without its last prime, and only the
current path and its pending siblings are kept.  No root comes from the
basis entries, whose least roots the direct route strikes.

The direct route marks struck indices and counts the survivors.  By
Lemma 3 the marks of the smallest basis primes repeat with the period of
their product, so they are built once and copied into every chunk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import RangeError
from .modarith import U64_MAX, is_prime, sqrt_minus_one
from .roots import extend_roots
from .sieve import PrimeBasis, first_k_basis, term_value

_MARK_CHUNK = 1 << 20
_PRESIEVE_CAP = 1 << 16  # largest product of pre-sieved primes, the pattern's period

# the direct count marks every index up to the horizon, about 5e9 a
# second; census --k 7 (2.4e10) fits, --k 8 (6.1e12) would run for 20 minutes
EXACT_COUNT_CAP = 10**11

# every basis prime is >= 5 and 5**28 > 2**64: no larger basis has a 64-bit product
MAX_BASIS_SIZE = 27


@dataclass(frozen=True)
class CensusReport:
    """Side-by-side counts for one basis and horizon."""

    basis: PrimeBasis
    n_product: int  # product of the basis primes
    horizon: int
    ie_count: int  # inclusion-exclusion value
    exact_count: int  # direct survivor count
    product_value: int  # product of (p - 2) over the basis
    nu_table: dict[int, int]  # divisor -> number of prime factors

    @property
    def counts_agree(self) -> bool:
        return self.ie_count == self.exact_count

    @property
    def product_matches(self) -> bool:
        return self.horizon == self.n_product and self.ie_count == self.product_value


@dataclass(frozen=True)
class SecondProofWitness:
    """The value at index N = product of basis primes, and what divides it."""

    k: int
    basis: PrimeBasis
    n_product: int
    value: int  # 4*N**2 + 1
    gcds: tuple[int, ...]  # gcd(value, p) per basis prime, all 1
    factors: tuple[tuple[int, int], ...]
    value_is_prime: bool


def _product(primes) -> int:
    primes = list(primes)  # the refusal lists the whole basis
    n = math.prod(primes)
    if n > U64_MAX:
        raise RangeError(f"basis product exceeds the 64-bit range: {primes}")
    return n


def product_formula(basis) -> int:
    """Product of (p - 2) over the basis primes, exact."""
    entries = tuple(basis)
    if not entries:
        raise ValueError("basis must be nonempty")
    value = math.prod(b.prime - 2 for b in entries)
    if value > U64_MAX:
        raise RangeError("product of (p - 2) exceeds the 64-bit range")
    return value


def inclusion_exclusion_count(basis, horizon: int) -> int:
    """Alternating divisor sum counting n <= horizon coprime to the basis product.

    The sum is an exact identity, not an estimate; the direct count must
    always agree.
    """
    return _ie_with_table(tuple(basis), horizon)[0]


def _ie_with_table(entries: PrimeBasis, horizon: int) -> tuple[int, dict[int, int]]:
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    primes = [b.prime for b in entries]
    _product(primes)  # range check only
    # each prime's root comes from its own construction, not from the basis
    # entries' least roots, which are what the direct count strikes
    prime_roots = [sqrt_minus_one(p) for p in primes]
    total, nu_table = horizon, {1: 0}  # d = 1 and its one empty root 0
    # depth first: a popped root set takes each later prime by one extend_roots
    # step, and the stack holds only the pending siblings on the current path
    stack = [(None, 0)]  # (root set, index of the first prime it may take)
    while stack:
        parent, start = stack.pop()
        for i in range(start, len(primes)):
            root_set = extend_roots(parent, primes[i], prime_roots[i])
            d, nu = root_set.m, root_set.nu
            nu_table[d] = nu
            inner = sum((horizon + z) // d for z in root_set.roots)
            total += -inner if nu % 2 else inner
            stack.append((root_set, i + 1))
    return total, nu_table


def exact_coprime_count(basis, horizon: int) -> int:
    """Direct count of n <= horizon with value coprime to the basis product.

    Marks the struck progressions +-root (mod p) of every basis prime and
    counts the unmarked indices; no inclusion-exclusion and no product
    formula involved.  The smallest primes, with product P <= 2**16, are
    marked once, in one period of P indices; each chunk, the largest
    multiple of P up to 2**20 indices, starts at phase 0, takes that period
    doubled out to its length, and has only the other primes struck.
    Horizons above EXACT_COUNT_CAP raise RangeError instead of running for minutes.
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon > EXACT_COUNT_CAP:
        raise RangeError(
            f"exact_coprime_count is capped at horizon {EXACT_COUNT_CAP}; got {horizon}"
        )
    pairs = sorted((b.prime, b.least_root) for b in basis)
    period, split = 1, 0
    while split < len(pairs) and period * pairs[split][0] <= _PRESIEVE_CAP:
        period *= pairs[split][0]
        split += 1
    # index 1 sits at offset 0 of the pattern, and of every chunk after it;
    # a horizon below the period needs only its first horizon marks
    pattern = np.zeros(min(period, horizon), dtype=bool)
    for p, r in pairs[:split]:
        for z in (r, p - r):
            pattern[(z - 1) % p :: p] = True
    chunk = min(_MARK_CHUNK // period * period, horizon)
    struck = np.empty(chunk, dtype=bool)
    count = 0
    for lo in range(1, horizon + 1, max(chunk, 1)):
        n = min(chunk, horizon + 1 - lo)
        marks = struck[:n]
        filled = min(period, n)
        marks[:filled] = pattern[:filled]
        while filled < n:  # double the periods already in place
            step = min(filled, n - filled)
            marks[filled : filled + step] = marks[:step]
            filled += step
        for p, r in pairs[split:]:
            for z in (r, p - r):
                marks[(z - lo) % p :: p] = True
        count += n - int(np.count_nonzero(marks))
    return count


def census(basis, horizon: int | None = None) -> CensusReport:
    """Full report for a basis: both counts, the product value, the nu table."""
    entries = tuple(basis)
    if not entries:
        raise ValueError("census needs a nonempty basis")
    n_product = _product(b.prime for b in entries)
    if horizon is None:
        horizon = n_product
    ie, nu_table = _ie_with_table(entries, horizon)
    return CensusReport(
        basis=entries,
        n_product=n_product,
        horizon=horizon,
        ie_count=ie,
        exact_count=exact_coprime_count(entries, horizon),
        product_value=product_formula(entries),
        nu_table=nu_table,
    )


def check_identity_k(k: int) -> None:
    if not (1 <= k <= 5):  # desk scale: N stays small enough for the direct count
        raise RangeError(f"identity check supports 1 <= k <= 5, got {k}")


def check_witness_k(k: int) -> None:
    if not (1 <= k <= 5):  # desk scale: the value stays small enough to trial-divide
        raise RangeError(f"witness supports 1 <= k <= 5 at desk scale, got {k}")


def verify_main_identity(k: int) -> CensusReport:
    """Report at horizon N for the first-k basis; equality is reported, not forced."""
    check_identity_k(k)
    return census(first_k_basis(k), horizon=None)


def second_proof_witness(k: int) -> SecondProofWitness:
    """Value at index N = product of the first k basis primes, with its divisors.

    gcd(value, p) = 1 for every basis prime p since value = 1 (mod p**2),
    so the value survives their strikes; its actual factors are new primes,
    found here by the oracle's trial division.  Primality of the value is
    reported, never assumed.
    """
    check_witness_k(k)
    basis = first_k_basis(k)
    n_product = _product(b.prime for b in basis)
    value = term_value(n_product)
    if value > U64_MAX:
        raise RangeError(f"witness value for k={k} exceeds the 64-bit range")
    gcds = tuple(math.gcd(value, b.prime) for b in basis)
    factors = tuple(oracle.naive_factor(value))
    return SecondProofWitness(
        k=k,
        basis=basis,
        n_product=n_product,
        value=value,
        gcds=gcds,
        factors=factors,
        value_is_prime=is_prime(value),
    )
