"""Counting terms coprime to a product of basis primes.

Two routes must always agree.  The combinatorial route sums, over every
divisor d of the basis product N, the count of indices struck by d with
an alternating sign:

    sum over d | N of (-1)**nu(d) * sum over roots z of d of (n + z) // d

where nu(d) is the number of prime factors of d, the inner sum runs over
the full root set of d, and d = 1 contributes n (one empty root 0).  Each
floor term (n + z) // d counts indices m <= n with m = -z (mod d), and
root sets are closed under negation, so the inner sum counts exactly the
indices whose value d divides.  The direct route marks struck indices
and counts the survivors.  At horizon n = N every floor collapses to
N // d and the whole sum telescopes to the product of (p - 2).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .errors import RangeError
from .modarith import U64_MAX, is_prime
from .roots import all_roots
from .sieve import BasisPrime, PrimeBasis, basis_from_primes, first_k_basis, term_value

_MARK_CHUNK = 1 << 20

# the direct count marks every index up to the horizon, about 1.2e9 a
# second; census --k 7 (2.4e10) fits, --k 8 (6.1e12) would run for hours
EXACT_COUNT_CAP = 10**11


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


def _as_basis(basis) -> PrimeBasis:
    entries = tuple(basis)
    if all(isinstance(b, BasisPrime) for b in entries):
        return entries
    return basis_from_primes(entries)


def _product(primes) -> int:
    n = 1
    for p in primes:
        n *= p
        if n > U64_MAX:
            raise RangeError(f"basis product exceeds the 64-bit range: {list(primes)}")
    return n


def _lex_subsets(k: int) -> list[tuple[int, ...]]:
    # index subsets of range(k) in lexicographic order, empty set first
    all_subsets = itertools.chain.from_iterable(
        itertools.combinations(range(k), size) for size in range(k + 1)
    )
    return sorted(all_subsets)


def product_formula(basis) -> int:
    """Product of (p - 2) over the basis primes, exact."""
    entries = _as_basis(basis)
    if not entries:
        raise ValueError("basis must be nonempty")
    value = 1
    for b in entries:
        value *= b.prime - 2
        if value > U64_MAX:
            raise RangeError("product of (p - 2) exceeds the 64-bit range")
    return value


def inclusion_exclusion_count(basis, horizon: int) -> int:
    """Alternating divisor sum counting n <= horizon coprime to the basis product.

    The sum is an exact identity, not an estimate; the direct count must
    always agree.
    """
    return _ie_with_table(_as_basis(basis), horizon)[0]


def _ie_with_table(entries: PrimeBasis, horizon: int) -> tuple[int, dict[int, int]]:
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    _product(b.prime for b in entries)  # range check only
    total = 0
    nu_table: dict[int, int] = {}
    for subset in _lex_subsets(len(entries)):
        if not subset:
            nu_table[1] = 0
            total += horizon
            continue
        chosen = [entries[i] for i in subset]
        d = math.prod(b.prime for b in chosen)
        nu = len(subset)
        nu_table[d] = nu
        inner = sum(
            (horizon + z) // d for z in all_roots(d, [(b.prime, 1) for b in chosen]).roots
        )
        total += inner if nu % 2 == 0 else -inner
    return total, nu_table


def exact_coprime_count(basis, horizon: int) -> int:
    """Direct count of n <= horizon with value coprime to the basis product.

    Marks the struck progressions +-root (mod p) per basis prime in
    bounded windows; no inclusion-exclusion involved.  Horizons above
    EXACT_COUNT_CAP raise RangeError instead of running for hours.
    """
    entries = _as_basis(basis)
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    if horizon > EXACT_COUNT_CAP:
        raise RangeError(
            f"exact_coprime_count is capped at horizon {EXACT_COUNT_CAP}; got {horizon}"
        )
    pairs = [(b.prime, b.least_root) for b in entries]
    count = 0
    for lo in range(1, horizon + 1, _MARK_CHUNK):
        hi = min(lo + _MARK_CHUNK, horizon + 1)
        struck = np.zeros(hi - lo, dtype=bool)
        for p, r in pairs:
            for z in (r, p - r):
                struck[(z - lo) % p :: p] = True
        count += int((hi - lo) - struck.sum())
    return count


def census(basis, horizon: int | None = None) -> CensusReport:
    """Full report for a basis: both counts, the product value, the nu table."""
    entries = _as_basis(basis)
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


def verify_main_identity(k: int) -> CensusReport:
    """Report at horizon N for the first-k basis; equality is reported, not forced.

    Desk-scale guard: k <= 5 keeps N small enough for the direct count.
    """
    if not (1 <= k <= 5):
        raise RangeError(f"identity check supports 1 <= k <= 5, got {k}")
    return census(first_k_basis(k), horizon=None)


def second_proof_witness(k: int) -> SecondProofWitness:
    """Value at index N = product of the first k basis primes, with its divisors.

    gcd(value, p) = 1 for every basis prime p since value = 1 (mod p**2),
    so the value survives their strikes; its actual factors are new primes,
    found here by the oracle's trial division.  Primality of the value is
    reported, never assumed.
    """
    if not (1 <= k <= 5):
        raise RangeError(f"witness supports 1 <= k <= 5 at desk scale, got {k}")
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
