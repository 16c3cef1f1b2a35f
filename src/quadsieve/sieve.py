"""Segmented factor sieve over term indices n, where the n-th value is 4*n*n + 1.

A prime p divides the value at n exactly when n falls on one of the two
progressions n = +-root (mod p), so factoring a whole index range means
striking those progressions for every prime p < 2*hi and dividing out
repeated powers; any cofactor left at the end is itself prime.  Striking
goes segment by segment through the numpy kernels, but the plan holds
every prime p <= 2*n_max and its root, so memory is O(n_max).  A window
[start, n_max] still needs that whole plan, but it strikes only its own
indices: the plan costs O(n_max), the strike O(n_max - start).  Worker
threads overlap inside the kernels' array operations, which release the
GIL.
"""

from __future__ import annotations

import hashlib
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator

import numpy as np

from . import modarith
from ._kernels import MAX_INDEX, check_index_range, least_roots_bulk, strike_segment
from .errors import BadFactorizationError, RangeError

DEFAULT_SEGMENT_SIZE = 65536

# computation never chunks finer than this, whatever segment size the
# caller asks for; results are independent of chunking, and per-segment
# setup would otherwise dominate at tiny sizes
CHUNK_FLOOR = 4096


def term_value(n: int) -> int:
    return 4 * n * n + 1


@dataclass(frozen=True, slots=True)
class Term:
    """One index n with its value 4*n*n + 1 fully factored."""

    n: int
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), ascending primes

    @property
    def is_prime_term(self) -> bool:
        return len(self.factors) == 1 and self.factors[0] == (self.value, 1)

    def verify(self) -> None:
        """Recompute the defining invariants; raises on any mismatch."""
        if self.value != term_value(self.n):
            raise BadFactorizationError(f"term {self.n}: value {self.value} is wrong")
        prod = 1
        last = 0
        for p, e in self.factors:
            if p <= last:
                raise BadFactorizationError(f"term {self.n}: factors out of order")
            if p % 4 != 1 or e < 1:
                raise BadFactorizationError(f"term {self.n}: bad factor {p}^{e}")
            last = p
            prod *= p**e
        if prod != self.value:
            raise BadFactorizationError(
                f"term {self.n}: factors multiply to {prod}, not {self.value}"
            )


@dataclass(slots=True)
class SieveSegment:
    """Factored slice of indices [lo, hi) in parallel-array form.

    positions/primes/exponents are sorted by position (ascending prime
    within a position); cofactor holds what remains undivided per index
    and must be all ones once the segment is complete.
    """

    lo: int
    hi: int
    positions: np.ndarray
    primes: np.ndarray
    exponents: np.ndarray
    cofactor: np.ndarray

    def check(self) -> None:
        if not bool((self.cofactor == 1).all()):
            raise BadFactorizationError(f"segment [{self.lo},{self.hi}) left cofactors > 1")
        starts = self._starts()
        heads = self.positions[starts]
        if not bool((heads == np.arange(self.lo, self.hi, dtype=np.int64)).all()):
            raise BadFactorizationError(f"segment [{self.lo},{self.hi}) is missing indices")
        # partial products divide the term value, so int64 stays exact here
        prods = np.multiply.reduceat(self.primes**self.exponents, starts)
        if not bool((prods == 4 * heads * heads + 1).all()):
            raise BadFactorizationError(
                f"segment [{self.lo},{self.hi}) factors do not multiply back"
            )

    def _starts(self) -> np.ndarray:
        pos = self.positions
        if pos.size == 0:
            return np.empty(0, dtype=np.int64)
        cuts = np.flatnonzero(pos[1:] != pos[:-1]) + 1
        return np.concatenate([np.zeros(1, dtype=np.int64), cuts])

    def terms(self) -> Iterator[Term]:
        counts = np.bincount(self.positions - self.lo, minlength=self.hi - self.lo)
        if not counts.all():  # every value 4*n*n + 1 > 1 has a prime factor
            raise AssertionError(f"segment [{self.lo},{self.hi}) is missing indices")
        factors = zip(self.primes.tolist(), self.exponents.tolist())  # sorted by position
        for n, k in enumerate(counts.tolist(), self.lo):
            yield Term(n, term_value(n), tuple(islice(factors, k)))

    def packed(self) -> bytes:
        """Canonical (n, prime, exponent) triple stream as little-endian int64."""
        return (
            np.column_stack([self.positions, self.primes, self.exponents])
            .astype("<i8", copy=False)
            .tobytes()
        )


@dataclass(frozen=True, slots=True)
class BasisPrime:
    """A prime with its least root, which is also its first index of appearance."""

    prime: int
    least_root: int
    first_index: int

    def __post_init__(self) -> None:
        if self.first_index != self.least_root:
            raise AssertionError(
                f"first appearance of {self.prime} at {self.first_index} "
                f"differs from its least root {self.least_root}"
            )


PrimeBasis = tuple[BasisPrime, ...]


def primes_1mod4(limit: int) -> np.ndarray:
    """All primes p <= limit with p = 1 (mod 4), ascending int64."""
    if limit < 5:
        return np.empty(0, dtype=np.int64)
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64)
    return primes[primes % 4 == 1]


def smallest_factor_table(limit: int) -> np.ndarray:
    """spf[v] = smallest prime factor of v, for 0 <= v <= limit (spf[0]=0, spf[1]=1)."""
    spf = np.zeros(limit + 1, dtype=np.int64)
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == 0:
            view = spf[p * p :: p]
            view[view == 0] = p
    rest = np.flatnonzero(spf == 0)
    spf[rest] = rest
    return spf


def _plan(n_max: int):
    check_index_range(n_max)
    primes = primes_1mod4(2 * n_max)
    return primes, least_roots_bulk(primes)


def _top_prime_1mod4(limit: int) -> int | None:
    """Largest prime p = 1 (mod 4) with p <= limit; None when there is none."""
    p = limit - (limit - 1) % 4
    while p >= 5 and not modarith.is_prime(p):
        p -= 4
    return p if p >= 5 else None


def sieve_segment(
    lo: int,
    hi: int,
    primes: np.ndarray,
    roots: np.ndarray,
) -> SieveSegment:
    """Factor one half-open index range against a prepared (prime, root) plan."""
    if not (1 <= lo < hi):
        raise ValueError(f"bad segment bounds [{lo}, {hi})")
    check_index_range(hi - 1)
    cut = int(np.searchsorted(primes, 2 * hi))
    pos, ps, es, cof = strike_segment(lo, hi, primes[:cut], roots[:cut])
    return SieveSegment(lo, hi, pos, ps, es, cof)


def _segments(
    n_max: int,
    segment_size: int,
    workers: int,
    chunk_floor: int = CHUNK_FLOOR,
    *,
    start: int = 1,
    plan: tuple[np.ndarray, np.ndarray] | None = None,
) -> Iterator[SieveSegment]:
    """Struck segments covering indices start .. n_max, in ascending order.

    plan, if given, must be _plan(n_max); the caller then already holds it.
    A plan whose last prime is not the largest prime = 1 (mod 4) up to
    2*n_max is refused: a short one would pass composite leftovers off as
    primes.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not (1 <= start <= n_max):
        raise ValueError(f"need 1 <= start <= n_max, got start={start}, n_max={n_max}")
    check_index_range(n_max)
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    chunk = max(segment_size, chunk_floor)
    if plan is None:
        plan = _plan(n_max)
    else:
        top = _top_prime_1mod4(2 * n_max)
        last = int(plan[0][-1]) if plan[0].size else None
        if last != top:
            raise ValueError(f"plan ends at prime {last}, but n_max={n_max} needs {top}")
    primes, roots = plan
    bounds = [(lo, min(lo + chunk, n_max + 1)) for lo in range(start, n_max + 1, chunk)]
    if workers <= 1:
        for lo, hi in bounds:
            yield sieve_segment(lo, hi, primes, roots)
        return
    with ThreadPoolExecutor(max_workers=workers) as pool:
        pending: deque = deque()
        bound_iter = iter(bounds)
        for _ in range(workers + 1):
            nxt = next(bound_iter, None)
            if nxt is None:
                break
            pending.append(pool.submit(sieve_segment, *nxt, primes, roots))
        while pending:
            seg = pending.popleft().result()
            nxt = next(bound_iter, None)
            if nxt is not None:
                pending.append(pool.submit(sieve_segment, *nxt, primes, roots))
            yield seg


def sieve_range(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    start: int = 1,
    workers: int = 1,
    chunk_floor: int = CHUNK_FLOOR,
) -> Iterator[Term]:
    """Stream fully factored terms for n = start .. n_max in ascending order.

    Only the window [start, n_max] is struck, though the plan still holds
    every prime p <= 2*n_max; start < 1 or start > n_max raises ValueError.
    Output is identical for every segment_size and worker count; those
    knobs trade memory against speed only.
    """
    for seg in _segments(n_max, segment_size, workers, chunk_floor, start=start):
        yield from seg.terms()


def _digest(segments: Iterable[SieveSegment]) -> str:
    h = hashlib.blake2b(digest_size=16)
    for seg in segments:
        h.update(seg.packed())
    return h.hexdigest()


def terms_digest(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    workers: int = 1,
    chunk_floor: int = CHUNK_FLOOR,
) -> str:
    """Digest of the canonical factorization stream for n = 1 .. n_max.

    Hashes the (n, prime, exponent) int64 triples in ascending order, so
    equal digests mean identical factorizations term for term.
    """
    return _digest(_segments(n_max, segment_size, workers, chunk_floor))


def divisor_positions(p: int, n_max: int) -> list[int]:
    """All n <= n_max whose value 4*n*n + 1 is divisible by the prime p.

    These are exactly the two progressions +-root (mod p); no other index
    is divisible, which the verification suites check against direct scans.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    check_index_range(n_max)
    r = modarith.sqrt_minus_one(p)
    a = np.arange(r, n_max + 1, p, dtype=np.int64)
    b = np.arange(p - r, n_max + 1, p, dtype=np.int64)
    return np.sort(np.concatenate([a, b])).tolist()


def enumerate_primes(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    workers: int = 1,
) -> list[int]:
    """Indices n <= n_max whose value 4*n*n + 1 is prime."""
    out: list[int] = []
    for seg in _segments(n_max, segment_size, workers):
        starts = seg._starts()
        ends = np.concatenate([starts[1:], np.array([seg.positions.size])])
        single = np.flatnonzero((ends - starts) == 1)
        first = starts[single]
        n = seg.positions[first]
        ok = (seg.exponents[first] == 1) & (seg.primes[first] == 4 * n * n + 1)
        out.extend(n[ok].tolist())
    return out


def first_k_basis(k: int) -> PrimeBasis:
    """The first k primes ordered by first appearance as a factor.

    A prime first divides the value at its least root r <= (p - 1)/2, and
    every later index it divides is n >= p - r > p/2, so an entry (n, p)
    of the sieve is p's debut exactly when p > 2*n; this holds for
    leftover cofactor primes too.  Two primes cannot debut at the same
    index: that would need p*q <= 4*n*n + 1 with both p, q >= 2*n + 1.
    So the debuts, read in index order, are the basis; when a window
    holds fewer than k of them, the next window [hi + 1, 2*hi] is sieved.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    found: list[BasisPrime] = []
    lo, hi = 1, min(k, MAX_INDEX)  # one debut per index at most: k need k indices
    while True:
        for seg in _segments(hi, DEFAULT_SEGMENT_SIZE, 1, start=lo):
            debut = seg.primes > 2 * seg.positions
            for p, n in zip(seg.primes[debut].tolist(), seg.positions[debut].tolist()):
                # observed first index must equal the independently built root
                found.append(BasisPrime(p, least_root=modarith.sqrt_minus_one(p), first_index=n))
                if len(found) == k:
                    return tuple(found)
        if hi >= MAX_INDEX:
            raise RangeError(f"basis of {k} primes not found within index range")
        lo, hi = hi + 1, min(2 * hi, MAX_INDEX)


def basis_from_primes(primes: Iterable[int]) -> PrimeBasis:
    """Build a basis from explicit primes, ordered by first appearance."""
    ps = list(primes)
    if not ps:
        raise ValueError("basis must contain at least one prime")
    if len(set(ps)) != len(ps):
        raise ValueError(f"basis primes must be distinct, got {ps}")
    entries = []
    for p in ps:
        r = modarith.sqrt_minus_one(p)  # rejects p not prime or not 1 mod 4
        entries.append(BasisPrime(p, least_root=r, first_index=r))
    entries.sort(key=lambda b: (b.first_index, b.prime))
    return tuple(entries)


def lemma2_witness(n: int) -> bool:
    """Check at index n that coprimality with all earlier terms implies primality.

    Returns False only on a counterexample: a composite value coprime to
    every earlier one.  Shared factors or a prime value both satisfy the
    implication vacuously or directly.
    """
    if n < 2:
        raise ValueError(f"witness needs n >= 2, got {n}")
    check_index_range(n)
    v = term_value(n)
    earlier = np.arange(1, n, dtype=np.int64)
    shared = np.gcd(4 * earlier * earlier + 1, v)
    if bool((shared == 1).all()):
        return modarith.is_prime(v)
    return True
