"""Segmented factor sieve over term indices n, where the n-th value is 4*n*n + 1.

A prime p divides the value at n exactly when n falls on one of the two
progressions n = +-root (mod p), so factoring a whole index range means
striking those progressions for every prime p < 2*hi and dividing out
repeated powers; what is left at n is 1 or a prime above 2*n.  Every sieve
run is one request, _plan(n_max, segment_size, start=..., workers=...): it
refuses a bad request before any prime is sieved, and its Plan carries the
window [start, n_max], the chunk struck per segment and every prime
p <= 2*n_max with its root.  _segments(plan) strikes that window and checks
nothing more.  The plan costs O(n_max), the strike O(n_max - start).
Striking goes segment by segment through the numpy kernels, always on the
caller's thread; the workers argument is checked but strikes nothing in
parallel.  A digest is hashed on one helper thread, a segment behind the
strike.
"""

from __future__ import annotations

import hashlib
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Iterator, NamedTuple

import numpy as np

from . import modarith
from ._kernels import MAX_INDEX, check_index_range, least_roots_bulk, strike_segment
from .errors import BadFactorizationError, RangeError

DEFAULT_SEGMENT_SIZE = 65536

# computation never chunks finer than this, whatever segment size the
# caller asks for; results are independent of chunking, and per-segment
# setup would otherwise dominate at tiny sizes
CHUNK_FLOOR = 4096

# entries per packed block when hashing: 2048 triples are 48 KiB, far above
# the 2 KiB from which blake2b releases the GIL, and packing a block never
# copies a whole segment
PACK_ROWS = 2048


def term_value(n: int) -> int:
    return 4 * n * n + 1


class Term(NamedTuple):
    """One index n with its value 4*n*n + 1 fully factored; a plain tuple underneath."""

    n: int
    value: int
    factors: tuple[tuple[int, int], ...]  # (prime, exponent), ascending primes

    @property
    def is_prime_term(self) -> bool:
        return len(self.factors) == 1 and self.factors[0] == (self.value, 1)

    def verify(self) -> None:
        """Certify the term or raise BadFactorizationError.  A pass proves factors is
        the factorization of value = 4*n*n + 1: ascending primes = 1 (mod 4), each
        passing modarith.is_prime, with exponents >= 1 and product value."""
        n, prod, last = self.n, 1, 0
        if self.value != term_value(n):
            raise BadFactorizationError(f"term {n}: value {self.value} is wrong")
        for p, e in self.factors:
            if p <= last:
                raise BadFactorizationError(f"term {n}: factors out of order")
            if p % 4 != 1 or e < 1:
                raise BadFactorizationError(f"term {n}: bad factor {p}^{e}")
            if not modarith.is_prime(p):
                raise BadFactorizationError(f"term {n}: factor {p} is not prime")
            last = p
            prod *= p**e
        if prod != self.value:
            raise BadFactorizationError(f"term {n}: factors multiply to {prod}, not {self.value}")


@dataclass(slots=True)
class SieveSegment:
    """Factored slice of indices [lo, hi) in parallel-array form.

    positions/primes/exponents are sorted by position, with ascending
    primes within a position.
    """

    lo: int
    hi: int
    positions: np.ndarray
    primes: np.ndarray
    exponents: np.ndarray

    def _counts(self) -> np.ndarray:
        """Entries per index lo .. hi - 1."""
        counts = np.bincount(self.positions - self.lo, minlength=self.hi - self.lo)
        if not counts.all():  # every value 4*n*n + 1 > 1 has a prime factor
            raise AssertionError(f"segment [{self.lo},{self.hi}) is missing indices")
        return counts

    def check(self) -> None:
        counts = self._counts()
        n = np.arange(self.lo, self.hi, dtype=np.int64)
        if not np.array_equal(self.positions, np.repeat(n, counts[: n.size])):
            raise BadFactorizationError(f"segment [{self.lo},{self.hi}) is out of position order")
        # partial products divide the term value, so int64 stays exact here
        prods = np.multiply.reduceat(self.primes**self.exponents, np.cumsum(counts) - counts)
        if not bool((prods == 4 * n * n + 1).all()):
            raise BadFactorizationError(
                f"segment [{self.lo},{self.hi}) factors do not multiply back"
            )

    def terms(self) -> Iterator[Term]:
        new = tuple.__new__  # what Term(...) calls, without its argument binding
        factors = zip(self.primes.tolist(), self.exponents.tolist())  # sorted by position
        for n, k in enumerate(self._counts().tolist(), self.lo):
            yield new(Term, (n, 4 * n * n + 1, tuple(islice(factors, k))))

    def packed(self, start: int = 0, stop: int | None = None) -> bytes:
        """Canonical (n, prime, exponent) triple stream as little-endian int64,
        for the entries start .. stop - 1; joined blocks give the whole stream."""
        rows = slice(start, stop)
        return (
            np.column_stack([self.positions[rows], self.primes[rows], self.exponents[rows]])
            .astype("<i8", copy=False)
            .tobytes()
        )


@dataclass(frozen=True, slots=True)
class BasisPrime:
    """A prime with its least root, which is also its first index of appearance."""

    prime: int
    least_root: int


PrimeBasis = tuple[BasisPrime, ...]


def primes_1mod4(limit: int) -> np.ndarray:
    """All primes p <= limit with p = 1 (mod 4), ascending int64.

    Slot k stands for 4k + 1; slot 0, which is 1, is not prime.  An odd q has
    q*q = 1 (mod 4) and its later multiples in the class step by 4q, which is
    q slots; a composite q strikes only slots its prime factors already struck.
    A limit past 2*MAX_INDEX is refused before the slots are allocated."""
    if limit > 2 * MAX_INDEX:
        raise RangeError(f"prime limit {limit} exceeds the int64 ceiling {2 * MAX_INDEX}")
    slots = np.ones(max(limit + 3, 0) // 4, dtype=bool)
    slots[:1] = False
    for q in range(3, math.isqrt(max(limit, 0)) + 1, 2):
        slots[(q * q - 1) // 4 :: q] = False
    return 4 * np.flatnonzero(slots) + 1


class Plan(NamedTuple):
    """One checked sieve request: the window start .. n_max, the indices
    struck per segment, and every prime p = 1 (mod 4) up to 2*n_max with
    its least root, which is all the sieve needs to factor that window."""

    n_max: int
    start: int
    chunk: int
    primes: np.ndarray
    roots: np.ndarray


def _plan(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    start: int = 1,
    workers: int = 1,
) -> Plan:
    """The one place a sieve request is refused, always before any prime is
    sieved; the index ceiling is named first when a request breaks more
    than one rule.  workers is checked (>= 1) and not kept."""
    check_index_range(n_max)
    if segment_size < 1:
        raise ValueError(f"segment_size must be >= 1, got {segment_size}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not (1 <= start <= n_max):
        raise ValueError(f"need 1 <= start <= n_max, got start={start}, n_max={n_max}")
    primes = primes_1mod4(2 * n_max)
    return Plan(n_max, start, max(segment_size, CHUNK_FLOOR), primes, least_roots_bulk(primes))


def sieve_segment(
    lo: int,
    hi: int,
    primes: np.ndarray,
    roots: np.ndarray,
) -> SieveSegment:
    """Factor one half-open index range against a prepared (prime, root) plan."""
    if not (1 <= lo < hi):
        raise ValueError(f"bad segment bounds [{lo}, {hi})")
    cut = int(np.searchsorted(primes, 2 * hi))
    return SieveSegment(lo, hi, *strike_segment(lo, hi, primes[:cut], roots[:cut]))


def _segments(plan: Plan) -> Iterator[SieveSegment]:
    """Struck segments covering indices plan.start .. plan.n_max, in
    ascending order, each struck on the caller's thread as it is asked for."""
    n_max, start, chunk, primes, roots = plan
    for lo in range(start, n_max + 1, chunk):
        yield sieve_segment(lo, min(lo + chunk, n_max + 1), primes, roots)


def sieve_range(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    start: int = 1,
    workers: int = 1,
) -> Iterator[Term]:
    """Stream fully factored terms for n = start .. n_max in ascending order.

    Only the window [start, n_max] is struck, though the plan still holds
    every prime p <= 2*n_max; start < 1 or start > n_max raises ValueError
    at the call, before any plan is built.
    Output is identical for every segment_size; it trades memory against
    per-segment overhead only.  workers is checked (>= 1) and otherwise
    ignored: every segment is struck on the caller's thread.
    """
    plan = _plan(n_max, segment_size, start=start, workers=workers)
    return chain.from_iterable(seg.terms() for seg in _segments(plan))


def _hash_segment(h, seg: SieveSegment) -> None:
    for i in range(0, seg.positions.size, PACK_ROWS):
        h.update(seg.packed(i, i + PACK_ROWS))


def _digest(segments: Iterable[SieveSegment]) -> str:
    """blake2b of the segments' packed triples, in segment order.

    One helper thread packs and hashes segment k, PACK_ROWS entries at a
    time, while the caller's thread strikes segment k + 1.  Hash k - 1 has
    finished before k is handed over, so at most one segment is being
    hashed.
    """
    h = hashlib.blake2b(digest_size=16)
    with ThreadPoolExecutor(max_workers=1) as hasher:
        hashing = None
        for seg in segments:
            if hashing is not None:
                hashing.result()
            hashing = hasher.submit(_hash_segment, h, seg)
        if hashing is not None:
            hashing.result()
    return h.hexdigest()


def terms_digest(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    workers: int = 1,
) -> str:
    """Digest of the canonical factorization stream for n = 1 .. n_max.

    Hashes the (n, prime, exponent) int64 triples in ascending order, so
    equal digests mean identical factorizations term for term.
    """
    return _digest(_segments(_plan(n_max, segment_size, workers=workers)))


def enumerate_primes(
    n_max: int,
    segment_size: int = DEFAULT_SEGMENT_SIZE,
    *,
    workers: int = 1,
) -> list[int]:
    """Indices n <= n_max whose value 4*n*n + 1 is prime."""
    out: list[int] = []
    for seg in _segments(_plan(n_max, segment_size, workers=workers)):
        n = seg.positions
        out.extend(n[seg.primes == 4 * n * n + 1].tolist())
    return out


def first_k_basis(k: int) -> PrimeBasis:
    """The first k primes ordered by first appearance as a factor.

    A prime first divides the value at its least root r <= (p - 1)/2, and
    every later index it divides is n >= p - r > p/2, so an entry (n, p)
    of the sieve is p's debut exactly when p > 2*n; this holds for
    leftover primes too.  Two primes cannot debut at the same
    index: that would need p*q <= 4*n*n + 1 with both p, q >= 2*n + 1.
    So the debuts, read in index order, are the basis; when a window
    holds fewer than k of them, the next window [hi + 1, 2*hi] is sieved.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    found: list[BasisPrime] = []
    lo, hi = 1, min(k, MAX_INDEX)  # one debut per index at most: k need k indices
    while True:
        for seg in _segments(_plan(hi, start=lo)):
            debut = seg.primes > 2 * seg.positions
            for p, n in zip(seg.primes[debut].tolist(), seg.positions[debut].tolist()):
                # the observed debut must equal the independently built root
                r = modarith.sqrt_minus_one(p)
                if n != r:
                    raise AssertionError(
                        f"first appearance of {p} at {n} differs from its least root {r}"
                    )
                found.append(BasisPrime(p, r))
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
    # sqrt_minus_one rejects a p that is not prime or not 1 mod 4
    entries = [BasisPrime(p, modarith.sqrt_minus_one(p)) for p in ps]
    return tuple(sorted(entries, key=lambda b: (b.least_root, b.prime)))
