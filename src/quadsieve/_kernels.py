"""Hot inner loops behind the sieve: whole-array numpy passes.

The bulk least-root computation and the per-segment strike loop only
over non-residue candidates, exponent bits and prime powers, each step
one operation on every prime or hit at once, never a Python loop per
prime.  The strike's hits come out prime by prime and are put back in
position order by a stable LSD radix order on the 16-bit digits of the
offset within the segment, not by a comparison sort.  numpy releases the
GIL inside those operations, so segments striking on worker threads
overlap.

Everything is int64 inside the kernels, hence the hard index ceiling:
4*n*n + 1 and the squares of candidate primes p <= 2*n must stay below
2**63.
"""

from __future__ import annotations

import numpy as np

from .errors import BadFactorizationError, RangeError

# largest n with 4*n*n + 1 < 2**63; also keeps p*p < 2**63 for p <= 2*n
MAX_INDEX = 1_518_500_249


def check_index_range(n_max: int) -> None:
    if n_max > MAX_INDEX:
        raise RangeError(f"index {n_max} exceeds the int64 ceiling {MAX_INDEX}")


# ---------------------------------------------------------------------------
# array passes
# ---------------------------------------------------------------------------


def _pow_mod_np(base: np.ndarray, exp: np.ndarray, m: np.ndarray) -> np.ndarray:
    # square-and-multiply per element; exact while m*m < 2**63 (m < 2*MAX_INDEX)
    r, b = np.ones_like(m), base % m
    while exp.any():
        r = np.where(exp & 1, r * b % m, r)
        b, exp = b * b % m, exp >> 1
    return r


def _least_roots_np(primes: np.ndarray) -> np.ndarray:
    # smallest non-residue c per prime (c**((p-1)/2) = -1), found by a masked search
    c, todo, cand = np.empty_like(primes), np.arange(primes.size), 2
    while todo.size:
        p = primes[todo]
        if cand * (cand - 1) >= p.min():  # a prime's least non-residue c has c(c-1) < p
            raise BadFactorizationError(f"{p.min()} is not prime: it has no non-residue")
        hit = _pow_mod_np(np.full_like(p, cand), (p - 1) // 2, p) == p - 1
        c[todo[hit]] = cand
        todo, cand = todo[~hit], cand + 1
    r = _pow_mod_np(c, (primes - 1) // 4, primes) * ((primes + 1) // 2) % primes
    return np.minimum(r, primes - r)


def _hits(n: int, p: np.ndarray, off: np.ndarray):
    # each (prime, offset) pair expands to off, off + p, ... below n
    counts = (n - 1 - off) // p + 1
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    ps = np.repeat(p, counts)
    return np.repeat(off, counts) + step * ps, ps


def _strike_np(lo: int, hi: int, primes: np.ndarray, roots: np.ndarray):
    n = hi - lo
    idx = np.arange(lo, hi, dtype=np.int64)
    cof = 4 * idx * idx + 1
    # first offset of each branch +-root (mod p), kept only where it lands
    # here; a stable sort by prime index merges the two ascending runs
    off_a, off_b = (roots - lo) % primes, (primes - roots - lo) % primes
    ja, jb = np.flatnonzero(off_a < n), np.flatnonzero(off_b < n)
    j, off = np.concatenate([ja, jb]), np.concatenate([off_a[ja], off_b[jb]])
    order = np.argsort(j, kind="stable")
    pos, ps = _hits(n, primes[j[order]], off[order])
    # every hit divides its value by construction; a remainder means a bad root
    v, es = cof[pos], np.empty_like(pos)
    np.divmod(v, ps, out=(v, es))  # es holds the remainders until reset
    if es.any():
        bad = int(pos[np.flatnonzero(es)[0]]) + lo
        raise AssertionError(f"strike kernel marked index {bad}, which its prime does not divide")
    # higher powers, followed only for the few hits whose prime divides again
    es.fill(1)
    at = np.flatnonzero(v % ps == 0)
    v, d = v[at], ps[at]
    while at.size:
        es[at] += 1
        v //= d
        hit = v % d == 0
        at, v, d = at[hit], v[hit], d[hit]
    prod = np.ones(n, dtype=np.int64)
    np.multiply.at(prod, pos, ps**es)
    # multiply-back: each value is its struck product times a leftover
    np.divmod(cof, prod, out=(cof, prod))  # prod now holds the remainders
    if prod.any():
        bad = int(np.flatnonzero(prod)[0]) + lo
        raise AssertionError(f"struck factors of index {bad} do not divide its value")
    # a leftover above 1 is a prime beyond every struck one: appended, it sorts last
    left = np.flatnonzero(cof > 1)
    pos, ps = np.concatenate([pos, left]), np.concatenate([ps, cof[left]])
    es = np.concatenate([es, np.ones(left.size, dtype=np.int64)])
    cof[left] = 1
    # LSD radix order on the offset: numpy radix-sorts 16-bit keys when asked
    # for a stable sort, and each stable pass keeps ties in ascending prime
    # order; n <= MAX_INDEX < 2**32, so two 16-bit digits cover any segment
    order = np.argsort(pos.astype(np.uint16), kind="stable")
    if n > 1 << 16:
        order = order[np.argsort((pos[order] >> 16).astype(np.uint16), kind="stable")]
    return pos[order] + lo, ps[order], es[order], cof


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def least_roots_bulk(primes: np.ndarray) -> np.ndarray:
    """Least roots of 4*z**2 + 1 = 0 (mod p) for an array of primes = 1 mod 4."""
    if primes.size == 0:
        return np.empty(0, dtype=np.int64)
    if primes.max() > 2 * MAX_INDEX:  # p*p must stay below 2**63
        raise RangeError(f"prime {primes.max()} exceeds the int64 ceiling {2 * MAX_INDEX}")
    return _least_roots_np(primes)


def strike_segment(lo: int, hi: int, primes: np.ndarray, roots: np.ndarray):
    """Factor indices [lo, hi) against (prime, root) pairs.

    Returns (positions, primes, exponents, cofactor) where the first three
    are parallel arrays sorted by position (ties already in ascending prime
    order) and cofactor is all ones once every factor is accounted for.
    """
    pos, ps, es, cof = _strike_np(lo, hi, primes, roots)
    # a marked position must actually be divisible; zero exponent means a bug
    if es.size and es.min() <= 0:
        raise AssertionError("strike kernel marked an index its prime does not divide")
    return pos, ps, es, cof


def warmup() -> str:
    """Run both kernels once on a tiny input; returns the engine name, "numpy"."""
    primes = np.array([5], dtype=np.int64)
    strike_segment(1, 3, primes, least_roots_bulk(primes))
    return "numpy"
