"""Hot inner loops behind the sieve: whole-array numpy passes.

The bulk least-root computation and the per-segment strike loop only over
non-residue candidates, exponent bits and prime powers, each step one
operation on every prime or hit at once, never a Python loop per prime.  The
strike expands its progressions with one running sum and puts the hits in
(position, prime) order with one sort of packed int64 keys.  The sieve
strikes one segment at a time on the caller's thread.

Everything is int64 inside the kernels, hence the hard index ceiling:
4*n*n + 1 and the squares of candidate primes p <= 2*n must stay below 2**63.
"""

from __future__ import annotations

import numpy as np

from .errors import BadFactorizationError, RangeError

# largest n with 4*n*n + 1 < 2**63; also keeps p*p < 2**63 for p <= 2*n
MAX_INDEX = 1_518_500_249
_LEFTOVER = (1 << 32) - 1  # a strike key's prime field, all ones for a leftover


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


def _hits(n: int, p: np.ndarray, off: np.ndarray):
    # each (prime, offset) pair expands to off, off + p, ... below n: one running sum
    counts = (n - 1 - off) // p + 1
    ps = np.repeat(p, counts)
    step, first = ps.copy(), np.cumsum(counts) - counts
    step[first] = off  # a pair's first step jumps here from the last hit of the pair before
    step[first[1:]] -= (off + (counts - 1) * p)[:-1]
    return np.cumsum(step, out=step), ps


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def least_roots_bulk(primes: np.ndarray) -> np.ndarray:
    """Least roots of 4*z**2 + 1 = 0 (mod p) for an array of primes = 1 mod 4."""
    if primes.max(initial=0) > 2 * MAX_INDEX:  # p*p must stay below 2**63
        raise RangeError(f"prime {primes.max()} exceeds the int64 ceiling {2 * MAX_INDEX}")
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


def strike_segment(lo: int, hi: int, primes: np.ndarray, roots: np.ndarray):
    """Factor indices [lo, hi) against (prime, root) pairs.

    Returns (positions, primes, exponents), parallel arrays sorted by
    position with ties in ascending prime order.  The pairs must cover
    every prime p <= 2*(hi - 1) that is 1 mod 4; what then remains of a
    value is 1 or a single prime above 2*n, since 4*n*n + 1 < (2*n + 1)**2,
    and any other leftover is refused.

    The order comes from one sort of int64 keys offset << 32 | prime, a
    leftover taking prime 2**32 - 1 to sort last in its index: offsets are
    below 2**31 and struck primes at most 2*MAX_INDEX < 2**32 - 1.  Multiply-back
    rules out a repeated entry, so the keys are distinct and need no stable sort.
    """
    check_index_range(hi - 1)
    if primes.max(initial=0) > 2 * MAX_INDEX:  # the prime field of a key
        raise RangeError(f"prime {primes.max()} exceeds the int64 ceiling {2 * MAX_INDEX}")
    n = hi - lo
    cof = np.arange(lo, hi, dtype=np.int64)
    cof = 4 * cof * cof + 1  # the values; the index array is not kept alive
    # first offset of each branch +-root (mod p), kept only where it lands here
    off_a, off_b = (roots - lo) % primes, (primes - roots - lo) % primes
    ja, jb = np.flatnonzero(off_a < n), np.flatnonzero(off_b < n)
    pos, ps = _hits(n, primes[np.concatenate([ja, jb])], np.concatenate([off_a[ja], off_b[jb]]))
    # every hit divides its value by construction; a remainder means a bad root
    v, es = cof[pos], np.empty_like(pos)
    np.divmod(v, ps, out=(v, es))  # es holds the remainders until reset
    if es.any():
        bad = int(pos[np.flatnonzero(es)[0]]) + lo
        raise AssertionError(f"strike kernel marked index {bad}, which its prime does not divide")
    # higher powers, followed only for the few hits whose prime divides again
    es.fill(1)
    at = high = np.flatnonzero(v % ps == 0)
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
    left = np.flatnonzero(cof > 1)
    rest = cof[left]
    low = np.flatnonzero(rest <= 2 * (left + lo))  # a struck prime or power was missed
    if low.size:
        bad = int(left[low[0]]) + lo
        raise AssertionError(f"index {bad} leaves {rest[low[0]]}, not a prime above {2 * bad}")
    key = np.concatenate([pos, left]) << 32
    key[: pos.size] |= ps
    key[pos.size :] |= _LEFTOVER  # after every struck prime of its index
    high_key, high_e = key[high], es[high]
    order = np.argsort(high_key)  # ascending needles: each search starts where the last ended
    key.sort()
    es = np.ones_like(key)
    es[np.searchsorted(key, high_key[order])] = high_e[order]
    pos = (key >> 32) + lo
    key &= _LEFTOVER  # now the primes, leftovers still at the sentinel
    key[np.flatnonzero(key == _LEFTOVER)] = rest  # index order, like rest; faster than a mask
    return pos, key, es


def warmup() -> str:
    """Run both kernels once on a tiny input; returns the engine name, "numpy"."""
    primes = np.array([5], dtype=np.int64)
    strike_segment(1, 3, primes, least_roots_bulk(primes))
    return "numpy"
