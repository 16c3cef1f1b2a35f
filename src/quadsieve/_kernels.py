"""Hot inner loops behind the sieve, in two interchangeable engines.

The default engine compiles the per-segment strike loop and the bulk
root computation with numba's @njit (nogil, cached).  A numpy fallback
of whole-array passes produces bit-identical results; select it by
setting the environment variable QUADSIEVE_ENGINE=numpy (or force the
compiled path with QUADSIEVE_ENGINE=numba, which raises if numba is
missing).  Every public entry point also takes an explicit engine
argument overriding the environment.

Everything is int64 inside the kernels, hence the hard index ceiling:
4*n*n + 1 and the squares of candidate primes p <= 2*n must stay below
2**63.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import BadFactorizationError, RangeError

# largest n with 4*n*n + 1 < 2**63; also keeps p*p < 2**63 for p <= 2*n
MAX_INDEX = 1_518_500_249

# a value below 2**63 has at most 11 distinct prime factors >= 5, and the
# strike kernel records one entry per distinct prime per index
_FACTOR_SLOTS = 12

_ENV_VAR = "QUADSIEVE_ENGINE"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - exercised only without numba installed
    njit = None
    HAVE_NUMBA = False


def default_engine() -> str:
    """Engine picked by the environment: QUADSIEVE_ENGINE, else auto."""
    env = os.environ.get(_ENV_VAR, "").strip().lower()
    if env in ("numba", "numpy"):
        return env
    if env not in ("", "auto"):
        raise ValueError(f"{_ENV_VAR} must be 'numba' or 'numpy', got {env!r}")
    return "numba" if HAVE_NUMBA else "numpy"


def resolve_engine(engine: str | None = None) -> str:
    eng = default_engine() if engine in (None, "", "auto") else engine.lower()
    if eng not in ("numba", "numpy"):
        raise ValueError(f"unknown engine {engine!r}")
    if eng == "numba" and not HAVE_NUMBA:
        raise RangeError("numba engine requested but numba is not importable")
    return eng


def check_index_range(n_max: int) -> None:
    if n_max > MAX_INDEX:
        raise RangeError(f"index {n_max} exceeds the int64 ceiling {MAX_INDEX}")


# ---------------------------------------------------------------------------
# numba engine
# ---------------------------------------------------------------------------

if HAVE_NUMBA:

    @njit(nogil=True, cache=True)
    def _pow_mod_jit(base, exp, m):
        r = 1
        b = base % m
        while exp > 0:
            if exp & 1:
                r = r * b % m
            b = b * b % m
            exp >>= 1
        return r

    @njit(nogil=True, cache=True)
    def _least_roots_jit(primes, out):
        for j in range(primes.size):
            p = primes[j]
            e = (p - 1) // 2
            c = 2
            while _pow_mod_jit(c, e, p) != p - 1:
                c += 1
            s = _pow_mod_jit(c, (p - 1) // 4, p)
            r = s * ((p + 1) // 2) % p
            if p - r < r:
                r = p - r
            out[j] = r

    @njit(nogil=True, cache=True)
    def _strike_jit(lo, hi, primes, roots, out_pos, out_p, out_e):
        n = hi - lo
        cof = np.empty(n, np.int64)
        for i in range(n):
            idx = lo + i
            cof[i] = 4 * idx * idx + 1
        cnt = 0
        for j in range(primes.size):
            p = primes[j]
            for branch in range(2):
                root = roots[j] if branch == 0 else p - roots[j]
                for off in range((root - lo) % p, n, p):
                    c = cof[off]
                    e = 0
                    while c % p == 0:
                        c //= p
                        e += 1
                    cof[off] = c
                    out_pos[cnt] = lo + off
                    out_p[cnt] = p
                    out_e[cnt] = e
                    cnt += 1
        for i in range(n):
            if cof[i] > 1:
                out_pos[cnt] = lo + i
                out_p[cnt] = cof[i]
                out_e[cnt] = 1
                cof[i] = 1
                cnt += 1
        return cnt, cof


# ---------------------------------------------------------------------------
# numpy fallback: whole-array passes, never a Python loop per prime
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
    p, off = primes[j[order]], off[order]
    # each (prime, offset) pair expands to off, off + p, ... below n
    counts = (n - 1 - off) // p + 1
    step = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    ps = np.repeat(p, counts)
    pos = np.repeat(off, counts) + step * ps
    # exponents count from zero, so a pair that does not divide leaves a 0
    es = np.zeros(pos.size, dtype=np.int64)
    at, v, d = np.arange(pos.size), cof[pos], ps
    while at.size:
        q, r = np.divmod(v, d)
        hit = r == 0
        at, v, d = at[hit], q[hit], d[hit]
        es[at] += 1
    prod = np.ones(n, dtype=np.int64)
    np.multiply.at(prod, pos, ps**es)
    cof //= prod
    # a leftover above 1 is a prime beyond every struck one: appended, it sorts last
    left = np.flatnonzero(cof > 1)
    pos, ps = np.concatenate([pos, left]), np.concatenate([ps, cof[left]])
    es = np.concatenate([es, np.ones(left.size, dtype=np.int64)])
    cof[left] = 1
    order = np.argsort(pos, kind="stable")  # ties keep ascending prime order
    return pos[order] + lo, ps[order], es[order], cof


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------


def least_roots_bulk(primes: np.ndarray, engine: str | None = None) -> np.ndarray:
    """Least roots of 4*z**2 + 1 = 0 (mod p) for an array of primes = 1 mod 4."""
    if primes.size == 0:
        return np.empty(0, dtype=np.int64)
    if primes.max() > 2 * MAX_INDEX:  # p*p must stay below 2**63
        raise RangeError(f"prime {primes.max()} exceeds the int64 ceiling {2 * MAX_INDEX}")
    if resolve_engine(engine) == "numba":
        out = np.empty(primes.size, dtype=np.int64)
        _least_roots_jit(primes, out)
        return out
    return _least_roots_np(primes)


def strike_segment(lo: int, hi: int, primes: np.ndarray, roots: np.ndarray, engine: str | None = None):
    """Factor indices [lo, hi) against (prime, root) pairs.

    Returns (positions, primes, exponents, cofactor) where the first three
    are parallel arrays sorted by position (ties already in ascending prime
    order) and cofactor is all ones once every factor is accounted for.
    """
    if resolve_engine(engine) == "numba":
        cap = _FACTOR_SLOTS * (hi - lo) + 8
        out_pos = np.empty(cap, dtype=np.int64)
        out_p = np.empty(cap, dtype=np.int64)
        out_e = np.empty(cap, dtype=np.int64)
        cnt, cof = _strike_jit(lo, hi, primes, roots, out_pos, out_p, out_e)
        order = np.argsort(out_pos[:cnt], kind="stable")
        pos, ps, es = out_pos[order], out_p[order], out_e[order]
    else:
        pos, ps, es, cof = _strike_np(lo, hi, primes, roots)
    # a marked position must actually be divisible; zero exponent means a bug
    if es.size and es.min() <= 0:
        raise AssertionError("strike kernel marked an index its prime does not divide")
    return pos, ps, es, cof


def warmup(engine: str | None = None) -> str:
    """Trigger JIT compilation (or a no-op for numpy); returns the engine used."""
    eng = resolve_engine(engine)
    primes = np.array([5], dtype=np.int64)
    roots = least_roots_bulk(primes, eng)
    strike_segment(1, 3, primes, roots, eng)
    return eng
