"""Named verification suites behind the `verify` CLI command.

Each suite checks one proved property of the sequence 4*n*n + 1 against
independent computation at a caller-chosen scale and reports concrete
counterexamples instead of asserting, so a failure is inspectable.  The
suite names (lemma1 .. lemma5, eq1, main-identity, second-proof) are part
of the CLI contract.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field

import numpy as np

from . import modarith, oracle
from ._kernels import check_index_range, least_roots_bulk
from .census import (
    check_identity_k,
    check_witness_k,
    exact_coprime_count,
    inclusion_exclusion_count,
    second_proof_witness,
    verify_main_identity,
)
from .errors import QuadsieveError
from .roots import extend_roots, root_summary
from .sieve import (
    Term,
    _plan,
    _segments,
    first_k_basis,
    primes_1mod4,
    sieve_range,
    term_value,
)

_MAX_REPORTED = 10

_EQ1_SEED = 0x5EED  # fixed so identical flags reproduce identical output
_EQ1_CASES = 200

_GCD_BLOCK = 256  # earlier values per np.gcd call in lemma2_witness

DEFAULT_LIMITS = {
    "lemma1": 100_000,
    "lemma2": 10_000,
    "lemma3": 100_000,
    "lemma4": 100_000,
    "lemma5": 1_000,
    "eq1": 10_000,
    "main-identity": 4,
    "second-proof": 4,
}


@dataclass
class SuiteResult:
    suite: str
    limit: int
    cases: int = 0
    failures: int = 0
    examples: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def fail(self, message: str) -> None:
        self.failures += 1
        if len(self.examples) < _MAX_REPORTED:
            self.examples.append(message)


def iter_pp(limit: int):
    """Yield (m, factors, root_set) for odd m <= limit with all primes = 1 (mod 4).

    These m are the products of primes_1mod4(limit), popped in ascending
    order from a heap.  An entry (m, b, factors of b, root set of b, j, e, z)
    stands for m = b * primes[j]**e with every prime of b below primes[j],
    and z is one root mod primes[j]**e; b = 1 has no root set (None).
    Each m has exactly one entry, pushed when a smaller m that differs from
    it only in the last prime power is popped, so the heap holds just the
    frontier.

    No root set is built twice: every prime's root comes from one
    least_roots_bulk call over the sieved primes, a higher power's from the
    entry one power down by one hensel_lift, and the root set of m from
    that of b by one roots.extend_roots, which checks each prime's root by
    substitution at m = p.  The limit is refused here, at the call; a fault
    in the kernel or in a root construction is raised from the walk.
    """
    return _walk_pp(primes_1mod4(limit), limit)


def _walk_pp(primes: np.ndarray, limit: int):
    prime_roots = least_roots_bulk(primes).tolist()  # in the walk, so lemma4 records a fault
    primes = primes.tolist()
    heap = [(5, 1, (), None, 0, 1, prime_roots[0])] if primes else []
    while heap:
        m, b, base, base_set, j, e, z = heapq.heappop(heap)
        p = primes[j]
        factors = (*base, (p, e))
        root_set = extend_roots(base_set, m // b, z)
        yield m, factors, root_set
        nxt = primes[j + 1] if j + 1 < len(primes) else limit + 1
        if e == 1 and b * nxt <= limit:  # next prime in place of p
            heapq.heappush(heap, (b * nxt, b, base, base_set, j + 1, 1, prime_roots[j + 1]))
        if m * p <= limit:  # one more power of p, its root lifted from z
            lifted = modarith.hensel_lift(z, p, e + 1)
            heapq.heappush(heap, (m * p, b, base, base_set, j, e + 1, lifted))
        if m * nxt <= limit:  # a new largest prime after p**e
            heapq.heappush(heap, (m * nxt, m, factors, root_set, j + 1, 1, prime_roots[j + 1]))


def lemma2_witness(n: int) -> bool:
    """Check at index n that coprimality with all earlier terms implies primality.

    Returns False only on a counterexample: a composite value coprime to
    every earlier one.  A prime value satisfies the implication directly;
    a composite one is scanned against the earlier values a block at a
    time, and the first shared factor satisfies it vacuously.
    """
    if n < 2:
        raise ValueError(f"witness needs n >= 2, got {n}")
    check_index_range(n)
    v = term_value(n)
    if modarith.is_prime(v):
        return True
    for lo in range(1, n, _GCD_BLOCK):
        earlier = np.arange(lo, min(lo + _GCD_BLOCK, n), dtype=np.int64)
        if bool((np.gcd(4 * earlier * earlier + 1, v) != 1).any()):
            return True
    return False


def suite_lemma1(limit: int) -> SuiteResult:
    """Divisor classes: Term.verify certifies every sieved term's factors as
    primes in 1 mod 4 that multiply back; odd moduli with a factor = 3 (mod 4)
    have a class-3 prime factor whose exhaustive root scan is empty."""
    res = SuiteResult("lemma1", limit)
    for term in sieve_range(limit):
        res.cases += 1
        try:
            term.verify()
        except QuadsieveError as exc:
            res.fail(str(exc))
    # a root mod m is a root mod every divisor of m, so one rootless prime
    # q = 3 (mod 4) dividing m proves that m has no root
    for m in range(3, min(limit, 100_000) + 1, 2):
        class3 = [p for p, _ in oracle.naive_factor(m) if p % 4 == 3]
        if not class3:
            continue
        res.cases += 1
        found = oracle.naive_root_scan(class3[0])
        if found:
            res.fail(f"m={m} has factor {class3[0]} in class 3 mod 4 yet roots {found[:4]}")
    return res


def suite_lemma2(limit: int) -> SuiteResult:
    """Coprimality with every earlier term implies the term is prime."""
    res = SuiteResult("lemma2", limit)
    for n in range(2, limit + 1):
        res.cases += 1
        if not lemma2_witness(n):
            res.fail(f"n={n}: value {term_value(n)} coprime to predecessors but composite")
    return res


def suite_lemma3(limit: int) -> SuiteResult:
    """Strike progressions are complete: where the sieve's own segments put
    each of the first 25 basis primes matches a direct divisibility scan."""
    res = SuiteResult("lemma3", limit)
    basis = np.array([b.prime for b in first_k_basis(25)], dtype=np.int64)
    pos, ps = [], []
    for seg in _segments(_plan(limit)):
        keep = np.isin(seg.primes, basis)
        pos.append(seg.positions[keep])
        ps.append(seg.primes[keep])
    pos, ps = np.concatenate(pos), np.concatenate(ps)
    idx = np.arange(1, limit + 1, dtype=np.int64)
    values = 4 * idx * idx + 1
    for p in basis.tolist():
        res.cases += 1
        struck = pos[ps == p].tolist()  # ascending: segments come in index order
        scanned = (np.flatnonzero(values % p == 0) + 1).tolist()
        if struck != scanned:
            diff = set(struck) ^ set(scanned)
            res.fail(f"p={p}: struck positions differ from scan at {sorted(diff)[:5]}")
    return res


def suite_lemma4(limit: int) -> SuiteResult:
    """Least-root bounds: sqrt(m-1)/2 <= r <= (m-1)/2 and cofactor <= m-2.

    One loop over the walk.  A least root outside the bounds is a
    counterexample at its m, and the loop goes on.  A fault while iter_pp
    builds a root set (the prime-root kernel, or a prime root, lift or CRT
    that fails its own check) leaves the loop and is recorded as one
    failure, never raised: every later root set depends on it.
    """
    res = SuiteResult("lemma4", limit)
    walk = iter_pp(limit)  # an out-of-range limit is refused here, not recorded
    try:
        for m, _, root_set in walk:
            res.cases += 1
            try:
                root_summary(root_set)  # RootSummary refuses a root outside the bounds
            except AssertionError as exc:  # all that root_summary raises on a built set
                res.fail(f"m={m}: {exc}")
    except (QuadsieveError, AssertionError, ValueError) as exc:
        res.fail(f"walk stopped after {res.cases} root sets: {exc}")
    return res


def suite_lemma5(limit: int) -> SuiteResult:
    """First appearance in first power: least root of p beats least root of p**2."""
    res = SuiteResult("lemma5", limit)
    for p in primes_1mod4(limit).tolist():
        res.cases += 1
        r1 = root_summary(p, [(p, 1)]).least_root
        r2 = root_summary(p * p, [(p, 2)]).least_root
        if not r1 < r2:
            res.fail(f"p={p}: r(p)={r1} not below r(p^2)={r2}")
    return res


def suite_eq1(limit: int) -> SuiteResult:
    """Counting identity: alternating divisor sum equals both direct counts."""
    res = SuiteResult("eq1", limit)
    rng = random.Random(_EQ1_SEED)
    pool = list(first_k_basis(8))
    horizon_cap = min(limit, 10_000)
    for _ in range(_EQ1_CASES):
        res.cases += 1
        basis = rng.sample(pool, rng.randint(1, 4))
        basis.sort(key=lambda b: b.least_root)
        horizon = rng.randint(1, horizon_cap)
        ie = inclusion_exclusion_count(basis, horizon)
        exact = exact_coprime_count(basis, horizon)
        naive = oracle.naive_coprime_count([b.prime for b in basis], horizon)
        if not (ie == exact == naive):
            primes = [b.prime for b in basis]
            res.fail(f"basis={primes} horizon={horizon}: ie={ie} exact={exact} naive={naive}")
    return res


def suite_main_identity(limit: int) -> SuiteResult:
    """At horizon N both counts collapse to the product of (p - 2)."""
    res = SuiteResult("main-identity", limit)
    for k in range(1, limit + 1):
        res.cases += 1
        report = verify_main_identity(k)
        if not (report.counts_agree and report.product_matches):
            res.fail(
                f"k={k}: ie={report.ie_count} exact={report.exact_count} "
                f"product={report.product_value}"
            )
    return res


def suite_second_proof(limit: int) -> SuiteResult:
    """The value at index N is coprime to every basis prime; Term.verify certifies its factors."""
    res = SuiteResult("second-proof", limit)
    for k in range(1, limit + 1):
        res.cases += 1
        w = second_proof_witness(k)
        if any(g != 1 for g in w.gcds):
            res.fail(f"k={k}: gcds {w.gcds} not all 1")
        for p in sorted({p for p, _ in w.factors} & {b.prime for b in w.basis}):
            res.fail(f"k={k}: factor {p} is a basis prime")
        try:
            Term(w.n_product, w.value, w.factors).verify()
        except QuadsieveError as exc:
            res.fail(f"k={k}: {exc}")
        if w.value_is_prime != (len(w.factors) == 1 and w.factors[0][1] == 1):
            res.fail(f"k={k}: primality flag disagrees with factorization")
    return res


SUITES = {
    "lemma1": suite_lemma1,
    "lemma2": suite_lemma2,
    "lemma3": suite_lemma3,
    "lemma4": suite_lemma4,
    "lemma5": suite_lemma5,
    "eq1": suite_eq1,
    "main-identity": suite_main_identity,
    "second-proof": suite_second_proof,
}


# the refusal each suite would meet at its start, checked before it runs
_LIMIT_GUARDS = {
    "lemma1": check_index_range,
    "lemma2": check_index_range,
    "lemma3": check_index_range,
    "main-identity": check_identity_k,
    "second-proof": check_witness_k,
}


def check_limit(name: str, limit: int | None = None) -> int:
    """The limit that run_suite(name, limit) runs at, or the refusal it would raise."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    if limit is None:
        limit = DEFAULT_LIMITS[name]
    if limit < 1:
        raise ValueError(f"limit must be >= 1, got {limit}")
    if name in _LIMIT_GUARDS:
        _LIMIT_GUARDS[name](limit)
    return limit


def run_suite(name: str, limit: int | None = None) -> SuiteResult:
    limit = check_limit(name, limit)  # refused before the suite starts work
    return SUITES[name](limit)
