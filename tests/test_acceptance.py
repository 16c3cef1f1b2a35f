"""Acceptance gate: every criterion at its stated tolerance, timed.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All checks are exact; the time limits are the stated ones.
"""

import math
import random
import time

import numpy as np
import pytest

from quadsieve import (
    first_k_basis,
    is_prime,
    second_proof_witness,
    sieve_range,
    terms_digest,
    verify_main_identity,
)
from quadsieve.sieve import _digest, _segments
from quadsieve.suites import run_suite

from golden import (
    DIGEST_1E6,
    DIGEST_1E7,
    EXPLICIT_FACTORIZATION_COUNT,
    FIRST_BASIS_25_PRIMES,
    GOLDEN_30,
    MAIN_IDENTITY_VALUES,
)


def report(num: int, ok: bool, desc: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} - {desc} ({elapsed:.2f}s)")


def timed(budget: float):
    start = time.perf_counter()

    def done() -> float:
        elapsed = time.perf_counter() - start
        assert elapsed < budget, f"exceeded {budget}s budget: {elapsed:.2f}s"
        return elapsed

    return done


def test_criterion_01_golden_table():
    done = timed(1.0)
    terms = list(sieve_range(30))
    ok = [t.n for t in terms] == list(range(1, 31))
    shown = 0
    for term, (n, value, factors) in zip(terms, GOLDEN_30):
        ok = ok and term.value == value
        if factors is not None:
            shown += 1
            ok = ok and list(term.factors) == factors
        else:
            ok = ok and term.is_prime_term
    ok = ok and shown == EXPLICIT_FACTORIZATION_COUNT == 17
    elapsed = done()
    report(1, ok, "golden table 1..30 reproduced exactly (17 explicit factorizations)", elapsed)
    assert ok


def test_criterion_02_lemma1_divisor_classes():
    done = timed(60.0)
    result = run_suite("lemma1", 100_000)
    elapsed = done()
    report(
        2,
        result.ok,
        f"factors in class 1 mod 4 and class-3 moduli rootless ({result.cases} cases)",
        elapsed,
    )
    assert result.ok, result.examples


def test_criterion_03_lemma2_coprime_implies_prime():
    done = timed(60.0)
    result = run_suite("lemma2", 10_000)
    elapsed = done()
    report(3, result.ok, f"coprime-to-predecessors implies prime ({result.cases} cases)", elapsed)
    assert result.ok, result.examples


def test_criterion_04_lemma3_strike_positions():
    done = timed(30.0)
    basis = first_k_basis(25)
    ok = [b.prime for b in basis] == FIRST_BASIS_25_PRIMES
    result = run_suite("lemma3", 100_000)
    elapsed = done()
    report(
        4,
        ok and result.ok,
        f"divisor positions match direct scans for first 25 basis primes to 1e5",
        elapsed,
    )
    assert ok
    assert result.ok, result.examples


def test_criterion_05_lemma4_root_bounds():
    done = timed(60.0)
    result = run_suite("lemma4", 100_000)
    elapsed = done()
    report(5, result.ok, f"least-root and cofactor bounds for {result.cases} moduli", elapsed)
    assert result.ok, result.examples


def test_criterion_06_lemma5_first_power():
    done = timed(10.0)
    result = run_suite("lemma5", 1_000)
    elapsed = done()
    report(6, result.ok, f"r(p) < r(p^2) for {result.cases} primes to 1000", elapsed)
    assert result.ok, result.examples


def test_criterion_07_eq1_exactness():
    done = timed(60.0)
    result = run_suite("eq1", 10_000)
    ok = result.ok and result.cases == 200
    elapsed = done()
    report(7, ok, "counting identity on 200 randomized bases/horizons", elapsed)
    assert ok, result.examples


def test_criterion_08_main_identity():
    done = timed(10.0)
    ok = True
    for k, expected in MAIN_IDENTITY_VALUES.items():
        rep = verify_main_identity(k)
        ok = ok and (rep.ie_count == rep.exact_count == rep.product_value == expected)
    elapsed = done()
    report(8, ok, "identity at horizon N gives 3, 45, 1575, 17325 for k=1..4", elapsed)
    assert ok


def test_criterion_09_second_proof_witness():
    done = timed(1.0)
    ok = True
    for k in range(1, 5):
        w = second_proof_witness(k)
        ok = ok and all(g == 1 for g in w.gcds)
    w1 = second_proof_witness(1)
    ok = ok and w1.value == 101 and w1.value_is_prime
    elapsed = done()
    report(9, ok, "witness coprime to its basis for k=1..4; k=1 gives the prime 101", elapsed)
    assert ok


def test_criterion_10_determinism_and_parallelism():
    done = timed(120.0)
    n = 10**6
    digests = {
        terms_digest(n, seg, workers=w)
        for seg in (1, 4096, 65536)
        for w in (1, 4)
    }
    ok = digests == {DIGEST_1E6}
    elapsed = done()
    report(10, ok, "terms 1..10^6 digest fixed across segment sizes and workers", elapsed)
    assert ok, digests


@pytest.mark.slow
def test_digest_1e7_pinned_and_sampled():
    done = timed(300.0)
    n = 10**7
    sample = sorted(random.Random(10**7).sample(range(1, n + 1), 1000))
    checked = []

    def with_sample_checked(segments):
        # each sampled term on its own: prime factors, ascending, multiplying back
        for seg in segments:
            for m in sample[len(checked) :]:
                if m >= seg.hi:
                    break
                a, b = np.searchsorted(seg.positions, [m, m + 1])
                ps, es = seg.primes[a:b].tolist(), seg.exponents[a:b].tolist()
                assert all(is_prime(p) and p % 4 == 1 for p in ps), m
                assert ps == sorted(set(ps)), m
                assert math.prod(p**e for p, e in zip(ps, es)) == 4 * m * m + 1, m
                checked.append(m)
            yield seg

    ok = _digest(with_sample_checked(_segments(n, 65536, 1))) == DIGEST_1E7
    ok = ok and checked == sample
    ok = ok and terms_digest(n, 262144, workers=2) == DIGEST_1E7
    elapsed = done()
    report(11, ok, "terms 1..10^7 digest pinned; 1000 sampled terms checked by is_prime", elapsed)
    assert ok
