import math
import random

import pytest

from quadsieve import (
    RangeError,
    first_k_basis,
    naive_coprime_count,
    naive_factor,
    naive_root_scan,
)
from quadsieve.oracle import NAIVE_COUNT_CAP
from quadsieve.sieve import term_value

# a prime above every value 4*n**2 + 1 under the cap, and above int64 too
_HUGE_PRIME = 2**64 - 59


def _gcd_count(primes, horizon):
    """The definition itself: one gcd per term against the basis product."""
    product = math.prod(primes)
    return sum(1 for n in range(1, horizon + 1) if math.gcd(4 * n * n + 1, product) == 1)


class TestNaiveFactor:
    def test_examples(self):
        assert naive_factor(65) == [(5, 1), (13, 1)]
        assert naive_factor(1025) == [(5, 2), (41, 1)]
        assert naive_factor(5) == [(5, 1)]

    def test_multiplies_back(self):
        for n in range(1, 2001):
            v = term_value(n)
            prod = 1
            for p, e in naive_factor(v):
                prod *= p**e
            assert prod == v

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            naive_factor(10)


class TestNaiveRootScan:
    def test_examples(self):
        assert naive_root_scan(9) == []
        assert naive_root_scan(13) == [4, 9]
        assert naive_root_scan(65) == [4, 9, 56, 61]

    def test_nonempty_iff_all_factors_1mod4(self):
        for m in range(3, 3001, 2):
            all_good = all(p % 4 == 1 for p, _ in naive_factor(m))
            assert bool(naive_root_scan(m)) == all_good, m

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            naive_root_scan(8)


class TestNaiveCoprimeCount:
    def test_examples(self):
        assert naive_coprime_count([5], 5) == 3
        assert naive_coprime_count([5, 17], 85) == 45
        assert naive_coprime_count([5], 0) == 0

    def test_empty_basis(self):
        assert naive_coprime_count([], 17) == 17

    def test_matches_term_by_term_gcd(self):
        pool = list(first_k_basis(10))
        rng = random.Random(0xC0DE)
        for case in range(40):
            primes = [b.prime for b in rng.sample(pool, rng.randint(0, 6))]
            if case % 3 == 0:
                primes.append(_HUGE_PRIME)
            horizon = 0 if case == 0 else 20_000 if case == 1 else rng.randint(0, 20_000)
            assert naive_coprime_count(primes, horizon) == _gcd_count(primes, horizon), (
                primes,
                horizon,
            )

    def test_matches_term_by_term_gcd_at_cap(self):
        primes = [b.prime for b in first_k_basis(4)] + [_HUGE_PRIME]
        expected = _gcd_count(primes, NAIVE_COUNT_CAP)
        assert naive_coprime_count(primes, NAIVE_COUNT_CAP) == expected

    def test_cap(self):
        with pytest.raises(RangeError):
            naive_coprime_count([5], 10**6 + 1)
