import pytest

from quadsieve import RangeError, naive_coprime_count, naive_factor, naive_root_scan
from quadsieve.sieve import term_value


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

    def test_cap(self):
        with pytest.raises(RangeError):
            naive_coprime_count([5], 10**6 + 1)
