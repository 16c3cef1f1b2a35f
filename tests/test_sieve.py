import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import quadsieve.sieve as sieve
from quadsieve import (
    RangeError,
    Term,
    divisor_positions,
    enumerate_primes,
    first_k_basis,
    generator_root,
    is_prime,
    lemma2_witness,
    naive_factor,
    sieve_range,
    term_value,
)
from quadsieve._kernels import MAX_INDEX
from quadsieve.sieve import CHUNK_FLOOR, _segments, primes_1mod4, smallest_factor_table

from golden import FIRST_BASIS_8, GOLDEN_30, PRIME_INDICES_30


class TestGolden:
    def test_first_thirty_terms(self):
        terms = list(sieve_range(30))
        assert [t.n for t in terms] == list(range(1, 31))
        for term, (n, value, shown) in zip(terms, GOLDEN_30):
            assert term.n == n
            assert term.value == value
            if shown is not None:
                assert list(term.factors) == shown
            else:
                assert term.is_prime_term


class TestSieveRange:
    def test_matches_trial_division(self):
        for t in sieve_range(3000):
            assert list(t.factors) == naive_factor(t.value), t.n

    def test_matches_vectorized_trial_division_to_1e4(self):
        # independent full-scale check: divide every value by every prime
        # up to sqrt(max value), vectorized, and rebuild factorizations
        limit = 10_000
        flags = np.ones(20_002, dtype=bool)
        flags[:2] = False
        for p in range(2, 142):
            if flags[p]:
                flags[p * p :: p] = False
        primes = np.flatnonzero(flags).astype(np.int64)
        terms = list(sieve_range(limit))
        values = np.array([t.value for t in terms], dtype=np.int64)
        for start in range(0, limit, 2000):
            vals = values[start : start + 2000]
            hits = vals[:, None] % primes[None, :] == 0
            for row, t in zip(hits, terms[start : start + 2000]):
                rebuilt = []
                v = t.value
                for p in primes[row].tolist():
                    e = 0
                    while v % p == 0:
                        v //= p
                        e += 1
                    rebuilt.append((p, e))
                if v > 1:
                    rebuilt.append((v, 1))
                assert list(t.factors) == rebuilt, t.n

    def test_repeated_powers(self):
        by_n = {t.n: t for t in sieve_range(30)}
        assert by_n[19].factors == ((5, 1), (17, 2))
        assert by_n[9].factors == ((5, 2), (13, 1))

    def test_factor_classes_and_products_to_1e5(self):
        for seg in _segments(100_000, 65536, 1):
            seg.check()  # cofactors exhausted, products multiply back
            assert bool((seg.primes % 4 == 1).all())

    @given(
        n_max=st.integers(min_value=1, max_value=400),
        sizes=st.lists(st.integers(min_value=1, max_value=64), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_segment_independence(self, n_max, sizes):
        whole = list(sieve_range(n_max, n_max + 1, chunk_floor=1))
        for size in sizes:
            assert list(sieve_range(n_max, size, chunk_floor=1)) == whole

    def test_range_guard(self):
        with pytest.raises(RangeError):
            next(iter(sieve_range(MAX_INDEX + 1)))

    @given(
        hi=st.integers(min_value=1, max_value=200_000),
        width=st.integers(min_value=1, max_value=2000),
        size=st.sampled_from([1, 7, 64, 4096, 65536]),
        chunk_floor=st.sampled_from([1, CHUNK_FLOOR]),
    )
    @settings(max_examples=12, deadline=None)
    def test_window_is_slice_of_full_range(self, hi, width, size, chunk_floor):
        lo = max(1, hi - width + 1)
        window = list(sieve_range(hi, size, start=lo, chunk_floor=chunk_floor))
        assert window == [t for t in sieve_range(hi) if t.n >= lo]

    def test_window_bounds_refused(self):
        for start, n_max in ((0, 10), (-3, 10), (11, 10)):
            with pytest.raises(ValueError):
                next(iter(sieve_range(n_max, start=start)))

    def test_term_verify_catches_corruption(self):
        t = Term(4, 65, ((5, 1), (13, 1)))
        t.verify()
        with pytest.raises(Exception):
            Term(4, 65, ((13, 1),)).verify()


class TestPlanCoverage:
    def test_plan_for_a_smaller_range_is_refused(self):
        n = 100_000
        with pytest.raises(ValueError, match="plan"):
            next(_segments(n, 65536, 1, plan=sieve._plan(n // 2)))

    def test_plan_for_a_larger_range_is_refused(self):
        with pytest.raises(ValueError, match="plan"):
            next(_segments(1000, 65536, 1, plan=sieve._plan(2000)))

    def test_own_plan_is_accepted(self):
        for n in (1, 2, 3, 1000, 100_000):
            segs = list(_segments(n, 65536, 1, plan=sieve._plan(n)))
            assert segs[-1].hi == n + 1

    def test_top_prime_matches_the_plan(self):
        for limit in range(2, 3000):
            primes = primes_1mod4(limit)
            expected = int(primes[-1]) if primes.size else None
            assert sieve._top_prime_1mod4(limit) == expected, limit


class TestDivisorPositions:
    def test_examples(self):
        assert divisor_positions(5, 16) == [1, 4, 6, 9, 11, 14, 16]
        assert divisor_positions(13, 30) == [4, 9, 17, 22, 30]
        assert divisor_positions(29, 6) == [6]

    def test_completeness_small_primes(self):
        idx = np.arange(1, 10_001, dtype=np.int64)
        values = 4 * idx * idx + 1
        for p in primes_1mod4(100).tolist():
            scan = (np.flatnonzero(values % p == 0) + 1).tolist()
            assert divisor_positions(p, 10_000) == scan, p


class TestEnumeratePrimes:
    def test_limit_10(self):
        assert enumerate_primes(10) == [1, 2, 3, 5, 7, 8, 10]

    def test_limit_30(self):
        assert enumerate_primes(30) == PRIME_INDICES_30

    def test_limit_1(self):
        assert enumerate_primes(1) == [1]

    def test_agrees_with_primality(self):
        flagged = set(enumerate_primes(2000))
        for n in range(1, 2001):
            assert (n in flagged) == is_prime(term_value(n)), n


class TestFirstKBasis:
    def test_first_eight(self):
        basis = first_k_basis(8)
        assert [(b.prime, b.first_index) for b in basis] == FIRST_BASIS_8

    def test_k_three_four_six(self):
        assert [b.prime for b in first_k_basis(3)] == [5, 17, 37]
        assert [b.prime for b in first_k_basis(4)] == [5, 17, 37, 13]
        assert [b.prime for b in first_k_basis(6)] == [5, 17, 37, 13, 101, 29]

    def test_first_index_equals_least_root(self):
        for b in first_k_basis(20):
            assert b.first_index == b.least_root

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            first_k_basis(0)

    def test_matches_primes_ordered_by_least_root(self):
        # independent construction: every prime whose least root is at most
        # R = the last first index lies below 4*R*R + 1; sort them by root
        basis = first_k_basis(60)
        bound = basis[-1].first_index
        by_root = sorted((generator_root(p), p) for p in primes_1mod4(4 * bound * bound + 1).tolist())
        assert [(b.first_index, b.prime) for b in basis] == by_root[:60]

    def test_missing_debuts_sieve_the_next_window(self, monkeypatch):
        windows = []

        def spy(n_max, *args, start=1, **kwargs):
            windows.append((start, n_max))
            return _segments(n_max, *args, start=start, **kwargs)

        monkeypatch.setattr(sieve, "_segments", spy)
        first_k_basis(200)
        assert len(windows) > 1
        # consecutive windows, never a restart from n = 1
        for (_, prev_hi), (lo, _) in zip(windows, windows[1:]):
            assert lo == prev_hi + 1


class TestLemma2Witness:
    def test_examples(self):
        assert lemma2_witness(4)  # shares factor 5 with the first term
        assert lemma2_witness(3)  # coprime to predecessors and prime

    def test_holds_to_2000(self):
        assert all(lemma2_witness(n) for n in range(2, 2001))

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            lemma2_witness(1)


class TestSmallestFactorTable:
    def test_spot_values(self):
        spf = smallest_factor_table(100)
        assert spf[2] == 2 and spf[9] == 3 and spf[91] == 7 and spf[97] == 97
