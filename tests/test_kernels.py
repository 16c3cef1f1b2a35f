import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quadsieve._kernels as kernels

from quadsieve import (
    generator_root,
    is_prime,
    naive_factor,
    sqrt_minus_one,
    term_value,
    terms_digest,
    warmup,
)
from quadsieve._kernels import MAX_INDEX, check_index_range, least_roots_bulk, strike_segment
from quadsieve.errors import BadFactorizationError, RangeError
from quadsieve.sieve import SieveSegment, primes_1mod4

from golden import DIGEST_1E6


class TestEngineSelection:
    def test_warmup_names_the_only_engine(self):
        assert warmup() == "numpy"

    def test_index_ceiling(self):
        check_index_range(MAX_INDEX)
        with pytest.raises(RangeError):
            check_index_range(MAX_INDEX + 1)
        assert 4 * MAX_INDEX**2 + 1 < 2**63
        assert 4 * (MAX_INDEX + 1) ** 2 + 1 >= 2**63


class TestLeastRootsBulk:
    def test_matches_scalar_construction(self):
        primes = primes_1mod4(20_000)
        for p, r in zip(primes.tolist(), least_roots_bulk(primes).tolist()):
            assert r == sqrt_minus_one(p) == generator_root(p), p

    def test_top_of_index_range(self):
        # p*p comes within 2**35 of 2**63 here, where an int64 overflow in
        # square-and-multiply would show
        primes, p = [], 2 * MAX_INDEX - 1
        while len(primes) < 20:
            if is_prime(p):
                primes.append(p)
            p -= 4
        primes = np.array(primes[::-1], dtype=np.int64)
        for p, r in zip(primes.tolist(), least_roots_bulk(primes).tolist()):
            assert (4 * r * r + 1) % p == 0 and 1 <= r <= (p - 1) // 2, p
            assert r == sqrt_minus_one(p) == generator_root(p), p

    def test_refuses_primes_it_cannot_root(self):
        with pytest.raises(RangeError):  # p*p would wrap in int64
            least_roots_bulk(np.array([2 * MAX_INDEX + 3]))
        with pytest.raises(BadFactorizationError):  # 25 is not prime
            least_roots_bulk(np.array([5, 25]))


class TestStrikeSegment:
    def test_cofactor_all_ones_after_completion(self):
        primes = primes_1mod4(600)
        roots = least_roots_bulk(primes)
        _, _, _, cof = strike_segment(100, 300, primes, roots)
        assert bool((cof == 1).all())

    @given(lo=st.integers(1, 200_000), width=st.integers(1, 3000))
    @settings(max_examples=10, deadline=None)
    def test_matches_trial_division(self, lo, width):
        hi = lo + width
        primes = primes_1mod4(2 * hi)
        roots = least_roots_bulk(primes)
        pos, ps, es, cof = strike_segment(lo, hi, primes, roots)
        assert bool((cof == 1).all())
        got: dict[int, list] = {}
        for n, p, e in zip(pos.tolist(), ps.tolist(), es.tolist()):
            got.setdefault(n, []).append((p, e))
        assert list(got) == list(range(lo, hi))
        for n, factors in got.items():
            assert factors == naive_factor(term_value(n)), n

    @given(
        lo=st.integers(1, 1_000_000),
        # both sides of 2**16, so the radix order's second digit pass runs
        width=st.one_of(st.integers(1, 1 << 16), st.integers((1 << 16) + 1, 140_000)),
    )
    @example(lo=1, width=1 << 16)
    @example(lo=1, width=(1 << 16) + 1)
    @settings(max_examples=12, deadline=None)
    def test_entries_come_in_position_then_prime_order(self, lo, width):
        hi = lo + width
        primes = primes_1mod4(2 * hi)
        pos, ps, es, cof = strike_segment(lo, hi, primes, least_roots_bulk(primes))
        order = np.lexsort((ps, pos))
        for got in (pos, ps, es):
            assert np.array_equal(got, got[order])
        SieveSegment(lo, hi, pos, ps, es, cof).check()

    def test_duplicated_hit_fails_multiply_back(self, monkeypatch):
        original = kernels._hits

        def duplicate_first(*args):
            pos, ps = original(*args)
            return np.append(pos, pos[:1]), np.append(ps, ps[:1])

        monkeypatch.setattr(kernels, "_hits", duplicate_first)
        primes = primes_1mod4(600)
        with pytest.raises(AssertionError, match="do not divide"):
            strike_segment(100, 300, primes, least_roots_bulk(primes))

    def test_corrupt_root_raises_instead_of_hanging(self):
        # a pair that does not divide must trip the zero-exponent guard; the
        # subprocess timeout turns a regression into a failure, not a hang
        code = (
            "from quadsieve._kernels import least_roots_bulk, strike_segment\n"
            "from quadsieve.sieve import primes_1mod4\n"
            "primes = primes_1mod4(200)\n"
            "roots = least_roots_bulk(primes)\n"
            "roots[primes == 13] = 1\n"
            "try:\n"
            "    strike_segment(1, 100, primes, roots)\n"
            "except AssertionError:\n"
            "    print('raised')\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert out.stdout.strip() == "raised", out.stderr


class TestDigest:
    def test_digest_independent_of_everything(self):
        reference = terms_digest(800, 65536)
        for seg in (1, 3, 64, 511):
            for workers in (1, 3):
                got = terms_digest(800, seg, workers=workers, chunk_floor=1)
                assert got == reference, (seg, workers)

    def test_digest_1e6_on_both_sides_of_the_second_radix_pass(self):
        digests = {terms_digest(10**6, seg) for seg in (4096, 65536, 65537, 262144)}
        digests.add(terms_digest(10**6, workers=2))
        assert digests == {DIGEST_1E6}
