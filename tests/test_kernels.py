import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import quadsieve._kernels as kernels

from quadsieve import (
    generator_root,
    is_prime,
    oracle,
    sqrt_minus_one,
    term_value,
    terms_digest,
    warmup,
)
from quadsieve._kernels import MAX_INDEX, check_index_range, least_roots_bulk, strike_segment
from quadsieve.errors import BadFactorizationError, RangeError
from quadsieve.sieve import CHUNK_FLOOR, SieveSegment, primes_1mod4

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

    def test_strike_key_layout_fits(self):
        # a strike key is offset << 32 | prime, with 2**32 - 1 kept for leftovers
        assert MAX_INDEX < 2**31
        assert 2 * MAX_INDEX < 2**32 - 1


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


class TestHits:
    @given(
        n=st.integers(1, 300),
        pairs=st.lists(st.tuples(st.integers(1, 400), st.integers(0, 299)), max_size=25),
    )
    @example(n=1, pairs=[(5, 0)])  # a single pair with a single hit
    @example(n=40, pairs=[(13, 39), (50, 2), (1, 0), (7, 39)])  # off = n - 1 and one-hit pairs
    @settings(max_examples=60, deadline=None)
    def test_matches_the_progressions_in_pair_order(self, n, pairs):
        pairs = [(p, off % n) for p, off in pairs]
        p = np.array([p for p, _ in pairs], dtype=np.int64)
        off = np.array([off for _, off in pairs], dtype=np.int64)
        pos, ps = kernels._hits(n, p, off)
        want = [(off + k * q, q) for q, off in pairs for k in range(n) if off + k * q < n]
        assert pos.dtype == ps.dtype == np.int64
        assert list(zip(pos.tolist(), ps.tolist())) == want


class TestStrikeSegment:
    @given(lo=st.integers(1, 200_000), width=st.integers(1, 3000))
    @settings(max_examples=10, deadline=None)
    def test_matches_trial_division(self, lo, width):
        # by unique factorization, ascending primes with positive exponents
        # that multiply to the value are what trial division would find
        hi = lo + width
        primes = primes_1mod4(2 * hi)
        roots = least_roots_bulk(primes)
        pos, ps, es = strike_segment(lo, hi, primes, roots)
        got: dict[int, list] = {}
        for n, p, e in zip(pos.tolist(), ps.tolist(), es.tolist()):
            got.setdefault(n, []).append((p, e))
        assert list(got) == list(range(lo, hi))
        for n, factors in got.items():
            assert [p for p, _ in factors] == sorted({p for p, _ in factors}), n
            assert all(p % 4 == 1 and is_prime(p) and e >= 1 for p, e in factors), n
            assert math.prod(p**e for p, e in factors) == term_value(n), n

    @given(
        lo=st.integers(1, 1_000_000),
        # both sides of 2**16, so some keys carry offsets above 16 bits
        width=st.one_of(st.integers(1, 1 << 16), st.integers((1 << 16) + 1, 140_000)),
    )
    @example(lo=1, width=1 << 16)
    @example(lo=1, width=(1 << 16) + 1)
    @settings(max_examples=12, deadline=None)
    def test_entries_come_in_position_then_prime_order(self, lo, width):
        hi = lo + width
        primes = primes_1mod4(2 * hi)
        pos, ps, es = strike_segment(lo, hi, primes, least_roots_bulk(primes))
        order = np.lexsort((ps, pos))
        for got in (pos, ps, es):
            assert np.array_equal(got, got[order])
        SieveSegment(lo, hi, pos, ps, es).check()

    def test_prime_powers_match_trial_division(self):
        # every index below 20000 with some p**e, e >= 2: its exponents are
        # placed by a search of the sorted keys, not by the sort itself
        primes = primes_1mod4(40_000)
        pos, ps, es = strike_segment(1, 20_000, primes, least_roots_bulk(primes))
        powered = np.unique(pos[es > 1]).tolist()
        start = np.searchsorted(pos, powered)
        stop = np.searchsorted(pos, powered, side="right")
        with_leftover = 0
        for n, a, b in zip(powered, start.tolist(), stop.tolist()):
            factors = list(zip(ps[a:b].tolist(), es[a:b].tolist()))
            assert factors == oracle.naive_factor(term_value(n)), n
            with_leftover += factors[-1][0] > 2 * n
        assert len(powered) > 2000 and with_leftover > 100

    def test_refuses_what_a_key_cannot_hold(self):
        with pytest.raises(RangeError, match=f"^prime {2 * MAX_INDEX + 3} exceeds the int64 ceiling"):
            strike_segment(1, 2, np.array([5, 2 * MAX_INDEX + 3]), np.array([1, 1]))
        with pytest.raises(RangeError, match=f"^index {MAX_INDEX + 1} exceeds the int64 ceiling"):
            strike_segment(MAX_INDEX, MAX_INDEX + 2, np.array([5]), np.array([1]))

    def test_duplicated_hit_fails_multiply_back(self, monkeypatch):
        original = kernels._hits

        def duplicate_first(*args):
            pos, ps = original(*args)
            return np.append(pos, pos[:1]), np.append(ps, ps[:1])

        monkeypatch.setattr(kernels, "_hits", duplicate_first)
        primes = primes_1mod4(600)
        with pytest.raises(AssertionError, match="do not divide"):
            strike_segment(100, 300, primes, least_roots_bulk(primes))

    def test_leftover_not_above_2n_is_refused(self):
        # without 5 in the plan, 65 = 5 * 13 at n = 4 leaves 5, which is not above 8
        primes = primes_1mod4(600)
        primes = primes[primes != 5]
        with pytest.raises(AssertionError, match="index 4 leaves 5, not a prime above 8"):
            strike_segment(1, 300, primes, least_roots_bulk(primes))

    def test_corrupt_root_raises_instead_of_hanging(self):
        # a pair that does not divide must raise, not loop; the
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
        # 3 * CHUNK_FLOOR + 5 indices: several chunks, and a short last one
        n_max = 3 * CHUNK_FLOOR + 5
        reference = terms_digest(n_max, 65536)
        for seg in (1, CHUNK_FLOOR - 1, CHUNK_FLOOR, CHUNK_FLOOR + 1):
            for workers in (1, 3):
                got = terms_digest(n_max, seg, workers=workers)
                assert got == reference, (seg, workers)

    def test_digest_1e6_with_offsets_on_both_sides_of_two_to_the_16(self):
        # 65537- and 262144-index segments put offsets above 16 bits in the keys
        digests = {terms_digest(10**6, seg) for seg in (4096, 65536, 65537, 262144)}
        digests.add(terms_digest(10**6, workers=2))
        assert digests == {DIGEST_1E6}
