import hashlib
import random
import threading
import time

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import quadsieve.sieve as sieve
from quadsieve import (
    BadFactorizationError,
    RangeError,
    Term,
    enumerate_primes,
    first_k_basis,
    generator_root,
    is_prime,
    lemma2_witness,
    naive_factor,
    sieve_range,
    term_value,
)
from quadsieve._kernels import MAX_INDEX, least_roots_bulk
from quadsieve.sieve import CHUNK_FLOOR, _segments, primes_1mod4

from golden import FIRST_BASIS_8, GOLDEN_30, PRIME_INDICES_30, prime_flags


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
        primes = np.flatnonzero(prime_flags(20_001)).astype(np.int64)
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
        for seg in _segments(sieve._plan(100_000)):
            seg.check()  # every index present, products multiply back
            assert bool((seg.primes % 4 == 1).all())

    @given(n_max=st.integers(min_value=1, max_value=3 * CHUNK_FLOOR + 2))
    @example(n_max=CHUNK_FLOOR)
    @example(n_max=CHUNK_FLOOR + 1)
    @example(n_max=2 * CHUNK_FLOOR + 1)
    @settings(max_examples=8, deadline=None)
    def test_segment_independence(self, n_max):
        whole = list(sieve_range(n_max, n_max + 1))
        for size in (1, CHUNK_FLOOR - 1, CHUNK_FLOOR, CHUNK_FLOOR + 1):
            for workers in (1, 3):
                assert list(sieve_range(n_max, size, workers=workers)) == whole, (size, workers)

    def test_range_guard(self):
        with pytest.raises(RangeError):
            next(iter(sieve_range(MAX_INDEX + 1)))
        # a segment past the ceiling is refused by the strike itself; it spans
        # two indices so that a missing check could not build a huge array
        primes = primes_1mod4(100)
        with pytest.raises(RangeError, match=rf"^index {MAX_INDEX + 1} exceeds the int64 ceiling"):
            sieve.sieve_segment(MAX_INDEX, MAX_INDEX + 2, primes, sieve.least_roots_bulk(primes))

    @given(
        hi=st.integers(min_value=1, max_value=200_000),
        width=st.integers(min_value=1, max_value=3 * CHUNK_FLOOR),
        size=st.sampled_from([1, 7, CHUNK_FLOOR - 1, CHUNK_FLOOR, CHUNK_FLOOR + 1, 65536]),
    )
    @settings(max_examples=12, deadline=None)
    def test_window_is_slice_of_full_range(self, hi, width, size):
        lo = max(1, hi - width + 1)
        window = list(sieve_range(hi, size, start=lo))
        assert window == [t for t in sieve_range(hi) if t.n >= lo]

    # (n_max, segment_size, workers, start): each request also breaks every
    # rule checked after the one it must be refused for
    @pytest.mark.parametrize(
        "request_, error, message",
        [
            ((MAX_INDEX + 1, 0, 0, 0), RangeError, rf"^index {MAX_INDEX + 1} exceeds the int64 ceiling"),
            ((0, 0, 0, 0), ValueError, r"^segment_size must be >= 1, got 0$"),
            ((0, 1, 0, 0), ValueError, r"^workers must be >= 1, got 0$"),
            ((0, 1, -2, 0), ValueError, r"^workers must be >= 1, got -2$"),
            ((0, 1, 1, 0), ValueError, r"^n_max must be >= 1, got 0$"),
            ((10**7, 1, 1, 0), ValueError, r"^need 1 <= start <= n_max, got start=0, n_max=10000000$"),
            ((10, 1, 1, 11), ValueError, r"^need 1 <= start <= n_max, got start=11, n_max=10$"),
        ],
        ids=["ceiling", "segment_size", "workers-0", "workers-minus-2", "n_max", "start-0", "start-past-n_max"],
    )
    def test_bad_request_refused_in_order_before_the_plan(self, monkeypatch, request_, error, message):
        n_max, size, workers, start = request_
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        calls = [lambda: sieve_range(n_max, size, start=start, workers=workers)]
        if "start" not in message:  # terms_digest and enumerate_primes take no start
            calls += [lambda f=f: f(n_max, size, workers=workers) for f in (sieve.terms_digest, enumerate_primes)]
        for call in calls:
            with pytest.raises(error, match=message):
                call()

    @pytest.mark.parametrize(
        "call",
        [lambda n, **kw: list(sieve_range(n, 4096, **kw)),
         lambda n, **kw: sieve.terms_digest(n, 4096, **kw),
         lambda n, **kw: enumerate_primes(n, 4096, **kw)],
        ids=["sieve_range", "terms_digest", "enumerate_primes"],
    )
    def test_workers_is_accepted_and_every_segment_strikes_on_the_caller(self, monkeypatch, call):
        want = call(20_000)
        threads = []
        original = sieve.sieve_segment

        def spy(*args):
            threads.append(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(sieve, "sieve_segment", spy)
        for workers in (2, 64):
            assert call(20_000, workers=workers) == want
        assert len(threads) == 2 * 5  # five 4096-index segments per call
        assert set(threads) == {threading.get_ident()}

    def test_window_bounds_refused(self):
        for start, n_max in ((0, 10), (-3, 10), (11, 10)):
            with pytest.raises(ValueError):
                next(iter(sieve_range(n_max, start=start)))

    def test_check_refuses_missing_and_misordered_entries(self):
        primes = primes_1mod4(60)
        seg = sieve.sieve_segment(1, 30, primes, sieve.least_roots_bulk(primes))
        seg.check()
        keep = seg.positions != 9
        gap = sieve.SieveSegment(1, 30, *(a[keep] for a in (seg.positions, seg.primes, seg.exponents)))
        for use in (gap.check, lambda: list(gap.terms())):
            with pytest.raises(AssertionError, match=r"segment \[1,30\) is missing indices"):
                use()
        swap = np.arange(seg.positions.size)
        swap[[0, -1]] = swap[[-1, 0]]
        shuffled = sieve.SieveSegment(1, 30, seg.positions[swap], seg.primes[swap], seg.exponents[swap])
        with pytest.raises(BadFactorizationError, match="out of position order"):
            shuffled.check()

    @pytest.mark.parametrize(
        "term,message",
        [
            (Term(4, 65, ((65, 1),)), "term 4: factor 65 is not prime"),
            (Term(1, 5, ((1, 1), (5, 1))), "term 1: factor 1 is not prime"),
            (Term(9, 325, ((5, 1), (13, 1))), "term 9: factors multiply to 65, not 325"),
            (Term(4, 65, ((13, 1), (5, 1))), "term 4: factors out of order"),
            (Term(4, 65, ((3, 1), (5, 1), (13, 1))), r"term 4: bad factor 3\^1"),
            (Term(4, 65, ((5, 1), (13, 1), (17, 0))), r"term 4: bad factor 17\^0"),
        ],
        ids=["composite", "factor-1", "missing-power", "swapped", "class-3", "zero-exponent"],
    )
    def test_term_verify_catches_corruption(self, term, message):
        Term(term.n, term.value, tuple(naive_factor(term.value))).verify()
        with pytest.raises(BadFactorizationError, match=f"^{message}$"):
            term.verify()

    def test_sampled_terms_equal_trial_division_and_certify(self):
        n_max = 2 * 10**5
        sample = set(random.Random(n_max).sample(range(1, n_max + 1), 300))
        certified = 0
        for t in sieve_range(n_max):
            if t.n in sample:
                assert list(t.factors) == naive_factor(t.value), t.n
                t.verify()
                certified += 1
        assert certified == len(sample)

    @given(
        n=st.integers(min_value=1, max_value=2 * 10**5),
        kind=st.sampled_from(["composite", "missing-power", "swapped", "class-3", "zero-exponent"]),
    )
    @settings(max_examples=60, deadline=None)
    def test_term_verify_refuses_a_corrupted_sieved_term(self, n, kind):
        (t,) = sieve_range(n, start=n)
        t.verify()
        fs = list(t.factors)
        (p, e), rest = fs[0], fs[1:]
        if kind == "composite":  # the whole value as one factor: class and product kept
            assume(not t.is_prime_term)
            fs = [(t.value, 1)]
        elif kind == "missing-power":
            fs = [(p, e - 1), *rest] if e > 1 else rest
        elif kind == "swapped":
            assume(rest)
            fs = [rest[0], (p, e), *rest[1:]]
        elif kind == "class-3":
            fs = [(3, 1), *fs]
        else:  # a factor that ascends and keeps the product, with exponent 0
            fs.append((fs[-1][0] + 4, 0))
        with pytest.raises(BadFactorizationError):
            Term(t.n, t.value, tuple(fs)).verify()


class TestTermContract:
    def test_fields_and_is_prime_term(self):
        t = Term(4, 65, ((5, 1), (13, 1)))
        assert (t.n, t.value, t.factors) == (4, 65, ((5, 1), (13, 1)))
        assert not t.is_prime_term
        assert Term(1, 5, ((5, 1),)).is_prime_term
        assert not Term(1, 25, ((5, 2),)).is_prime_term

    def test_immutable_and_hashable(self):
        t = Term(4, 65, ((5, 1), (13, 1)))
        with pytest.raises(AttributeError):
            t.n = 5
        assert len({t, Term(4, 65, ((5, 1), (13, 1))), Term(1, 5, ((5, 1),))}) == 2

    def test_repr_is_the_one_the_readme_shows(self):
        assert repr(next(sieve_range(30))) == "Term(n=1, value=5, factors=((5, 1),))"

    def test_equals_the_plain_tuple_of_its_fields(self):
        (t,) = sieve_range(4, start=4)
        assert type(t) is Term
        assert t == (4, 65, ((5, 1), (13, 1))) and hash(t) == hash((4, 65, ((5, 1), (13, 1))))
        n, value, factors = t
        assert (n, value, factors) == (t.n, t.value, t.factors)


class TestPlanCoverage:
    def test_own_plan_is_accepted(self):
        for n in (1, 2, 3, 1000, 100_000):
            segs = list(_segments(sieve._plan(n)))
            assert segs[-1].hi == n + 1

    def test_plan_refusals(self, monkeypatch):
        with pytest.raises(ValueError, match=r"^n_max must be >= 1, got 0$"):
            sieve._plan(0)
        # the index ceiling is refused before the plan's arrays are allocated
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        with pytest.raises(RangeError):
            sieve._plan(MAX_INDEX + 1)


class TestDigestPipeline:
    def test_packed_blocks_join_to_the_whole_segment(self):
        plan = sieve._plan(20_000)
        seg = sieve.sieve_segment(1, 20_001, plan.primes, plan.roots)
        entries = seg.positions.size
        assert entries > 2 * sieve.PACK_ROWS and entries % sieve.PACK_ROWS
        whole = seg.packed()
        assert len(whole) == 24 * entries
        for rows in (sieve.PACK_ROWS, 1000, 7):
            assert b"".join(seg.packed(i, i + rows) for i in range(0, entries, rows)) == whole, rows
        assert seg.packed(entries - 3) == whole[-72:] and seg.packed(5, 5) == b""

    def test_one_helper_hashes_one_segment_behind_the_strike(self, monkeypatch):
        plan = sieve._plan(50_000, 4096)
        serial = b"".join(seg.packed() for seg in _segments(plan))
        want = hashlib.blake2b(serial, digest_size=16).hexdigest()
        events = []
        strike, packed = sieve.sieve_segment, sieve.SieveSegment.packed

        def spy_strike(lo, *args):
            events.append(("strike", lo))
            return strike(lo, *args)

        def spy_packed(seg, start=0, stop=None):
            time.sleep(0.002)  # a hash slower than the strike: a strike run ahead would show
            out = packed(seg, start, stop)
            events.append(("hashed", seg.lo, len(out), threading.get_ident()))
            return out

        monkeypatch.setattr(sieve, "sieve_segment", spy_strike)
        monkeypatch.setattr(sieve.SieveSegment, "packed", spy_packed)
        assert sieve._digest(_segments(plan)) == want
        hashed = [e for e in events if e[0] == "hashed"]
        threads = {e[3] for e in hashed}
        assert len(threads) == 1 and threading.get_ident() not in threads
        assert max(e[2] for e in hashed) == 24 * sieve.PACK_ROWS
        assert sum(e[2] for e in hashed) == len(serial)
        # segment k - 2 is wholly hashed before segment k is struck
        lows = [e[1] for e in events if e[0] == "strike"]
        assert lows == list(range(1, 50_001, 4096))
        total = {lo: sum(e[2] for e in hashed if e[1] == lo) for lo in lows}
        done = dict.fromkeys(lows, 0)
        for e in events:
            if e[0] == "hashed":
                done[e[1]] += e[2]
            elif (k := lows.index(e[1])) >= 2:
                assert done[lows[k - 2]] == total[lows[k - 2]], e


def _reference_1mod4(limit: int) -> np.ndarray:
    primes = np.flatnonzero(prime_flags(limit))
    return primes[primes % 4 == 1]


class TestPrimes1Mod4:
    def test_equals_plain_eratosthenes_below_3000(self):
        reference = _reference_1mod4(3000)
        for limit in range(-5, 3000):
            got = primes_1mod4(limit)
            assert got.dtype == np.int64
            assert np.array_equal(got, reference[reference <= limit]), limit

    @pytest.mark.parametrize("limit", [2 * 10**6 - 1, 2 * 10**6 + 1])
    def test_equals_plain_eratosthenes_near_2e6(self, limit):
        got = primes_1mod4(limit)
        assert got.dtype == np.int64
        assert np.array_equal(got, _reference_1mod4(limit))

    def test_counts(self):
        assert [primes_1mod4(limit).size for limit in (10**6, 2 * 10**6, 2 * 10**7)] == [
            39_175,
            74_416,
            635_170,
        ]

    def test_empty_plan_takes_the_same_path(self):
        roots = least_roots_bulk(np.empty(0, dtype=np.int64))
        assert roots.dtype == np.int64 and roots.size == 0
        assert list(sieve_range(1)) == [Term(1, 5, ((5, 1),))]
        assert list(sieve_range(2)) == [Term(1, 5, ((5, 1),)), Term(2, 17, ((17, 1),))]
        assert sieve.terms_digest(1) == "a4d369d0362cc037d35c8fb95fa56b85"


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
        assert [(b.prime, b.least_root) for b in basis] == FIRST_BASIS_8

    def test_k_three_four_six(self):
        assert [b.prime for b in first_k_basis(3)] == [5, 17, 37]
        assert [b.prime for b in first_k_basis(4)] == [5, 17, 37, 13]
        assert [b.prime for b in first_k_basis(6)] == [5, 17, 37, 13, 101, 29]

    def test_debut_differing_from_least_root_is_refused(self, monkeypatch):
        original = sieve.modarith.sqrt_minus_one
        monkeypatch.setattr(sieve.modarith, "sqrt_minus_one", lambda p: original(p) + 1)
        with pytest.raises(
            AssertionError, match=r"^first appearance of 5 at 1 differs from its least root 2$"
        ):
            first_k_basis(3)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            first_k_basis(0)

    def test_matches_primes_ordered_by_least_root(self):
        # independent construction: every prime whose least root is at most
        # R = the last least root lies below 4*R*R + 1; sort them by root
        basis = first_k_basis(60)
        bound = basis[-1].least_root
        by_root = sorted((generator_root(p), p) for p in primes_1mod4(4 * bound * bound + 1).tolist())
        assert [(b.least_root, b.prime) for b in basis] == by_root[:60]

    def test_missing_debuts_sieve_the_next_window(self, monkeypatch):
        windows = []

        def spy(plan):
            windows.append((plan.start, plan.n_max))
            return _segments(plan)

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
        assert lemma2_witness(9022)  # composite; first shared factor at n = 415, past one block

    def test_holds_to_2000(self):
        assert all(lemma2_witness(n) for n in range(2, 2001))

    def test_rejects_n1(self):
        with pytest.raises(ValueError):
            lemma2_witness(1)

