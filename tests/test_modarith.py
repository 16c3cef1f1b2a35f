import builtins
import math
import random

import numpy as np
import pytest

from quadsieve import (
    BadFactorizationError,
    NoRootsError,
    RangeError,
    all_roots,
    crt_combine,
    generator_root,
    hensel_lift,
    is_prime,
    naive_factor,
    naive_root_scan,
    primitive_root,
    sqrt_minus_one,
)
from quadsieve import modarith
from quadsieve._kernels import least_roots_bulk
from quadsieve.modarith import _MR_TIERS, _MR_WITNESSES
from quadsieve.sieve import primes_1mod4

from golden import prime_flags

# the prime factors of each bound psi_k in the witness table
_TIER_FACTORS = {
    2047: (23, 89),
    1373653: (829, 1657),
    25326001: (2251, 11251),
    3215031751: (151, 751, 28351),
    2152302898747: (6763, 10627, 29947),
    3474749660383: (1303, 16927, 157543),
    341550071728321: (10670053, 32010157),
    3825123056546413051: (149491, 747451, 34233211),
}


def _strong_probable_prime(v: int, w: int) -> bool:
    """One Miller-Rabin round: does odd v pass as a prime to base w?"""
    d, s = v - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(w, d, v)
    if x == 1 or x == v - 1:
        return True
    for _ in range(s - 1):
        x = x * x % v
        if x == v - 1:
            return True
    return False


class TestIsPrime:
    def test_examples(self):
        assert is_prime(2)
        assert not is_prime(3601)  # 13 * 277
        assert is_prime(1601)

    def test_dense_range_against_sieve(self):
        limit = 200_000
        flags = prime_flags(limit)
        for v in range(2, limit + 1):
            assert is_prime(v) == bool(flags[v]), v

    def test_random_sample_against_sieve(self):
        limit = 10**7
        flags = prime_flags(limit)
        rng = np.random.default_rng(7)
        for v in rng.integers(2, limit, size=20_000).tolist():
            assert is_prime(v) == bool(flags[v]), v

    def test_strong_pseudoprimes_are_composite(self):
        # composites that defeat small witness subsets
        for v in (
            2047,
            1373653,
            25326001,
            3215031751,
            2152302898747,
            3474749660383,
            341550071728321,
            3825123056546413051,
        ):
            assert not is_prime(v), v

    def test_tier_bounds_are_strong_pseudoprimes_to_their_tier(self):
        # a bound psi_k is composite yet passes all k witnesses of the tier
        # below it, so only a later tier may test it: with "<=" for "<", or a
        # tier cut short, test_strong_pseudoprimes_are_composite fails
        assert [b for b, _ in _MR_TIERS] == sorted(_TIER_FACTORS)
        for bound, k in _MR_TIERS:
            factors = _TIER_FACTORS[bound]
            assert math.prod(factors) == bound and min(factors) > 1, bound
            assert all(_strong_probable_prime(bound, w) for w in _MR_WITNESSES[:k]), bound
        ks = [k for _, k in _MR_TIERS]
        assert ks == sorted(ks) and ks[-1] < len(_MR_WITNESSES)

    def test_seeded_odd_values_in_each_tier_against_trial_division(self):
        bounds = [3] + [b for b, _ in _MR_TIERS if b < 3 * 10**12] + [3 * 10**12]
        rng = random.Random(20240613)
        for lo, hi in zip(bounds, bounds[1:]):
            for _ in range(25):
                v = rng.randrange(lo | 1, hi, 2)
                assert is_prime(v) == (naive_factor(v) == [(v, 1)]), v
            # and at least one prime per band, the next one up from a seeded start
            v = rng.randrange(lo | 1, hi, 2)
            while naive_factor(v) != [(v, 1)]:
                v += 2
            assert v < hi and is_prime(v), v

    def test_witness_primes_and_their_products(self):
        # the gcd with the witness product: a witness itself is prime, any
        # other multiple of one is composite, however many it contains
        for w in _MR_WITNESSES:
            assert is_prime(w), w
        for v in (6, 35, 1369, 7420738134810):
            assert not is_prime(v), v
        assert math.prod(_MR_WITNESSES) == 7420738134810

    def test_cutoff_at_41_squared(self):
        # below 41**2 a value coprime to every witness is prime; 41**2 and
        # 41*43 are the first composites past the cutoff
        assert not is_prime(1681) and not is_prime(1763)
        assert is_prime(1669) and is_prime(1693)
        product = math.prod(_MR_WITNESSES)
        for v in range(38, 1900):
            if math.gcd(v, product) == 1:
                assert is_prime(v) == (naive_factor(v) == [(v, 1)]), v

    def test_carmichael_numbers_are_composite(self):
        for v in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 321197185):
            assert not is_prime(v), v

    def test_many_factors_of_two_in_v_minus_1(self):
        assert is_prime(65537)  # v - 1 = 2**16, so d = 1
        assert not is_prime(2**32 + 1)  # 641 * 6700417, v - 1 = 2**32
        assert is_prime(2**64 - 2**32 + 1)  # v - 1 = 2**32 * (2**32 - 1)
        # k * 2**s + 1 with large s, against trial division
        for v in (5 * 2**25 + 1, 7 * 2**26 + 1, 15 * 2**27 + 1, 3 * 2**30 + 1):
            assert is_prime(v) == (naive_factor(v) == [(v, 1)]), v

    def test_large_primes(self):
        assert is_prime(2**61 - 1)
        assert is_prime(2**64 - 59)  # largest prime below 2**64

    def test_range_guard(self):
        with pytest.raises(RangeError):
            is_prime(2**64)


class TestPrimitiveRoot:
    def test_known_smallest(self):
        assert primitive_root(5) == 2
        assert primitive_root(13) == 2
        assert primitive_root(17) == 3

    def test_order_property_to_1e4(self):
        for p in primes_1mod4(10_000).tolist():
            g = primitive_root(p)
            assert pow(g, p - 1, p) == 1
            # the order is exactly p-1: no proper divisor exponent gives 1
            q = p - 1
            divs = {1}
            d = 2
            while d * d <= q:
                if q % d == 0:
                    divs.add(d)
                    divs.add(q // d)
                d += 1
            for d in sorted(divs):
                assert pow(g, d, p) != 1, (p, g, d)

    def test_rejections(self):
        with pytest.raises(NoRootsError):
            primitive_root(7)  # class 3 mod 4
        with pytest.raises(BadFactorizationError):
            primitive_root(25)  # not prime


class TestSqrtMinusOne:
    def test_known_roots(self):
        assert sqrt_minus_one(5) == 1
        assert sqrt_minus_one(13) == 4
        assert sqrt_minus_one(17) == 2

    def test_postcondition_to_1e5(self):
        for p in primes_1mod4(100_000).tolist():
            r = sqrt_minus_one(p)
            assert (4 * r * r + 1) % p == 0
            assert 1 <= r <= (p - 1) // 2

    def test_fast_path_agrees_with_recipe(self):
        for p in primes_1mod4(20_000).tolist():
            assert sqrt_minus_one(p) == generator_root(p), p
        # above the oracle's reach the non-residue route still answers
        p = 10**12 + 61
        assert is_prime(p) and p % 4 == 1
        with pytest.raises(RangeError):
            primitive_root(p)
        r = sqrt_minus_one(p)
        assert (4 * r * r + 1) % p == 0 and 1 <= r <= (p - 1) // 2

    def test_agrees_with_bulk_roots_on_the_1e6_plan(self):
        # the scalar and int64 routes compute differently; first_k_basis
        # compares one against the other, so they must agree on every prime
        primes = primes_1mod4(2 * 10**6)
        scalar = [sqrt_minus_one(p) for p in primes.tolist()]
        assert scalar == least_roots_bulk(primes).tolist()

    def test_search_is_bounded_when_no_non_residue_exists(self, monkeypatch):
        # a composite passed off as prime: -1 is no square mod 21, so no
        # candidate passes, and the search stops once c(c-1) >= p, after
        # c = 2..5; the pow budget turns a missing bound into a failure
        tried = []

        def budgeted_pow(base, e, mod):
            tried.append(base)
            if len(tried) > 50:
                raise RuntimeError("non-residue search ran past its bound")
            return builtins.pow(base, e, mod)

        monkeypatch.setattr(modarith, "is_prime", lambda v: True)
        monkeypatch.setattr(modarith, "pow", budgeted_pow, raising=False)
        with pytest.raises(AssertionError, match=r"^root construction failed for p=21$"):
            sqrt_minus_one(21)
        assert tried == [2, 3, 4, 5]

    def test_no_root_for_class_3_primes(self):
        with pytest.raises(NoRootsError):
            sqrt_minus_one(7)
        # exhaustive: class-3 primes admit no roots at all
        flags = prime_flags(100_000)
        for p in np.flatnonzero(flags).tolist():
            if p % 4 == 3:
                assert naive_root_scan(p) == [], p


class TestHensel:
    def test_lift_pairings_mod_25(self):
        # the lift preserves the residue class mod p
        assert hensel_lift(4, 5, 2) == 9
        assert hensel_lift(1, 5, 2) == 16

    def test_lift_mod_289(self):
        assert hensel_lift(2, 17, 2) == 19  # 4*19*19+1 = 1445 = 5*289
        assert hensel_lift(15, 17, 2) == 270

    def test_chained_lifts_match_scan(self):
        for p in primes_1mod4(1000).tolist():
            z = sqrt_minus_one(p)
            e = 2
            while p**e <= 10**6:
                z = hensel_lift(z, p, e)
                pe = p**e
                assert sorted((z, pe - z)) == naive_root_scan(pe), (p, e)
                e += 1

    def test_precondition_rejected(self):
        with pytest.raises(ValueError):
            hensel_lift(2, 5, 2)  # 2 is not a root mod 5
        with pytest.raises(ValueError):
            hensel_lift(1, 5, 1)  # nothing to lift


class TestCrtCombine:
    def test_5_and_13(self):
        assert crt_combine(5, [1, 4], 13, [4, 9]) == [4, 9, 56, 61]

    def test_17_and_37(self):
        # scan-derived root sets; 4*z*z+1 = 0 (mod 629) has four solutions
        assert crt_combine(17, [2, 15], 37, [3, 34]) == [151, 219, 410, 478]
        assert crt_combine(17, [2, 15], 37, [3, 34]) == naive_root_scan(629)

    def test_squarefree_products_to_1e6(self):
        # every 2- and 3-prime squarefree product of class-1 primes <= 100
        # that stays below 1e6, against the exhaustive scan
        import itertools

        small = [5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97]
        pairs = {p: naive_root_scan(p) for p in small}
        for k in (2, 3):
            for combo in itertools.combinations(small, k):
                m = 1
                for p in combo:
                    m *= p
                if m > 10**6:
                    continue
                acc_m, acc = combo[0], pairs[combo[0]]
                for p in combo[1:]:
                    acc = crt_combine(acc_m, acc, p, pairs[p])
                    acc_m *= p
                assert acc == naive_root_scan(m), combo

    def test_rejects_shared_factor(self):
        with pytest.raises(ValueError):
            crt_combine(15, [1], 25, [7])

    def test_rejects_empty_root_set(self):
        with pytest.raises(NoRootsError):
            crt_combine(5, [1, 4], 21, [])

    def test_rejects_even_or_oversize_modulus(self):
        with pytest.raises(NoRootsError):
            crt_combine(10, [1], 13, [4, 9])
        with pytest.raises(RangeError):
            crt_combine(2**64 + 1, [1], 13, [4, 9])


class TestPrimePower:
    """Refusals on the prime-power path: hensel_lift itself and all_roots."""

    def test_rejects_wrong_class(self):
        with pytest.raises(NoRootsError):
            all_roots(21)  # 3 * 7, both in class 3 mod 4
        with pytest.raises(NoRootsError):
            all_roots(7, [(7, 1)])

    def test_rejects_composite(self):
        # the primality test of p runs once, in sqrt_minus_one
        with pytest.raises(BadFactorizationError):
            all_roots(25, [(25, 1)])
        with pytest.raises(BadFactorizationError):
            all_roots(65**2, [(65, 2)])

    def test_rejects_overflow(self):
        with pytest.raises(RangeError, match=r"^5\*\*30 exceeds the 64-bit range$"):
            hensel_lift(1, 5, 30)
        # all_roots refuses the modulus itself, before any lift
        with pytest.raises(
            RangeError, match=r"^modulus 931322574615478515625 exceeds the 64-bit range$"
        ):
            all_roots(5**30, [(5, 30)])
