import builtins
import importlib

import pytest
from hypothesis import given, settings, strategies as st

from quadsieve import (
    U64_MAX,
    BadFactorizationError,
    NoRootsError,
    RangeError,
    all_roots,
    basis_from_primes,
    inclusion_exclusion_count,
    is_prime,
    naive_root_scan,
    root_summary,
    term_value,
)
from quadsieve import modarith, roots, suites
from quadsieve.suites import iter_pp, run_suite

census_module = importlib.import_module("quadsieve.census")  # the package exports census()


class TestAllRoots:
    def test_examples(self):
        assert all_roots(5).roots == (1, 4)
        assert all_roots(65).roots == (4, 9, 56, 61)
        assert all_roots(25).roots == (9, 16)

    def test_matches_scan_full_range(self):
        # the root set iter_pp carries, all_roots built afresh and the scan agree
        for m, factors, carried in iter_pp(100_000):
            rs = all_roots(m, factors)
            assert carried == rs, m
            assert list(rs.roots) == naive_root_scan(m), m
            assert len(rs.roots) == 2 ** len(factors), m

    def test_complement_closure(self):
        for m in (5, 25, 65, 325, 1105, 4225):
            rs = all_roots(m)
            assert all(m - z in rs.roots for z in rs.roots)

    @pytest.mark.parametrize(
        "m, corrupt, message",
        [
            # prime: s = c**k with k = (p - 1)/4 in sqrt_minus_one
            (13, lambda e, mod: 4 * e + 1 == mod, "root construction failed"),
            # prime power: the inverse of 8*z in hensel_lift
            (25, lambda e, mod: e == -1, "lift failed"),
            # CRT: the inverse of m1 mod m2 in crt_combine
            (65, lambda e, mod: e == -1, "combination"),
        ],
        ids=["prime", "prime-power", "crt"],
    )
    def test_corrupted_root_is_refused_on_each_route(self, monkeypatch, m, corrupt, message):
        def off_by_one(base, e, mod):
            r = builtins.pow(base, e, mod)
            return (r + 1) % mod if corrupt(e, mod) else r

        monkeypatch.setattr(modarith, "pow", off_by_one, raising=False)
        with pytest.raises(AssertionError, match=message):
            all_roots(m)

    @pytest.mark.parametrize(
        "build, args",
        [
            (all_roots, (13,)),
            (lambda limit: list(iter_pp(limit)), (13,)),
            (inclusion_exclusion_count, (basis_from_primes([13]), 100)),
        ],
        ids=["all_roots", "iter_pp", "divisor-sum"],
    )
    def test_wrong_prime_root_is_refused_by_every_builder(self, monkeypatch, build, args):
        # a wrong root that its construction failed to catch is refused by the
        # first step of the root set that holds it, whichever builder takes it
        original = modarith.sqrt_minus_one

        def wrong(p):
            return original(p) + 1 if p == 13 else original(p)

        for module in (modarith, roots, census_module):
            monkeypatch.setattr(module, "sqrt_minus_one", wrong)
        bulk = suites.least_roots_bulk  # the walk's prime roots come from the kernel
        monkeypatch.setattr(suites, "least_roots_bulk", lambda primes: bulk(primes) + (primes == 13))
        with pytest.raises(AssertionError, match="is not a root mod 13"):
            build(*args)

    def test_no_roots_for_class3_factor(self):
        with pytest.raises(NoRootsError):
            all_roots(21)
        with pytest.raises(NoRootsError):
            all_roots(9)

    def test_rejects_even(self):
        with pytest.raises(NoRootsError):
            all_roots(10)

    def test_bad_factorization(self):
        with pytest.raises(BadFactorizationError):
            all_roots(65, [(5, 1)])
        with pytest.raises(BadFactorizationError):
            all_roots(25, [(5, 1), (5, 1)])

    def test_malformed_factorizations(self):
        with pytest.raises(BadFactorizationError):
            all_roots(25, [(25, 1)])  # right product, but 25 is not prime
        with pytest.raises(ValueError, match="exponent must be >= 1, got 0"):
            all_roots(5, [(5, 0), (5, 1)])
        p = U64_MAX + 14  # = 1 mod 4, beyond the primality test's range
        with pytest.raises(RangeError):
            all_roots(p, [(p, 1)])

    def test_factor_cap_binds_only_trial_division(self):
        m = 5**24
        assert m > roots.FACTOR_CAP
        with pytest.raises(RangeError, match=r"^composite modulus 59604644775390625 exceeds"):
            all_roots(m)
        given_factors = all_roots(m, [(5, 24)])
        assert given_factors.roots == (given_factors.least, m - given_factors.least)
        assert root_summary(m, [(5, 24)]).least_root == given_factors.least

    def test_one_primality_test_per_prime_and_lift(self, monkeypatch):
        calls = []

        def counting(v):
            calls.append(v)
            return is_prime(v)

        monkeypatch.setattr(modarith, "is_prime", counting)
        all_roots(1105, [(5, 1), (13, 1), (17, 1)])
        assert sorted(calls) == [5, 13, 17]
        calls.clear()
        all_roots(5 * 13**3, [(5, 1), (13, 3)])  # two Hensel steps, no test in either
        assert sorted(calls) == [5, 13]

    @given(st.lists(st.sampled_from([5, 13, 17, 29, 37, 41]), min_size=1, max_size=3, unique=True))
    @settings(max_examples=60, deadline=None)
    def test_random_squarefree_products(self, primes):
        m = 1
        for p in primes:
            m *= p
        rs = all_roots(m, [(p, 1) for p in sorted(primes)])
        assert list(rs.roots) == naive_root_scan(m)


class TestRootSummary:
    def test_examples(self):
        assert (root_summary(5).least_root, root_summary(5).cofactor) == (1, 1)
        assert (root_summary(13).least_root, root_summary(13).cofactor) == (4, 5)
        assert (root_summary(401).least_root, root_summary(401).cofactor) == (10, 1)

    def test_prime_square(self):
        s = root_summary(169, [(13, 2)])
        assert (s.least_root, s.cofactor) == (35, 29)

    def test_summary_of_a_built_root_set(self):
        # the same summary, and the same checks, from a RootSet built once
        for m in (5, 169, 4225, 1105, 5 * 13 * 17 * 29 * 37):
            assert root_summary(all_roots(m)) == root_summary(m), m

    def test_cofactor_identity_and_bounds_full_range(self):
        for m, factors, _ in iter_pp(100_000):
            s = root_summary(m, factors)
            assert m * s.cofactor == 4 * s.least_root**2 + 1
            assert 4 * s.least_root**2 + 1 >= m and 2 * s.least_root <= m - 1
            assert s.cofactor <= m - 2

    def test_least_root_is_first_divisible_index(self):
        for m, factors, _ in iter_pp(10_000):
            r = root_summary(m, factors).least_root
            for n in range(1, r):
                assert term_value(n) % m != 0, (m, n)
            assert term_value(r) % m == 0, m


class TestFirstDegree:
    def test_examples(self):
        # least root of p, then of p**2: the first power appears first
        for p, r1, r2 in ((5, 1, 9), (17, 2, 19), (13, 4, 35)):
            assert root_summary(p, [(p, 1)]).least_root == r1
            assert root_summary(p * p, [(p, 2)]).least_root == r2

    def test_all_primes_to_1000(self):
        assert run_suite("lemma5", 1000).ok
