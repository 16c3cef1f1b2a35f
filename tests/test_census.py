import importlib
import itertools
import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from quadsieve import (
    U64_MAX,
    RangeError,
    basis_from_primes,
    census,
    exact_coprime_count,
    first_k_basis,
    inclusion_exclusion_count,
    naive_coprime_count,
    naive_factor,
    product_formula,
    second_proof_witness,
    verify_main_identity,
)
from quadsieve.census import _MARK_CHUNK, _PRESIEVE_CAP, EXACT_COUNT_CAP, MAX_BASIS_SIZE
from quadsieve import roots as roots_module
from quadsieve.roots import all_roots, extend_roots
from quadsieve.sieve import BasisPrime

from golden import MAIN_IDENTITY_VALUES

census_module = importlib.import_module("quadsieve.census")  # the package exports census()
FIRST_10 = first_k_basis(10)


class TestInclusionExclusion:
    def test_hand_example_basis5(self):
        # 5 - ((5+1)//5 + (5+4)//5) = 3
        assert inclusion_exclusion_count(basis_from_primes([5]), 5) == 3

    @pytest.mark.parametrize("horizon", [0, 1, 7, 10**6])
    def test_empty_basis_counts_every_index(self, horizon):
        # only the divisor 1 is left, with its one root 0
        assert inclusion_exclusion_count((), horizon) == horizon

    def test_matches_exact_and_naive(self):
        cases = [([5], 100), ([5, 13], 100), ([5, 17, 37], 3145), ([13], 7)]
        for primes, horizon in cases:
            basis = basis_from_primes(primes)
            ie = inclusion_exclusion_count(basis, horizon)
            assert ie == exact_coprime_count(basis, horizon)
            assert ie == naive_coprime_count(primes, horizon)

    @given(
        primes=st.lists(
            st.sampled_from([5, 17, 37, 13, 101, 29, 197, 257]),
            min_size=1,
            max_size=4,
            unique=True,
        ),
        horizon=st.integers(min_value=0, max_value=2000),
    )
    @settings(max_examples=60, deadline=None)
    def test_identity_randomized(self, primes, horizon):
        basis = basis_from_primes(primes)
        ie = inclusion_exclusion_count(basis, horizon)
        assert ie == exact_coprime_count(basis, horizon)
        assert ie == naive_coprime_count(primes, horizon)


class TestExactCount:
    def test_examples(self):
        assert exact_coprime_count(basis_from_primes([5]), 5) == 3
        assert exact_coprime_count(basis_from_primes([5, 17]), 85) == 45

    def test_empty_basis(self):
        assert exact_coprime_count((), 17) == 17

    def test_horizon_cap_admits_k7_only(self):
        # census --k 7 still runs in full; --k 8 is the first basis refused
        products = [math.prod(b.prime for b in first_k_basis(k)) for k in (7, 8)]
        assert products[0] <= EXACT_COUNT_CAP < products[1]

    @pytest.mark.parametrize(
        "horizon", [_MARK_CHUNK - 1, _MARK_CHUNK, _MARK_CHUNK + 1, 3 * _MARK_CHUNK + 5]
    )
    def test_agrees_across_mark_chunk_boundaries(self, horizon):
        # the direct count marks 2**20 indices at a time; these horizons end
        # one short of, on, and one past a chunk edge, and inside a fourth chunk
        assert _MARK_CHUNK == 1 << 20
        for primes in ([5], [5, 13], [5, 17, 37], [13, 29, 101, 197]):
            basis = basis_from_primes(primes)
            assert exact_coprime_count(basis, horizon) == inclusion_exclusion_count(
                basis, horizon
            ), primes

    def test_monotonic_in_horizon(self):
        basis = basis_from_primes([5, 13])
        counts = [exact_coprime_count(basis, h) for h in range(0, 200)]
        assert all(a <= b for a, b in zip(counts, counts[1:]))

    def test_antitone_in_basis(self):
        for h in (10, 100, 1000):
            c1 = exact_coprime_count(basis_from_primes([5]), h)
            c2 = exact_coprime_count(basis_from_primes([5, 17]), h)
            c3 = exact_coprime_count(basis_from_primes([5, 17, 37]), h)
            assert c1 >= c2 >= c3


class TestPresieve:
    """The direct count marks the smallest primes, product P <= 2**16, once per
    period of P indices and strikes the rest in chunks of the largest
    multiple of P up to 2**20 indices."""

    @given(
        basis=st.lists(st.sampled_from(FIRST_10), unique=True, max_size=10),
        horizon=st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_naive_count(self, basis, horizon):
        primes = [b.prime for b in basis]
        assert exact_coprime_count(basis, horizon) == naive_coprime_count(primes, horizon)

    @pytest.mark.parametrize(
        "primes,period",
        [
            ([5, 13, 17, 29, 101], 5 * 13 * 17 * 29),  # 101 struck per chunk
            ([5, 17, 37], 5 * 17 * 37),  # all pre-sieved
            ([65537, 65557], 1),  # none pre-sieved: chunks of 2**20
        ],
    )
    def test_agrees_at_period_and_chunk_edges(self, primes, period):
        ordered = sorted(primes)  # pre-sieved: the longest prefix with product <= 2**16
        cut = sum(math.prod(ordered[: i + 1]) <= _PRESIEVE_CAP for i in range(len(ordered)))
        assert math.prod(ordered[:cut]) == period
        chunk = _MARK_CHUNK // period * period
        basis = basis_from_primes(primes)
        for edge in (period, 2 * period, chunk, 2 * chunk):
            for horizon in (edge - 1, edge, edge + 1):
                assert exact_coprime_count(basis, horizon) == inclusion_exclusion_count(
                    basis, horizon
                ), (primes, horizon)

    @pytest.mark.parametrize("horizon", [0, 1, _MARK_CHUNK, _MARK_CHUNK + 1])
    def test_empty_basis_counts_every_index(self, horizon):
        assert exact_coprime_count((), horizon) == horizon


class TestDivisorRoots:
    def test_every_divisor_root_set_is_all_roots(self, monkeypatch):
        built = {}

        def record(*args):
            root_set = extend_roots(*args)
            built[root_set.m] = root_set.roots
            return root_set

        monkeypatch.setattr(census_module, "extend_roots", record)
        primes = [b.prime for b in first_k_basis(6)]
        inclusion_exclusion_count(first_k_basis(6), 1000)
        divisors = [math.prod(c) for nu in range(1, 7) for c in itertools.combinations(primes, nu)]
        assert sorted(built) == sorted(divisors)
        for d, roots in built.items():
            assert roots == all_roots(d).roots, d

    @pytest.mark.parametrize("primes", [[13], [5, 13, 17]])
    def test_corrupted_root_is_refused(self, monkeypatch, primes):
        basis = basis_from_primes(primes)  # built with the true roots
        original = census_module.sqrt_minus_one
        monkeypatch.setattr(
            census_module, "sqrt_minus_one", lambda p: original(p) + 1 if p == 13 else original(p)
        )
        with pytest.raises(AssertionError, match="is not a root mod 13"):
            inclusion_exclusion_count(basis, 100)

    def test_corrupted_crt_step_is_refused(self, monkeypatch):
        original = roots_module.crt_combine

        def shifted(*args):
            roots = original(*args)
            roots[0] += 1
            return roots

        monkeypatch.setattr(roots_module, "crt_combine", shifted)
        with pytest.raises(AssertionError, match="not closed"):
            inclusion_exclusion_count(basis_from_primes([5, 13]), 100)

    def test_divisor_sum_keeps_only_the_live_path(self):
        # depth first, the 4096 root sets of 12 primes are never all alive:
        # about 0.7 MB traced at peak, where a level-by-level walk took 11.4 MB
        basis = basis_from_primes([5, 13, 17, 29, 37, 41, 53, 61, 73, 89, 97, 101])
        tracemalloc.start()
        try:
            inclusion_exclusion_count(basis, 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20, peak

    def test_divisor_sum_ignores_the_basis_roots(self):
        # the direct count strikes the basis entries' roots; the divisor
        # sum builds its own, so a wrong entry splits the two routes
        good = basis_from_primes([5, 13])
        bad = tuple(BasisPrime(b.prime, b.least_root + 1) for b in good)
        horizon = 1001  # not a multiple of 5 or 13, so the wrong classes count differently
        assert inclusion_exclusion_count(bad, horizon) == naive_coprime_count([5, 13], horizon)
        assert not census(bad, horizon).counts_agree


class TestProductFormula:
    def test_examples(self):
        assert product_formula(basis_from_primes([5])) == 3
        assert product_formula(basis_from_primes([5, 17])) == 45
        assert product_formula(basis_from_primes([5, 17, 37, 13])) == 17325

    def test_positivity(self):
        assert product_formula(basis_from_primes([5])) >= 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            product_formula(())


class TestMainIdentity:
    def test_k_1_to_4(self):
        for k, expected in MAIN_IDENTITY_VALUES.items():
            report = verify_main_identity(k)
            assert report.ie_count == expected
            assert report.exact_count == expected
            assert report.product_value == expected
            assert report.counts_agree and report.product_matches

    def test_horizon_defaults_to_product(self):
        report = verify_main_identity(2)
        assert report.horizon == report.n_product == 85

    def test_nu_table(self):
        report = verify_main_identity(2)
        assert report.nu_table == {1: 0, 5: 1, 17: 1, 85: 2}

    def test_nu_table_of_five_primes_has_every_divisor(self):
        basis = first_k_basis(5)
        primes = [b.prime for b in basis]
        table = census(basis).nu_table
        assert len(table) == 32
        assert sorted(table) == sorted(
            math.prod(c) for nu in range(6) for c in itertools.combinations(primes, nu)
        )
        for d, nu in table.items():
            assert nu == sum(d % p == 0 for p in primes), d

    def test_k_guard(self):
        with pytest.raises(RangeError):
            verify_main_identity(6)
        with pytest.raises(RangeError):
            verify_main_identity(0)


class TestSecondProof:
    def test_k1_is_the_fifth_term(self):
        w = second_proof_witness(1)
        assert w.value == 101
        assert w.value_is_prime
        assert w.factors == ((101, 1),)

    def test_k2(self):
        w = second_proof_witness(2)
        assert w.value == 4 * 85 * 85 + 1 == 28901
        assert w.factors == tuple(naive_factor(w.value))

    def test_gcds_always_one(self):
        for k in range(1, 5):
            w = second_proof_witness(k)
            assert all(g == 1 for g in w.gcds)
            # stronger: the value is 1 modulo every basis prime squared
            for b in w.basis:
                assert w.value % (b.prime * b.prime) == 1

    def test_factors_are_new_primes(self):
        for k in range(1, 5):
            w = second_proof_witness(k)
            basis_primes = {b.prime for b in w.basis}
            for p, _ in w.factors:
                assert p not in basis_primes
                assert p % 4 == 1


class TestCensusReport:
    def test_custom_primes_and_horizon(self):
        report = census(basis_from_primes([5, 13]), horizon=100)
        assert report.counts_agree
        assert report.ie_count == naive_coprime_count([5, 13], 100)
        assert not report.product_matches  # horizon is not the basis product

    def test_basis_ordering_by_first_index(self):
        report = census(basis_from_primes([13, 5]), horizon=65)
        assert [b.prime for b in report.basis] == [5, 13]

    def test_max_basis_size_is_the_last_power_of_5_in_range(self):
        # 5 is the least basis prime, so 5**k bounds every k-prime product
        assert 5**MAX_BASIS_SIZE <= U64_MAX < 5 ** (MAX_BASIS_SIZE + 1)
        with pytest.raises(RangeError, match="basis product exceeds the 64-bit range"):
            census(first_k_basis(MAX_BASIS_SIZE), horizon=1)
