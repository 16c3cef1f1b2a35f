import math

import pytest
from hypothesis import given, settings, strategies as st

from quadsieve import (
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
from quadsieve.census import EXACT_COUNT_CAP

from golden import MAIN_IDENTITY_VALUES


class TestInclusionExclusion:
    def test_hand_example_basis5(self):
        # 5 - ((5+1)//5 + (5+4)//5) = 3
        assert inclusion_exclusion_count(basis_from_primes([5]), 5) == 3

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
