import pytest

from quadsieve import modarith, naive_factor, naive_root_scan, oracle, suites
from quadsieve.sieve import Term, term_value
from quadsieve.suites import DEFAULT_LIMITS, SUITES, iter_pp, run_suite


class TestRegistry:
    def test_contract_names_present(self):
        assert set(SUITES) == {
            "lemma1",
            "lemma2",
            "lemma3",
            "lemma4",
            "lemma5",
            "eq1",
            "main-identity",
            "second-proof",
        }
        assert set(DEFAULT_LIMITS) == set(SUITES)

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            run_suite("lemma9")


def test_iter_pp_matches_trial_division():
    expected = []
    for m in range(3, 3001, 2):
        factors = naive_factor(m)
        if all(p % 4 == 1 for p, _ in factors):
            expected.append((m, factors))
    assert list(iter_pp(3000)) == expected


@pytest.mark.parametrize(
    "name,limit",
    [
        ("lemma1", 2_000),
        ("lemma2", 1_500),
        ("lemma3", 20_000),
        ("lemma4", 5_000),
        ("lemma5", 300),
        ("eq1", 2_000),
        ("main-identity", 3),
        ("second-proof", 3),
    ],
)
def test_suites_pass_at_reduced_scale(name, limit):
    result = run_suite(name, limit)
    assert result.ok, result.examples
    assert result.cases > 0
    assert result.suite == name
    assert result.limit == limit


def test_eq1_oracle_alone_catches_both_fast_paths_wrong(monkeypatch):
    # both fast counts agree with each other but are off by one; only the
    # naive oracle is left to notice, and it must do so in every case
    ie, exact = suites.inclusion_exclusion_count, suites.exact_coprime_count
    monkeypatch.setattr(suites, "inclusion_exclusion_count", lambda b, h: ie(b, h) + 1)
    monkeypatch.setattr(suites, "exact_coprime_count", lambda b, h: exact(b, h) + 1)
    result = run_suite("eq1", 2000)
    assert (result.cases, result.failures) == (200, 200)


def test_lemma1_class3_moduli_have_empty_full_scans():
    # the suite scans one class-3 prime per modulus; the full per-m scan
    # over the same moduli finds no root either, and counts the same cases
    class3 = [m for m in range(3, 3001, 2) if any(p % 4 == 3 for p, _ in naive_factor(m))]
    assert all(naive_root_scan(m) == [] for m in class3)
    assert len(class3) == run_suite("lemma1", 3000).cases - 3000


def test_lemma1_fails_on_a_planted_root(monkeypatch):
    monkeypatch.setattr(oracle, "naive_root_scan", lambda m: [1])
    result = run_suite("lemma1", 200)
    assert not result.ok
    assert result.examples[0] == "m=3 has factor 3 in class 3 mod 4 yet roots [1]"


def test_lemma1_counts_a_bad_term_once(monkeypatch):
    monkeypatch.setattr(suites, "sieve_range", lambda limit: iter([Term(2, 17, ((3, 1),))]))
    result = run_suite("lemma1", 2)
    assert (result.cases, result.failures) == (1, 1)
    assert result.examples == ["term 2: bad factor 3^1"]


def test_lemma2_reports_prime_terms_when_is_prime_says_composite(monkeypatch):
    # a prime value shares no factor with any smaller value, so a primality
    # test that calls everything composite turns each prime term into a
    # counterexample
    monkeypatch.setattr(modarith, "is_prime", lambda v: False)
    result = run_suite("lemma2", 200)
    prime_n = [n for n in range(2, 201) if naive_factor(term_value(n)) == [(term_value(n), 1)]]
    assert result.failures == len(prime_n) > 0
    assert [e.split(":")[0] for e in result.examples] == [f"n={n}" for n in prime_n[:10]]
