import pytest

from quadsieve import naive_factor, suites
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
