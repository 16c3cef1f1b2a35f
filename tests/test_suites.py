import pytest

from quadsieve import naive_factor
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
