import importlib
import json
import sys
from collections import Counter

import numpy as np
import pytest

from quadsieve import modarith, naive_factor, naive_root_scan, oracle, suites
from quadsieve.errors import RangeError
from quadsieve.roots import RootSummary
from quadsieve.sieve import SieveSegment, Term, term_value
from quadsieve.cli import main
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


def test_second_proof_refuses_k6_before_building_a_witness(monkeypatch):
    census = importlib.import_module("quadsieve.census")  # the package exports census()
    for module in (census, suites):
        monkeypatch.setattr(module, "second_proof_witness", lambda k: pytest.fail(f"built k={k}"))
    with pytest.raises(RangeError, match="witness supports 1 <= k <= 5 at desk scale, got 6"):
        run_suite("second-proof", 6)


def test_iter_pp_matches_trial_division():
    # every odd m with all primes = 1 (mod 4), in order, with its factors and
    # the root set it carries checked against trial division and the root scan
    expected = []
    for m in range(3, 3001, 2):
        factors = naive_factor(m)
        if all(p % 4 == 1 for p, _ in factors):
            expected.append((m, factors, naive_root_scan(m)))
    walked = [(m, list(factors), list(rs.roots)) for m, factors, rs in iter_pp(3000)]
    assert walked == expected
    assert all(rs.m == m and rs.nu == len(factors) for m, factors, rs in iter_pp(3000))


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


def test_second_proof_reports_a_factorization_the_certifier_refuses(monkeypatch):
    # at k = 3, N = 5 * 17 * 37 = 3145 and the value 39564101 = 197 * 229 * 877;
    # an oracle that calls it prime is refused by Term.verify, and the
    # primality flag, which is_prime sets, disagrees with it too
    original = oracle.naive_factor
    monkeypatch.setattr(
        oracle, "naive_factor", lambda v: [(39564101, 1)] if v == 39564101 else original(v)
    )
    result = run_suite("second-proof", 3)
    assert (result.cases, result.failures) == (3, 2)
    assert result.examples == [
        "k=3: term 3145: factor 39564101 is not prime",
        "k=3: primality flag disagrees with factorization",
    ]


def test_lemma2_reports_prime_terms_when_is_prime_says_composite(monkeypatch):
    # a prime value shares no factor with any smaller value, so a primality
    # test that calls everything composite turns each prime term into a
    # counterexample
    monkeypatch.setattr(modarith, "is_prime", lambda v: False)
    result = run_suite("lemma2", 200)
    prime_n = [n for n in range(2, 201) if naive_factor(term_value(n)) == [(term_value(n), 1)]]
    assert result.failures == len(prime_n) > 0
    assert [e.split(":")[0] for e in result.examples] == [f"n={n}" for n in prime_n[:10]]


_DROPPED = {  # entries a faulty sieve leaves out, and what lemma3 must report
    # 13 divides 4*30**2 + 1 = 3601 = 13*277
    "entry-30-13": (
        lambda pos, ps: (pos == 30) & (ps == 13),
        "p=13: struck positions differ from scan at [30]",
    ),
    "every-5": (
        lambda pos, ps: ps == 5,
        "p=5: struck positions differ from scan at [1, 4, 6, 9, 11]",
    ),
}


@pytest.mark.parametrize("dropped", _DROPPED)
def test_lemma3_reports_a_sieve_that_drops_a_basis_prime_entry(monkeypatch, dropped):
    # the suite reads the sieve's own segments, so a fault in the strike shows
    drop, example = _DROPPED[dropped]
    original = suites._segments

    def faulty(*args, **kwargs):
        for seg in original(*args, **kwargs):
            keep = ~drop(seg.positions, seg.primes)
            yield SieveSegment(
                seg.lo, seg.hi, seg.positions[keep], seg.primes[keep], seg.exponents[keep]
            )

    monkeypatch.setattr(suites, "_segments", faulty)
    result = run_suite("lemma3", 1000)
    assert (result.cases, result.failures) == (25, 1)
    assert result.examples == [example]


def test_lemma4_reports_a_root_outside_the_bounds(monkeypatch):
    # the greatest root in place of the least breaks 2r <= m - 1; RootSummary
    # refuses it, and the suite reports that as a failure instead of raising
    def greatest_root(root_set):
        m, r = root_set.m, root_set.roots[-1]
        return RootSummary(m=m, least_root=r, cofactor=(4 * r * r + 1) // m)

    monkeypatch.setattr(suites, "root_summary", greatest_root)
    result = run_suite("lemma4", 100)
    assert result.cases == result.failures == len(list(iter_pp(100)))
    assert result.examples[0] == "m=5: least-root bounds violated for m=5, r=4, x=13"


def test_lemma4_records_a_wrong_prime_root_as_a_failure(monkeypatch, capsys):
    # 5 is not a root mod 13 (4*25 + 1 = 101 = 7*13 + 10).  The first step of
    # the root set mod 13 refuses it, which ends the walk as one recorded
    # failure rather than an error that leaves verify no record to print
    original = suites.least_roots_bulk
    monkeypatch.setattr(suites, "least_roots_bulk", lambda ps: np.where(ps == 13, 5, original(ps)))
    result = run_suite("lemma4", 1000)
    assert result.failures == 1
    assert result.examples == [
        f"walk stopped after {result.cases} root sets: 5 is not a root mod 13"
    ]
    assert main(["verify", "--suite", "lemma4", "--limit", "1000", "--format", "json-lines"]) == 1
    out, err = capsys.readouterr()
    assert json.loads(out)["failures"] == 1 and err == ""


def test_iter_pp_takes_every_prime_root_from_one_kernel_call(monkeypatch):
    # the walk's prime roots come from one bulk call over the sieved primes,
    # with no scalar root or primality test per prime
    calls = Counter()
    for fn in (suites.least_roots_bulk, modarith.sqrt_minus_one, modarith.is_prime):
        def counted(*args, _fn=fn):
            calls[_fn.__name__] += 1
            return _fn(*args)

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "quadsieve" and getattr(module, fn.__name__, None) is fn:
                monkeypatch.setattr(module, fn.__name__, counted)
    list(iter_pp(10**4))
    assert calls == {"least_roots_bulk": 1}


def test_lemma4_records_a_kernel_fault_as_a_failure(monkeypatch):
    # the bulk call runs inside the walk, so a fault there is one recorded
    # failure, like a root construction's, not an error out of run_suite
    def broken(primes):
        raise AssertionError("kernel fault")

    monkeypatch.setattr(suites, "least_roots_bulk", broken)
    result = run_suite("lemma4", 1000)
    assert (result.cases, result.failures) == (0, 1)
    assert result.examples == ["walk stopped after 0 root sets: kernel fault"]


def test_lemma4_records_a_failed_lift_check_as_a_failure(monkeypatch):
    # a wrong inverse in hensel_lift fails its substitution check with an
    # AssertionError, at the first lift (5 to 25, pushed when 5 is popped)
    def off_by_one(base, e, mod):
        r = pow(base, e, mod)
        return (r + 1) % mod if e == -1 else r

    monkeypatch.setattr(modarith, "pow", off_by_one, raising=False)
    result = run_suite("lemma4", 100)
    assert (result.cases, result.failures) == (1, 1)
    assert result.examples == ["walk stopped after 1 root sets: lift failed for root=1 mod 5**2"]
