import csv
import hashlib
import io
import json
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

import quadsieve._kernels as kernels
import quadsieve.cli as cli
import quadsieve.roots as roots
import quadsieve.sieve as sieve
import quadsieve.suites as suites
from quadsieve import is_prime, modarith, oracle, primes_1mod4, sieve_range
from quadsieve.cli import main

from golden import FIRST_BASIS_25_PRIMES, GOLDEN_30, TERMS_300K_SHA256


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTerms:
    def test_range_json_lines(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "1..4", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in records] == [1, 2, 3, 4]
        assert records[3] == {
            "type": "term",
            "n": 4,
            "value": 65,
            "factors": [[5, 1], [13, 1]],
        }

    def test_single_index(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "--from", "30", "--to", "30", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out.strip())
        assert rec["value"] == 3601 and rec["factors"] == [[13, 1], [277, 1]]

    def test_table_renders_factorization(self, capsys):
        _, out, _ = run_cli(capsys, "terms", "1..9")
        lines = out.splitlines()
        assert "5^2*13" in lines[8]
        assert "prime" in lines[0]

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "terms", "1..4", "--format", "csv")
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["n", "value", "factors"]
        assert rows[4] == ["4", "65", "5*13"]

    def test_oracle_flag(self, capsys):
        code, _, _ = run_cli(capsys, "terms", "1..200", "--oracle", "--format", "json-lines")
        assert code == 0

    def test_bad_range(self, capsys):
        code, _, err = run_cli(capsys, "terms", "9..3")
        assert code == 2
        assert "error" in err

    def test_deterministic_across_workers(self, capsys):
        outs = set()
        for workers in ("1", "4"):
            _, out, _ = run_cli(
                capsys, "terms", "1..5000", "--format", "json-lines",
                "--workers", workers, "--segment-size", "512",
            )
            outs.add(out)
        assert len(outs) == 1

    def test_every_segment_strikes_on_the_calling_thread(self, capsys, monkeypatch):
        # many CPUs and --workers 4: the flag is accepted, the strike stays serial
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        threads = set()
        original = sieve.sieve_segment

        def spy(*args):
            threads.add(threading.get_ident())
            return original(*args)

        monkeypatch.setattr(sieve, "sieve_segment", spy)
        code, out, _ = run_cli(capsys, "terms", "1..5000", "--workers", "4", "--segment-size", "512")
        assert code == 0 and len(out.splitlines()) == 5000
        assert threads == {threading.get_ident()}


class TestTermsWindow:
    @pytest.mark.parametrize(
        "lo, hi, extra",
        [(1, 3000, ()), (99_001, 100_000, ()), (99_001, 100_000, ("--workers", "2", "--segment-size", "128"))],
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_renderer_matches_reference(self, capsys, lo, hi, extra, fmt):
        code, out, _ = run_cli(capsys, "terms", f"{lo}..{hi}", "--format", fmt, *extra)
        assert code == 0
        # the reference renders each record the slow, general way
        expected = io.StringIO()
        rows = csv.writer(expected, lineterminator="\n")
        if fmt == "csv":
            rows.writerow(["n", "value", "factors"])
        for t in sieve_range(hi):
            if t.n < lo:
                continue
            shown = "*".join(f"{p}^{e}" if e > 1 else str(p) for p, e in t.factors)
            if fmt == "json-lines":
                record = {"type": "term", "n": t.n, "value": t.value, "factors": [list(f) for f in t.factors]}
                expected.write(json.dumps(record) + "\n")
            elif fmt == "csv":
                rows.writerow([t.n, t.value, shown])
            else:
                tail = "prime" if t.factors == ((t.value, 1),) else shown
                expected.write(f"{t.n:>10}  {t.value:>14}  {tail}\n")
        want = expected.getvalue()
        # hashes, not the strings: pytest's diff of two long outputs takes minutes
        first = next((pair for pair in zip(out.splitlines(), want.splitlines()) if pair[0] != pair[1]), None)
        assert hashlib.sha256(out.encode()).digest() == hashlib.sha256(want.encode()).digest(), first

    @pytest.mark.parametrize("extra", [(), ("--workers", "2", "--segment-size", "100")])
    def test_never_strikes_below_window(self, capsys, monkeypatch, extra):
        struck = []
        original = sieve.sieve_segment

        def spy(lo, hi, *args):
            struck.append((lo, hi))
            return original(lo, hi, *args)

        monkeypatch.setattr(sieve, "sieve_segment", spy)
        code, out, _ = run_cli(capsys, "terms", "50001..51000", *extra)
        assert code == 0 and len(out.splitlines()) == 1000
        assert min(lo for lo, _ in struck) == 50_001
        assert max(hi for _, hi in struck) == 51_001

    def test_window_near_1e7_factors_are_primes_multiplying_back(self, capsys):
        lo, hi = 9_999_001, 10_000_000
        code, out, _ = run_cli(capsys, "terms", f"{lo}..{hi}", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert [r["n"] for r in records] == list(range(lo, hi + 1))
        for r in records:
            assert r["value"] == 4 * r["n"] ** 2 + 1
            product = 1
            for p, e in r["factors"]:
                assert p % 4 == 1 and is_prime(p), (r["n"], p)
                product *= p**e
            assert product == r["value"], r["n"]

    def test_refused_range_writes_no_csv_header(self, capsys):
        for argv in (["1..3", "--segment-size", "0"], ["1..1518500250"]):
            code, out, _ = run_cli(capsys, "terms", *argv, "--format", "csv")
            assert code == 2 and out == "", argv

    @pytest.mark.parametrize(
        "window, message",
        [
            ("0..5", "need 1 <= start <= n_max, got start=0, n_max=5"),
            ("5..3", "need 1 <= start <= n_max, got start=5, n_max=3"),
            ("0..0", "n_max must be >= 1, got 0"),
        ],
    )
    def test_bad_window_is_refused_by_the_plan_before_sieving(self, capsys, monkeypatch, window, message):
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        code, out, err = run_cli(capsys, "terms", window, "--format", "csv")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_invariant_failure_exits_1_without_traceback(self, capsys, monkeypatch):
        original = kernels._hits

        def duplicate_first(*args):  # a hit struck twice fails multiply-back
            pos, ps = original(*args)
            return np.append(pos, pos[:1]), np.append(ps, ps[:1])

        monkeypatch.setattr(kernels, "_hits", duplicate_first)
        for argv in (["terms", "1..100"], ["bench", "--limit", "100"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error: internal invariant failed: ")
            assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", sorted(TERMS_300K_SHA256))
    def test_300k_bytes_are_pinned(self, capsys, fmt):
        code, out, _ = run_cli(capsys, "terms", "1..300000", "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == TERMS_300K_SHA256[fmt]

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_oracle_writes_the_same_bytes(self, capsys, fmt):
        _, plain, _ = run_cli(capsys, "terms", "4001..5000", "--format", fmt)
        code, checked, _ = run_cli(capsys, "terms", "4001..5000", "--oracle", "--format", fmt)
        assert code == 0 and checked == plain

    def test_oracle_mismatch_exits_1_after_the_agreeing_lines(self, capsys, monkeypatch):
        # the certifier's primality test, told that 13 is composite, refuses 65 = 5 * 13
        original = modarith.is_prime
        monkeypatch.setattr(modarith, "is_prime", lambda v: v != 13 and original(v))
        monkeypatch.setattr(oracle, "naive_factor", lambda v: pytest.fail(f"trial-divided {v}"))
        code, out, err = run_cli(capsys, "terms", "1..10", "--oracle", "--format", "csv")
        assert code == 1
        assert out.splitlines() == ["n,value,factors", "1,5,5", "2,17,17", "3,37,37"]
        assert err == "certification failed: term 4: factor 13 is not prime\n"

    def test_oracle_mismatch_at_the_first_index_leaves_only_the_csv_header(self, capsys, monkeypatch):
        original = modarith.is_prime
        monkeypatch.setattr(modarith, "is_prime", lambda v: v != 5 and original(v))
        code, out, err = run_cli(capsys, "terms", "1..10", "--oracle", "--format", "csv")
        assert (code, out) == (1, "n,value,factors\n")
        assert err == "certification failed: term 1: factor 5 is not prime\n"

    @pytest.mark.parametrize(
        "argv",
        [["1..10", "--from", "5"], ["5", "--to", "9"], ["1..10", "--from", "1", "--to", "10"]],
    )
    def test_range_given_two_ways_is_refused_before_sieving(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        code, out, err = run_cli(capsys, "terms", *argv, "--format", "csv")
        assert (code, out) == (2, "")
        assert err == "error: give the range as a..b or as --from/--to, not both\n"

    def test_missing_index_exits_1(self, capsys, monkeypatch):
        original = sieve.strike_segment

        def drop_first_index(*args):
            pos, ps, es = original(*args)
            keep = pos != pos[0]
            return pos[keep], ps[keep], es[keep]

        monkeypatch.setattr(sieve, "strike_segment", drop_first_index)
        code, _, err = run_cli(capsys, "terms", "1..100", "--format", "json-lines")
        assert code == 1
        assert err.startswith("error: internal invariant failed: segment [1,101) is missing indices")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_segment_wider_than_two_to_the_16_writes_the_same_bytes(self, capsys, fmt):
        # one 70000-index segment puts offsets above 16 bits in the strike keys
        _, default, _ = run_cli(capsys, "terms", "1..70000", "--format", fmt)
        code, wide, _ = run_cli(
            capsys, "terms", "1..70000", "--segment-size", "70000", "--format", fmt
        )
        same = wide == default  # kept out of the assert: a 70000-line diff would crawl
        assert code == 0 and same


class TestPrimes:
    def test_limit_30(self, capsys):
        code, out, _ = run_cli(capsys, "primes", "--limit", "30", "--format", "json-lines")
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[-1] == {"type": "summary", "count": 13}
        assert [r["n"] for r in records[:-1]] == [
            n for n, _, shown in GOLDEN_30 if shown is None
        ]


class TestRoots:
    def test_summary(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "13", "--format", "json-lines")
        assert code == 0
        assert json.loads(out) == {
            "type": "roots",
            "m": 13,
            "least_root": 4,
            "cofactor": 5,
        }

    def test_all(self, capsys):
        code, out, _ = run_cli(capsys, "roots", "65", "--all", "--format", "json-lines")
        assert json.loads(out)["roots"] == [4, 9, 56, 61]

    def test_no_roots_names_offender(self, capsys):
        code, _, err = run_cli(capsys, "roots", "21")
        assert code == 2
        assert "3" in err

    def test_oracle(self, capsys):
        code, _, _ = run_cli(capsys, "roots", "325", "--all", "--oracle", "--format", "json-lines")
        assert code == 0

    @pytest.mark.parametrize("flags", [(), ("--all",), ("--oracle",), ("--all", "--oracle")])
    def test_root_set_is_built_once(self, capsys, monkeypatch, flags):
        # one factorization and one RootSet per call, whatever the flags
        factored = []
        original = oracle.naive_factor
        monkeypatch.setattr(oracle, "naive_factor", lambda v: factored.append(v) or original(v))
        code, out, _ = run_cli(capsys, "roots", "4225", *flags, "--format", "json-lines")
        assert code == 0 and factored == [4225]
        record = json.loads(out)
        assert (record["least_root"], record["cofactor"]) == (134, 17)
        assert record.get("roots", [134, 641, 3584, 4091]) == [134, 641, 3584, 4091]

    def test_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "naive_root_scan", lambda m: [1])
        code, out, err = run_cli(capsys, "roots", "65", "--oracle")
        assert (code, out) == (1, "")
        assert err == "oracle mismatch for m=65: built [4, 9, 56, 61], scan [1]\n"

    @pytest.mark.parametrize("m", ["13", "65", "169"])
    def test_a_wrong_root_of_its_own_exits_1_at_every_modulus(self, capsys, monkeypatch, m):
        # 5 is not a root mod 13.  extend_roots refuses it for 13 and 65 and
        # the first lift for 169; the root is the program's own, so each is
        # an internal fault (exit 1), never bad input (exit 2)
        original = roots.sqrt_minus_one
        monkeypatch.setattr(roots, "sqrt_minus_one", lambda p: 5 if p == 13 else original(p))
        code, out, err = run_cli(capsys, "roots", m)
        assert (code, out) == (1, "")
        assert err.startswith("error: internal invariant failed: ")

    def test_modulus_above_64_bits_is_refused_before_factoring(self, capsys, monkeypatch):
        # 2**89 - 1 is prime: trial division up to its square root would not end
        monkeypatch.setattr(oracle, "naive_factor", lambda v: pytest.fail(f"factored {v}"))
        code, out, err = run_cli(capsys, "roots", str(2**89 - 1))
        assert (code, out) == (2, "")
        assert err == "error: modulus 618970019642690137449562111 exceeds the 64-bit range\n"

    def test_64_bit_prime_is_answered_without_trial_division(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "naive_factor", lambda v: pytest.fail(f"factored {v}"))
        code, out, err = run_cli(capsys, "roots", str(2**64 - 59), "--format", "json-lines")
        assert (code, err) == (0, "")
        assert out == (
            '{"type": "roots", "m": 18446744073709551557, "least_root": 8075361104824483608, '
            '"cofactor": 14140480664281996301}\n'
        )

    def test_64_bit_class_3_prime_is_refused_without_trial_division(self, capsys, monkeypatch):
        monkeypatch.setattr(oracle, "naive_factor", lambda v: pytest.fail(f"factored {v}"))
        code, out, err = run_cli(capsys, "roots", str(2**64 - 189))
        assert (code, out) == (2, "")
        assert err == (
            "error: 18446744073709551427 has prime factor 18446744073709551427 "
            "in class 3 mod 4; no roots exist\n"
        )

    def test_composite_above_the_factor_cap_is_refused_before_trial_division(self, capsys, monkeypatch):
        # 100000037 * 100001053: trial division would take about 7 s
        m = 10000109000038961
        original = oracle.naive_factor
        monkeypatch.setattr(
            oracle, "naive_factor", lambda v: pytest.fail(f"factored {v}") if v == m else original(v)
        )
        code, out, err = run_cli(capsys, "roots", str(m))
        assert (code, out) == (2, "")
        assert err == f"error: composite modulus {m} exceeds the trial-division cap 10000000000000000\n"

    def test_smooth_composite_below_the_factor_cap_is_answered(self, capsys, monkeypatch):
        factored = []
        original = oracle.naive_factor
        monkeypatch.setattr(oracle, "naive_factor", lambda v: factored.append(v) or original(v))
        code, out, err = run_cli(capsys, "roots", str(5**22), "--format", "json-lines")
        assert (code, err, factored) == (0, "", [5**22])
        assert out == (
            '{"type": "roots", "m": 2384185791015625, "least_root": 1136602234515091, '
            '"cofactor": 2167389209973245}\n'
        )


class TestCensus:
    def test_k1(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--k", "1", "--format", "json-lines")
        rec = json.loads(out)
        assert (rec["ie_count"], rec["exact_count"], rec["product_value"]) == (3, 3, 3)
        assert rec["counts_agree"] and rec["product_matches"]

    def test_k2(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--k", "2", "--format", "json-lines")
        rec = json.loads(out)
        assert (rec["ie_count"], rec["exact_count"], rec["product_value"]) == (45, 45, 45)

    def test_explicit_primes_with_horizon(self, capsys):
        code, out, _ = run_cli(
            capsys, "census", "--primes", "5,13", "--horizon", "100", "--format", "json-lines"
        )
        rec = json.loads(out)
        assert rec["counts_agree"]
        assert rec["horizon"] == 100

    def test_requires_exactly_one_selector(self, capsys):
        code, _, err = run_cli(capsys, "census")
        assert code == 2

    def test_k8_horizon_is_refused_at_once(self):
        # a subprocess, so that a lost cap fails on the timeout instead of
        # counting 6e12 indices
        out = subprocess.run(
            [sys.executable, "-m", "quadsieve.cli", "census", "--k", "8"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr.startswith("error: exact_coprime_count is capped at horizon")

    def test_k4_line(self, capsys):
        code, out, _ = run_cli(capsys, "census", "--k", "4", "--format", "json-lines")
        assert code == 0
        assert out == (
            '{"type": "census", "k": 4, "primes": [5, 17, 37, 13], "n_product": 40885, '
            '"horizon": 40885, "ie_count": 17325, "exact_count": 17325, '
            '"product_value": 17325, "counts_agree": true, "product_matches": true, '
            '"nu_table": {"1": 0, "5": 1, "13": 1, "17": 1, "37": 1, "65": 2, "85": 2, '
            '"185": 2, "221": 2, "481": 2, "629": 2, "1105": 3, "2405": 3, "3145": 3, '
            '"8177": 3, "40885": 4}}\n'
        )

    @pytest.mark.parametrize(
        "selector",
        [
            ("--k", "11"),
            ("--primes", "5,17,37,13,101,29,197,257,401,577,677,157,53,41,89,1297,1601,353"),
        ],
    )
    def test_product_overflow_lists_the_whole_basis(self, capsys, selector):
        code, out, err = run_cli(capsys, "census", *selector, "--horizon", "10")
        assert code == 2 and out == ""
        prefix = "error: basis product exceeds the 64-bit range: "
        assert err.startswith(prefix)
        listed = json.loads(err[len(prefix) :])
        if selector[0] == "--k":
            assert listed == FIRST_BASIS_25_PRIMES[:11]
        else:
            assert sorted(listed) == sorted(map(int, selector[1].split(",")))

    @pytest.mark.parametrize("k", ["28", "1000000000"])
    def test_oversized_k_is_refused_before_the_basis_is_built(self, capsys, monkeypatch, k):
        def must_not_run(k):
            raise AssertionError(f"first_k_basis({k}) was called")

        monkeypatch.setattr(cli, "first_k_basis", must_not_run)
        code, out, err = run_cli(capsys, "census", "--k", k)
        assert code == 2 and out == ""
        assert err == f"error: basis product exceeds the 64-bit range: {k} primes, each >= 5\n"

    def test_debut_mismatch_exits_1(self, capsys, monkeypatch):
        original = sieve.modarith.sqrt_minus_one
        monkeypatch.setattr(sieve.modarith, "sqrt_minus_one", lambda p: original(p) + 1)
        code, out, err = run_cli(capsys, "census", "--k", "3")
        assert code == 1 and out == ""
        assert err.startswith("error: internal invariant failed: first appearance of 5 at 1")


class TestVerify:
    def test_single_suite_ok(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "lemma5", "--limit", "200", "--format", "json-lines"
        )
        assert code == 0
        rec = json.loads(out)
        assert rec["failures"] == 0 and rec["cases"] > 0

    def test_main_identity_suite(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "main-identity", "--limit", "3", "--format", "json-lines"
        )
        assert code == 0

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["verify", "--suite", "lemma9"])

    @pytest.mark.parametrize("suite", ["all", *suites.SUITES])
    def test_limit_below_one_is_refused_before_any_suite_runs(self, capsys, monkeypatch, suite):
        for name in suites.SUITES:
            monkeypatch.setitem(suites.SUITES, name, lambda limit: pytest.fail("a suite ran"))
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--limit", "0")
        assert code == 2 and out == ""
        assert err == "error: limit must be >= 1, got 0\n"


    @pytest.mark.parametrize("suite", ["lemma4", "lemma5"])
    def test_prime_limit_past_the_ceiling_is_refused_before_sieving(self, capsys, monkeypatch, suite):
        # 10**13 bools would not fit in memory; the refusal comes before np.ones
        monkeypatch.setattr(sieve.np, "ones", lambda *a, **k: pytest.fail("allocated"))
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--limit", "10000000000000")
        assert code == 2 and out == ""
        assert err == f"error: prime limit 10000000000000 exceeds the int64 ceiling {2 * kernels.MAX_INDEX}\n"


    @pytest.mark.parametrize(
        "argv, message",
        [(["--limit", "6"], "identity check supports 1 <= k <= 5, got 6"),
         (["--suite", "second-proof", "--limit", "6"],
          "witness supports 1 <= k <= 5 at desk scale, got 6"),
         (["--limit", "1518500250"], "index 1518500250 exceeds the int64 ceiling 1518500249")],
    )
    def test_limit_a_later_suite_refuses_is_refused_before_any_suite_runs(
        self, capsys, monkeypatch, argv, message
    ):
        # lemma1 would sieve first; the refusal that comes first in suite order is named
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        for name in suites.SUITES:
            monkeypatch.setitem(suites.SUITES, name, lambda limit: pytest.fail("a suite ran"))
        code, out, err = run_cli(capsys, "verify", *argv)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_index_limit_past_the_ceiling_is_refused_before_lemma2_scans(self, capsys, monkeypatch):
        monkeypatch.setattr(suites, "lemma2_witness", lambda n: pytest.fail(f"witnessed {n}"))
        limit = str(kernels.MAX_INDEX + 1)
        code, out, err = run_cli(capsys, "verify", "--suite", "lemma2", "--limit", limit)
        assert code == 2 and out == ""
        assert err == f"error: index {limit} exceeds the int64 ceiling {kernels.MAX_INDEX}\n"


class TestBench:
    def test_digest_stability(self, capsys):
        digests = set()
        for seg, workers in (("1", "1"), ("4096", "64")):
            code, out, _ = run_cli(
                capsys, "bench", "--limit", "20000", "--segment-size", seg, "--workers", workers,
                "--format", "json-lines",
            )
            assert code == 0
            rec = json.loads(out)
            assert rec["chunk"] == 4096  # segment size 1 is raised to the chunk floor
            assert rec["workers"] == int(workers)  # echoed, though striking is serial
            digests.add(rec["digest"])
        assert digests == {"712740d2afcd3a5660eedc8e36fc92a1"}

    def test_peak_segment_bytes_counts_the_plan(self, capsys):
        code, out, _ = run_cli(capsys, "bench", "--limit", "20000", "--format", "json-lines")
        assert code == 0
        rec = json.loads(out)
        chunk = 65536
        n_primes = primes_1mod4(2 * 20000).size
        assert rec["chunk"] == chunk
        assert rec["peak_segment_bytes"] == chunk * 8 + chunk * 12 * 24 + n_primes * 16
        assert rec["digest"] == "712740d2afcd3a5660eedc8e36fc92a1"

    def test_both_engines_agree(self, capsys):
        # --engine stays for compatibility: numpy and auto run the same kernels
        records = []
        for engine in ("numpy", "auto"):
            code, out, _ = run_cli(
                capsys, "bench", "--limit", "5000", "--engine", engine, "--format", "json-lines"
            )
            assert code == 0
            records.append(json.loads(out))
        assert len({r["digest"] for r in records}) == 1
        assert {r["engine"] for r in records} == {"numpy"}
        for argv in (
            ["terms", "1..3", "--engine", "numba"],
            ["verify", "--suite", "lemma5", "--engine", "numba"],
            ["bench", "--limit", "100", "--engine", "both"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv

    def test_multiply_back_failure_exits_1(self, capsys, monkeypatch):
        original = kernels._hits

        def duplicate_first(*args):
            pos, ps = original(*args)
            return np.append(pos, pos[:1]), np.append(ps, ps[:1])

        monkeypatch.setattr(kernels, "_hits", duplicate_first)
        code, out, err = run_cli(capsys, "bench", "--limit", "1000", "--format", "json-lines")
        assert code == 1 and out == ""
        assert err.startswith("error: internal invariant failed: struck factors of index")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 9: no check yet that the plan is whole")
    def test_plan_missing_a_prime_exits_1(self, capsys, monkeypatch):
        # at index 856907 the leftover is 1298641 * 2261717, above 2n, so the
        # segment checks pass the composite 2937158426597 as a prime
        original = sieve.primes_1mod4

        def without_1298641(limit):
            primes = original(limit)
            return primes[primes != 1298641]

        monkeypatch.setattr(sieve, "primes_1mod4", without_1298641)
        code, _, _ = run_cli(capsys, "bench", "--limit", "1000000", "--format", "json-lines")
        assert code == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_strike_failure_after_the_first_segment_ends_the_hasher(self, capsys, monkeypatch, workers):
        original = sieve.strike_segment

        def bad_root_after_first(lo, hi, primes, roots):
            if lo > 1:  # the first segment is struck and handed to the hasher
                roots = roots.copy()
                roots[0] += 1  # 5's root 1 becomes 2, and 5 does not divide 17
            return original(lo, hi, primes, roots)

        monkeypatch.setattr(sieve, "strike_segment", bad_root_after_first)
        before = threading.active_count()
        code, out, err = run_cli(
            capsys, "bench", "--limit", "20000", "--segment-size", "4096", "--workers", workers,
        )
        assert code == 1 and out == ""
        assert err.startswith("error: internal invariant failed: strike kernel marked index")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert threading.active_count() == before


class TestRefusedBeforeThePlan:
    @pytest.mark.parametrize(
        "argv", [["terms", "1..5"], ["terms", "1..10000000"], ["primes", "--limit", "10000000"],
                 ["bench", "--limit", "10000000"]],
    )
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--segment-size", "0", "segment_size must be >= 1, got 0"),
         ("--workers", "0", "workers must be >= 1, got 0"),
         ("--workers", "-2", "workers must be >= 1, got -2")],
    )
    def test_bad_segment_size_or_workers(self, capsys, monkeypatch, argv, flag, value, message):
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        code, out, err = run_cli(capsys, *argv, flag, value, "--format", "csv")
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("argv", [["terms", "1..1518500250"], ["primes", "--limit", "1518500250"],
                                      ["bench", "--limit", "1518500250"]])
    def test_index_ceiling_is_named_first(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sieve, "primes_1mod4", lambda limit: pytest.fail(f"sieved to {limit}"))
        code, out, err = run_cli(capsys, *argv, "--segment-size", "0", "--workers", "-2")
        assert (code, out) == (2, "")
        assert err == "error: index 1518500250 exceeds the int64 ceiling 1518500249\n"


class TestEntryPoint:
    def test_console_script(self):
        out = subprocess.run(
            [sys.executable, "-m", "quadsieve.cli", "terms", "1..3", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.splitlines()[1] == "1,5,5"

    def test_closed_pipe_exits_0_without_stderr(self):
        # `quadsieve terms 1..200000 --format json-lines | head -n 1`
        proc = subprocess.Popen(
            [sys.executable, "-m", "quadsieve.cli", "terms", "1..200000", "--format", "json-lines"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        first = proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 0
        assert first == '{"type": "term", "n": 1, "value": 5, "factors": [[5, 1]]}\n'
        assert err == ""
