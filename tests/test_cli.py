import csv
import io
import json
import subprocess
import sys

import numpy as np
import pytest

import quadsieve._kernels as kernels
import quadsieve.sieve as sieve
from quadsieve import is_prime, oracle, primes_1mod4, sieve_range
from quadsieve.cli import Emitter, main

from golden import GOLDEN_30


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


class TestTermsWindow:
    @pytest.mark.parametrize(
        "lo, hi, extra",
        [(1, 3000, ()), (99_001, 100_000, ()), (99_001, 100_000, ("--workers", "2", "--segment-size", "128"))],
    )
    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_renderer_matches_emitter(self, capsys, lo, hi, extra, fmt):
        code, out, _ = run_cli(capsys, "terms", f"{lo}..{hi}", "--format", fmt, *extra)
        assert code == 0
        expected = io.StringIO()
        emit = Emitter(fmt, out=expected)
        for t in sieve_range(hi):
            if t.n >= lo:
                emit.write("term", {"n": t.n, "value": t.value, "factors": [list(f) for f in t.factors]})
        assert out == expected.getvalue()

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

    def test_invariant_failure_exits_1_without_traceback(self, capsys, monkeypatch):
        original = kernels._strike_np

        def corrupt(*args):
            pos, ps, es, cof = original(*args)
            es[0] = 0
            return pos, ps, es, cof

        monkeypatch.setattr(kernels, "_strike_np", corrupt)
        for argv in (["terms", "1..100"], ["bench", "--limit", "100"]):
            code, _, err = run_cli(capsys, *argv)
            assert code == 1, argv
            assert err.startswith("error: internal invariant failed: ")
            assert "Traceback" not in err

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_oracle_writes_the_same_bytes(self, capsys, fmt):
        _, plain, _ = run_cli(capsys, "terms", "4001..5000", "--format", fmt)
        code, checked, _ = run_cli(capsys, "terms", "4001..5000", "--oracle", "--format", fmt)
        assert code == 0 and checked == plain

    def test_oracle_mismatch_exits_1_after_the_agreeing_lines(self, capsys, monkeypatch):
        original = oracle.naive_factor

        def wrong_at_65(value):
            return [] if value == 65 else original(value)

        monkeypatch.setattr(oracle, "naive_factor", wrong_at_65)
        code, out, err = run_cli(capsys, "terms", "1..10", "--oracle", "--format", "csv")
        assert code == 1
        assert out.splitlines() == ["n,value,factors", "1,5,5", "2,17,17", "3,37,37"]
        assert err.startswith("oracle mismatch at n=4: sieve said ((5, 1), (13, 1))")

    def test_missing_index_exits_1(self, capsys, monkeypatch):
        original = kernels._strike_np

        def drop_first_index(*args):
            pos, ps, es, cof = original(*args)
            keep = pos != pos[0]
            return pos[keep], ps[keep], es[keep], cof

        monkeypatch.setattr(kernels, "_strike_np", drop_first_index)
        code, _, err = run_cli(capsys, "terms", "1..100", "--format", "json-lines")
        assert code == 1
        assert err.startswith("error: internal invariant failed: segment [1,101) is missing indices")

    @pytest.mark.parametrize("fmt", ["table", "csv", "json-lines"])
    def test_segment_wider_than_two_to_the_16_writes_the_same_bytes(self, capsys, fmt):
        # one 70000-index segment takes the radix order's second digit pass
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


class TestBench:
    def test_digest_stability(self, capsys):
        digests = set()
        for seg in ("1", "4096"):
            code, out, _ = run_cli(
                capsys, "bench", "--limit", "20000", "--segment-size", seg, "--format", "json-lines"
            )
            assert code == 0
            digests.add(json.loads(out)["digest"])
        assert len(digests) == 1

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


class TestEntryPoint:
    def test_console_script(self):
        out = subprocess.run(
            [sys.executable, "-m", "quadsieve.cli", "terms", "1..3", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.splitlines()[1] == "1,5,5"
