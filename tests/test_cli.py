import csv
import io
import json
import subprocess
import sys

import pytest

from quadsieve.cli import main

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


class TestEntryPoint:
    def test_console_script(self):
        out = subprocess.run(
            [sys.executable, "-m", "quadsieve.cli", "terms", "1..3", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout.splitlines()[1] == "1,5,5"
