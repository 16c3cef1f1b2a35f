"""Every checker accepts real output and rejects a deliberately corrupted copy."""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import checkers  # noqa: E402
from checkers import CheckError  # noqa: E402
from quadsieve import cli  # noqa: E402


def _run(*argv) -> bytes:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue().encode()


def _check(check, out: bytes, **kwargs) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "stdout.txt"
        path.write_bytes(out)
        check(path, **kwargs)


def _edit_record(out: bytes, **fields) -> bytes:
    rec = json.loads(out)
    rec.update(fields)
    return (json.dumps(rec) + "\n").encode()


def test_miller_rabin_matches_trial_division():
    def slow(v):
        return v >= 2 and all(v % d for d in range(2, int(v**0.5) + 1))

    assert [v for v in range(3000) if checkers.is_prime(v)] == [v for v in range(3000) if slow(v)]
    assert checkers.is_prime(2**61 - 1)
    for carmichael in (561, 1105, 41041, 3215031751):
        assert not checkers.is_prime(carmichael)


def test_bench_digest():
    out = _run("bench", "--limit", "50", "--format", "json-lines")
    digest = json.loads(out)["digest"]
    _check(checkers.check_bench, out, limit=50, digest=digest)
    with pytest.raises(CheckError):
        _check(checkers.check_bench, out, limit=50, digest="0" * 32)
    with pytest.raises(CheckError):
        _check(checkers.check_bench, _edit_record(out, limit=49), limit=50, digest=digest)


def test_terms_jsonl_hash_and_sample():
    out = _run("terms", "1..40", "--format", "json-lines")
    sha = hashlib.sha256(out).hexdigest()
    sample = tuple(range(40))
    _check(checkers.check_terms_jsonl, out, count=40, sha256=sha, sample=sample)
    with pytest.raises(CheckError):
        _check(checkers.check_terms_jsonl, out, count=40, sha256="0" * 64, sample=sample)
    # n = 4: 65 = 5 * 13; claim 5 * 17 and re-record the hash, so only the
    # trial-division sample can catch it
    bad = out.replace(b'"n": 4, "value": 65, "factors": [[5, 1], [13, 1]]', b'"n": 4, "value": 65, "factors": [[5, 1], [17, 1]]')
    assert bad != out
    with pytest.raises(CheckError):
        _check(checkers.check_terms_jsonl, bad, count=40, sha256=hashlib.sha256(bad).hexdigest(), sample=sample)


def test_terms_table_every_line():
    out = _run("terms", "60..90")
    _check(checkers.check_terms_table, out, lo=60, hi=90)
    # n = 64: 16385 = 5 * 29 * 113
    line = next(x for x in out.decode().splitlines() if x.split()[0] == "64")
    assert line.split()[2] == "5*29*113"
    for tail in ("5*29*117", "145*113", "5*29*113*1"):
        bad = out.replace(line.encode(), line.replace("5*29*113", tail).encode())
        with pytest.raises(CheckError):
            _check(checkers.check_terms_table, bad, lo=60, hi=90)
    with pytest.raises(CheckError):
        _check(checkers.check_terms_table, out, lo=61, hi=91)


def test_roots():
    m = 5 * 5 * 13 * 17
    out = _run("roots", str(m), "--all", "--format", "json-lines")
    _check(checkers.check_roots, out, m=m, nu=3)
    roots = json.loads(out)["roots"]
    with pytest.raises(CheckError):
        _check(checkers.check_roots, _edit_record(out, roots=[roots[0] + 1, *roots[1:]]), m=m, nu=3)
    with pytest.raises(CheckError):
        _check(checkers.check_roots, _edit_record(out, roots=roots[1:]), m=m, nu=3)
    with pytest.raises(CheckError):
        _check(checkers.check_roots, _edit_record(out, cofactor=1), m=m, nu=3)


def test_census_and_verify():
    out = _run("census", "--primes", "5,13", "--horizon", "1000", "--format", "json-lines")
    _check(checkers.check_census, out, primes=(13, 5), horizon=1000)
    with pytest.raises(CheckError):
        _check(checkers.check_census, _edit_record(out, counts_agree=False), primes=(5, 13), horizon=1000)
    with pytest.raises(CheckError):
        _check(checkers.check_census, out, primes=(5, 17), horizon=1000)
    out = _run("verify", "--suite", "lemma4", "--limit", "200", "--format", "json-lines")
    _check(checkers.check_verify, out, suite="lemma4")
    with pytest.raises(CheckError):
        _check(checkers.check_verify, _edit_record(out, failures=1), suite="lemma4")
