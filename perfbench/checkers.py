"""Output checks for the benchmark, independent of the code they check.

Each checker reads the file a CLI call's stdout went to and raises
CheckError on the first mismatch.  Large output is streamed, so checking
adds little to the worker's peak RSS.  Primality is decided by the
benchmark's own Miller-Rabin, roots are checked by substitution, and the
only quadsieve code used is the trial-division oracle, which shares no
logic with the sieve whose output it samples.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

# Strong-pseudoprime bases that make Miller-Rabin exact below 3.3e24.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


class CheckError(Exception):
    """A CLI call's output differs from what the benchmark expects."""


def is_prime(v: int) -> bool:
    """Deterministic Miller-Rabin for v < 3.3e24."""
    if v < 2:
        return False
    for b in _MR_BASES:
        if v % b == 0:
            return v == b
    d, s = v - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, v)
        if x in (1, v - 1):
            continue
        for _ in range(s - 1):
            x = x * x % v
            if x == v - 1:
                break
        else:
            return False
    return True


def first_appearance_primes(k: int) -> list[int]:
    """The first k primes to divide some 4n^2+1, in order of first appearance."""
    found: list[int] = []
    n = 0
    while len(found) < k:
        n += 1
        v, d = 4 * n * n + 1, 5
        while d * d <= v:
            if v % d == 0:
                if d not in found:
                    found.append(d)
                while v % d == 0:
                    v //= d
            d += 4  # every prime factor of 4n^2+1 is 1 mod 4
        if v > 1 and v not in found:
            found.append(v)
    return found[:k]


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _record(out: Path, rtype: str) -> dict:
    """The one JSON-lines record of type rtype a call printed."""
    try:
        records = [json.loads(line) for line in out.read_text().splitlines()]
    except ValueError as exc:
        raise CheckError(f"stdout is not JSON lines: {exc}") from exc
    _expect(len(records) == 1, f"expected one record, got {len(records)}")
    _expect(records[0].get("type") == rtype, f"expected a {rtype} record, got {records[0].get('type')!r}")
    return records[0]


def _check_factors(n: int, value: int, factors: list[tuple[int, int]]) -> None:
    _expect(value == 4 * n * n + 1, f"n={n}: value {value} is not 4n^2+1")
    prod, last = 1, 0
    for p, e in factors:
        _expect(p > last and e >= 1, f"n={n}: factors {factors} not ascending")
        _expect(p % 4 == 1 and is_prime(p), f"n={n}: factor {p} is not a prime = 1 mod 4")
        prod *= p**e
        last = p
    _expect(prod == value, f"n={n}: factors multiply to {prod}, not {value}")


def check_bench(out: Path, limit: int, digest: str) -> None:
    """`bench --format json-lines`: the digest is a fixed point of the sieve."""
    rec = _record(out, "bench")
    _expect(rec.get("limit") == limit, f"bench limit {rec.get('limit')} != {limit}")
    _expect(rec.get("digest") == digest, f"digest {rec.get('digest')} != {digest}")


def check_terms_jsonl(out: Path, count: int, sha256: str, sample: tuple[int, ...]) -> None:
    """`terms 1..count --format json-lines`: byte-identical to the recorded
    output, and the sampled lines agree with trial division."""
    from quadsieve.oracle import naive_factor

    digest = hashlib.sha256()
    picked = {}
    wanted = set(sample)
    lines = 0
    with open(out, "rb") as f:
        for i, line in enumerate(f):
            digest.update(line)
            if i in wanted:
                picked[i] = line
            lines += 1
    got = digest.hexdigest()
    _expect(got == sha256, f"stdout sha256 {got} != recorded {sha256}")
    _expect(lines == count, f"expected {count} lines, got {lines}")
    for i in sample:
        rec = json.loads(picked[i])
        n, value = rec["n"], rec["value"]
        _expect(n == i + 1, f"line {i + 1} holds n={n}")
        factors = [tuple(f) for f in rec["factors"]]
        _expect(value == 4 * n * n + 1, f"n={n}: value {value} is not 4n^2+1")
        _expect(factors == naive_factor(value), f"n={n}: factors {factors} differ from trial division")


def check_terms_table(out: Path, lo: int, hi: int) -> None:
    """`terms lo..hi` in table format: every line fully checked."""
    lines = out.read_text().splitlines()
    _expect(len(lines) == hi - lo + 1, f"expected {hi - lo + 1} lines, got {len(lines)}")
    for n, line in enumerate(lines, start=lo):
        fields = line.split()
        _expect(len(fields) == 3, f"malformed line {line!r}")
        _expect(int(fields[0]) == n, f"expected n={n}, got line {line!r}")
        value = int(fields[1])
        if fields[2] == "prime":
            factors = [(value, 1)]
        else:
            factors = []
            for part in fields[2].split("*"):
                p, _, e = part.partition("^")
                factors.append((int(p), int(e or 1)))
        _check_factors(n, value, factors)


def check_census(out: Path, primes: tuple[int, ...], horizon: int) -> None:
    """`census --format json-lines`: both counts present and in agreement."""
    rec = _record(out, "census")
    _expect(sorted(rec["primes"]) == sorted(primes), f"census primes {rec['primes']} != {primes}")
    _expect(rec["horizon"] == horizon, f"census horizon {rec['horizon']} != {horizon}")
    _expect(rec["counts_agree"] is True, f"census counts disagree: {rec}")
    _expect(rec["ie_count"] == rec["exact_count"], f"census counts differ: {rec}")


def check_roots(out: Path, m: int, nu: int) -> None:
    """`roots m --all --format json-lines`: 2^nu distinct roots, each a solution."""
    rec = _record(out, "roots")
    roots = rec["roots"]
    _expect(rec["m"] == m, f"roots record for m={rec['m']}, expected {m}")
    _expect(len(roots) == 2**nu, f"m={m}: {len(roots)} roots, expected {2**nu}")
    _expect(len(set(roots)) == len(roots), f"m={m}: repeated roots")
    for r in roots:
        _expect(0 < r < m and (4 * r * r + 1) % m == 0, f"m={m}: {r} is not a root")
    least = min(roots)
    _expect(rec["least_root"] == least, f"m={m}: least_root {rec['least_root']} != {least}")
    _expect(rec["cofactor"] * m == 4 * least * least + 1, f"m={m}: wrong cofactor {rec['cofactor']}")


def check_verify(out: Path, suite: str) -> None:
    """`verify --suite NAME --format json-lines`: cases run, none failed."""
    rec = _record(out, "verify")
    _expect(rec["suite"] == suite, f"verify record for {rec['suite']}, expected {suite}")
    _expect(rec["cases"] > 0, f"suite {suite} ran no cases")
    _expect(rec["failures"] == 0, f"suite {suite} reported failures: {rec}")
