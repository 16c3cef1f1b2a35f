"""Command-line interface.

Commands: terms, primes, roots, census, verify, bench.  Structured output
comes as line-delimited JSON records (--format json-lines) or CSV with a
fixed, documented column order (--format csv); the default is a plain
table for reading.  Exit codes: 0 success, 1 verification, certification
or internal invariant failure or oracle mismatch, 2 bad input or range error.

`terms a..b` strikes only the window [a, b] and streams its lines: one
renderer per format (TERM_LINE) turns each Term into its line, and a
single writelines call writes each line as its Term comes off the sieve.
The range is a..b or --from/--to, never both.  The CSV header is written
as soon as sieve_range has accepted the window, which it refuses at the
call, so a refused window writes nothing.  --oracle is one loop that
certifies each Term by Term.verify, writes its line, and stops at the
first that fails, with the certifier's message on stderr and exit 1.

All limits are term indices n, never term values: `--limit 30` means the
30 terms up to 4*30*30 + 1 = 3601.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict

from . import oracle
from .census import MAX_BASIS_SIZE, census
from .errors import BadFactorizationError, QuadsieveError, RangeError
from .roots import all_roots, root_summary
from .sieve import (
    DEFAULT_SEGMENT_SIZE,
    Term,
    _digest,
    _plan,
    _segments,
    basis_from_primes,
    enumerate_primes,
    first_k_basis,
    primes_1mod4,  # noqa: F401  looked up here by perfbench's tracer and its tests
    sieve_range,
    term_value,
)
from .suites import DEFAULT_LIMITS, SUITES, check_limit, run_suite

# fixed CSV column orders; never reorder within a release
CSV_COLUMNS = {
    "term": ["n", "value", "factors"],
    "prime": ["n", "value"],
    "summary": ["count"],
    "roots": ["m", "least_root", "cofactor", "roots"],
    "census": [
        "k",
        "primes",
        "n_product",
        "horizon",
        "ie_count",
        "exact_count",
        "product_value",
        "counts_agree",
        "product_matches",
        "nu_table",
    ],
    "verify": ["suite", "limit", "cases", "failures", "examples"],
    "bench": [
        "limit",
        "segment_size",
        "chunk",
        "workers",
        "engine",
        "seconds",
        "terms_per_second",
        "digest",
        "peak_segment_bytes",
    ],
}


def _factors_str(factors) -> str:
    return "*".join([f"{p}^{e}" if e > 1 else str(p) for p, e in factors])


class Emitter:
    """Serializes typed records in one of the three output formats."""

    def __init__(self, fmt: str, out=None):
        self.fmt = fmt
        self.out = out or sys.stdout
        self._csv_header_done: set[str] = set()

    def _csv_cell(self, key, value):
        if key in ("roots", "examples", "primes"):
            return " ".join(str(v) for v in value)
        if key == "nu_table":
            return ";".join(f"{d}:{nu}" for d, nu in value.items())
        return value

    def write(self, rtype: str, record: dict) -> None:
        if self.fmt == "json-lines":
            self.out.write(json.dumps({"type": rtype, **record}) + "\n")
            return
        if self.fmt == "csv":
            cols = CSV_COLUMNS[rtype]
            writer = csv.writer(self.out, lineterminator="\n")
            if rtype not in self._csv_header_done:
                writer.writerow(cols)
                self._csv_header_done.add(rtype)
            writer.writerow([self._csv_cell(c, record.get(c, "")) for c in cols])
            return
        self._write_table(rtype, record)

    def _write_table(self, rtype: str, record: dict) -> None:
        if rtype == "prime":
            self.out.write(f"{record['n']:>10}  {record['value']:>14}\n")
        elif rtype == "summary":
            self.out.write(f"count: {record['count']}\n")
        else:
            parts = [f"{k}={self._csv_cell(k, v)}" for k, v in record.items() if k != "examples"]
            self.out.write("  ".join(parts) + "\n")
            for ex in record.get("examples", []):
                self.out.write(f"    counterexample: {ex}\n")


def _parse_range(args) -> tuple[int, int]:
    if args.range is not None:
        if args.from_ is not None or args.to is not None:
            raise ValueError("give the range as a..b or as --from/--to, not both")
        text = args.range
        if ".." in text:
            left, right = text.split("..", 1)
            return int(left), int(right)
        return 1, int(text)
    lo = args.from_ if args.from_ is not None else 1
    hi = args.to if args.to is not None else lo
    return lo, hi


def _json_line(term: Term) -> str:
    pairs = ", ".join([f"[{p}, {e}]" for p, e in term.factors])
    return f'{{"type": "term", "n": {term.n}, "value": {term.value}, "factors": [{pairs}]}}\n'


def _csv_line(term: Term) -> str:
    return f"{term.n},{term.value},{_factors_str(term.factors)}\n"


def _table_line(term: Term) -> str:
    tail = "prime" if term.is_prime_term else _factors_str(term.factors)
    return f"{term.n:>10}  {term.value:>14}  {tail}\n"


# one line per term in each format, built without a dict or json.dumps per term
TERM_LINE = {"json-lines": _json_line, "csv": _csv_line, "table": _table_line}


def cmd_terms(args) -> int:
    lo, hi = _parse_range(args)
    out, line = sys.stdout, TERM_LINE[args.format]
    terms = sieve_range(hi, args.segment_size, start=lo, workers=args.workers)
    if args.format == "csv":  # sieve_range has refused any bad window by now
        out.write(",".join(CSV_COLUMNS["term"]) + "\n")
    if not args.oracle:
        out.writelines(map(line, terms))
        return 0
    for term in terms:
        try:
            term.verify()
        except BadFactorizationError as exc:
            print(f"certification failed: {exc}", file=sys.stderr)
            return 1
        out.write(line(term))
    return 0


def cmd_primes(args) -> int:
    emit = Emitter(args.format)
    indices = enumerate_primes(args.limit, args.segment_size, workers=args.workers)
    for n in indices:
        emit.write("prime", {"n": n, "value": term_value(n)})
    if args.format == "csv":
        print(f"count: {len(indices)}", file=sys.stderr)
    else:
        emit.write("summary", {"count": len(indices)})
    return 0


def cmd_roots(args) -> int:
    emit = Emitter(args.format)
    root_set = all_roots(args.m)  # built once, whatever the flags
    summary = root_summary(root_set)
    record = {"m": args.m, "least_root": summary.least_root, "cofactor": summary.cofactor}
    if args.all:
        record["roots"] = list(root_set.roots)
    if args.oracle:
        built, scanned = list(root_set.roots), oracle.naive_root_scan(args.m)
        if built != scanned:
            print(
                f"oracle mismatch for m={args.m}: built {built}, scan {scanned}",
                file=sys.stderr,
            )
            return 1
    emit.write("roots", record)
    return 0


def cmd_census(args) -> int:
    if (args.k is None) == (args.primes is None):
        raise ValueError("give exactly one of --k or --primes")
    if args.k is not None:
        if args.k > MAX_BASIS_SIZE:  # refused before the basis is sieved
            raise RangeError(f"basis product exceeds the 64-bit range: {args.k} primes, each >= 5")
        basis = first_k_basis(args.k)
    else:
        basis = basis_from_primes(int(p) for p in args.primes.split(","))
    report = census(basis, args.horizon)
    emit = Emitter(args.format)
    emit.write(
        "census",
        {
            "k": len(report.basis),
            "primes": [b.prime for b in report.basis],
            "n_product": report.n_product,
            "horizon": report.horizon,
            "ie_count": report.ie_count,
            "exact_count": report.exact_count,
            "product_value": report.product_value,
            "counts_agree": report.counts_agree,
            "product_matches": report.product_matches,
            "nu_table": {str(d): nu for d, nu in sorted(report.nu_table.items())},
        },
    )
    return 0 if report.counts_agree else 1


def cmd_verify(args) -> int:
    names = list(SUITES) if args.suite == "all" else [args.suite]
    for name in names:  # a limit any suite refuses is refused before the first runs
        check_limit(name, args.limit)
    emit = Emitter(args.format)
    worst = 0
    for name in names:
        result = run_suite(name, args.limit)
        emit.write("verify", asdict(result))
        if not result.ok:
            worst = 1
    return worst


def cmd_bench(args) -> int:
    start = time.perf_counter()
    plan = _plan(args.limit, args.segment_size, workers=args.workers)
    digest = _digest(_segments(plan))
    elapsed = time.perf_counter() - start
    record = {
        "limit": args.limit,
        "segment_size": args.segment_size,
        "chunk": plan.chunk,
        "workers": args.workers,
        "engine": "numpy",  # the only engine; the column stays for compatibility
        "seconds": round(elapsed, 4),
        "terms_per_second": int(args.limit / elapsed) if elapsed > 0 else 0,
        "digest": digest,
        "peak_segment_bytes": plan.chunk * 8 + plan.chunk * 12 * 24 + plan.primes.size * 16,
    }
    Emitter(args.format).write("bench", record)
    return 0


def _add_common(p, stream: bool = False) -> None:
    p.add_argument(
        "--format",
        choices=["json-lines", "csv", "table"],
        default="table",
        help="output format (default: table)",
    )
    if stream:
        p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE)
        p.add_argument(
            "--workers",
            type=int,
            default=1,
            help="accepted for compatibility only; must be >= 1, and striking is serial",
        )
        _add_engine(p)


def _add_engine(p) -> None:
    p.add_argument(
        "--engine",
        choices=["auto", "numpy"],
        default=None,
        help="accepted for compatibility only; numpy is the only engine",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quadsieve",
        description="Factor, enumerate, and count terms of the sequence 4*n*n + 1. "
        "All limits are indices n, not term values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("terms", help="factored terms for a range of indices")
    p.add_argument("range", nargs="?", help="index range like 1..30 (or a single index)")
    p.add_argument("--from", dest="from_", type=int, default=None)
    p.add_argument("--to", type=int, default=None)
    p.add_argument("--oracle", action="store_true", help="certify each term's primes and product")
    _add_common(p, stream=True)
    p.set_defaults(func=cmd_terms)

    p = sub.add_parser("primes", help="indices whose term value is prime")
    p.add_argument("--limit", type=int, required=True)
    _add_common(p, stream=True)
    p.set_defaults(func=cmd_primes)

    p = sub.add_parser("roots", help="least root and cofactor of a modulus")
    p.add_argument("m", type=int)
    p.add_argument("--all", action="store_true", help="print the full root set")
    p.add_argument("--oracle", action="store_true", help="cross-check against exhaustive scan")
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("census", help="coprime counts for a basis of primes")
    p.add_argument("--k", type=int, default=None, help="use the first k basis primes")
    p.add_argument("--primes", default=None, help="comma-separated primes, e.g. 5,13")
    p.add_argument("--horizon", type=int, default=None, help="defaults to the basis product")
    _add_common(p)
    p.set_defaults(func=cmd_census)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "--suite",
        default="all",
        choices=["all", *SUITES],
        help="which suite to run (default: all)",
    )
    p.add_argument(
        "--limit",
        type=int,
        default=None,
        help=f"suite-specific scale; defaults: {DEFAULT_LIMITS}",
    )
    _add_common(p)
    _add_engine(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="time the sieve and report a content digest")
    p.add_argument("--limit", type=int, required=True)
    _add_common(p, stream=True)
    p.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (QuadsieveError, ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except AssertionError as exc:
        print(f"error: internal invariant failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
