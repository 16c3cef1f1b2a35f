"""The four workloads: seeded CLI argv plus the check each output must pass.

A workload is an endless sequence of passes; a pass is a short list of
CLI calls made one after another by a single client (a closed loop).  The
seed fixes the whole sequence, and the program sees only the argv.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Iterator

import checkers

# Fixed points of the program at the seed commit.
DIGEST_1E6 = "6b595a0b573e08dc6e5ad615aaaf5e6f"
TERMS_300K_SHA256 = "f0f6f482708e0a64952aeacc8f11624a04c2ac9b8c691b5e0ead9ef700f10c76"

TERMS_JSONL_COUNT = 300_000
TERMS_JSONL_SAMPLE = 16  # lines per pass checked by trial division

# window-top: each pass prints one window ending within 0.5% of the
# anchor.  The jitter is narrow because today a window sieves from n = 1,
# so its cost grows with its end; a wide draw would make the pass time
# depend on the seed rather than on the code.  One window per pass keeps
# passes short, so a run holds enough of them for a steady median.
WINDOW = 1000
WINDOW_ANCHOR = 500_000
WINDOW_JITTER = 0.005

# roots-census: moduli are built from these primes, all 1 mod 4.
ROOT_PRIMES = tuple(p for p in range(5, 1000, 4) if checkers.is_prime(p))
ROOT_MODULUS_CAP = 10**10
BASIS10 = tuple(checkers.first_appearance_primes(10))
CENSUS_HORIZONS = (10**7, 2 * 10**8)


@dataclass(frozen=True)
class Call:
    """One CLI invocation, its output check, and the items it counts for
    items_per_s: terms digested or emitted, or 1 for a call without terms."""

    argv: tuple[str, ...]
    check: Callable[[Path], None]
    items: int = 1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    item_unit: str  # what items_per_s counts on this workload
    passes: Callable[[random.Random], Iterator[list[Call]]]


def _sieve_digest(rng: random.Random) -> Iterator[list[Call]]:
    limit = 1_000_000
    call = Call(
        ("bench", "--limit", str(limit), "--format", "json-lines"),
        partial(checkers.check_bench, limit=limit, digest=DIGEST_1E6),
        items=limit,
    )
    while True:
        yield [call]


def _terms_jsonl(rng: random.Random) -> Iterator[list[Call]]:
    argv = ("terms", f"1..{TERMS_JSONL_COUNT}", "--format", "json-lines")
    while True:
        sample = tuple(sorted(rng.sample(range(TERMS_JSONL_COUNT), TERMS_JSONL_SAMPLE)))
        check = partial(
            checkers.check_terms_jsonl,
            count=TERMS_JSONL_COUNT,
            sha256=TERMS_300K_SHA256,
            sample=sample,
        )
        yield [Call(argv, check, items=TERMS_JSONL_COUNT)]


def _window_top(rng: random.Random) -> Iterator[list[Call]]:
    span = int(WINDOW_ANCHOR * WINDOW_JITTER)
    while True:
        hi = WINDOW_ANCHOR + rng.randint(-span, span)
        lo = hi - WINDOW + 1
        yield [Call(("terms", f"{lo}..{hi}"), partial(checkers.check_terms_table, lo=lo, hi=hi), items=WINDOW)]


def _census_call(rng: random.Random) -> Call:
    primes = tuple(rng.sample(BASIS10, rng.randint(2, 6)))
    horizon = rng.randint(*CENSUS_HORIZONS)
    argv = ("census", "--primes", ",".join(map(str, primes)), "--horizon", str(horizon), "--format", "json-lines")
    return Call(argv, partial(checkers.check_census, primes=primes, horizon=horizon))


def _roots_call(rng: random.Random) -> Call:
    while True:
        nu = rng.randint(2, 5)
        m = 1
        for p in rng.sample(ROOT_PRIMES, nu):
            m *= p ** (2 if rng.random() < 0.25 else 1)
        if m < ROOT_MODULUS_CAP:
            break
    argv = ("roots", str(m), "--all", "--format", "json-lines")
    return Call(argv, partial(checkers.check_roots, m=m, nu=nu))


def _verify_call(suite: str) -> Call:
    argv = ("verify", "--suite", suite, "--format", "json-lines")
    return Call(argv, partial(checkers.check_verify, suite=suite))


def _roots_census(rng: random.Random) -> Iterator[list[Call]]:
    while True:
        calls = [_census_call(rng) for _ in range(2)]
        calls += [_roots_call(rng) for _ in range(6)]
        calls += [_verify_call("lemma4"), _verify_call("eq1")]
        rng.shuffle(calls)
        yield calls


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sieve-digest",
            "bench --limit 10^6: the headline command; strike-bound, builds no Term objects and emits one record",
            "terms",
            _sieve_digest,
        ),
        Workload(
            "terms-jsonl",
            "terms 1..300000 as JSON lines: same sieve, but Term building and emission take most of the time",
            "terms",
            _terms_jsonl,
        ),
        Workload(
            "window-top",
            "terms a..a+999 in table format, ending near 5e5: sieves from n = 1 today, plan-bound once windowed ranges land",
            "terms",
            _window_top,
        ),
        Workload(
            "roots-census",
            "census, roots --all and two verify suites: the only path through roots, modarith, census and oracle",
            "calls",
            _roots_census,
        ),
    )
}


def passes(name: str, seed: int) -> Iterator[list[Call]]:
    """The seeded pass sequence of one workload; equal seeds give equal argv."""
    return WORKLOADS[name].passes(random.Random(f"{name}:{seed}"))
