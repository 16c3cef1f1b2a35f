"""Seeded workload generation: reproducible, seed-dependent, within the stated sizes."""

import sys
from itertools import islice
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import workloads  # noqa: E402

SEEDED = ("terms-jsonl", "window-top", "roots-census")


def _plan(name, seed, n=4):
    return [
        [(call.argv, getattr(call.check, "keywords", None)) for call in calls]
        for calls in islice(workloads.passes(name, seed), n)
    ]


def test_same_seed_same_inputs():
    for name in workloads.WORKLOADS:
        assert _plan(name, 7) == _plan(name, 7)


def test_other_seed_other_inputs():
    for name in SEEDED:
        assert _plan(name, 7) != _plan(name, 8)
    # the two fixed commands stay fixed: the ROADMAP names their exact argv
    assert _plan("sieve-digest", 7) == _plan("sieve-digest", 8)


def test_argv_uses_only_kept_flags():
    for name in workloads.WORKLOADS:
        for calls in _plan(name, 3, n=6):
            for argv, _ in calls:
                assert not {"--workers", "--engine", "--segment-size"} & set(argv)


def test_window_and_modulus_sizes():
    for seed in range(20):
        for calls in islice(workloads.passes("window-top", seed), 3):
            for call in calls:
                lo, hi = map(int, call.argv[1].split(".."))
                assert hi - lo + 1 == workloads.WINDOW
                assert 4 * 10**5 <= hi <= 10**6
        for calls in islice(workloads.passes("roots-census", seed), 3):
            for call in calls:
                kw = call.check.keywords
                if call.argv[0] == "roots":
                    assert int(call.argv[1]) == kw["m"] < 10**10
                elif call.argv[0] == "census":
                    assert kw["horizon"] <= 2 * 10**8
                    assert set(kw["primes"]) <= set(workloads.BASIS10)


def test_basis_is_first_appearance_order():
    assert workloads.BASIS10 == (5, 17, 37, 13, 101, 29, 197, 257, 401, 97)
