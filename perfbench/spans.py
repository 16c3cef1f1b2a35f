"""Span recorder and the hooks that feed it, for the traced run.

Each hook wraps one public function or method of quadsieve from the
outside.  A module-level function is replaced under every name the
package looks it up by (its own module and each module that imported it),
and a method is replaced on its class.  The wrapper records a span (name,
start, end, parent span, run id) and exact counts taken from the call's
arguments and result; counting happens after the span closes.

A generator's span covers only the time spent inside its own next()
calls.  Self time is a span's time minus the time of its child spans.
A hooked name that no longer exists is reported as absent.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

ROOT = "cli.main"  # one root span per CLI call


class Recorder:
    """Spans in flat arrays, kept in memory until the run ends."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.busy = array("d")  # end - start, or time inside next() for generators
        self.excluded = array("d")  # time spent counting inside the span
        self.counts: dict[str, float] = {}
        self.run_id = 0
        self._stack: list[int] = []

    def count(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        now = perf_counter()
        self.start.append(now)
        self.end.append(now)
        self.busy.append(0.0)
        self.excluded.append(0.0)
        self._stack.append(idx)
        return idx

    def resume(self, idx: int) -> float:
        self._stack.append(idx)
        return perf_counter()

    def suspend(self, idx: int, since: float) -> None:
        now = perf_counter()
        self._stack.pop()
        self.end[idx] = now
        self.busy[idx] += now - since

    def close(self, idx: int) -> None:
        self.suspend(idx, self.start[idx])

    def exclude(self, seconds: float) -> None:
        """Take time the recorder itself spent out of every open span."""
        for idx in self._stack:
            self.excluded[idx] += seconds

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.intc),
            "parent": np.frombuffer(self.parent, dtype=np.intc),
            "run": np.frombuffer(self.run, dtype=np.intc),
            "start": np.frombuffer(self.start),
            "end": np.frombuffer(self.end),
            "busy": np.frombuffer(self.busy) - np.frombuffer(self.excluded),
        }

    def totals(self) -> dict[str, tuple[float, float, int]]:
        """Per span name: (busy seconds, self seconds, span count)."""
        a = self.arrays()
        n, k = a["busy"].size, len(self.names)
        nested = a["parent"] >= 0
        child = np.bincount(a["parent"][nested], weights=a["busy"][nested], minlength=n)
        own = a["busy"] - child
        busy = np.bincount(a["name_id"], weights=a["busy"], minlength=k)
        self_s = np.bincount(a["name_id"], weights=own, minlength=k)
        calls = np.bincount(a["name_id"], minlength=k)
        return {name: (float(busy[i]), float(self_s[i]), int(calls[i])) for i, name in enumerate(self.names)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs[name]


def _strike_counts(args, kwargs, result) -> dict:
    lo, hi = _arg(args, kwargs, 0, "lo"), _arg(args, kwargs, 1, "hi")
    primes = _arg(args, kwargs, 2, "primes")
    ps = result[1]
    counts = {"indices": hi - lo, "primes_scanned": primes.size, "entries": ps.size}
    if primes.size:
        # primes of the plan that divide some index here; larger entries are
        # leftover cofactors, which were never scanned
        counts["struck"] = np.unique(ps[ps <= primes[-1]]).size
    return counts


def _size(name: str) -> Callable:
    return lambda args, kwargs, result: {name: len(result)}


class _CountingWriter:
    """Stands in for an Emitter's stream and counts the bytes written."""

    def __init__(self, inner, rec: Recorder, key: str) -> None:
        self._inner, self._rec, self._key = inner, rec, key

    def write(self, s: str) -> int:
        self._rec.count(self._key, len(s.encode()))
        return self._inner.write(s)


def _count_emitter_bytes(rec: Recorder, layer: str, args, kwargs) -> None:
    emitter = args[0]
    if not isinstance(emitter.out, _CountingWriter):
        emitter.out = _CountingWriter(emitter.out, rec, f"{layer}.bytes")


@dataclass(frozen=True)
class Hook:
    """One hooked name, and the counts reported for it besides time and calls."""

    layer: str  # metric prefix
    module: str
    attr: str  # "function" or "Class.method"
    counts: tuple[str, ...] = ()
    count: Callable | None = None  # (args, kwargs, result) -> {count: increment}, after the call
    prepare: Callable | None = None  # (rec, layer, args, kwargs), before the span opens
    calls_name: str = "calls"
    generator: bool = False  # the target returns a generator; counts[0] counts its items


HOOKS = (
    # plan
    Hook("sieve.primes_1mod4", "quadsieve.sieve", "primes_1mod4", ("primes",), _size("primes")),
    Hook("kernels.least_roots_bulk", "quadsieve._kernels", "least_roots_bulk", ("roots",), _size("roots")),
    # strike
    Hook(
        "kernels.strike_segment",
        "quadsieve._kernels",
        "strike_segment",
        ("indices", "primes_scanned", "entries"),
        _strike_counts,
    ),
    # pack and hash
    Hook("sieve.sieve_segment", "quadsieve.sieve", "sieve_segment"),
    Hook("sieve.SieveSegment.packed", "quadsieve.sieve", "SieveSegment.packed", ("bytes",), _size("bytes")),
    # materialization and emission
    Hook("sieve.SieveSegment.terms", "quadsieve.sieve", "SieveSegment.terms", ("terms",), generator=True),
    Hook(
        "cli.Emitter.write",
        "quadsieve.cli",
        "Emitter.write",
        ("bytes",),
        prepare=_count_emitter_bytes,
        calls_name="records",
    ),
    # invariants
    Hook("sieve.SieveSegment.check", "quadsieve.sieve", "SieveSegment.check"),
    Hook("sieve.enumerate_primes", "quadsieve.sieve", "enumerate_primes"),
    Hook("sieve.first_k_basis", "quadsieve.sieve", "first_k_basis"),
    # roots, census and suites
    Hook("roots.all_roots", "quadsieve.roots", "all_roots"),
    Hook("roots.root_summary", "quadsieve.roots", "root_summary"),
    Hook("modarith.sqrt_minus_one", "quadsieve.modarith", "sqrt_minus_one"),
    Hook("modarith.hensel_lift", "quadsieve.modarith", "hensel_lift"),
    Hook("modarith.crt_combine", "quadsieve.modarith", "crt_combine"),
    Hook("modarith.is_prime", "quadsieve.modarith", "is_prime"),
    Hook("census.census", "quadsieve.census", "census"),
    Hook(
        "census.exact_coprime_count",
        "quadsieve.census",
        "exact_coprime_count",
        ("indices",),
        lambda args, kwargs, result: {"indices": _arg(args, kwargs, 1, "horizon")},
    ),
    Hook("suites.run_suite", "quadsieve.suites", "run_suite"),
    Hook("oracle.naive_factor", "quadsieve.oracle", "naive_factor"),
    Hook("oracle.naive_root_scan", "quadsieve.oracle", "naive_root_scan"),
    Hook("oracle.naive_coprime_count", "quadsieve.oracle", "naive_coprime_count"),
)


def _traced_generator(rec: Recorder, hook: Hook, gen):
    idx = None
    yielded = 0
    try:
        while True:
            if idx is None:
                idx = rec.open(hook.layer)
                since = rec.start[idx]
            else:
                since = rec.resume(idx)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                rec.suspend(idx, since)
            yielded += 1
            yield item
    finally:
        rec.count(f"{hook.layer}.{hook.counts[0]}", yielded)


def _wrap(rec: Recorder, hook: Hook, fn):
    layer, prepare, count = hook.layer, hook.prepare, hook.count
    if hook.generator:

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _traced_generator(rec, hook, fn(*args, **kwargs))

        return wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if prepare is not None:
            prepare(rec, layer, args, kwargs)
        idx = rec.open(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if count is not None:
            t0 = perf_counter()
            for name, value in count(args, kwargs, result).items():
                rec.count(f"{layer}.{name}", value)
            rec.exclude(perf_counter() - t0)
        return result

    return wrapper


def _sites(hook: Hook):
    """(owner, attribute name, original) for every place the target is looked up."""
    try:
        owner = importlib.import_module(hook.module)
    except ImportError:
        return []
    *path, name = hook.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return []
    target = getattr(owner, name, None)
    if target is None:
        return []
    if path:  # a method: its class is the only lookup site
        return [(owner, name, target)]
    package = hook.module.split(".")[0]
    return [
        (mod, attr, target)
        for mod_name, mod in list(sys.modules.items())
        if mod is not None and (mod_name == package or mod_name.startswith(package + "."))
        for attr, value in list(vars(mod).items())
        if value is target
    ]


class Tracer:
    """Installs the hooks around traced calls and turns spans into metrics."""

    def __init__(self, hooks=HOOKS) -> None:
        self.rec = Recorder()
        self.hooks = hooks
        self._patches = [(hook, _sites(hook)) for hook in hooks]
        self.absent = [hook.layer for hook, sites in self._patches if not sites]

    def __enter__(self) -> Recorder:
        for hook, sites in self._patches:
            for owner, attr, original in sites:
                setattr(owner, attr, _wrap(self.rec, hook, original))
        return self.rec

    def __exit__(self, *exc) -> None:
        for _hook, sites in self._patches:
            for owner, attr, original in sites:
                setattr(owner, attr, original)

    def metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, each time and count averaged over the traced passes."""
        totals = self.rec.totals()
        counts = self.rec.counts
        out: dict[str, tuple[float, str]] = {}

        def times(name: str) -> int:
            busy, own, calls = totals.get(name, (0.0, 0.0, 0))
            out[f"{name}.s"] = (busy / passes, "s")
            out[f"{name}.self_s"] = (own / passes, "s")
            return calls

        times(ROOT)
        for hook in self.hooks:
            if hook.layer in self.absent:
                continue
            out[f"{hook.layer}.{hook.calls_name}"] = (times(hook.layer) / passes, "count")
            for name in hook.counts:
                unit = "bytes" if name == "bytes" else "count"
                out[f"{hook.layer}.{name}"] = (counts.get(f"{hook.layer}.{name}", 0) / passes, unit)
        strike = "kernels.strike_segment"
        if strike not in self.absent:
            scanned = counts.get(f"{strike}.primes_scanned", 0)
            out[f"{strike}.hit_ratio"] = (counts.get(f"{strike}.struck", 0) / scanned if scanned else 0.0, "ratio")
        return out
