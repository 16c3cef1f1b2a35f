"""Child process for one workload run: set up, loop, check, report.

Started by run.py.  Prints "ready" once quadsieve is imported and its
engine resolved, then runs passes of the workload in a closed loop for
about --seconds and prints one JSON result line.  quadsieve is imported
from the checkout's src/ and nowhere else.

The machine is shared.  Its speed switches between states within
seconds, and each CPU does so on its own, so one call can run at half
the speed of the next.  So while a call runs, an interval timer samples
the speed: every SAMPLE_EVERY_S its handler times a fixed reference mix
of pure-Python steps and small numpy calls, the two kinds of work
quadsieve's calls are made of.  The samples' time is taken out of the
call's time, and run.py divides the mean pass time by the mean sample
time: a slow spell slows both and cancels in the ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np
import workloads
from checkers import CheckError
from spans import ROOT, Tracer

MAX_REPORTED = 5
SAMPLE_EVERY_S = 0.05  # one reference sample (about 0.75 ms) per 50 ms of a call
_REF_ARRAY = np.arange(65536, dtype=np.int64)  # the size of a default sieve segment


def reference_seconds() -> float:
    """Time the fixed reference mix; it never changes with quadsieve."""
    t0 = perf_counter()
    cof = _REF_ARRAY.copy()
    for k in range(40):
        sub = np.arange(k, cof.size, 1001 + k)
        cof[sub] //= 1
        (cof[sub] % 7 == 0).any()
    acc = 0
    for i in range(3000):
        acc += i * i % 7
    return perf_counter() - t0


class SpeedSampler:
    """Times the reference mix from a SIGALRM handler while a call runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        signal.signal(signal.SIGALRM, lambda signum, frame: self.samples.append(reference_seconds()))

    @contextlib.contextmanager
    def during(self):
        """Sample while the block runs; yields a list that then holds the
        seconds the samples took, to be taken out of the block's time."""
        first = len(self.samples)
        spent = []
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            spent.append(sum(self.samples[first:]))


def _import_quadsieve(root: Path):
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import quadsieve
    from quadsieve import cli

    if src not in Path(quadsieve.__file__).resolve().parents:
        raise ImportError(f"quadsieve imported from {quadsieve.__file__}, not from {src}")
    return quadsieve, cli


def _call(cli, argv, stdout_path: Path, tracer: Tracer | None, sampler: SpeedSampler | None):
    """Run cli.main(argv) in process with stdout to stdout_path; return
    (seconds, exit code, stderr).  A traced call is not sampled."""
    err = io.StringIO()
    sampling = sampler.during() if sampler else contextlib.nullcontext([0.0])
    with open(stdout_path, "w", encoding="utf-8") as out:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with tracer or contextlib.nullcontext() as rec:
                t0 = perf_counter()
                idx = rec.open(ROOT) if rec else None
                try:
                    with sampling as spent:
                        code = cli.main(list(argv))
                except SystemExit as exc:
                    code = exc.code
                except Exception:  # a crash is a failed call, not a failed benchmark
                    code = "exception"
                    err.write(traceback.format_exc())
                finally:
                    out.flush()
                    if rec:
                        rec.close(idx)
                elapsed = perf_counter() - t0 - spent[0]
    return elapsed, code, err.getvalue()


def run(args, cli) -> dict:
    out_dir = args.root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stdout_path = out_dir / f"stdout-{os.getpid()}.txt"
    tracer = Tracer() if args.trace else None
    min_passes = 2 if args.trace else 1
    sampler = SpeedSampler()
    result = {"walls": [], "rates": [], "traced_walls": [], "attempted": 0, "failed": 0, "errors": []}
    plan = workloads.passes(args.workload, args.seed)
    start = perf_counter()
    longest = 0.0
    i = 0
    try:
        while i < min_passes or perf_counter() - start + longest <= args.seconds:
            pass_start = perf_counter()
            traced = tracer is not None and i % 2 == 1
            if traced:
                tracer.rec.run_id = i
            wall = 0.0
            items = 0
            for call in next(plan):
                hooks = (tracer, None) if traced else (None, sampler)
                elapsed, code, err = _call(cli, call.argv, stdout_path, *hooks)
                wall += elapsed
                items += call.items
                result["attempted"] += 1
                try:
                    if code != 0:
                        raise CheckError(f"exit code {code}: {err.strip()[-500:]}")
                    call.check(stdout_path)
                except (CheckError, ValueError, KeyError, TypeError) as exc:
                    result["failed"] += 1
                    if len(result["errors"]) < MAX_REPORTED:
                        result["errors"].append(f"{' '.join(call.argv)}: {exc}")
            if traced:
                result["traced_walls"].append(wall)
            else:
                result["walls"].append(wall)
                result["rates"].append(items / wall)
            longest = max(longest, perf_counter() - pass_start)
            i += 1
    finally:
        stdout_path.unlink(missing_ok=True)
    result["refs"] = sampler.samples
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        passes = len(result["traced_walls"])
        layers = tracer.metrics(passes)
        overhead = statistics.median(result["traced_walls"]) - statistics.median(result["walls"])
        layers["trace.overhead_s"] = (overhead, "s")
        result["layers"] = layers
        result["absent"] = tracer.absent
        tracer.rec.save(out_dir / f"spans-{args.workload}.npz")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True, help="checkout holding src/quadsieve")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="exit once set up")
    args = parser.parse_args(argv)
    try:
        quadsieve, cli = _import_quadsieve(args.root)
    except ImportError as exc:
        print(f"worker: cannot import quadsieve: {exc}", file=sys.stderr)
        return 2
    engine = quadsieve.warmup()
    print("ready", flush=True)
    if args.setup_only:
        return 0
    result = run(args, cli)
    result["engine"] = engine
    result["numpy"] = sys.modules["numpy"].__version__
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
