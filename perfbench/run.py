"""quadsieve benchmark: seeded CLI workloads, end-to-end metrics, traced layers.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload sieve-digest --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Each run spawns fresh worker processes: a few that only set up, to time
set-up, then one that runs the workload in a closed loop (one client, one
call at a time) and checks every output.  With --trace 0 the last line of
stdout is a JSON object holding the end-to-end metrics; with --trace 1 it
holds the per-layer metrics instead.  The exit code is 0 only when every
call passed its check.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 3  # set-up-only spawns before and again after the measuring worker
DEADLINE_S = 170  # a run must end within 180 s


class WorkerError(Exception):
    pass


def _spawn(args: list[str], deadline: float) -> tuple[float, str]:
    """Start a worker; return (seconds until it reported ready, rest of its stdout)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        if ready.strip() != "ready":
            proc.wait(timeout=10)
            raise WorkerError(f"worker failed to set up (exit {proc.returncode})")
        rest, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError("worker ran past the deadline") from exc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}")
    return setup, rest


def _tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    beyond = 10
    n = len(values)
    if n <= 2 * beyond:
        return f"no percentile above p50 has {beyond} samples beyond it (n={n})"
    k = n - beyond
    return f"p{100 * k // n}={sorted(values)[k - 1]:.4f} s (n={n})"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = perf_counter() + DEADLINE_S
    setups = [_spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    opts = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    setup, out = _spawn(opts, deadline)
    setups.append(setup)
    setups += [_spawn(["--setup-only"], deadline)[0] for _ in range(SETUP_PROBES)]
    res = json.loads(out.strip().splitlines()[-1])
    wl = workloads.WORKLOADS[name]
    fail_ratio = res["failed"] / res["attempted"]
    print(
        f"workload {name}  seed {seed}  trace {int(trace)}  engine {res['engine']}  nproc {os.cpu_count()}  "
        f"python {platform.python_version()}  numpy {res['numpy']}"
    )
    for err in res["errors"]:
        print(f"  FAILED {err}")
    print(f"  fail_ratio    {fail_ratio:.4f} ratio ({res['failed']} of {res['attempted']} calls)")
    if trace:
        metrics = res["layers"]
        for key, (value, unit) in metrics.items():
            print(f"  {key:42s} {value:.6g} {unit}")
        for layer in res["absent"]:
            print(f"  {layer}: absent (hooked name not found)")
    else:
        metrics = {
            "wall_rel": (statistics.fmean(res["walls"]) / statistics.fmean(res["refs"]), "ref"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "setup_s": (statistics.median(setups), "s"),
        }
        print(f"  wall_s        {statistics.median(res['walls']):.4f} s  median of {len(res['walls'])} passes; {_tail(res['walls'])}")
        print(f"    passes: {' '.join(f'{w:.3f}' for w in res['walls'])}")
        print(f"  wall_rel      {metrics['wall_rel'][0]:.2f} ref  mean pass time / mean of {len(res['refs'])} reference samples")
        print(f"  {wl.item_unit}_per_s  {statistics.median(res['rates']):.1f} 1/s")
        print(f"  peak_rss_mb   {metrics['peak_rss_mb'][0]:.1f} MB  worker high-water RSS")
        print(f"  setup_s       {metrics['setup_s'][0]:.4f} s  median of {len(setups)} spawns")
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS), help="default: every workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30, help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except (WorkerError, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        for name, res in results.items():
            print(json.dumps({"workload": name, **res}))
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
