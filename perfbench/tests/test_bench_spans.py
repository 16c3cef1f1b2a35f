"""The tracer: every hook fires, hooks come off again, missing names are absent."""

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
sys.path[:0] = [str(HERE.parent), str(REPO / "src")]

import spans  # noqa: E402
from quadsieve import cli, sieve  # noqa: E402

TINY_CALLS = (
    ("bench", "--limit", "200", "--format", "json-lines"),
    ("terms", "1..30", "--format", "json-lines"),
    ("primes", "--limit", "50"),
    ("census", "--k", "3", "--horizon", "1000"),
    ("roots", "325", "--all", "--oracle"),
    ("verify", "--suite", "eq1", "--limit", "30"),
)


def _traced_tiny_run(tracer):
    with tracer as rec, contextlib.redirect_stdout(io.StringIO()):
        for argv in TINY_CALLS:
            idx = rec.open(spans.ROOT)
            assert cli.main(list(argv)) == 0
            rec.close(idx)
        primes = sieve.primes_1mod4(60)
        seg = sieve.sieve_segment(1, 30, primes, sieve.least_roots_bulk(primes))
        seg.check()


def test_every_hook_fires_on_a_tiny_input():
    tracer = spans.Tracer()
    assert tracer.absent == []
    _traced_tiny_run(tracer)
    totals = tracer.rec.totals()
    silent = [h.layer for h in spans.HOOKS if totals.get(h.layer, (0, 0, 0))[2] == 0]
    assert silent == []
    metrics = tracer.metrics(passes=1)
    assert metrics["sieve.SieveSegment.terms.terms"][0] >= 30
    assert metrics["cli.Emitter.write.bytes"][0] > 0
    assert 0 < metrics["kernels.strike_segment.hit_ratio"][0] <= 1
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s"):
            assert value <= metrics[name[: -len("self_s")] + "s"][0] + 1e-9


def test_hooks_are_removed_on_exit():
    original = sieve.primes_1mod4
    with spans.Tracer():
        assert sieve.primes_1mod4.__wrapped__ is original
        assert cli.primes_1mod4.__wrapped__ is original
    assert sieve.primes_1mod4 is original and cli.primes_1mod4 is original


def test_missing_name_is_absent_not_fatal():
    hooks = (*spans.HOOKS[:2], spans.Hook("sieve.renamed_away", "quadsieve.sieve", "renamed_away"))
    tracer = spans.Tracer(hooks)
    assert tracer.absent == ["sieve.renamed_away"]
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["bench", "--limit", "100"]) == 0
    metrics = tracer.metrics(passes=1)
    assert "sieve.primes_1mod4.s" in metrics
    assert not any(name.startswith("sieve.renamed_away") for name in metrics)


def test_self_time_subtracts_children():
    rec = spans.Recorder()
    outer = rec.open("outer")
    inner = rec.open("inner")
    rec.close(inner)
    rec.close(outer)
    busy, own, calls = rec.totals()["outer"]
    assert calls == 1 and own == busy - rec.totals()["inner"][0]
    assert list(rec.parent) == [-1, outer]


def test_benchmark_json_lists_every_metric():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    layer_names = [m["name"] for m in spec["per_layer"]]
    expected = [*spans.Tracer().metrics(passes=1), "trace.overhead_s"]
    assert layer_names == expected
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_rel", "peak_rss_mb", "setup_s"]
