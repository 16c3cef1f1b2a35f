"""The speed sampler: samples only while armed, and reports the time it took."""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parents[1] / "src")]

import worker  # noqa: E402


def _busy(seconds):
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        pass


def test_samples_while_armed_and_reports_their_time():
    sampler = worker.SpeedSampler()
    with sampler.during() as spent:
        _busy(6 * worker.SAMPLE_EVERY_S)
    taken = len(sampler.samples)
    assert taken >= 3
    assert spent == [pytest.approx(sum(sampler.samples))]
    _busy(3 * worker.SAMPLE_EVERY_S)
    assert len(sampler.samples) == taken
