"""Tests of the end-to-end benchmark's own arithmetic, plus a short smoke run.

The long runner (``perfbench/run.py``) is not a test module; the smoke test
runs it for one second of traffic.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

from perfbench import run as bench
from perfbench.layers import LayerTimers
from perfbench.loadgen import CallRecord, nearest_rank, tally

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _record(position=0, path="/retrieve", requests=1, due=0.0, sent=0.0, done=0.0, ok=True):
    return CallRecord(position, path, requests, 0, due, sent, done, ok)


class TestNearestRank:
    def test_percentiles_of_one_to_hundred(self):
        values = list(range(100, 0, -1))
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 99) == 99
        assert nearest_rank(values, 100) == 100
        assert nearest_rank(values, 0.5) == 1

    def test_rounds_the_rank_up(self):
        assert nearest_rank([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 99) == 10
        assert nearest_rank([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], 25) == 3
        assert nearest_rank([7.5], 50) == 7.5

    @pytest.mark.parametrize("values,percent", [([], 50), ([1], 0), ([1], 101)])
    def test_rejects_bad_input(self, values, percent):
        with pytest.raises(ValueError):
            nearest_rank(values, percent)


class TestCallArithmetic:
    def test_latency_runs_from_due_time_and_lateness_from_send(self):
        record = _record(due=10.0, sent=10.25, done=10.75)
        assert record.latency_s == pytest.approx(0.75)
        assert record.late_s == pytest.approx(0.25)

    def test_a_failed_call_fails_each_of_its_requests(self):
        records = [
            _record(requests=16, ok=True),
            _record(requests=16, ok=False),
            _record(path="/learn", requests=0, ok=True),
            _record(path="/learn", requests=0, ok=False),
        ]
        assert tally(records) == (34, 17)

    def test_throughput_counts_requests_not_calls(self):
        records = [
            _record(requests=16),
            _record(requests=16, ok=False),
            _record(path="/learn", requests=0),
        ]
        assert bench.closed_throughput(records, 2.0) == 8.0

    def test_batch_shape_uses_only_batches_closed_between_scrapes(self):
        shape = bench.batch_shape({1: 5, 4: 1}, {1: 8, 2: 1, 4: 1})
        assert shape == {"batch_mean": 5 / 4, "singleton_batch_share": 3 / 4}


class TestLayerTimers:
    def test_self_time_subtracts_nested_spans(self):
        # Wall clock: outer starts at 0, inner runs 1..4 and 10..10.5, outer
        # ends at 20, then a lone span runs 22..24.  Only top-level spans
        # read the CPU clock: outer 0..9, the lone span 20..21.
        ticks = iter([0.0, 1.0, 4.0, 10.0, 10.5, 20.0, 22.0, 24.0])
        cpu_ticks = iter([0.0, 9.0, 20.0, 21.0])
        timers = LayerTimers(clock=lambda: next(ticks), cpu_clock=lambda: next(cpu_ticks))
        inner = timers.wrap("inner", lambda: None)
        outer = timers.wrap("outer", lambda: (inner(), inner()))
        outer()
        assert timers.layers["inner"] == [2, 3.5, 3.5]
        assert timers.layers["outer"] == [1, 20.0, 16.5]
        assert timers.top_cpu_s == 9.0
        timers.wrap("alone", lambda: None)()
        assert timers.layers["alone"] == [1, 2.0, 2.0]
        assert timers.top_cpu_s == 10.0

    def test_a_raising_span_still_closes(self):
        timers = LayerTimers()

        def fail():
            raise KeyError("x")

        with pytest.raises(KeyError):
            timers.wrap("fail", fail)()
        assert timers.layers["fail"][0] == 1
        timers.wrap("after", lambda: None)()
        assert timers.top_cpu_s >= 0.0


def _bench(*args, cwd=ROOT, timeout=170):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=timeout,
    )


@pytest.mark.parametrize("workload,trace", [
    ("heavy-single", "0"), ("heavy-single", "1"), ("learn-single", "1"),
])
def test_short_run_reports_every_metric_and_checks_answers(workload, trace):
    result = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                    "--trace", trace)
    assert result.returncode == 0, result.stderr[-3000:]
    summary = json.loads(result.stdout.strip().splitlines()[-1])
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"] is True and summary["failed"] == 0
    expected = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert {name: metric["unit"] for name, metric in summary["metrics"].items()} == expected
    if workload == "learn-single":
        # The journal and /learn layers run, and are timed, on this mix only.
        for name in ("core.journal.commits_per_req", "core.journal.commit_us",
                     "api.schemas.apply_mutation_us"):
            assert summary["metrics"][name]["value"] > 0, name
    assert not [name for name in os.listdir(ROOT) if name.startswith(".perfbench-tmp-")]


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    result = _bench("--workload", "heavy-single", "--seed", "1", "--seconds", "1",
                    "--trace", "0", cwd=tmp_path, timeout=60)
    assert result.returncode != 0
    assert '"correct"' not in result.stdout


def test_sigterm_reaps_the_daemon_and_removes_scratch():
    process = subprocess.Popen(
        [sys.executable, "perfbench/run.py", "--workload", "heavy-single", "--seed", "1",
         "--seconds", "30", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        children = f"/proc/{process.pid}/task/{process.pid}/children"
        servers = []
        deadline = time.monotonic() + 60
        while not servers and time.monotonic() < deadline and process.poll() is None:
            with open(children) as listing:
                servers = [int(pid) for pid in listing.read().split()]
            time.sleep(0.02)
        assert servers, "no daemon was started"
        process.send_signal(signal.SIGTERM)
        stdout, _ = process.communicate(timeout=60)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait()
    assert process.returncode != 0
    assert '"correct"' not in stdout
    assert not [pid for pid in servers if os.path.exists(f"/proc/{pid}")]
    assert not [name for name in os.listdir(ROOT) if name.startswith(".perfbench-tmp-")]
