"""End-to-end benchmark of the ``repro serve`` daemon.

Run from the repository root (no install step; ``src`` is put on the path)::

    python3 perfbench/run.py --workload heavy-single --seed 1 --seconds 15 --trace 0

The daemon runs in its own process (``perfbench/server.py``); this process
is the load generator.  A run measures ``--seconds`` of traffic: an
open-loop phase (50 %) at the workload's fixed offered rate and a
closed-loop phase (50 %) on two keep-alive connections, interleaved in 5
rounds.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` the
per-layer metrics of a daemon whose entry points are wrapped with timers,
plus an untraced closed-loop phase for the tracing overhead.  Answers are checked outside the
timed windows; a mismatch prints ``"correct": false`` and exits 1.  Every
metric is printed as a table, then the full record as one JSON line, then
the summary record (the last line).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import ExitStack, contextmanager
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import loadgen  # noqa: E402  (standard library only; repro loads later)

#: Share of ``--seconds`` given to the open-loop phase (the rest is closed loop).
OPEN_SHARE = 0.5
#: A run alternates open- and closed-loop segments this many times, so each
#: phase samples the whole run; throughput is the median over the rounds.
ROUNDS = 5
#: Daemon launches per untraced run; ``setup_s`` is their median.
SETUP_LAUNCHES = 3
#: Open-loop calls whose answers are kept and checked, per workload check.
SAMPLES = {"replay": 64, "golden": 5}
#: Hard limit of a whole run, leaving time to reap the daemon within 180 s.
RUN_LIMIT_S = 150
STARTUP_LIMIT_S = 90.0
STOP_LIMIT_S = 10.0


class BenchmarkError(Exception):
    """The run could not complete (not a wrong answer: that is ``correct``)."""


def _on_alarm(signum, frame):
    raise BenchmarkError(f"run exceeded its {RUN_LIMIT_S} s limit")


def _on_term(signum, frame):
    raise SystemExit(128 + signum)


#: Signals whose handlers raise; held while a daemon is launched.
_INTERRUPTS = {signal.SIGTERM, signal.SIGINT, signal.SIGALRM}


@contextmanager
def _interrupts_held():
    """Defer interrupts until a new daemon is registered for reaping.

    An exception raised inside ``Popen`` would leave its child running with
    no owner.  The daemon inherits the mask and unblocks it first thing.
    """
    previous = signal.pthread_sigmask(signal.SIG_BLOCK, _INTERRUPTS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


# -- the daemon process ---------------------------------------------------------------


class Server:
    """One daemon process; :meth:`stop` reaps it, and runs on every exit path."""

    def __init__(self, workload: str, trace: bool, scratch: str, index: int,
                 journal: bool) -> None:
        env = dict(os.environ, PYTHONPATH=SRC)
        command = [sys.executable, os.path.join(HERE, "server.py"),
                   "--workload", workload, "--trace", str(int(trace))]
        if journal:
            command += ["--journal", os.path.join(scratch, f"journal-{index}")]
        self.log_path = os.path.join(scratch, f"server-{index}.log")
        self.started = time.perf_counter()
        with open(self.log_path, "wb") as log:
            self.process = subprocess.Popen(
                command, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE, stderr=log,
            )
        self._pending = b""
        self.port: Optional[int] = None

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def readline(self, limit_s: float) -> dict:
        """The next JSON line the server prints, waiting at most ``limit_s``."""
        deadline = time.perf_counter() + limit_s
        stream = self.process.stdout
        while b"\n" not in self._pending:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or self.process.poll() is not None:
                raise BenchmarkError(f"server printed no line in time; log:\n{self.log()}")
            ready, _, _ = select.select([stream], [], [], min(remaining, 0.5))
            if ready:
                chunk = os.read(stream.fileno(), 65536)
                if not chunk:
                    raise BenchmarkError(f"server exited; log:\n{self.log()}")
                self._pending += chunk
        line, _, self._pending = self._pending.partition(b"\n")
        return json.loads(line)

    def log(self) -> str:
        with open(self.log_path, "rb") as log:
            return log.read().decode(errors="replace")[-4000:]

    def layers(self) -> dict:
        """Timer totals of a traced server (SIGUSR1 makes it print them)."""
        os.kill(self.process.pid, signal.SIGUSR1)
        return self.readline(STOP_LIMIT_S)

    def cpu_s(self) -> float:
        with open(f"/proc/{self.process.pid}/stat") as stat:
            fields = stat.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def rss_kb(self) -> int:
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
        raise BenchmarkError("no VmRSS in /proc status")

    def stop(self) -> None:
        """Terminate (drain) the daemon; kill it if that fails or is interrupted."""
        try:
            if self.process.poll() is None:
                self.process.terminate()
                self.process.wait(STOP_LIMIT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            if self.process.poll() is None:
                self.process.kill()
                self.process.wait()
            self.process.stdout.close()


def _get_json(connection, path: str) -> dict:
    status, body = connection.request("GET", path)
    if status != 200:
        raise BenchmarkError(f"GET {path} answered {status}")
    return json.loads(body)


def start_server(workload, trace: bool, scratch: str, index: int, plan, stack: ExitStack):
    """Launch a daemon and wait for its first answer to the warm-up request.

    Returns ``(server, setup seconds, answer)``: set-up runs from process
    launch to the first 2xx answer (checked for correctness later).
    """
    with _interrupts_held():
        server = stack.enter_context(
            Server(workload.name, trace, scratch, index, workload.journal)
        )
    server.port = server.readline(STARTUP_LIMIT_S)["port"]
    connection = loadgen.Connection("127.0.0.1", server.port)
    deadline = server.started + STARTUP_LIMIT_S
    while connection.request("GET", "/readyz")[0] != 200:
        if time.perf_counter() > deadline:
            raise BenchmarkError(f"daemon not ready within {STARTUP_LIMIT_S} s")
        time.sleep(0.01)
    status, answer = connection.request("POST", "/retrieve", json.dumps(plan.warmup_wire).encode())
    setup_s = time.perf_counter() - server.started
    connection.close()
    if not 200 <= status < 300:
        raise BenchmarkError(f"warm-up request answered {status}")
    return server, setup_s, json.loads(answer)


def warm_up(server: Server, plan) -> None:
    """Untimed calls after the first answer, so lazy set-up has finished."""
    connection = loadgen.Connection("127.0.0.1", server.port)
    for position in range(plan.workload.warmup_calls):
        call = plan.calls[position % len(plan.calls)]
        status, _ = connection.request("POST", call.path, call.body)
        if not 200 <= status < 300:
            raise BenchmarkError(f"warm-up call {position} answered {status}")
    connection.close()


# -- measurement ----------------------------------------------------------------------


def _batch_histogram(connection) -> Dict[int, int]:
    document = _get_json(connection, "/metrics?format=json")
    histogram = document["metrics"]["batches"]["histogram"]
    return {int(size): count for size, count in histogram.items()}


def measure(server: Server, plan, seconds: float, trace: bool) -> dict:
    """The open- and closed-loop rounds, bracketed by server-side snapshots."""
    workload = plan.workload
    connections = [loadgen.Connection("127.0.0.1", server.port)
                   for _ in range(loadgen.CONNECTIONS)]
    open_s = seconds * OPEN_SHARE / ROUNDS
    closed_s = seconds * (1 - OPEN_SHARE) / ROUNDS
    open_calls = int(workload.open_calls_per_s * open_s)
    position = workload.warmup_calls
    # The checked sample: calls of the first open segment, whose plan
    # positions are fixed in advance.
    stride = max(1, open_calls // SAMPLES[workload.check])
    keep = {position + k for k in range(0, open_calls, stride)}

    before = {
        "batches": _batch_histogram(connections[0]),
        "layers": server.layers() if trace else None,
        "cpu_s": server.cpu_s(),
        "rss_kb": server.rss_kb(),
        "client_cpu_s": time.process_time(),
    }
    open_records, closed_records, closed_rps = [], [], []
    for _ in range(ROUNDS):
        open_records += loadgen.open_loop(
            plan.calls, connections, first=position, rate=workload.open_calls_per_s,
            seconds=open_s, keep=keep,
        )
        position += open_calls
        records, elapsed = loadgen.closed_loop(
            plan.calls, connections, first=position, seconds=closed_s,
        )
        closed_records += records
        closed_rps.append(closed_throughput(records, elapsed))
        position = max(record.position for record in records) + 1
    after = {
        "client_cpu_s": time.process_time(),
        "cpu_s": server.cpu_s(),
        "rss_kb": server.rss_kb(),
        "layers": server.layers() if trace else None,
        "batches": _batch_histogram(connections[0]),
    }
    capture = _get_json(connections[0], "/capture") if workload.check == "replay" else None
    for connection in connections:
        connection.close()
    return {
        "open": open_records, "closed": closed_records,
        "closed_rps": statistics.median(closed_rps),
        "before": before, "after": after, "capture": capture,
    }


def closed_throughput(records, elapsed_s: float) -> float:
    """Requests completed per second (``/learn`` calls carry no requests)."""
    return sum(record.requests for record in records if record.ok) / elapsed_s


def batch_shape(before: Dict[int, int], after: Dict[int, int]) -> Dict[str, float]:
    """Mean size and singleton share of the batches closed between two scrapes."""
    sizes = {size: after.get(size, 0) - before.get(size, 0) for size in after}
    batches = sum(sizes.values())
    if not batches:
        raise BenchmarkError("no batches closed during the measured phases")
    return {
        "batch_mean": sum(size * count for size, count in sizes.items()) / batches,
        "singleton_batch_share": sizes.get(1, 0) / batches,
    }


def end_to_end(run: dict, setups: Sequence[float]) -> Dict[str, float]:
    """The untraced run's metrics (ms, s and MB as named)."""
    records = run["open"] + run["closed"]
    retrieves = [r.latency_s for r in run["open"] if r.path == "/retrieve" and r.ok]
    learns = [r.latency_s for r in records if r.path == "/learn" and r.ok]
    attempted, failed = loadgen.tally(records)
    metrics = {
        "throughput_rps": run["closed_rps"],
        "latency_p50_ms": loadgen.nearest_rank(retrieves, 50) * 1e3,
        "latency_p90_ms": loadgen.nearest_rank(retrieves, 90) * 1e3,
        "latency_p99_ms": loadgen.nearest_rank(retrieves, 99) * 1e3,
        "setup_s": statistics.median(setups),
        "server_rss_mb": run["after"]["rss_kb"] / 1024.0,
        "failed_share": failed / attempted,
        "open_loop_calls": len(retrieves),
    }
    if learns:
        metrics["learn_p50_ms"] = loadgen.nearest_rank(learns, 50) * 1e3
        metrics["learn_calls"] = len(learns)
    metrics.update(batch_shape(run["before"]["batches"], run["after"]["batches"]))
    return metrics


def per_layer(run: dict, plan, untraced_rps: float) -> Dict[str, float]:
    """The traced run's per-layer metrics (µs per request unless named)."""
    records = run["open"] + run["closed"]
    requests = sum(record.requests for record in records)
    learn_events = sum(1 for record in records if record.path == "/learn")
    start, end = run["before"]["layers"], run["after"]["layers"]

    def delta(name: str, column: int) -> float:
        return end["layers"][name][column] - start["layers"][name][column]

    def per_request_us(name: str, column: int = 1) -> float:
        return delta(name, column) / requests * 1e6

    server_cpu_s = run["after"]["cpu_s"] - run["before"]["cpu_s"]
    top_cpu_s = end["top_cpu_s"] - start["top_cpu_s"]
    commits = delta("core.journal.commit", 0)
    priced = delta("hardware.retrieval_unit.predict_cycles", 0)
    traced_rps = run["closed_rps"]
    metrics = {
        "api.schemas.decode_us": per_request_us("api.schemas.decode"),
        "api.schemas.encode_us": per_request_us("api.schemas.encode"),
        "serving.daemon.self_us": (server_cpu_s - top_cpu_s) / requests * 1e6,
        "serving.engine.process_batch_us": per_request_us("serving.engine.process_batch"),
        "serving.engine.self_us": per_request_us("serving.engine.process_batch", 2),
        "serving.admission.assess_us": per_request_us("serving.admission.assess"),
        "hardware.retrieval_unit.predict_cycles_us":
            per_request_us("hardware.retrieval_unit.predict_cycles"),
        "serving.admission.repeat_share": repeat_share(plan, records) if priced else 0.0,
        "serving.shards.retrieve_us": per_request_us("serving.shards.retrieve"),
        "serving.shards.self_us": per_request_us("serving.shards.retrieve", 2),
        "core.backends.kernel_us": per_request_us("core.backends.kernel"),
        "core.backends.rows_per_req": sum(r.rows for r in records) / requests,
        "observability.us": per_request_us("observability"),
        "process.server_cpu_us": server_cpu_s / requests * 1e6,
        "process.client_cpu_us":
            (run["after"]["client_cpu_s"] - run["before"]["client_cpu_s"]) / requests * 1e6,
        "process.server_rss_kb_per_kreq":
            (run["after"]["rss_kb"] - run["before"]["rss_kb"]) / requests * 1e3,
        "loadgen.late_p99_ms": loadgen.nearest_rank([r.late_s for r in run["open"]], 99) * 1e3,
        "trace.overhead_share": 1.0 - traced_rps / untraced_rps,
        "unaccounted_share": 1.0 - top_cpu_s / server_cpu_s,
    }
    # Layers that do not run on every workload read 0 where they do not run.
    metrics["core.journal.commit_us"] = (
        delta("core.journal.commit", 1) / commits * 1e6 if commits else 0.0
    )
    metrics["core.journal.commits_per_req"] = commits / requests
    metrics["core.journal.bytes_per_req"] = (
        end["journal_bytes"] - start["journal_bytes"]
    ) / requests
    metrics["api.schemas.apply_mutation_us"] = (
        delta("api.schemas.apply_mutation", 1) / learn_events * 1e6 if learn_events else 0.0
    )
    for name, value in batch_shape(run["before"]["batches"], run["after"]["batches"]).items():
        metrics[f"serving.daemon.{name}"] = value
    return metrics


def repeat_share(plan, records) -> float:
    """Share of requests whose wire was already priced earlier in the run.

    The run starts with the daemon: the warm-up calls count as earlier.
    """
    calls = plan.calls
    seen = set()
    for position in range(plan.workload.warmup_calls):
        seen.update(json.dumps(w, sort_keys=True) for w in calls[position % len(calls)].wires)
    repeats = total = 0
    for record in sorted(records, key=lambda r: r.position):
        for wire in calls[record.position % len(calls)].wires:
            signature = json.dumps(wire, sort_keys=True)
            repeats += signature in seen
            total += 1
            seen.add(signature)
    return repeats / total


# -- correctness ----------------------------------------------------------------------


def _served(document: dict) -> List[dict]:
    """The per-request results of a ``/retrieve`` answer, envelope removed."""
    results = document["results"] if "results" in document else [document]
    return [
        {key: value for key, value in result.items() if key not in ("kind", "schema_version")}
        for result in results
    ]


def _ranking(result: dict) -> list:
    return [(entry["implementation_id"], entry["similarity"])
            for entry in result.get("ranking", [])]


def check_answers(plan, run: dict, answers: Sequence[dict]) -> List[str]:
    """Every mismatch found (empty when all answers are right)."""
    kept = [
        (plan.calls[r.position % len(plan.calls)].wires, json.loads(r.body))
        for r in run["open"] if r.body is not None and r.ok and r.path == "/retrieve"
    ]
    if plan.workload.check == "replay":
        problems = check_replay(run["capture"], kept)
        reference = run["capture"]["responses"][0]
    else:
        problems = check_golden(plan, kept, answers[-1])
        reference = _served(answers[-1])[0]
    for number, answer in enumerate(answers):
        if _ranking(_served(answer)[0]) != _ranking(reference):
            problems.append(f"launch {number}: warm-up ranking differs from the verified one")
    return problems


def check_replay(capture: dict, kept) -> List[str]:
    """Offline capture replay must be bit-identical, and match what clients got.

    ``kept`` pairs the request wires of sampled calls with their answers.
    """
    from repro.serving import replay_capture

    problems = []
    responses = capture["responses"]
    replayed = [json.loads(json.dumps(record.to_dict())) for record in replay_capture(capture).served]
    if replayed != responses:
        problems.append(f"capture replay differs ({len(replayed)} vs {len(responses)} records)")
    by_index = {response["index"]: response for response in responses}
    for wires, document in kept:
        for wire, result in zip(wires, _served(document)):
            index = result["index"]
            if by_index.get(index) != result or capture["trace"][index]["request"] != wire:
                problems.append(f"request {index}: client answer differs from capture")
    if not kept:
        problems.append("no sampled answers to check")
    return problems


def check_golden(plan, kept, warmup_answer: dict) -> List[str]:
    """Sampled rankings, the warm-up answer's too, must equal the naive golden backend's."""
    from repro.api import schemas
    from repro.serving.shards import ShardedRetriever

    spec = plan.workload.spec()
    retriever = ShardedRetriever(spec.resolve_case_base(), shard_count=1, backend="naive")
    problems = []
    wires_by_answer = [(plan.warmup_wire, warmup_answer)]
    wires_by_answer += [(wires[0], document) for wires, document in kept]
    requests = [schemas.request_from_wire(wire, requester="http") for wire, _ in wires_by_answer]
    golden = retriever.retrieve_batch(requests, n=spec.n_best, threshold=spec.threshold)
    for (wire, document), expected in zip(wires_by_answer, golden):
        (result,) = _served(document)
        ranking = [(entry.implementation_id, entry.similarity) for entry in expected.ranked]
        if _ranking(result) != ranking:
            problems.append(f"request {result['index']}: ranking differs from the naive backend")
    if len(wires_by_answer) < 2:
        problems.append("no sampled answers to check")
    return problems


# -- the run --------------------------------------------------------------------------


def host_metadata(seed: int, usable_cpus: int) -> Dict[str, object]:
    """Host and input identity of a record (the commit is null outside git)."""
    import numpy

    try:
        # The ceiling keeps git from searching directories above the checkout.
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    return {
        "usable_cpus": usable_cpus,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the full record."""
    from perfbench.workloads import WORKLOADS, build_plan

    usable = os.sched_getaffinity(0)
    workload = WORKLOADS[workload_name]
    plan = build_plan(workload, seed)
    # The plan lives for the whole run: keep it out of the collector's scans,
    # so client-side collections stay short and do not delay calls.
    gc.freeze()
    with ExitStack() as stack:
        scratch = stack.enter_context(
            tempfile.TemporaryDirectory(prefix=".perfbench-tmp-", dir=ROOT)
        )
        setups, answers = [], []
        untraced_rps = None
        if trace:
            # The tracing-overhead baseline: the same closed loop, untraced.
            with ExitStack() as baseline:
                server, _, answer = start_server(workload, False, scratch, 0, plan, baseline)
                answers.append(answer)
                warm_up(server, plan)
                connections = [loadgen.Connection("127.0.0.1", server.port)
                               for _ in range(loadgen.CONNECTIONS)]
                records, elapsed = loadgen.closed_loop(
                    plan.calls, connections, first=workload.warmup_calls,
                    seconds=seconds * (1 - OPEN_SHARE),
                )
                for connection in connections:
                    connection.close()
                untraced_rps = closed_throughput(records, elapsed)
        launches = 1 if trace else SETUP_LAUNCHES
        for index in range(1, launches + 1):
            with ExitStack() as launch:
                server, setup_s, answer = start_server(workload, trace, scratch, index, plan,
                                                       launch)
                setups.append(setup_s)
                answers.append(answer)
                if index == launches:
                    # The last launch serves the measured phases.
                    stack.enter_context(launch.pop_all())
        warm_up(server, plan)
        measured = measure(server, plan, seconds, trace)
        server.stop()
        problems = check_answers(plan, measured, answers)

    records = measured["open"] + measured["closed"]
    attempted, failed = loadgen.tally(records)
    metrics = per_layer(measured, plan, untraced_rps) if trace else end_to_end(measured, setups)
    return {
        "workload": workload_name,
        "trace": trace,
        "seconds": seconds,
        "host": host_metadata(seed, len(usable)),
        "input": plan.metadata,
        "correct": not problems and failed == 0,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


#: Contract metrics and their units: ``--trace 0`` reports END_TO_END,
#: ``--trace 1`` reports PER_LAYER (both also print everything else measured).
END_TO_END = {
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MB",
}
PER_LAYER = {
    "api.schemas.decode_us": "us",
    "api.schemas.encode_us": "us",
    "serving.daemon.self_us": "us",
    "serving.daemon.batch_mean": "count",
    "serving.daemon.singleton_batch_share": "share",
    "serving.engine.process_batch_us": "us",
    "serving.engine.self_us": "us",
    "serving.admission.assess_us": "us",
    "hardware.retrieval_unit.predict_cycles_us": "us",
    "serving.admission.repeat_share": "share",
    "serving.shards.retrieve_us": "us",
    "serving.shards.self_us": "us",
    "core.backends.kernel_us": "us",
    "core.backends.rows_per_req": "count",
    "core.journal.commit_us": "us",
    "core.journal.commits_per_req": "count",
    "core.journal.bytes_per_req": "B",
    "api.schemas.apply_mutation_us": "us",
    "observability.us": "us",
    "process.server_cpu_us": "us",
    "process.client_cpu_us": "us",
    "process.server_rss_kb_per_kreq": "KB",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_share": "share",
    "unaccounted_share": "share",
}
#: Units of the metrics printed in the full record only.
EXTRA_UNITS = {
    "throughput_rps": "1/s",
    "latency_p90_ms": "ms",
    "latency_p99_ms": "ms",
    "failed_share": "share",
    "open_loop_calls": "count",
    "learn_p50_ms": "ms",
    "learn_calls": "count",
    "batch_mean": "count",
    "singleton_batch_share": "share",
}


def unit_of(name: str) -> str:
    return {**END_TO_END, **PER_LAYER, **EXTRA_UNITS}[name]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    signal.signal(signal.SIGTERM, _on_term)
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.alarm(RUN_LIMIT_S)
    try:
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except Exception:
        traceback.print_exc()
        return 2
    finally:
        signal.alarm(0)

    for name, value in sorted(record["metrics"].items()):
        print(f"{name:45s} {value:14.6g} {unit_of(name)}")
    for problem in record["problems"]:
        print(f"MISMATCH: {problem}")
    print(json.dumps(record, sort_keys=True))
    reported = PER_LAYER if args.trace else END_TO_END
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": unit}
            for name, unit in reported.items()
        },
    }))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
