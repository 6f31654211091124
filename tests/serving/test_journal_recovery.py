"""Crash recovery through the durable delta journal (``repro serve --journal``).

The PR 7 acceptance property: kill a journaled daemon mid-run (no drain, no
final commit -- the in-process stand-in for ``kill -9``), restart it on the
same directory, and the recovered daemon must (a) still hold every reply a
client observed, bit-for-bit, (b) continue the killed incarnation's absolute
index frame, and (c) produce a capture whose offline replay is bit-identical
-- rankings, similarity doubles, admission decisions.
"""

import asyncio
import http.client
import json

import pytest

from repro.core.journal import JournalError
from repro.serving import DaemonThread, ServingSpec, replay_capture
from repro.serving.daemon import ServingDaemon

PAPER_WIRE = {"type_id": 1, "constraints": {"1": 16, "3": 1, "4": 40}}

LEARN_EVENT = {
    "op": "add_implementation",
    "type_id": 1,
    "implementation": {
        "implementation_id": 9001,
        "target": "gpp",
        "name": "learned",
        "attributes": {"1": 16, "3": 1, "4": 40},
    },
}

ENVELOPE_KEYS = {"kind", "schema_version"}


def _spec() -> ServingSpec:
    return ServingSpec(random=1, max_batch=4, max_wait_us=20_000.0, n_best=3)


def _strip(body):
    return {k: v for k, v in body.items() if k not in ENVELOPE_KEYS}


class Client:
    def __init__(self, host, port):
        self.connection = http.client.HTTPConnection(host, port, timeout=30)

    def call(self, method, path, payload=None):
        body = json.dumps(payload) if payload is not None else None
        self.connection.request(
            method, path, body=body, headers={"Content-Type": "application/json"}
        )
        response = self.connection.getresponse()
        return response.status, json.loads(response.read().decode("utf-8"))

    def close(self):
        self.connection.close()


class TestFreshJournal:
    def test_journal_files_readiness_and_metrics(self, tmp_path):
        with DaemonThread(_spec(), journal_dir=str(tmp_path)) as handle:
            client = Client(handle.host, handle.port)
            status, body = client.call("GET", "/readyz")
            assert status == 200 and body["status"] == "ready"
            status, body = client.call("GET", "/healthz")
            assert status == 200 and body["status"] == "ok"
            status, _ = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200
            status, metrics = client.call("GET", "/metrics?format=json")
            journal = metrics["daemon"]["journal"]
            assert journal["generation"] == 0
            assert journal["records_since_snapshot"] >= 1
            assert journal["base_index"] == 0
            client.close()
        names = {path.name for path in tmp_path.iterdir()}
        assert "snapshot-0.json" in names
        assert "journal-0.jsonl" in names


class TestCrashRecovery:
    def test_kill_recover_and_serve_bit_identically(self, tmp_path):
        journal_dir = str(tmp_path / "journal")
        responses_a = []
        with DaemonThread(
            _spec(), journal_dir=journal_dir, hard_stop=True
        ) as handle:
            client = Client(handle.host, handle.port)
            status, body = client.call("POST", "/learn", {"events": [LEARN_EVENT]})
            assert status == 200 and body["applied"] == 1
            for _ in range(3):
                status, body = client.call("POST", "/retrieve", PAPER_WIRE)
                assert status == 200
                responses_a.append(_strip(body))
            status, body = client.call(
                "POST", "/retrieve", {"requests": [PAPER_WIRE, PAPER_WIRE]}
            )
            assert status == 200
            responses_a.extend(body["results"])
            implementations = handle.daemon.case_base.count_implementations()
            client.close()
        # hard_stop dropped the socket without draining or committing --
        # but every reply above was journaled *before* it was sent.

        with DaemonThread(_spec(), journal_dir=journal_dir) as handle:
            client = Client(handle.host, handle.port)
            # The /learn mutation survived the crash.
            assert handle.daemon.case_base.count_implementations() == implementations
            status, body = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200
            new_record = _strip(body)
            status, capture = client.call("GET", "/capture")
            assert status == 200
            status, metrics = client.call("GET", "/metrics?format=json")
            assert metrics["daemon"]["journal"]["generation"] == 1
            client.close()

        # (a) Every pre-kill reply is in the recovered capture, bit-for-bit.
        by_index = {record["index"]: record for record in capture["responses"]}
        for record in responses_a:
            assert by_index[record["index"]] == record
        # (b) New arrivals continue the killed incarnation's numbering.
        assert new_record["index"] == len(responses_a)
        assert by_index[new_record["index"]] == new_record
        # (c) Offline replay of the recovered capture is bit-identical:
        # rankings, similarity doubles, admission decisions.
        report = replay_capture(capture)
        replayed = [
            json.loads(json.dumps(record.to_dict())) for record in report.served
        ]
        assert replayed == capture["responses"]

    def test_double_crash_recovers_twice(self, tmp_path):
        """Crash, recover, crash again: the second recovery still reconciles."""
        journal_dir = str(tmp_path / "journal")
        total = 0
        for _ in range(2):
            with DaemonThread(
                _spec(), journal_dir=journal_dir, hard_stop=True
            ) as handle:
                client = Client(handle.host, handle.port)
                for _ in range(2):
                    status, body = client.call("POST", "/retrieve", PAPER_WIRE)
                    assert status == 200
                    assert body["index"] == total
                    total += 1
                client.close()
        with DaemonThread(_spec(), journal_dir=journal_dir) as handle:
            client = Client(handle.host, handle.port)
            status, body = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200 and body["index"] == total
            client.close()


    def test_snapshot_with_retired_execution_axes_recovers(self, tmp_path):
        """A snapshot spec carrying the removed process-tier axes still matches."""
        journal_dir = tmp_path / "journal"
        with DaemonThread(
            _spec(), journal_dir=str(journal_dir), hard_stop=True
        ) as handle:
            client = Client(handle.host, handle.port)
            status, _ = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200
            client.close()
        (snapshot_path,) = journal_dir.glob("snapshot-*.json")
        snapshot = json.loads(snapshot_path.read_text())
        snapshot["spec"].update(execution="inline", workers=0)
        snapshot_path.write_text(json.dumps(snapshot, sort_keys=True))
        with DaemonThread(_spec(), journal_dir=str(journal_dir)) as handle:
            client = Client(handle.host, handle.port)
            status, body = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200 and body["index"] == 1
            client.close()


class TestCompaction:
    def test_snapshot_interval_rotates_generations(self, tmp_path):
        with DaemonThread(
            _spec(), journal_dir=str(tmp_path), snapshot_interval=1
        ) as handle:
            client = Client(handle.host, handle.port)
            for _ in range(4):
                status, _ = client.call("POST", "/retrieve", PAPER_WIRE)
                assert status == 200
            status, metrics = client.call("GET", "/metrics?format=json")
            generation = metrics["daemon"]["journal"]["generation"]
            assert generation >= 1
            client.close()
        # Exactly one generation survives on disk.
        names = sorted(path.name for path in tmp_path.iterdir())
        snapshots = [n for n in names if n.startswith("snapshot-")]
        journals = [n for n in names if n.startswith("journal-")]
        assert len(snapshots) == 1 and len(journals) <= 1

        # A compacted journal (empty tail) still recovers and serves.
        with DaemonThread(_spec(), journal_dir=str(tmp_path)) as handle:
            client = Client(handle.host, handle.port)
            status, body = client.call("POST", "/retrieve", PAPER_WIRE)
            assert status == 200
            assert body["index"] == 4  # the absolute frame came from the snapshot
            client.close()


class TestRecoveryFailures:
    def test_spec_mismatch_is_an_explicit_error(self, tmp_path):
        with DaemonThread(_spec(), journal_dir=str(tmp_path)) as handle:
            client = Client(handle.host, handle.port)
            client.call("POST", "/retrieve", PAPER_WIRE)
            client.close()
        different = ServingSpec(
            random=1, max_batch=4, max_wait_us=20_000.0, n_best=2
        )
        with pytest.raises(JournalError, match="different serving spec"):
            with DaemonThread(different, journal_dir=str(tmp_path)):
                pass  # pragma: no cover - __enter__ raises


class TestReadinessGating:
    def test_unready_daemon_gates_everything_but_health(self, tmp_path):
        # Constructed but not started: exactly the pre-recovery state.
        daemon = ServingDaemon(_spec(), journal_dir=str(tmp_path))
        assert not daemon.ready
        status, body = daemon._handle_healthz()
        assert status == 200 and body["status"] == "starting"  # liveness
        status, body = daemon._handle_readyz()
        assert status == 503 and body["status"] == "starting"  # readiness
        status, body = asyncio.run(daemon._dispatch("POST", "/retrieve", b"{}"))
        assert status == 503 and body["error"] == "starting"
        status, body = asyncio.run(daemon._dispatch("GET", "/healthz", b""))
        assert status == 200

    def test_recovery_failure_surfaces_on_readyz(self, tmp_path):
        daemon = ServingDaemon(_spec(), journal_dir=str(tmp_path))
        daemon.recovery_error = JournalError("boom")
        status, body = daemon._handle_readyz()
        assert status == 500 and body["error"] == "recovery-failed"
        status, body = asyncio.run(daemon._dispatch("POST", "/retrieve", b"{}"))
        assert status == 503 and body["error"] == "recovery-failed"

    def test_unjournaled_daemon_is_ready_immediately(self):
        daemon = ServingDaemon(_spec())
        assert daemon.ready
        assert daemon._handle_readyz()[0] == 200
