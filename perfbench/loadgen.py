"""Load generator: keep-alive HTTP calls in open- and closed-loop phases.

The generator runs in its own process, apart from the daemon, with one
thread per connection (``CONNECTIONS`` = 2, the host's CPU count).

* **Open loop**: call ``i`` is *due* at ``start + i / rate`` whatever the
  daemon does.  A call's latency runs from when it was due, not from when a
  free connection sent it, so a stall also charges the calls queued behind
  it; how late the generator sent each call is recorded separately.
* **Closed loop**: each connection sends its next call when the previous
  one has completed; throughput counts completed requests, not calls.

Any non-2xx status, timeout or connection error fails the call and all of
its requests.
"""

from __future__ import annotations

import http.client
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Set, Tuple

CONNECTIONS = 2
#: Socket timeout of one call; a call that takes longer has failed.
CALL_TIMEOUT_S = 10.0


class HttpError(Exception):
    """A call that got no well-formed HTTP response."""


class Connection:
    """A keep-alive HTTP/1.1 connection (``http.client``); reconnects after an error."""

    def __init__(self, host: str, port: int, timeout: float = CALL_TIMEOUT_S) -> None:
        self._http = http.client.HTTPConnection(host, port, timeout=timeout)

    def request(self, method: str, path: str, body: bytes = b"") -> Tuple[int, bytes]:
        """Send one request; return ``(status, body)`` or raise ``HttpError``."""
        try:
            self._http.request(method, path, body, {"Content-Type": "application/json"})
            response = self._http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException) as exc:
            self._http.close()
            raise HttpError(f"{type(exc).__name__}: {exc}") from exc

    def close(self) -> None:
        self._http.close()


@dataclass
class CallRecord:
    """Timing and outcome of one call (``perf_counter`` seconds)."""

    position: int
    path: str
    requests: int
    rows: int
    due: float
    sent: float
    done: float
    ok: bool
    body: Optional[bytes] = None

    @property
    def latency_s(self) -> float:
        """From when the call was due to when its response arrived."""
        return self.done - self.due

    @property
    def late_s(self) -> float:
        """How late the generator sent the call."""
        return self.sent - self.due


class PhaseTimeout(Exception):
    """A phase did not finish within its hard limit."""


def _run_threads(target: Callable[[Connection], None], connections: Sequence[Connection],
                 limit_s: float) -> None:
    errors: List[BaseException] = []

    def guarded(connection: Connection) -> None:
        try:
            target(connection)
        except BaseException as exc:  # re-raised on the main thread below
            errors.append(exc)

    threads = [
        threading.Thread(target=guarded, args=(connection,), daemon=True)
        for connection in connections
    ]
    for thread in threads:
        thread.start()
    deadline = time.perf_counter() + limit_s
    for thread in threads:
        thread.join(max(0.0, deadline - time.perf_counter()))
    if any(thread.is_alive() for thread in threads):
        raise PhaseTimeout(f"phase still running after {limit_s:.0f} s")
    if errors:
        raise errors[0]


def _issue(calls: Sequence, connection: Connection, position: int, due: float,
           keep: Set[int]) -> CallRecord:
    """Send plan call ``position`` (the plan repeats) and time it."""
    call = calls[position % len(calls)]
    sent = time.perf_counter()
    try:
        status, body = connection.request("POST", call.path, call.body)
        ok = 200 <= status < 300
    except HttpError:
        body, ok = b"", False
    done = time.perf_counter()
    return CallRecord(position, call.path, call.requests, call.rows, due, sent, done, ok,
                      body if position in keep else None)


def open_loop(calls: Sequence, connections: Sequence[Connection], *, first: int,
              rate: float, seconds: float, keep: Set[int] = frozenset()) -> List[CallRecord]:
    """Offer ``rate`` calls/s for ``seconds``; call ``k`` is plan position ``first + k``."""
    total = int(rate * seconds)
    start = time.perf_counter() + 0.01
    cursor = iter(range(total))
    lock = threading.Lock()
    records: List[CallRecord] = []

    def worker(connection: Connection) -> None:
        while True:
            with lock:
                index = next(cursor, None)
            if index is None:
                return
            due = start + index / rate
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            records.append(_issue(calls, connection, first + index, due, keep))

    _run_threads(worker, connections, seconds + 2 * CALL_TIMEOUT_S + 5.0)
    records.sort(key=lambda record: record.position)
    return records


def closed_loop(calls: Sequence, connections: Sequence[Connection], *, first: int,
                seconds: float, keep: Set[int] = frozenset()) -> Tuple[List[CallRecord], float]:
    """Back-to-back calls for ``seconds``; returns the records and the elapsed time."""
    start = time.perf_counter()
    end = start + seconds
    lock = threading.Lock()
    counter = [first]
    records: List[CallRecord] = []

    def worker(connection: Connection) -> None:
        while time.perf_counter() < end:
            with lock:
                position = counter[0]
                counter[0] += 1
            now = time.perf_counter()
            records.append(_issue(calls, connection, position, now, keep))

    _run_threads(worker, connections, seconds + 2 * CALL_TIMEOUT_S + 5.0)
    records.sort(key=lambda record: record.position)
    elapsed = max((record.done for record in records), default=end) - start
    return records, elapsed


def nearest_rank(values: Sequence[float], percent: float) -> float:
    """The nearest-rank percentile: the smallest value with ``percent``% at or below it."""
    if not values:
        raise ValueError("no values")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    ordered = sorted(values)
    return ordered[max(0, math.ceil(percent / 100.0 * len(ordered)) - 1)]


def tally(records: Sequence[CallRecord]) -> Tuple[int, int]:
    """``(attempted, failed)`` operations over ``records``.

    Each request of a retrieve call is one operation and a ``/learn`` call
    is one; a failed call fails all of its operations.
    """
    attempted = failed = 0
    for record in records:
        operations = record.requests or 1
        attempted += operations
        if not record.ok:
            failed += operations
    return attempted, failed
