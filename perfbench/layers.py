"""Per-layer wall-clock timers wrapped around the daemon's public entry points.

The traced server launcher (``server.py --trace 1``) calls :func:`install`
before it starts the daemon; nothing under ``src/`` changes.  Every wrapped
call is a span on one stack: a span's *self* time is its duration minus the
time of the spans nested inside it.  Spans with no parent also add their
thread CPU time to ``top_cpu_s``, the server CPU the timers account for (CPU,
not wall time, because a journal commit's wall time is mostly fsync wait).
The daemon is a single asyncio thread and none of the wrapped calls awaits,
so spans nest strictly.
"""

from __future__ import annotations

import importlib
import os
import time
from typing import Callable, Dict, List

#: Layer name -> (module path, attribute path) of each wrapped entry point.
ENTRY_POINTS = {
    "api.schemas.decode": ("repro.api.schemas", "request_from_wire"),
    "api.schemas.encode": ("repro.api.schemas", "served_request_to_wire"),
    "api.schemas.apply_mutation": ("repro.api.schemas", "apply_mutation_events"),
    "serving.engine.process_batch": ("repro.serving.engine", "ServingSession.process_batch"),
    "serving.admission.assess": ("repro.serving.admission", "AdmissionController.assess_batch"),
    "hardware.retrieval_unit.predict_cycles": (
        "repro.hardware.retrieval_unit", "HardwareRetrievalUnit.predict_cycles"
    ),
    "serving.shards.retrieve": ("repro.serving.shards", "ShardedRetriever.retrieve_batch"),
    "core.backends.kernel": ("repro.core.backends", "VectorizedBackend.retrieve_batch"),
    "core.journal.commit": ("repro.core.journal", "DeltaJournal.commit"),
    "observability": ("repro.observability.facade", (
        "Observability.begin_batch",
        "Observability.end_batch",
        "Observability.record_request",
        "Observability.annotate_trace",
    )),
}


class LayerTimers:
    """Nested ``perf_counter`` spans, aggregated per layer name."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 cpu_clock: Callable[[], float] = time.thread_time) -> None:
        self._clock = clock
        self._cpu_clock = cpu_clock
        #: Child time accumulated by each open span, innermost last.
        self._stack: List[float] = []
        #: name -> [calls, total seconds, self seconds]
        self.layers: Dict[str, List[float]] = {}
        self.top_cpu_s = 0.0
        self.journal_bytes = 0

    def wrap(self, name: str, function: Callable) -> Callable:
        """``function`` timed as one span of layer ``name`` per call."""
        clock, cpu_clock, stack = self._clock, self._cpu_clock, self._stack
        entry = self.layers.setdefault(name, [0, 0.0, 0.0])

        def timed(*args, **kwargs):
            top = not stack
            cpu_started = cpu_clock() if top else 0.0
            stack.append(0.0)
            started = clock()
            try:
                return function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                entry[0] += 1
                entry[1] += elapsed
                entry[2] += elapsed - children
                if top:
                    self.top_cpu_s += cpu_clock() - cpu_started
                else:
                    stack[-1] += elapsed

        timed.__wrapped__ = function
        return timed

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy of the counters."""
        return {
            "layers": {name: list(values) for name, values in self.layers.items()},
            "top_cpu_s": self.top_cpu_s,
            "journal_bytes": self.journal_bytes,
        }


def _resolve(module_path: str, attribute_path: str):
    """``(owner, attribute name)`` of a dotted entry point."""
    owner = importlib.import_module(module_path)
    *parents, attribute = attribute_path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attribute


def install(timers: LayerTimers) -> None:
    """Wrap every entry point of :data:`ENTRY_POINTS` with ``timers``."""
    for name, (module_path, attributes) in ENTRY_POINTS.items():
        if isinstance(attributes, str):
            attributes = (attributes,)
        for attribute_path in attributes:
            owner, attribute = _resolve(module_path, attribute_path)
            setattr(owner, attribute, timers.wrap(name, getattr(owner, attribute)))
    _count_journal_bytes(timers)


def _count_journal_bytes(timers: LayerTimers) -> None:
    """Add the bytes each journal commit appends to ``timers.journal_bytes``."""
    from repro.core.journal import DeltaJournal

    commit = DeltaJournal.commit

    def _size(journal) -> int:
        path = journal.directory / f"{journal.JOURNAL_PREFIX}{journal.generation}.jsonl"
        try:
            return os.stat(path).st_size
        except FileNotFoundError:
            return 0

    def counted(journal, *args, **kwargs):
        before = _size(journal)
        try:
            return commit(journal, *args, **kwargs)
        finally:
            timers.journal_bytes += _size(journal) - before

    DeltaJournal.commit = counted
