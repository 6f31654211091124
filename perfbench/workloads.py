"""The benchmark's traffic mixes and the call plans generated from a seed.

A workload names the daemon configuration it runs against and how the load
generator groups requests into HTTP calls.  :func:`build_plan` turns a
workload and a seed into the exact bytes the load generator sends: the
daemon never sees the seed, only the generated request wires.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, List

from repro.api import schemas
from repro.apps import build_case_base, default_workloads
from repro.apps.hugecb import HugeCaseBaseWorkload
from repro.serving import ServingSpec, trace_from_workloads
from repro.serving.loadgen import WORKLOAD_FACTORIES


@dataclass(frozen=True)
class Workload:
    """One traffic mix: the daemon it targets and the shape of its calls."""

    name: str
    why: str
    #: The ``repro`` workload generating the request mix (and the case base).
    traffic: str
    #: Requests per ``POST /retrieve`` call (1 = the single-request form).
    requests_per_call: int
    #: Offered rate of the open-loop phase, in calls per second: about half
    #: of the closed-loop capacity measured on a 2-CPU host, fixed here and
    #: never adapted at run time.
    open_calls_per_s: float
    #: Every ``learn_every``-th call is a ``POST /learn`` (0 = never).
    learn_every: int = 0
    #: Whether the daemon runs with a durable journal directory.
    journal: bool = False
    #: ``"replay"``: offline capture replay must be bit-identical;
    #: ``"golden"``: sampled answers must equal the naive golden backend's.
    check: str = "replay"
    #: Untimed calls sent after the first answer, before measuring.
    warmup_calls: int = 100
    #: Requests generated for the plan (the load generator cycles through it).
    plan_requests: int = 8192

    def spec(self) -> ServingSpec:
        """The daemon's configuration: the default serving config throughout."""
        return ServingSpec(workloads=(self.traffic,))


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="heavy-single",
            why="repeated signatures, one request per call: HTTP/JSON, "
                "admission pricing and a small retrieval dominate",
            traffic="heavy-traffic",
            requests_per_call=1,
            open_calls_per_s=100.0,
        ),
        Workload(
            name="huge-casebase",
            why="100k implementations and distinct requests: the retrieval "
                "kernel dominates and any memo is bypassed",
            traffic="huge-casebase",
            requests_per_call=1,
            open_calls_per_s=50.0,
            check="golden",
            warmup_calls=40,
            plan_requests=4096,
        ),
        Workload(
            name="learn-journal",
            why="16-request calls plus /learn writes on a journaled daemon: "
                "batch closing, journal commits and cache invalidation",
            traffic="heavy-traffic",
            requests_per_call=16,
            open_calls_per_s=15.0,
            learn_every=10,
            journal=True,
            plan_requests=16384,
        ),
        # The journal and /learn layers in one-request calls.  Whether a
        # learn-journal call collapses into singleton batches (each with its
        # own commit) flips with small changes in host speed, so its figures
        # do not repeat; a one-request call has nothing to collapse.
        Workload(
            name="learn-single",
            why="one-request calls plus a /learn write every 20 calls on a "
                "journaled daemon: journal commits and cache invalidation",
            traffic="heavy-traffic",
            requests_per_call=1,
            open_calls_per_s=80.0,
            learn_every=20,
            journal=True,
        ),
    )
}


@dataclass
class Call:
    """One HTTP call of a plan, pre-serialised."""

    path: str
    body: bytes
    #: Request wires carried (empty for ``/learn``).
    wires: List[dict] = field(default_factory=list)
    #: Case-base rows the retrieval kernel scans for these requests.
    rows: int = 0

    @property
    def requests(self) -> int:
        return len(self.wires)


@dataclass
class Plan:
    """Everything the load generator sends for one workload and seed."""

    workload: Workload
    calls: List[Call]
    #: The request of the set-up probe (sent alone, before any other call).
    warmup_wire: dict
    metadata: Dict[str, object]


def _schema_and_rows(workload: Workload):
    """The served schema and rows per type, without building a huge base.

    ``huge-casebase`` extends the platform schema with its synthetic
    attributes; contributing a one-implementation-per-type instance yields
    the identical schema in milliseconds.
    """
    if workload.traffic != HugeCaseBaseWorkload.name:
        case_base = workload.spec().resolve_case_base()
        return case_base, {ft.type_id: len(ft) for ft in case_base}
    full = HugeCaseBaseWorkload()
    small = HugeCaseBaseWorkload(
        implementations=full.spec.type_count, types=full.spec.type_count
    )
    case_base = build_case_base(default_workloads() + [small])
    rows = {ft.type_id: len(ft) for ft in case_base}
    for ft in case_base:
        if ft.type_id > HugeCaseBaseWorkload.TYPE_ID_BASE:
            rows[ft.type_id] = full.spec.implementations_per_type
    return case_base, rows


def _replace_event(case_base, type_id: int, rng: random.Random) -> dict:
    """A ``replace_implementation`` event changing one attribute value.

    The new value is one the attribute already takes somewhere in the case
    base, so it lies inside the platform's explicit bounds and the bounds
    table never changes.
    """
    values_by_attribute: Dict[int, set] = {}
    for function_type in case_base:
        for implementation in function_type:
            for attribute_id, value in implementation.attributes.items():
                values_by_attribute.setdefault(attribute_id, set()).add(value)
    implementation = rng.choice(case_base.get_type(type_id).sorted_implementations())
    choices = [
        attribute_id
        for attribute_id in sorted(implementation.attributes)
        if len(values_by_attribute[attribute_id]) > 1
    ]
    attribute_id = rng.choice(choices)
    current = implementation.attributes[attribute_id]
    wire = schemas.implementation_to_wire(implementation)
    wire["attributes"] = {str(key): value for key, value in wire["attributes"].items()}
    wire["attributes"][str(attribute_id)] = rng.choice(
        sorted(values_by_attribute[attribute_id] - {current})
    )
    return {"op": "replace_implementation", "type_id": type_id, "implementation": wire}


def build_plan(workload: Workload, seed: int) -> Plan:
    """Generate the call plan of ``workload`` for ``seed`` (deterministic)."""
    count = workload.plan_requests
    case_base, rows_by_type = _schema_and_rows(workload)
    traffic = WORKLOAD_FACTORIES[workload.traffic]()
    duration_us = count * traffic.mean_interarrival_us * 1.5
    trace = []
    while len(trace) < count:
        trace = trace_from_workloads(
            (traffic,), duration_us=duration_us, seed=seed, schema=case_base.schema
        )
        duration_us *= 2
    wires = [schemas.request_to_wire(entry.request) for entry in trace[:count]]

    rng = random.Random(seed * 7919 + 1)
    calls: List[Call] = []
    per_call = workload.requests_per_call
    for start in range(0, count - per_call + 1, per_call):
        group = wires[start:start + per_call]
        payload = group[0] if per_call == 1 else {"requests": group}
        calls.append(Call(
            path="/retrieve",
            body=json.dumps(payload).encode(),
            wires=group,
            rows=sum(rows_by_type[wire["type_id"]] for wire in group),
        ))
        if workload.learn_every and len(calls) % workload.learn_every == workload.learn_every - 1:
            event = _replace_event(case_base, group[0]["type_id"], rng)
            calls.append(Call(path="/learn", body=json.dumps({"events": [event]}).encode()))

    retrieved = [wire for call in calls for wire in call.wires]
    signatures = {json.dumps(wire, sort_keys=True) for wire in retrieved}
    learn_calls = sum(1 for call in calls if call.path == "/learn")
    metadata = {
        "traffic": workload.traffic,
        "requests_per_call": per_call,
        "plan_requests": len(retrieved),
        "distinct_signature_share": len(signatures) / len(retrieved),
        "rows_per_type": {
            str(type_id): rows_by_type[type_id]
            for type_id in sorted({wire["type_id"] for wire in retrieved})
        },
        "learn_events_per_retrieve": learn_calls / len(retrieved),
        "open_calls_per_s": workload.open_calls_per_s,
        "journal": workload.journal,
    }
    return Plan(workload=workload, calls=calls, warmup_wire=wires[0], metadata=metadata)
