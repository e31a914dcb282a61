"""Outside-in tracing: spans around the public entry points of each layer.

:class:`SpanTracer` wraps methods at class level (see :mod:`patches`) and,
while active, records one span per call: name, host start, host end, parent
span, and the ``(client_id, reqid)`` of the request it serves when the
arguments name one (child spans inherit their parent's request).  Spans are
kept in flat arrays in memory and written out when the run ends.

A span's *self time* is its duration minus the time its child spans cover.
Every span belongs to one layer (a module of the program), so the self times
of all layers plus the time no span covers add up to the traced host time.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from patches import Patches

#: Layers in the order they are reported.  ``bench`` is this benchmark's
#: own load generator.
LAYERS = (
    "net.simulator",
    "net.node",
    "net.network",
    "crypto.auth",
    "bft.messages",
    "bft.replica",
    "bft.overload",
    "bft.client",
    "bft.service",
    "base.wrapper",
    "base.statemgr",
    "bft.recovery",
    "bft.statetransfer",
    "bft.viewchange",
    "bft.txn",
    "bft.sharding",
    "explore.oracles",
    "bft.testing",
    "bench",
)

#: ``Replica.on_message`` spans are named by message kind, so the replica's
#: self time splits by protocol phase.
REPLICA_KINDS = {
    "Request": "request",
    "PrePrepare": "preprepare",
    "Prepare": "prepare",
    "Commit": "commit",
    "Checkpoint": "checkpoint",
    "CheckpointCert": "checkpoint",
    "Status": "status",
}


def _request_of(message) -> Optional[Tuple[str, int]]:
    reqid = getattr(message, "reqid", None)
    client_id = getattr(message, "client_id", None)
    if reqid is None or client_id is None:
        return None
    return client_id, reqid


class SpanTracer:
    """Records spans for the wrapped entry points while :attr:`active`."""

    def __init__(self) -> None:
        self.active = False
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self._name_ids: Dict[str, int] = {}
        self.requests: Dict[Tuple[str, int], int] = {}
        # The span log, one entry per span.
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_request = array("i")
        # Aggregates per span name and per layer.
        self.calls: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        self.failures: List[int] = []
        self.layer_inclusive = [0.0] * len(LAYERS)
        self.queue_peak = 0
        self.state_managers: Dict[int, object] = {}
        self.window = 0.0
        self._window_started: Optional[float] = None
        self._stack: List[int] = []
        self._covered: List[float] = []
        self._patches = Patches()

    # -- names ---------------------------------------------------------------------

    def name_id(self, name: str, layer: str) -> int:
        found = self._name_ids.get(name)
        if found is not None:
            return found
        index = len(self.names)
        self._name_ids[name] = index
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.failures.append(0)
        return index

    def _request_id(self, key: Optional[Tuple[str, int]]) -> int:
        if key is None:
            return -1
        found = self.requests.get(key)
        if found is None:
            found = self.requests[key] = len(self.requests)
        return found

    # -- the measured window ---------------------------------------------------------

    def start(self) -> None:
        self.active = True
        self._window_started = perf_counter()

    def stop(self) -> None:
        if self._window_started is not None:
            self.window += perf_counter() - self._window_started
            self._window_started = None
        self.active = False

    # -- spans -------------------------------------------------------------------------

    def _open(self, name_id: int, request: int) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if request < 0 and parent >= 0:
            request = self.span_request[parent]
        index = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(parent)
        self.span_request.append(request)
        self.span_end.append(0.0)
        stack.append(index)
        self._covered.append(0.0)
        self.span_start.append(perf_counter())
        return index

    def _close(self, index: int) -> None:
        end = perf_counter()
        self.span_end[index] = end
        self._stack.pop()
        covered = self._covered.pop()
        duration = end - self.span_start[index]
        name_id = self.span_name[index]
        self.calls[name_id] += 1
        self.total[name_id] += duration
        self.self_time[name_id] += duration - covered
        if self._covered:
            self._covered[-1] += duration
        layer = self.name_layer[name_id]
        parent = self.span_parent[index]
        if parent < 0 or self.name_layer[self.span_name[parent]] != layer:
            self.layer_inclusive[layer] += duration

    def _wrapper(
        self,
        original: Callable,
        name_id: int,
        request_of: Optional[Callable[[tuple], Optional[Tuple[str, int]]]] = None,
        name_of: Optional[Callable[[tuple], int]] = None,
        observe: Optional[Callable[[tuple], None]] = None,
    ) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return original(*args, **kwargs)
            if observe is not None:
                observe(args)
            index = tracer._open(
                name_of(args) if name_of is not None else name_id,
                tracer._request_id(request_of(args)) if request_of is not None else -1,
            )
            try:
                return original(*args, **kwargs)
            except BaseException:
                tracer.failures[tracer.span_name[index]] += 1
                raise
            finally:
                tracer._close(index)

        return traced

    def traced(self, layer: str, name: str, function: Callable) -> Callable:
        """``function`` wrapped in a span: for the benchmark's own code."""
        return self._wrapper(function, self.name_id(name, layer))

    def wrap(self, layer: str, cls: type, method: str, **options) -> None:
        name_id = self.name_id(f"{cls.__name__}.{method}", layer)
        self._patches.wrap(
            cls, method, lambda original: self._wrapper(original, name_id, **options)
        )

    # -- installation --------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public entry points (see ``targets`` below)."""
        from repro.base.library import BASEService
        from repro.base.statemgr import AbstractStateManager
        from repro.base.wrapper import ConformanceWrapper
        from repro.bft.client import Client
        from repro.bft.messages import Message
        from repro.bft.overload import AdmissionQueue
        from repro.bft.recovery import ReplicaHost
        from repro.bft.replica import Replica
        from repro.bft.sharding import ShardedClient
        from repro.bft.statetransfer import StateTransferManager
        from repro.bft.testing import KVStateMachine, RecordingKV
        from repro.bft.txn import TxnParticipant
        from repro.bft.viewchange import ViewChangeManager
        from repro.crypto.auth import KeyTable
        from repro.explore.oracles import OracleSuite
        from repro.net.network import Network
        from repro.net.node import Node
        from repro.net.simulator import Simulator
        from repro.nfs.wrapper import NFSConformanceWrapper

        message_arg = lambda args: _request_of(args[1])  # noqa: E731
        send_arg = lambda args: _request_of(args[3])  # noqa: E731

        def note_queue(args) -> None:
            depth = len(args[0]._queue)
            if depth > self.queue_peak:
                self.queue_peak = depth

        def note_manager(args) -> None:
            self.state_managers[id(args[0])] = args[0].counters

        kind_ids = {
            kind: self.name_id(f"Replica.on_message:{label}", "bft.replica")
            for kind, label in REPLICA_KINDS.items()
        }
        other_id = self.name_id("Replica.on_message:other", "bft.replica")

        def replica_kind(args) -> int:
            return kind_ids.get(type(args[1]).__name__, other_id)

        self.wrap("net.simulator", Simulator, "step", observe=note_queue)
        self.wrap("net.node", Node, "set_timer")
        self.wrap("net.network", Network, "send", request_of=send_arg)
        self.wrap("crypto.auth", KeyTable, "make_authenticator")
        self.wrap("crypto.auth", KeyTable, "check_authenticator")
        encode_id = self.name_id("Message.signable_bytes", "bft.messages")
        for cls in _message_classes(Message):
            self._patches.wrap(
                cls, "signable_bytes", lambda original: self._wrapper(original, encode_id)
            )
        self._patches.wrap(
            Replica,
            "on_message",
            lambda original: self._wrapper(
                original, other_id, request_of=message_arg, name_of=replica_kind
            ),
        )
        self.wrap("bft.overload", AdmissionQueue, "admit", request_of=message_arg)
        self.wrap("bft.client", Client, "invoke_async")
        self.wrap("bft.client", Client, "on_message", request_of=message_arg)
        self.wrap("bft.service", KVStateMachine, "execute")
        self.wrap("bft.service", BASEService, "execute")
        self.wrap("base.wrapper", NFSConformanceWrapper, "execute")
        self.wrap("base.wrapper", ConformanceWrapper, "get_obj")
        self.wrap("base.wrapper", NFSConformanceWrapper, "get_obj")
        self.wrap("base.wrapper", ConformanceWrapper, "put_objs")
        self.wrap("base.wrapper", NFSConformanceWrapper, "put_objs")
        self.wrap("base.statemgr", AbstractStateManager, "take_checkpoint", observe=note_manager)
        self.wrap("bft.recovery", ReplicaHost, "recover_now")
        self.wrap("bft.statetransfer", StateTransferManager, "on_message")
        self.wrap("bft.viewchange", ViewChangeManager, "on_message")
        self.wrap("bft.viewchange", ViewChangeManager, "start")
        self.wrap("bft.txn", TxnParticipant, "apply_prepare")
        self.wrap("bft.txn", TxnParticipant, "apply_decide")
        self.wrap("bft.sharding", ShardedClient, "invoke_async")
        self.wrap("bft.sharding", ShardedClient, "invoke_txn_async")
        self.wrap("explore.oracles", OracleSuite, "check_now")
        self.wrap("bft.testing", RecordingKV, "execute")
        self.wrap("bft.testing", RecordingKV, "record_reply")

    def remove(self) -> None:
        self._patches.remove()

    @property
    def patches(self) -> Patches:
        return self._patches

    # -- results -------------------------------------------------------------------------------

    def by_name(self, name: str) -> Tuple[int, float, float, int]:
        """(calls, inclusive seconds, self seconds, failures) for one span name."""
        index = self._name_ids.get(name)
        if index is None:
            return 0, 0.0, 0.0, 0
        return self.calls[index], self.total[index], self.self_time[index], self.failures[index]

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer; the layers' sum is the time spans cover."""
        totals = {layer: 0.0 for layer in LAYERS}
        for index, seconds in enumerate(self.self_time):
            totals[LAYERS[self.name_layer[index]]] += seconds
        return totals

    def layer_inclusive_seconds(self, layer: str) -> float:
        return self.layer_inclusive[LAYERS.index(layer)]

    def write(self, stem: Path) -> Path:
        """Write the span log: ``<stem>.json`` (names, request keys, array
        layout) beside ``<stem>.spans`` (the arrays, native byte order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        data = stem.with_suffix(".spans")
        with open(data, "wb") as handle:
            for column in (
                self.span_name,
                self.span_parent,
                self.span_request,
                self.span_start,
                self.span_end,
            ):
                column.tofile(handle)
        header = {
            "spans": len(self.span_name),
            "columns": [
                ["name", "i"],
                ["parent", "i"],
                ["request", "i"],
                ["start_s", "d"],
                ["end_s", "d"],
            ],
            "names": self.names,
            "name_layer": [LAYERS[i] for i in self.name_layer],
            "requests": [[c, r] for (c, r), _ in sorted(self.requests.items(), key=lambda kv: kv[1])],
        }
        stem.with_suffix(".json").write_text(json.dumps(header) + "\n")
        return data


def _message_classes(base: type) -> List[type]:
    """Every subclass of ``base`` that defines its own ``signable_bytes``."""
    found: List[type] = []
    pending = list(base.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "signable_bytes" in cls.__dict__ and cls not in found:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)
