"""What clients see: one record per offered operation, and the end-to-end
metrics computed from those records.

All times in a record are *virtual* seconds read from the simulator, so
every metric here is a deterministic function of the workload seed.

:class:`ClientLedger` observes the BFT client library from outside by
wrapping ``Client.invoke_async`` and ``Client.cancel`` at class level.  With
``stamp_phases`` it also stamps each ordered request's path through the
replicas (primary receives it, primary multicasts the pre-prepare carrying
it, the f+1-th replica sends its reply), which splits the latency into four
virtual phases that add up to it exactly.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from patches import Patches

#: An operation counts toward ``ok_ratio`` only if its definitive reply came
#: within this many virtual seconds of its due time.
OK_LIMIT_S = 1.0


class Op:
    """One offered operation, as its client saw it."""

    __slots__ = (
        "due",
        "end",
        "accepted",
        "refused",
        "cancelled",
        "read_only",
        "result",
        "primary_at",
        "preprepare_at",
        "executed_at",
        "repliers",
        "weak_quorum",
    )

    def __init__(self, due: float, read_only: bool = False) -> None:
        self.due = due
        self.end: Optional[float] = None
        self.accepted = False
        self.refused = False
        self.cancelled = False
        self.read_only = read_only
        self.result: object = None
        self.primary_at: Optional[float] = None
        self.preprepare_at: Optional[float] = None
        self.executed_at: Optional[float] = None
        self.repliers: Optional[set] = None
        self.weak_quorum = 0

    def accept(self, now: float, result: object = None) -> None:
        self.end = now
        self.accepted = True
        self.result = result

    def latency(self) -> float:
        assert self.end is not None
        return self.end - self.due

    def phases(self) -> Optional[Tuple[float, float, float, float]]:
        """Virtual phases of an accepted ordered request, in seconds: due →
        primary receives it → pre-prepare sent → f+1-th reply sent →
        accepted.  None when the request was not stamped all the way."""
        if not self.accepted or self.read_only or self.end is None:
            return None
        if self.preprepare_at is None or self.executed_at is None:
            return None
        primary = self.primary_at if self.primary_at is not None else self.preprepare_at
        return (
            primary - self.due,
            self.preprepare_at - primary,
            self.executed_at - self.preprepare_at,
            self.end - self.executed_at,
        )


class ClientLedger:
    """Records every BFT client invocation made while installed."""

    def __init__(self, stamp_phases: bool = False) -> None:
        self.stamp_phases = stamp_phases
        self.ops: List[Op] = []
        self.on_first_accept: Optional[Callable[[], None]] = None
        self._first_accept_seen = False
        self._open: Dict[int, Op] = {}  # id(client) -> its outstanding op
        self._by_key: Dict[Tuple[int, str, int], Op] = {}  # (id(network), client, reqid)
        self._patches = Patches()

    # -- installation -------------------------------------------------------------

    def install(self) -> None:
        from repro.bft.client import Client

        ledger = self

        def wrap_invoke(original):
            def invoke_async(client, op, callback, read_only=False):
                record = getattr(callback, "_ledger_op", None)
                if record is not None:
                    # The client re-issues a timed-out read-only request as
                    # an ordered one: same user operation, new request id.
                    reqid = original(client, op, callback, read_only)
                    record.read_only = read_only
                    ledger._index(client, reqid, record)
                    return reqid
                record = Op(client.sim.now(), read_only)
                record.weak_quorum = client.config.weak_quorum
                ledger.ops.append(record)

                def accepted(result, _record=record, _client=client):
                    ledger._open.pop(id(_client), None)
                    _record.accept(_client.sim.now(), result)
                    if not ledger._first_accept_seen:
                        ledger._first_accept_seen = True
                        if ledger.on_first_accept is not None:
                            ledger.on_first_accept()
                    callback(result)

                accepted._ledger_op = record  # type: ignore[attr-defined]
                ledger._open[id(client)] = record
                reqid = original(client, op, accepted, read_only)
                ledger._index(client, reqid, record)
                return reqid

            return invoke_async

        def wrap_cancel(original):
            def cancel(client):
                record = ledger._open.pop(id(client), None)
                if record is not None and record.end is None:
                    record.end = client.sim.now()
                    record.cancelled = True
                return original(client)

            return cancel

        self._patches.wrap(Client, "invoke_async", wrap_invoke)
        self._patches.wrap(Client, "cancel", wrap_cancel)
        if self.stamp_phases:
            self._install_stamps()

    def _install_stamps(self) -> None:
        from repro.bft.messages import PrePrepare, Reply, Request
        from repro.bft.replica import Replica
        from repro.net.network import Network

        by_key = self._by_key

        def wrap_on_message(original):
            def on_message(replica, message, src):
                if type(message) is Request and not message.read_only:
                    record = by_key.get((id(replica.network), message.client_id, message.reqid))
                    if record is not None and record.primary_at is None and replica.is_primary():
                        record.primary_at = replica.sim.now()
                return original(replica, message, src)

            return on_message

        def wrap_send(original):
            def send(network, src, dst, message):
                kind = type(message)
                if kind is PrePrepare:
                    now = network.sim.now()
                    for request in message.requests:
                        record = by_key.get((id(network), request.client_id, request.reqid))
                        if record is not None and record.preprepare_at is None:
                            record.preprepare_at = now
                elif kind is Reply and not message.read_only:
                    record = by_key.get((id(network), message.client_id, message.reqid))
                    if record is not None and record.executed_at is None:
                        if record.repliers is None:
                            record.repliers = set()
                        record.repliers.add(message.replica_id)
                        if len(record.repliers) >= record.weak_quorum:
                            record.executed_at = network.sim.now()
                return original(network, src, dst, message)

            return send

        self._patches.wrap(Replica, "on_message", wrap_on_message)
        self._patches.wrap(Network, "send", wrap_send)

    def remove(self) -> None:
        self._patches.remove()

    def _index(self, client, reqid: int, record: Op) -> None:
        self._by_key[(id(client.network), client.node_id, reqid)] = record


# -- end-to-end metrics ------------------------------------------------------------


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of an ascending sequence."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def outage_max(ops: Sequence[Op], stop: float) -> float:
    """Longest interval with at least one operation outstanding and none
    accepted, in virtual seconds.  An operation is outstanding from its due
    time until it is accepted, cancelled, or ``stop``; refused operations
    never are."""
    events: List[Tuple[float, int, bool]] = []
    for op in ops:
        if op.refused:
            continue
        end = op.end if op.end is not None else stop
        events.append((op.due, 1, False))
        events.append((end, 0, op.accepted))
    # At equal times ends (0) sort before starts (1): an accept closes the
    # interval it ends, and a start at that instant opens the next one.
    events.sort()
    outstanding = 0
    gap_start = 0.0
    longest = 0.0
    for time, is_start, accepted in events:
        if is_start:
            if outstanding == 0:
                gap_start = time
            outstanding += 1
            continue
        outstanding -= 1
        if accepted or outstanding == 0:
            longest = max(longest, time - gap_start)
            gap_start = time
    return longest


def client_metrics(ops: Sequence[Op], stop: float) -> Dict[str, float]:
    """The client-visible figures for one run's offered operations."""
    offered = len(ops)
    latencies = sorted(op.latency() for op in ops if op.accepted)
    if not latencies:
        raise ValueError("no operation was accepted")
    on_time = sum(1 for latency in latencies if latency <= OK_LIMIT_S)
    return {
        "offered": offered,
        "accepted": len(latencies),
        "refused": sum(1 for op in ops if op.refused),
        "cancelled": sum(1 for op in ops if op.cancelled),
        "on_time": on_time,
        "ok_ratio": on_time / offered,
        "accepted_ratio": len(latencies) / offered,
        "latency_samples": len(latencies),
        "latency_p50_ms": percentile(latencies, 0.50) * 1000.0,
        "latency_p99_ms": percentile(latencies, 0.99) * 1000.0,
        "outage_max_ms": outage_max(ops, stop) * 1000.0,
    }


def phase_means_ms(ops: Sequence[Op]) -> Tuple[int, List[float]]:
    """Mean of each virtual phase over the fully stamped ordered requests
    (means add up, so the four sum to the mean latency of those requests)."""
    stamped = [phases for phases in (op.phases() for op in ops) if phases is not None]
    if not stamped:
        return 0, [0.0, 0.0, 0.0, 0.0]
    count = len(stamped)
    return count, [1000.0 * sum(p[i] for p in stamped) / count for i in range(4)]
