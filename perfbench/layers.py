"""Per-layer metrics of a traced repetition.

Host times come from the span tracer and cover the measured phase only.
Counts come from the program's own counters over the whole repetition (its
set-up adds one or two warm-up operations).  ``*_per_op`` divides by the
user operations offered in the measured phase, the same denominator as
``host_ms_per_op``.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ledger import ClientLedger, phase_means_ms, percentile
from spans import LAYERS, SpanTracer

#: Every per-layer metric with its unit, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("net.simulator.events_per_op", "events/op"),
    ("net.simulator.queue_peak", "events"),
    ("net.node.set_timer_calls", "count"),
    ("net.node.set_timer_us_per_call", "us/call"),
    ("net.network.msgs_per_op", "msgs/op"),
    ("net.network.bytes_per_op", "B/op"),
    ("net.network.dropped", "count"),
    ("net.network.send_ms_per_op", "ms/op"),
    ("crypto.auth.macs_per_op", "macs/op"),
    ("crypto.auth.ms_per_op", "ms/op"),
    ("crypto.auth.failed", "count"),
    ("crypto.digest.digests_per_op", "digests/op"),
    ("bft.messages.encodes_per_send", "ratio"),
    ("bft.messages.encode_bytes_per_op", "B/op"),
    ("bft.messages.ms_per_op", "ms/op"),
    ("bft.replica.ops_per_batch", "ops/batch"),
    ("bft.replica.request_ms_per_op", "ms/op"),
    ("bft.replica.preprepare_ms_per_op", "ms/op"),
    ("bft.replica.prepare_ms_per_op", "ms/op"),
    ("bft.replica.commit_ms_per_op", "ms/op"),
    ("bft.replica.checkpoint_ms_per_op", "ms/op"),
    ("bft.replica.status_ms_per_op", "ms/op"),
    ("bft.replica.executed_at_primary", "count"),
    ("bft.replica.executed_not_accepted", "count"),
    ("bft.replica.vphase_to_primary_ms", "ms"),
    ("bft.replica.vphase_queue_ms", "ms"),
    ("bft.replica.vphase_agree_ms", "ms"),
    ("bft.replica.vphase_reply_ms", "ms"),
    ("bft.replica.vphase_samples", "count"),
    ("bft.overload.shed", "count"),
    ("bft.overload.shed_ratio", "fraction"),
    ("bft.overload.busy_replies", "count"),
    ("bft.overload.evicted", "count"),
    ("bft.overload.admit_ms_per_op", "ms/op"),
    ("bft.client.accepted_ordered", "count"),
    ("bft.client.retransmissions_per_op", "retx/op"),
    ("bft.client.busy_received", "count"),
    ("bft.client.cancelled", "count"),
    ("bft.client.useful_ratio", "fraction"),
    ("bft.service.execute_ms_per_op", "ms/op"),
    ("base.wrapper.execute_ms_per_op", "ms/op"),
    ("base.wrapper.get_obj_calls", "count"),
    ("base.wrapper.get_obj_ms_per_op", "ms/op"),
    ("base.wrapper.put_objs_calls", "count"),
    ("base.wrapper.put_objs_ms", "ms"),
    ("base.statemgr.checkpoints", "count"),
    ("base.statemgr.checkpoint_ms_per_op", "ms/op"),
    ("base.statemgr.cow_bytes_per_checkpoint", "B/ckpt"),
    ("bft.recovery.recoveries", "count"),
    ("bft.recovery.catchup_ms_p50", "ms"),
    ("bft.recovery.catchup_ms_max", "ms"),
    ("bft.statetransfer.completed", "count"),
    ("bft.statetransfer.objects_fetched", "count"),
    ("bft.statetransfer.bytes", "B"),
    ("bft.viewchange.started", "count"),
    ("bft.viewchange.no_winner", "count"),
    ("bft.viewchange.damped", "count"),
    ("bft.txn.lock_conflicts", "count"),
    ("bft.txn.apply_ms_per_op", "ms/op"),
    ("bft.txn.participant_cell_bytes_peak", "B"),
    ("explore.oracles.checks", "count"),
    ("explore.oracles.ms_per_op", "ms/op"),
    ("bench.gen_refused", "count"),
    ("bench.gen_late_ms", "ms"),
    ("bench.trace_overhead", "x"),
    ("bench.traced_host_ms_per_op", "ms/op"),
    ("bench.unattributed_ms_per_op", "ms/op"),
] + [(f"{layer}.self_ms_per_op", "ms/op") for layer in LAYERS]

_DROP_COUNTERS = (
    "messages_dropped_sender_down",
    "messages_dropped_receiver_down",
    "messages_dropped_partition",
    "messages_dropped_cut",
    "messages_dropped_loss",
    "messages_dropped_link_overflow",
)


def per_layer_metrics(
    rep,
    tracer: SpanTracer,
    ledger: ClientLedger,
    message_stats: Dict[str, int],
    digest_stats: Dict[str, int],
    untraced_host_ms_per_op: float,
) -> Dict[str, float]:
    counters = rep.counters
    ops = len(rep.ops)
    count = counters.get

    def ms(seconds: float) -> float:
        return 1000.0 * seconds / ops

    def inclusive(*names: str) -> float:
        return sum(tracer.by_name(name)[1] for name in names)

    def calls(*names: str) -> int:
        return sum(tracer.by_name(name)[0] for name in names)

    replica_self = {
        kind: tracer.by_name(f"Replica.on_message:{kind}")[2]
        for kind in ("request", "preprepare", "prepare", "commit", "checkpoint", "status")
    }
    executed = sum(
        max(host.replica.counters.get("requests_executed") for host in cluster.hosts.values())
        for cluster in rep.clusters
    )
    accepted_ordered = sum(1 for op in ledger.ops if op.accepted and not op.read_only)
    stamped, phases = phase_means_ms(ledger.ops)
    sends = count("invokes") + count("request_retransmissions")
    checkpoints = calls("AbstractStateManager.take_checkpoint")
    cow_bytes = sum(manager.get("cow_bytes") for manager in tracer.state_managers.values())
    catchups = sorted(
        duration
        for cluster in rep.clusters
        for host in cluster.hosts.values()
        for duration in host.recovery_durations()
    )
    started = count("view_changes_started")
    layer_self = tracer.layer_self()
    traced = tracer.window
    covered = sum(layer_self.values())

    metrics = {
        "net.simulator.events_per_op": rep.events / ops,
        "net.simulator.queue_peak": tracer.queue_peak,
        "net.node.set_timer_calls": calls("Node.set_timer"),
        "net.node.set_timer_us_per_call": 1e6 * inclusive("Node.set_timer") / max(1, calls("Node.set_timer")),
        "net.network.msgs_per_op": count("messages_sent") / ops,
        "net.network.bytes_per_op": count("bytes_sent") / ops,
        "net.network.dropped": sum(count(name) for name in _DROP_COUNTERS),
        "net.network.send_ms_per_op": ms(tracer.layer_inclusive_seconds("net.network")),
        "crypto.auth.macs_per_op": (count("mac_generate") + count("mac_verify")) / ops,
        "crypto.auth.ms_per_op": ms(tracer.layer_inclusive_seconds("crypto.auth")),
        "crypto.auth.failed": tracer.by_name("KeyTable.check_authenticator")[3],
        "crypto.digest.digests_per_op": digest_stats.get("digests", 0) / ops,
        "bft.messages.encodes_per_send": message_stats.get("message_encodes", 0) / max(1, count("messages_sent")),
        "bft.messages.encode_bytes_per_op": message_stats.get("message_encode_bytes", 0) / ops,
        "bft.messages.ms_per_op": ms(tracer.layer_inclusive_seconds("bft.messages")),
        "bft.replica.ops_per_batch": count("batched_requests") / max(1, count("pre_prepares_sent")),
        "bft.replica.executed_at_primary": executed,
        "bft.replica.executed_not_accepted": executed - accepted_ordered,
        "bft.replica.vphase_to_primary_ms": phases[0],
        "bft.replica.vphase_queue_ms": phases[1],
        "bft.replica.vphase_agree_ms": phases[2],
        "bft.replica.vphase_reply_ms": phases[3],
        "bft.replica.vphase_samples": stamped,
        "bft.overload.shed": count("requests_shed"),
        "bft.overload.shed_ratio": count("requests_shed") / max(1, calls("AdmissionQueue.admit")),
        "bft.overload.busy_replies": count("busy_replies"),
        "bft.overload.evicted": count("pending_evicted"),
        "bft.overload.admit_ms_per_op": ms(inclusive("AdmissionQueue.admit")),
        "bft.client.accepted_ordered": accepted_ordered,
        "bft.client.retransmissions_per_op": count("request_retransmissions") / max(1, count("invokes")),
        "bft.client.busy_received": count("busy_replies_received"),
        "bft.client.cancelled": count("invocations_cancelled"),
        "bft.client.useful_ratio": count("replies_accepted") / max(1, sends),
        "bft.service.execute_ms_per_op": ms(tracer.layer_inclusive_seconds("bft.service")),
        "base.wrapper.execute_ms_per_op": ms(inclusive("NFSConformanceWrapper.execute")),
        "base.wrapper.get_obj_calls": calls("ConformanceWrapper.get_obj", "NFSConformanceWrapper.get_obj"),
        "base.wrapper.get_obj_ms_per_op": ms(inclusive("ConformanceWrapper.get_obj", "NFSConformanceWrapper.get_obj")),
        "base.wrapper.put_objs_calls": calls("ConformanceWrapper.put_objs", "NFSConformanceWrapper.put_objs"),
        "base.wrapper.put_objs_ms": 1000.0 * inclusive("ConformanceWrapper.put_objs", "NFSConformanceWrapper.put_objs"),
        "base.statemgr.checkpoints": checkpoints,
        "base.statemgr.checkpoint_ms_per_op": ms(inclusive("AbstractStateManager.take_checkpoint")),
        "base.statemgr.cow_bytes_per_checkpoint": cow_bytes / max(1, checkpoints),
        "bft.recovery.recoveries": len(catchups),
        "bft.recovery.catchup_ms_p50": 1000.0 * percentile(catchups, 0.5) if catchups else 0.0,
        "bft.recovery.catchup_ms_max": 1000.0 * catchups[-1] if catchups else 0.0,
        "bft.statetransfer.completed": count("state_transfers_completed"),
        "bft.statetransfer.objects_fetched": count("objects_fetched"),
        "bft.statetransfer.bytes": count("object_bytes_fetched"),
        "bft.viewchange.started": started,
        "bft.viewchange.no_winner": started - count("view_changes_completed"),
        "bft.viewchange.damped": count("view_changes_damped"),
        "bft.txn.lock_conflicts": count("txn_lock_conflicts"),
        "bft.txn.apply_ms_per_op": ms(inclusive("TxnParticipant.apply_prepare", "TxnParticipant.apply_decide")),
        "bft.txn.participant_cell_bytes_peak": participant_cell_bytes(rep.clusters),
        "explore.oracles.checks": calls("OracleSuite.check_now"),
        "explore.oracles.ms_per_op": ms(inclusive("OracleSuite.check_now")),
        "bench.gen_refused": rep.refused,
        "bench.gen_late_ms": 0.0,
        "bench.trace_overhead": 1000.0 * traced / ops / untraced_host_ms_per_op,
        "bench.traced_host_ms_per_op": ms(traced),
        "bench.unattributed_ms_per_op": ms(traced - covered),
    }
    for kind, seconds in replica_self.items():
        metrics[f"bft.replica.{kind}_ms_per_op"] = ms(seconds)
    for layer, seconds in layer_self.items():
        metrics[f"{layer}.self_ms_per_op"] = ms(seconds)
    return metrics


def participant_cell_bytes(clusters) -> int:
    """Largest 2PC participant table in any retained checkpoint of any
    replica, read through the public ``get_object_at``."""
    peak = 0
    for cluster in clusters:
        for host in cluster.hosts.values():
            service = host.service
            participant = getattr(service, "participant", None)
            if participant is None:
                continue
            for seqno in service.checkpoint_seqnos():
                cell = service.get_object_at(seqno, participant.table_index)
                if cell is not None:
                    peak = max(peak, len(cell))
    return peak
