"""Speculation rollback reasons other than a view change.

Speculated batches are undone for three reasons (docs/performance.md): a view
change, a committed batch that differs from the speculated one
(``divergence``), and a stable checkpoint certified above what the replica
executed (``state-transfer``).  The view-change case is covered by the
differential ladder; these tests force the other two through the network and
check that the replica ends with no open frame and the same state as its
peers.
"""

from __future__ import annotations

from repro.bft.client import InvocationTimeout
from repro.bft.cluster import Cluster
from repro.bft.config import BFTConfig
from repro.bft.messages import (
    Commit,
    NewView,
    Prepare,
    RetransmitCommitted,
    ViewChange,
)
from repro.bft.testing import KVStateMachine, encode_set

SPECULATIVE = BFTConfig(
    checkpoint_interval=8, log_window=16, speculative_execution=True
)


def speculative_cluster() -> Cluster:
    return Cluster(lambda _rid: KVStateMachine, config=SPECULATIVE, trace=True)


def rollback_reasons(cluster: Cluster, replica_id: str):
    return [
        event.fields["reason"]
        for event in cluster.tracer.events("speculation_rolled_back", source=replica_id)
    ]


def assert_caught_up(cluster: Cluster, replica_id: str) -> None:
    """No open frame at ``replica_id`` and its state root equals its peers'."""
    service = cluster.service(replica_id)
    assert not service.manager.in_speculation()
    roots = {rid: cluster.service(rid).current_node(0, 0)[1] for rid in cluster.hosts}
    assert len(set(roots.values())) == 1, roots


def test_divergent_commit_rolls_back_speculation():
    """R3 alone prepares (and speculates) view-0 batches, then misses the view
    change; view 1 commits a different batch at the same seqno, and a
    ``RetransmitCommitted`` carrying it makes R3 roll back."""
    cluster = speculative_cluster()

    def isolate(src, dst, message):
        if isinstance(message, Prepare) and message.view == 0 and dst != "R3":
            return None  # only R3 ever prepares in view 0
        if isinstance(message, (ViewChange, NewView)) and "R3" in (src, dst):
            return None  # R3 misses the view change
        return message

    remove = cluster.network.add_interceptor(isolate)
    abandoned = cluster.client("C0")
    try:
        abandoned.invoke(encode_set(1, b"A"), timeout=0.1)
    except InvocationTimeout:
        abandoned.cancel()
    r3 = cluster.replica("R3")
    assert r3.counters.get("spec_batches") >= 1
    assert cluster.client("C1").invoke(encode_set(2, b"B"), timeout=30.0) == b"OK"
    cluster.settle(1.0)
    assert cluster.replica("R1").view == 1 and r3.view == 0
    assert "divergence" in rollback_reasons(cluster, "R3")
    remove()
    cluster.settle(2.0)
    assert r3.view == 1
    assert_caught_up(cluster, "R3")


def test_certified_checkpoint_above_speculation_rolls_back():
    """R3 never sees a commit, so it only speculates; once the others certify
    checkpoint 8 it must drop its open frames and fetch the state."""
    cluster = speculative_cluster()

    def starve(src, dst, message):
        if dst == "R3" and isinstance(message, (Commit, RetransmitCommitted)):
            return None
        return message

    remove = cluster.network.add_interceptor(starve)
    client = cluster.client("C0")
    for i in range(12):
        assert client.invoke(encode_set(i % 4, bytes([i])), timeout=30.0) == b"OK"
    cluster.settle(1.0)
    r3 = cluster.replica("R3")
    assert r3.counters.get("spec_batches") >= 1
    assert "state-transfer" in rollback_reasons(cluster, "R3")
    assert r3.counters.get("state_transfers_completed") >= 1
    remove()
    cluster.settle(2.0)
    assert r3.last_executed == cluster.replica("R0").last_executed
    assert_caught_up(cluster, "R3")
