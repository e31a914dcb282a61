"""Tests of the benchmark itself, on tiny runs."""

from __future__ import annotations

import pytest

from ledger import OK_LIMIT_S, Op, client_metrics, outage_max, percentile
from run import run_once
from spans import LAYERS, SpanTracer
from workloads import ShardTxn


class TinyShardTxn(ShardTxn):
    """``shard_txn`` cut down to a few dozen arrivals and a two-user pool,
    with almost no drain, so some requests are refused and some expire."""

    duration = 0.03
    drain = 0.002
    pool = 2


def test_generator_times_from_due_and_counts_refused_and_expired_as_failed():
    workload = TinyShardTxn()
    schedule = workload.arrivals(7)
    run = run_once(workload, 7)
    ops = run.rep.ops
    assert len(ops) == len(schedule)
    origin = ops[0].due - schedule[0][0]
    for op, (offset, _kind, _a, _b) in zip(ops, schedule):
        # Every request is timed from when it was due, not when it was sent.
        assert op.due == pytest.approx(origin + offset, abs=1e-9)
        if op.accepted:
            assert op.latency() == op.end - op.due
    refused = [op for op in ops if op.refused]
    expired = [op for op in ops if not op.refused and not op.accepted]
    assert refused and expired, "the tiny run must exercise both failure kinds"
    assert run.rep.refused == len(refused)
    assert run.rep.failed_ops == len(refused) + len(expired)
    figures = run.virtual()
    on_time = sum(1 for op in ops if op.accepted and op.latency() <= OK_LIMIT_S)
    assert figures["ok_ratio"] == on_time / len(ops)
    assert figures["offered"] == len(ops)


def test_virtual_phases_add_up_to_each_ordered_latency():
    run = run_once(TinyShardTxn(), 3, stamp_phases=True)
    ordered = [op for op in run.ledger.ops if op.accepted and not op.read_only]
    assert ordered
    for op in ordered:
        phases = op.phases()
        assert phases is not None, "every accepted ordered request is stamped"
        assert all(phase >= 0.0 for phase in phases)
        assert sum(phases) == pytest.approx(op.latency(), abs=1e-12)


def test_layer_wrappers_are_fully_removed_after_a_traced_run():
    from repro.bft.client import Client

    tracer = SpanTracer()
    tracer.install()
    applied = tracer.patches.applied
    tracer.remove()
    assert applied, "the tracer wraps something"
    cancel = Client.__dict__["cancel"]  # wrapped by the client ledger only
    run = run_once(TinyShardTxn(), 5, tracer=tracer, stamp_phases=True)
    assert run.rep.ops
    for cls, name, original in applied + [(Client, "cancel", cancel)]:
        assert cls.__dict__[name] is original, f"{cls.__name__}.{name} still wrapped"
    assert not tracer.patches.applied


def test_traced_run_matches_untraced_and_self_times_add_up():
    workload = TinyShardTxn()
    plain = run_once(workload, 9)
    tracer = SpanTracer()
    traced = run_once(workload, 9, tracer=tracer, stamp_phases=True)
    assert traced.virtual() == plain.virtual()
    assert len(tracer.span_name) > 0
    layer_self = tracer.layer_self()
    assert set(layer_self) == set(LAYERS)
    assert all(seconds >= 0.0 for seconds in layer_self.values())
    assert sum(layer_self.values()) <= tracer.window
    assert layer_self["net.simulator"] > 0.0 and layer_self["bench"] > 0.0


def _op(due, end=None, accepted=False, refused=False):
    op = Op(due)
    op.end = end
    op.accepted = accepted
    op.refused = refused
    return op


def test_outage_is_the_longest_busy_interval_without_an_accept():
    ops = [
        _op(0.0, 1.0, accepted=True),
        _op(0.5, 3.0, accepted=True),  # outstanding alone from 1.0 to 3.0
        _op(4.0, 4.5),  # cancelled: 0.5 with nothing accepted
        _op(5.0, refused=True),  # refused requests are never outstanding
        _op(6.0),  # never answered: outstanding until the stop
    ]
    assert outage_max(ops, stop=6.25) == pytest.approx(2.0)
    assert outage_max(ops[:3] + [_op(10.0)], stop=13.0) == pytest.approx(3.0)


def test_percentile_is_nearest_rank_and_metrics_count_samples():
    values = [float(i) for i in range(1, 101)]
    assert percentile(values, 0.50) == 50.0
    assert percentile(values, 0.99) == 99.0
    ops = [_op(0.0, 0.002 * i, accepted=True) for i in range(1, 11)] + [_op(0.0, refused=True)]
    figures = client_metrics(ops, stop=1.0)
    assert figures["latency_samples"] == 10
    assert figures["ok_ratio"] == pytest.approx(10 / 11)
