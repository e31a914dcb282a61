"""The three benchmark workloads, each built through the package's public API.

A workload runs one *repetition*: build the deployment and warm it up until
the first committed operation, then the measured phase, then the output
checks.  It returns a :class:`Rep` holding the offered operations as their
clients saw them, the deployment (for per-layer counters), and any check
failures.  ``build(seed)`` does the first step alone, so that set-up is
timed apart from the repetitions.  Everything inside a repetition is a deterministic function
of the seed, so two repetitions with one seed agree on every virtual figure.
"""

from __future__ import annotations

import random
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ledger import ClientLedger, Op
from patches import Patches


class Phase:
    """Host-clock bookkeeping of one repetition's measured phase."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self._measure_started: Optional[float] = None
        self.measured_s = 0.0

    def begin_measure(self) -> None:
        self._measure_started = time.perf_counter()
        if self.tracer is not None:
            self.tracer.start()

    def end_measure(self) -> None:
        if self.tracer is not None:
            self.tracer.stop()
        if self._measure_started is None:
            raise RuntimeError("the measured phase never began")
        self.measured_s = time.perf_counter() - self._measure_started


@dataclass
class Rep:
    """What one repetition produced."""

    ops: List[Op]  # user operations offered in the measured phase
    stop: float  # virtual time the measured phase ended
    clusters: List[object]  # the BFT groups, for per-layer counters
    counters: object  # repro.util.stats.Counters over the whole deployment
    events: int  # simulator events processed
    virtual: Dict[str, float] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)  # failed output checks
    failed_ops: int = 0
    refused: int = 0


def roots_agree(cluster) -> bool:
    roots = {cluster.service(rid).current_node(0, 0)[1] for rid in cluster.hosts}
    return len(roots) == 1


# -- shard_txn --------------------------------------------------------------------


class ShardTxn:
    """Two KV BASE groups on LAN links under open-loop Poisson load with a
    10% cross-group transaction mix."""

    name = "shard_txn"
    setup_samples = 75  # set-ups timed per run, about 1.5 host seconds
    why = "2 KV BASE groups on LAN links, open-loop Poisson load with 10% cross-group 2PC: ordering, crypto, codec and network do the work"
    link = "0.5 ms one-way delay, up to 0.5 ms uniform jitter, no bandwidth cap"
    groups = 2
    rate_per_group = 1000.0  # requests per virtual second
    duration = 1.0  # virtual seconds of arrivals
    drain = 2.0  # virtual seconds allowed after the last arrival
    pool = 64  # simulated users
    txn_fraction = 0.1
    txn_keys = 16  # shared transaction slots per group
    user_slots = 64  # one private SET slot per user per group
    warm_slot = 80
    objects_per_group = 81

    def arrivals(self, seed: int) -> List[Tuple[float, str, int, int]]:
        """(offset, kind, a, b): ``set`` on group a, or ``txn`` on shared
        slots a (group 0) and b (group 1)."""
        rng = random.Random(seed)
        rate = self.rate_per_group * self.groups
        schedule = []
        offset = rng.expovariate(rate)
        while offset < self.duration:
            if rng.random() < self.txn_fraction:
                schedule.append((offset, "txn", rng.randrange(self.txn_keys), rng.randrange(self.txn_keys)))
            else:
                schedule.append((offset, "set", rng.randrange(self.groups), 0))
            offset += rng.expovariate(rate)
        return schedule

    def build(self, seed: int):
        from repro.bft.config import BFTConfig
        from repro.bft.sharding import sharded_kv_cluster
        from repro.bft.testing import encode_set
        from repro.net.network import NetworkConfig

        sharded = sharded_kv_cluster(
            self.groups,
            config=BFTConfig(checkpoint_interval=16, log_window=64, batch_max=16),
            seed=seed,
            objects_per_shard=self.objects_per_group,
            net_config=NetworkConfig(delay=0.0005, jitter=0.0005),
        )
        warm = sharded.client("W")
        for group in range(self.groups):
            index = sharded.shardmap.global_index(group, self.warm_slot)
            warm.invoke(encode_set(index, b"warm"), timeout=60.0)
        return sharded

    def run(self, seed: int, phase: Phase, ledger: ClientLedger) -> Rep:
        from repro.bft.testing import encode_get, encode_set

        schedule = self.arrivals(seed)
        sharded = self.build(seed)
        sim = sharded.sim
        shardmap = sharded.shardmap
        users: List[object] = []
        idle: deque = deque()
        ops: List[Op] = []
        sets: Dict[Tuple[int, int], List[Tuple[bytes, Op]]] = {}
        txns: List[Tuple[str, List[Tuple[int, bytes]], Op, List[bool]]] = []
        # Replies that land after the measured phase (during the checks) no
        # longer count: those requests expired.
        state = {"remaining": len(schedule), "refused": 0, "bad_replies": 0, "measuring": True}

        def finish(user) -> None:
            idle.append(user)
            state["remaining"] -= 1

        def dispatch(kind: str, a: int, b: int) -> None:
            op = Op(sim.now())
            ops.append(op)
            if idle:
                user = idle.popleft()
            elif len(users) < self.pool:
                user = sharded.client(f"U{len(users)}")
                users.append(user)
            else:
                op.refused = True
                op.end = op.due
                state["refused"] += 1
                state["remaining"] -= 1
                return
            number = len(ops)
            if kind == "set":
                slot = int(user.node_id[1:])
                value = f"{user.node_id}:{number}".encode()
                sets.setdefault((a, slot), []).append((value, op))

                def on_reply(result, op=op, user=user) -> None:
                    if state["measuring"]:
                        op.accept(sim.now(), result)
                        if result != b"OK":
                            state["bad_replies"] += 1
                    finish(user)

                user.invoke_async(encode_set(shardmap.global_index(a, slot), value), on_reply)
            else:
                value = f"T{number}".encode()
                writes = [
                    (shardmap.global_index(0, self.user_slots + a), value),
                    (shardmap.global_index(1, self.user_slots + b), value + b"'"),
                ]
                outcome: List[bool] = []

                def on_decision(committed: bool, op=op, user=user, outcome=outcome) -> None:
                    outcome.append(committed)
                    if state["measuring"]:
                        op.accept(sim.now(), committed)
                    finish(user)

                txid = user.invoke_txn_async(writes, on_decision)
                txns.append((txid, writes, op, outcome))

        if phase.tracer is not None:
            dispatch = phase.tracer.traced("bench", "ShardTxn.dispatch", dispatch)
        pending = iter(schedule)

        def arrive(kind: str, a: int, b: int) -> None:
            # Each arrival schedules the next, so the event queue holds only
            # what the system itself has in flight.
            upcoming = next(pending, None)
            if upcoming is not None:
                sim.schedule(upcoming[0] - sim.now() + origin, lambda: arrive(*upcoming[1:]))
            dispatch(kind, a, b)

        phase.begin_measure()
        origin = sim.now()
        first = next(pending, None)
        if first is not None:
            sim.schedule(first[0], lambda: arrive(*first[1:]))
        sim.run_until_condition(
            lambda: state["remaining"] == 0, timeout=self.duration + self.drain
        )
        phase.end_measure()
        state["measuring"] = False
        stop = sim.now()

        rep = Rep(
            ops=ops,
            stop=stop,
            clusters=list(sharded.clusters),
            counters=None,
            events=sim.events_processed,
            refused=state["refused"],
        )
        rep.failed_ops = state["bad_replies"] + sum(1 for op in ops if not op.accepted)
        started = len(txns)
        committed = sum(1 for _t, _w, op, outcome in txns if op.accepted and outcome == [True])
        rep.virtual["txn_started"] = started
        rep.virtual["txn_committed"] = committed
        rep.virtual["txn_commit_ratio"] = committed / started if started else 1.0

        # -- output checks ------------------------------------------------------
        sharded.settle(1.0)
        for group, cluster in enumerate(sharded.clusters):
            if not roots_agree(cluster):
                rep.failures.append(f"group {group}: replicas disagree on the abstract root")
        for (group, slot), writes in sorted(sets.items()):
            value = writes[-1][0]
            if not all(op.accepted for _v, op in writes):
                continue
            cluster = sharded.shard(group)
            for rid in sorted(cluster.hosts):
                if cluster.service(rid).cells[slot] != value:
                    rep.failures.append(f"group {group} {rid}: slot {slot} lost the last SET")
        committed_values: Dict[int, set] = {}
        for _txid, writes, _op, outcome in txns:
            if outcome == [True]:
                for index, value in writes:
                    committed_values.setdefault(index, set()).add(value)
        reader = sharded.client("V")
        sample = [t for t in txns if t[3] == [True]][::10]
        for txid, writes, _op, _outcome in sample:
            for index, _value in writes:
                group = shardmap.shard_of(index)
                cluster = sharded.shard(group)
                for rid in sorted(cluster.hosts):
                    if cluster.service(rid).participant.decisions.get(txid) is not True:
                        rep.failures.append(f"{txid}: group {group} {rid} has no commit decision")
                read = reader.invoke(encode_get(index), read_only=True, timeout=10.0)
                if read not in committed_values[index]:
                    rep.failures.append(f"{txid}: slot {index} reads back a value no committed transaction wrote")
        rep.counters = sharded.total_counters()
        return rep


# -- nfs_andrew -------------------------------------------------------------------


def _file_servers():
    from repro.nfs.fileserver import Ext2FS, FFS, LogFS, MemFS

    return {
        "R0": lambda disk: MemFS(disk=disk, seed=1),
        "R1": lambda disk: Ext2FS(disk=disk, seed=2),
        "R2": lambda disk: FFS(disk=disk, seed=3),
        "R3": lambda disk: LogFS(disk=disk, seed=4),
    }


class NfsAndrew:
    """The paper's experiment: Andrew through four heterogeneous file
    servers behind BASE with proactive recovery, against a direct mount."""

    name = "nfs_andrew"
    setup_samples = 30  # set-ups timed per run, about 2 host seconds
    why = "the paper's Andrew run through 4 different file servers with proactive recovery: wrapper, abstraction, checkpoints, recovery"
    link = "0.5 ms one-way delay, up to 0.1 ms uniform jitter (direct mount: 1 ms round trip)"
    scale = 8
    recovery_period = 4.0
    root = "/andrew"

    def __init__(self) -> None:
        self._baseline: Dict[int, float] = {}

    def baseline_seconds(self, seed: int) -> float:
        """Andrew virtual seconds on an unreplicated direct MemFS mount."""
        if seed not in self._baseline:
            from repro.bench.andrew import AndrewBenchmark
            from repro.net.simulator import Simulator
            from repro.nfs.direct import direct_client
            from repro.nfs.fileserver import MemFS

            sim = Simulator(seed=seed)
            fs = direct_client(MemFS(disk={}, seed=1), sim=sim, round_trip=0.001)
            self._baseline[seed] = AndrewBenchmark(fs, sim, scale=self.scale, root=self.root, seed=seed).run().total_seconds
        return self._baseline[seed]

    def build(self, seed: int):
        from repro.bft.config import BFTConfig
        from repro.net.network import NetworkConfig
        from repro.nfs.client import NFSClient
        from repro.nfs.relay import NFSDeployment

        deployment = NFSDeployment(
            _file_servers(),
            config=BFTConfig(checkpoint_interval=16, log_window=64, recovery_period=self.recovery_period),
            seed=seed,
            num_objects=max(256, self.scale * 64),
            net_config=NetworkConfig(delay=0.0005, jitter=0.0001),
        )
        fs = NFSClient(deployment.relay("C0"))
        fs.mkdir("/warm")
        return deployment, fs

    def run(self, seed: int, phase: Phase, ledger: ClientLedger) -> Rep:
        from repro.bench.andrew import AndrewBenchmark

        baseline = self.baseline_seconds(seed)
        deployment, fs = self.build(seed)
        andrew = AndrewBenchmark(fs, deployment.sim, scale=self.scale, root=self.root, seed=seed)
        first = len(ledger.ops)
        phase.begin_measure()
        deployment.cluster.start_proactive_recovery()
        result = andrew.run()
        phase.end_measure()
        sim = deployment.sim
        ops = ledger.ops[first:]
        rep = Rep(
            ops=ops,
            stop=sim.now(),
            clusters=[deployment.cluster],
            counters=None,
            events=sim.events_processed,
        )
        rep.failed_ops = sum(1 for op in ops if not op.accepted)
        rep.virtual["andrew_vsec"] = result.total_seconds
        rep.virtual["andrew_overhead"] = result.total_seconds / baseline

        # -- output checks ------------------------------------------------------
        expected: Dict[str, bytes] = {}
        objects: List[bytes] = []
        for path, body in andrew.files:
            expected[path] = body
            if path.endswith(".c"):
                compiled = b"OBJ:" + body[: len(body) // 2]
                expected[path[:-2] + ".o"] = compiled
                objects.append(compiled)
        expected["a.out"] = b"".join(objects)
        for path, body in sorted(expected.items()):
            if fs.read_file(f"{self.root}/{path}") != body:
                rep.failures.append(f"{path}: read back differs from what Andrew wrote")
        cluster = deployment.cluster

        def settled() -> bool:
            return all(
                not cluster.network.is_down(rid) and not host.replica.recovering
                for rid, host in cluster.hosts.items()
            ) and roots_agree(cluster)

        if not sim.run_until_condition(settled, timeout=30.0):
            rep.failures.append("R0-R3 never agreed on the abstract root")
        rep.counters = cluster.total_counters()
        return rep


# -- soak_storm -------------------------------------------------------------------


class SoakStorm:
    """The ``wan_storm`` campaign (3-cut partition storm overlapping a
    ramped flash crowd on ``wan3``), repeated ``cycles`` times, through
    ``run_soak`` with the safety oracles checking continuously."""

    name = "soak_storm"
    setup_samples = 300  # set-ups timed per run, about 1.5 host seconds
    why = "wan_storm campaign through run_soak on wan3: safety oracles, recorders, timers, shedding and view changes under partitions"
    link = "wan3 preset: 0.5 ms base LAN links, inter-region delays from the topology"
    cycles = 3
    period = 150.0  # virtual seconds between cycle starts

    campaign_seed = 1202  # the ``wan_storm`` seed of ``repro bench``
    check_interval = 100  # simulator events between oracle checks
    probe_slot = 31  # the slot ``run_soak``'s probe writes

    def plan(self, seed: int):
        """The fault schedule and protocol randomness are pinned by
        :attr:`campaign_seed`, so every run faces the same storms; ``seed``
        draws each flash crowd's peak rate."""
        from repro.explore.plan import FaultPlan, FaultStep

        rng = random.Random(seed)
        steps = []
        for cycle in range(self.cycles):
            base = cycle * self.period
            rate = round(rng.uniform(15.5, 16.5), 2)
            steps.append(FaultStep(at=base + 20.0, kind="partition_storm", count=3, duration=60.0))
            steps.append(FaultStep(at=base + 30.0, kind="flash_crowd", rate=rate, clients=4, duration=80.0))
        return FaultPlan(
            seed=self.campaign_seed, requests=0, steps=tuple(steps), topology="wan3", recovery_period=0.0
        )

    def build(self, seed: int):
        """The recording cluster ``run_soak`` builds for :meth:`plan`, with
        its topology and continuous oracles, warmed up until the first
        committed operation.  ``run_soak`` builds it internally, so this
        mirrors its set-up to time set-up on its own."""
        from repro.bft.config import BFTConfig
        from repro.bft.testing import encode_set, recording_cluster
        from repro.explore.oracles import OracleSuite
        from repro.net.network import NetworkConfig
        from repro.soak.campaign import CampaignContext
        from repro.soak.runner import WAN_CONFIG_OVERRIDES

        plan = self.plan(seed)
        cluster, recorder = recording_cluster(
            config=BFTConfig(
                checkpoint_interval=16,
                log_window=64,
                recovery_period=plan.recovery_period,
                **WAN_CONFIG_OVERRIDES,
            ),
            net_config=NetworkConfig(delay=0.0005, jitter=0.0005, drop_rate=plan.drop_rate),
            seed=plan.seed,
        )
        context = CampaignContext(cluster, plan)
        OracleSuite(cluster, recorder, check_interval=self.check_interval).install()
        client = cluster.client("S0")
        context.place("S0")
        client.invoke(encode_set(self.probe_slot, b"warm"), timeout=60.0)
        return cluster

    def run(self, seed: int, phase: Phase, ledger: ClientLedger) -> Rep:
        from repro.bft.cluster import Cluster
        from repro.soak.runner import SoakSLO, run_soak

        plan = self.plan(seed)
        clusters: List[object] = []
        capture = Patches()

        def keep(original: Callable) -> Callable:
            def __init__(cluster, *args, **kwargs):
                original(cluster, *args, **kwargs)
                clusters.append(cluster)

            return __init__

        capture.wrap(Cluster, "__init__", keep)
        ledger.on_first_accept = phase.begin_measure
        try:
            report = run_soak(plan, slo=SoakSLO(window=60.0), check_interval=self.check_interval)
            phase.end_measure()
        finally:
            ledger.on_first_accept = None
            capture.remove()
        cluster = clusters[0]
        first = next(op for op in ledger.ops if op.accepted)
        ops = [op for op in ledger.ops if op is not first and op.due >= first.due]
        rep = Rep(
            ops=ops,
            stop=cluster.sim.now(),
            clusters=clusters,
            counters=cluster.total_counters(),
            events=report.events,
        )
        # Unserved operations under the injected storm are what ok_ratio and
        # availability measure; an operation *fails* only on a wrong reply.
        rep.failed_ops = sum(1 for op in ops if op.accepted and op.result != b"OK")
        rep.virtual["availability"] = report.availability
        rep.virtual["probe_ops"] = report.probe_ops
        rep.virtual["slo_violations"] = len(report.slo_violations)
        if report.safety_violations:
            rep.failures.append(f"safety violations: {report.safety_violations}")
        return rep


WORKLOADS = {workload.name: workload for workload in (ShardTxn(), NfsAndrew(), SoakStorm())}
