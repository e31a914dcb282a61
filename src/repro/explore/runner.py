"""Budgeted exploration of fault schedules, and deterministic replay.

``explore`` derives a stream of fault plans from one master seed, executes
each against a fresh recording deployment with every safety oracle installed
as a continuous simulator hook, optionally perturbs event ordering with the
seeded tie-break shuffle, and stops at the first violation — which it then
shrinks to a minimal plan and packages as a replayable artifact.

``run_plan`` is the single-run primitive shared by exploration, shrinking,
replay, and the tests: one plan in, one verdict out, byte-deterministic.  The
same runner serves every deployment size: ``shards=1`` is one BASE group,
``shards=N`` is N groups with a cross-shard transactional workload, the
per-shard oracle suites and the cross-shard atomicity oracle.  Fault steps
land on group 0, so the other groups stay fault-free and cross-shard
violations stay attributable.  :class:`FaultRun` is the core ``run_plan``
shares with the soak harness (:func:`repro.soak.runner.run_soak`).
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.bft.client import InvocationTimeout
from repro.bft.config import BFTConfig
from repro.bft.messages import CheckpointCert
from repro.bft.overload import OpenLoopLoadGenerator
from repro.bft.repair import RepairPolicy
from repro.bft.sharding import sharded_recording_cluster
from repro.bft.testing import canonical_committed_history, encode_set, recording_cluster
from repro.crypto.digest import digest
from repro.explore.oracles import (
    OracleSuite,
    OracleViolation,
    ShardedOracleSuite,
    Violation,
)
from repro.explore.plan import (
    CAMPAIGN_KINDS,
    DESTRUCTION_KINDS,
    OVERLOAD_KINDS,
    FaultPlan,
    generate_plan,
    unsupported,
)
from repro.explore.shrink import shrink_plan
from repro.faults import (
    POISON,
    drop_fraction_from,
    make_equivocating_primary,
    make_lying_checkpointer,
    make_result_corruptor,
    make_vote_corruptor,
)
from repro.faults.plant import planted_bugs
from repro.net.network import NetworkConfig

# Runner conventions for implementation-fault steps: the poison request is a
# SET of this slot (outside both the workload's slots 0..7 and the liveness
# probe's slot 31), and corrupt_object maps its index into slots 8..23 so the
# corruption stays silent instead of being overwritten by the workload.
_POISON_SLOT = 30
_CORRUPT_SLOT_BASE = 8
_CORRUPT_SLOT_SPAN = 16

# The overload swarm writes slots 24..29 (disjoint from the workload, the
# poison/corruption slots, and the liveness probe); each op's value embeds
# the swarm client id and a per-client sequence number so the prefix oracle's
# per-client-unique-op requirement holds.
_OVERLOAD_SLOT_BASE = 24
_OVERLOAD_SLOT_SPAN = 6

# The liveness probe of a single-group run writes slot 31.
_PROBE_SLOT = 31

#: Per-shard slot layout of a sharded run (objects_per_shard = 8, slot 8 of
#: each shard being the reserved participant table): singles write slots
#: 0..5, cross-shard transactions write slot 6, liveness probes slot 7.
_OBJECTS_PER_SHARD = 8
_TXN_SLOT = 6
_SHARD_PROBE_SLOT = 7

#: WAN-tuned protocol timers: inter-region one-way latencies approach 0.1s,
#: so the LAN defaults (250ms view-change patience, 50ms gossip) would turn
#: ordinary cross-region commits into view-change churn.  Applied whenever
#: the plan names a topology.
WAN_CONFIG_OVERRIDES: Dict[str, object] = {
    "view_change_timeout": 1.5,
    "status_interval": 0.5,
    "client_retry": 0.5,
    "client_retry_max": 2.0,
    "pending_ttl": 5.0,
}

#: Cross-replica counters surfaced in every run verdict (all zero on plans
#: that never saturate anything, which is itself evidence).
_VERDICT_COUNTERS = (
    "requests_shed",
    "busy_replies",
    "busy_replies_received",
    "pending_evicted",
    "pending_expired",
    "pending_superseded",
    "requests_relayed",
    "view_changes_started",
    "view_changes_damped",
    # Fast-path evidence: zero on baseline runs, and the differential tests
    # assert the fast-path runs actually speculated (a dormant fast path
    # would make the equivalence checks vacuous).
    "spec_batches",
    "spec_promotions",
    "spec_rollbacks",
    "tentative_replies_accepted",
    "lease_grants",
    "leased_reads_served",
)

#: Extra counters surfaced only on campaign plans (topology / geo-scale
#: steps), keeping non-campaign verdict dicts byte-identical to before.
_CAMPAIGN_COUNTERS = (
    "storm_cuts",
    "region_outages",
    "latency_spikes",
    "flash_crowds",
    "messages_dropped_cut",
    "aging_stalls",
    "aging_stall_us",
)

#: Transaction-layer counters surfaced in every sharded verdict.
_TXN_COUNTERS = (
    "txns_started",
    "txns_committed",
    "txns_aborted",
    "txns_abandoned",
    "txn_commits_applied",
    "txn_aborts_applied",
    "txn_lock_conflicts",
    "txn_decides_rejected",
)

#: Fused-backup counters, surfaced only when the plan destroyed a group.
_FUSION_COUNTERS = (
    "fusion_reconstructions_started",
    "fusion_reconstructions_completed",
    "fusion_reconstructions_failed",
    "fusion_replicas_seeded",
    "fusion_updates_applied",
    "fusion_destroys_skipped",
)


def _swarm_op(client_id: str, seq: int) -> bytes:
    return encode_set(
        _OVERLOAD_SLOT_BASE + seq % _OVERLOAD_SLOT_SPAN,
        f"{client_id}:{seq}".encode(),
    )


@dataclass
class RunOutcome:
    """Verdict of one plan execution."""

    violation: Optional[Violation]
    completed: int  # acknowledged workload requests
    events: int  # simulator events processed
    counters: Dict[str, int] = field(default_factory=dict)  # overload evidence
    # Differential-testing evidence (not serialized: replies are raw bytes and
    # the committed history can be long; the differential harness consumes
    # them in-process).
    client_replies: Optional[List[Optional[bytes]]] = None
    committed_history: Optional[List] = None

    def to_dict(self) -> Dict:
        return {
            "violation": self.violation.to_dict() if self.violation else None,
            "completed": self.completed,
            "events": self.events,
            "counters": self.counters,
        }


@dataclass
class ExploreResult:
    """Outcome of one exploration session."""

    seed: int
    budget: int
    plans_run: int
    plan: Optional[FaultPlan] = None  # first violating plan, unshrunk
    violation: Optional[Violation] = None
    shrunk_plan: Optional[FaultPlan] = None
    shrunk_violation: Optional[Violation] = None
    shrink_runs: int = 0
    verdicts: List[Dict] = field(default_factory=list)

    @property
    def found(self) -> bool:
        return self.violation is not None

    def to_dict(self) -> Dict:
        return {
            "seed": self.seed,
            "budget": self.budget,
            "plans_run": self.plans_run,
            "plan": self.plan.to_dict() if self.plan else None,
            "violation": self.violation.to_dict() if self.violation else None,
            "shrunk_plan": self.shrunk_plan.to_dict() if self.shrunk_plan else None,
            "shrunk_violation": (
                self.shrunk_violation.to_dict() if self.shrunk_violation else None
            ),
            "verdicts": self.verdicts,
        }


# -- one plan, live on one deployment ------------------------------------------------


def _fabricate_checkpoint_cert(cluster, sender_id: str) -> None:
    """Byzantine step: send one victim a certificate with a garbage digest
    (no valid proof quorum — only an implementation that skips verification
    will believe it).

    Prefer a sequence number some replica has already checkpointed honestly
    but the victim has not yet stabilized: a victim that swallows the lie
    then conflicts with existing honest evidence and the checkpoint-stability
    oracle fires at once.  Otherwise aim at the next checkpoint boundary.
    """
    victims = [rid for rid in sorted(cluster.hosts) if rid != sender_id]
    if not victims:
        return
    victim = victims[0]
    victim_stable = cluster.replica(victim).stable_seqno
    checkpointed = [
        seqno
        for host in cluster.hosts.values()
        for seqno in host.replica.own_checkpoints
        if seqno > victim_stable
    ]
    if checkpointed:
        target = max(checkpointed)
    else:
        interval = cluster.config.checkpoint_interval
        base = max(host.replica.last_executed for host in cluster.hosts.values())
        target = (base // interval + 1) * interval
    cert = CheckpointCert(
        seqno=target, state_digest=digest(b"fabricated-checkpoint"), proof=[]
    )
    cluster.replica(sender_id).send(victim, cert)


def run_config(plan: FaultPlan, overrides: Optional[Dict] = None, **fields) -> BFTConfig:
    """The protocol configuration a plan runs under: ``fields``, the plan's
    recovery period, the WAN timers when it names a topology, then
    ``overrides`` (e.g. the fast-path flags) on top."""
    fields["recovery_period"] = plan.recovery_period
    if plan.topology:
        fields.update(WAN_CONFIG_OVERRIDES)
    fields.update(overrides or {})
    return BFTConfig(**fields)


class FaultRun:
    """One fault plan, live on a fresh recording deployment of ``shards``
    groups with its oracle suite installed.

    The deployment is a :class:`~repro.bft.cluster.Cluster` for one group
    and a :class:`~repro.bft.sharding.ShardedCluster` for several; the run
    uses only the members both share.  Fault steps hit group 0
    (``faulted``).  :meth:`start` schedules the plan, :meth:`apply` maps
    each step kind to its applier, and :meth:`heal` undoes every fault
    before liveness is judged.
    """

    def __init__(
        self,
        plan: FaultPlan,
        config: BFTConfig,
        shards: int = 1,
        check_interval: int = 10,
        plant: Optional[str] = None,
    ) -> None:
        problem = unsupported(plan.kinds(), shards, plan.topology)
        if problem is not None:
            raise ValueError(problem)
        plants = planted_bugs(shards)
        if plant is not None and plant not in plants:
            raise ValueError(f"unknown planted bug {plant!r} for {shards} shard(s)")
        self.plan = plan
        # Replica ids whose implementation a poison_request step has armed.
        self.poisoned: Optional[Set[str]] = None
        self.poison_count = 0
        repair: Optional[RepairPolicy] = None
        if plan.has_implementation_faults():
            # Implementation-fault steps need the containment machinery: an
            # armable poisonable implementation per replica plus a clean
            # failover version, a supervisor to repair crashes, and (when
            # state corruption is in the plan) a running scrubber.
            self.poisoned = set()
            scrubbing = any(step.kind == "corrupt_object" for step in plan.steps)
            repair = RepairPolicy(
                backoff_initial=0.02,
                backoff_max=0.3,
                deterministic_after=2,
                failover_after=3,
                scrub_interval=0.08 if scrubbing else 0.0,
                scrub_batch=12,
            )
        net_config = NetworkConfig(delay=0.0005, jitter=0.0005, drop_rate=plan.drop_rate)
        byzantine = plan.byzantine_targets()
        if shards == 1:
            self.deployment, recorder = recording_cluster(
                config=config,
                net_config=net_config,
                seed=plan.seed,
                repair=repair,
                poisoned=self.poisoned,
            )
            self.recorders = [recorder]
            self.suite = OracleSuite(
                self.deployment, recorder, byzantine=byzantine, check_interval=check_interval
            )
        else:
            self.deployment, self.recorders = sharded_recording_cluster(
                shards,
                config=config,
                seed=plan.seed,
                objects_per_shard=_OBJECTS_PER_SHARD,
                net_config=net_config,
            )
            self.suite = ShardedOracleSuite(
                self.deployment,
                self.recorders,
                byzantine=byzantine,
                check_interval=check_interval,
            )
        self.sim = self.deployment.sim
        self.faulted = self.deployment.shard(0)
        self.campaign = None
        if plan.has_campaign():
            # Geo-scale steps and topology presets share the soak harness's
            # appliers; the import stays lazy (repro.soak imports this module).
            from repro.soak.campaign import CampaignContext

            self.campaign = CampaignContext(self.faulted, plan)
        self.suite.install()
        if plant is not None:
            # Re-apply each event so the bug survives reboots (recovery swaps
            # the objects the sabotage was patched onto).
            self.sim.add_step_hook(plants[plant](self.deployment))
        if plan.perturb_seed is not None:
            self.sim.set_tiebreak(random.Random(plan.perturb_seed), window=4)
        self.drop_removers: List[Callable[[], None]] = []
        self.swarms: List[OpenLoopLoadGenerator] = []
        self.pending_destroys: List = []
        self.tier = None

    def start(self) -> None:
        """Schedule every step at its fire time, attach the fused-backup tier
        a destroy step needs, and start proactive recovery."""
        for step in self.plan.steps:
            self.sim.schedule(max(0.0, step.at), lambda s=step: self.apply(s))
        if self.plan.has_destruction():
            from repro.bft.fusion import FusedBackupTier

            self.tier = FusedBackupTier(self.deployment)
            self.tier.attach()
            self.deployment.settle(0.5)  # let the parity bootstrap finish before load
        if self.plan.recovery_period > 0:
            for cluster in self.deployment.clusters:
                cluster.start_proactive_recovery()

    def client(self, client_id: str):
        """The deployment's client ``client_id``, placed into the topology."""
        client = self.deployment.client(client_id)
        if self.campaign is not None:
            self.campaign.place(client_id)
        return client

    def apply(self, step) -> None:
        """Apply one plan step at its fire time."""
        cluster = self.faulted
        kind = step.kind
        if kind == "crash":
            cluster.crash(step.target)
        elif kind == "restart":
            cluster.restart(step.target)
        elif kind == "partition":
            cluster.network.partition(*step.groups)
        elif kind == "heal":
            cluster.heal()
        elif kind == "drop":
            remove = drop_fraction_from(cluster.network, step.target, step.fraction)
            self.drop_removers.append(remove)

            def expire() -> None:
                remove()
                if remove in self.drop_removers:
                    self.drop_removers.remove(remove)

            self.sim.schedule(step.duration, expire)
        elif kind == "recover":
            cluster.recover(step.target)
        elif kind == "equivocate":
            make_equivocating_primary(cluster.replica(step.target))
        elif kind == "lie_checkpoint":
            make_lying_checkpointer(cluster.replica(step.target))
        elif kind == "corrupt_votes":
            make_vote_corruptor(cluster.replica(step.target))
        elif kind == "corrupt_results":
            make_result_corruptor(cluster.replica(step.target))
        elif kind == "fabricate_cert":
            _fabricate_checkpoint_cert(cluster, step.target)
        elif kind == "poison_request":
            # Arm the target's implementation, then drive the poisonous
            # request through a dedicated client; the other replicas execute
            # it fine (the client gets its reply quorum) while the target
            # crashes.
            self.poisoned.add(step.target)
            self.poison_count += 1
            client = cluster.client(f"P{self.poison_count}")
            client.invoke_async(encode_set(_POISON_SLOT, POISON), lambda _reply: None)
        elif kind == "corrupt_object":
            # Flip a value in the target's concrete state *without* a
            # modify() upcall: the partition tree keeps the stale digest, so
            # checkpoints stay honest and only the scrubber can notice.
            cells = cluster.service(step.target).cells
            if len(cells) >= _CORRUPT_SLOT_BASE + _CORRUPT_SLOT_SPAN:
                index = _CORRUPT_SLOT_BASE + step.index % _CORRUPT_SLOT_SPAN
            else:
                index = step.index % len(cells)
            cells[index] = cells[index] + b"\xff<bitrot>"
        elif kind in OVERLOAD_KINDS:
            self._begin_overload(step)
        elif kind in CAMPAIGN_KINDS:
            self.campaign.apply(step)
        elif kind in DESTRUCTION_KINDS:
            # Destruction needs checkpoint alignment and a blocking rebuild,
            # so the step only *flags* itself here and the workload executes
            # it between requests (never mid-invocation): drain_destroys.
            self.pending_destroys.append(step)

    def _begin_overload(self, step) -> None:
        cluster = self.faulted
        swarm_index = len(self.swarms)
        clients = [cluster.client(f"L{swarm_index}-{i}") for i in range(step.clients)]
        swarm = OpenLoopLoadGenerator(self.sim, clients, step.rate, _swarm_op)
        self.swarms.append(swarm)
        previous_bandwidth = cluster.network.config.bandwidth
        if step.bandwidth > 0:
            cluster.network.config.bandwidth = step.bandwidth
        self.suite.begin_overload(strict=self.plan.pure_overload())
        swarm.start()

        def end_overload() -> None:
            swarm.stop()
            if step.bandwidth > 0:
                cluster.network.config.bandwidth = previous_bandwidth
            self.suite.end_overload()

        self.sim.schedule(step.duration, end_overload)

    def drain_destroys(self, client) -> None:
        """Execute the destroy steps that have fired: align the victim
        group, wipe it, and block until the tier has rebuilt it."""
        while self.pending_destroys:
            step = self.pending_destroys.pop(0)
            shard = step.index % len(self.deployment.clusters)
            if not _align_for_destroy(self.deployment, self.tier, client, shard):
                self.tier.counters.add("fusion_destroys_skipped")
                continue
            self.deployment.destroy_group(shard)
            self.sim.run_until_condition(self.tier.idle, timeout=60.0)
            self.deployment.settle(0.5)

    def heal(self, settle: float) -> None:
        """End every fault (campaign episodes, partitions, crashes, drops,
        baseline loss), then let the deployment settle."""
        if self.campaign is not None:
            self.campaign.stop()
        self.deployment.heal()
        self.deployment.restart_all_down()
        for remove in list(self.drop_removers):
            remove()
        for cluster in self.deployment.clusters:
            cluster.network.config.drop_rate = 0.0
        self.deployment.settle(settle)

    def offered(self) -> int:
        """Requests offered by overload swarms and flash crowds."""
        campaign = self.campaign.offered() if self.campaign is not None else 0
        return sum(s.offered for s in self.swarms) + campaign

    def swarm_completed(self) -> int:
        campaign = self.campaign.completed() if self.campaign is not None else 0
        return sum(s.completed for s in self.swarms) + campaign


def _align_for_destroy(sharded, tier, client, shard: int) -> bool:
    """Drive the victim group to a quiescent stable-checkpoint boundary with
    the fused tier fully current, so the loss destroys no acknowledged state
    (RPO = 0) and every safety oracle keeps holding unconditionally through
    the rebuild.  Pads with probe writes until all replicas of the group sit
    at the same ``last_executed`` which is stable and on a checkpoint
    boundary, and the tier's parity has absorbed that checkpoint.  Returns
    False when alignment cannot be reached inside the attempt budget (an
    active fault kept the group from settling); the caller then skips the
    destroy rather than tolerate data loss the oracles would have to excuse.
    """
    cluster = sharded.shard(shard)
    interval = cluster.config.checkpoint_interval
    probe = sharded.shardmap.global_index(shard, _SHARD_PROBE_SLOT)
    for _ in range(6 * interval):
        sharded.settle(0.25)
        states = [
            (host.replica.last_executed, host.replica.stable_seqno)
            for _rid, host in sorted(cluster.hosts.items())
        ]
        executed, stable = states[0]
        if (
            all(s == states[0] for s in states)
            and executed > 0
            and executed % interval == 0
            and stable == executed
            and all(node.applied.get(shard) == stable for node in tier.nodes)
        ):
            return True
        try:
            client.invoke(encode_set(probe, b"align"), timeout=8.0)
        except InvocationTimeout:
            client.cancel()
    return False


# -- the size-dependent workload and liveness probes ------------------------------


def _txn_writes(sharded, plan: FaultPlan, i: int) -> List[Tuple[int, bytes]]:
    """Cross-shard transaction ``i``: slot 6 of its home shard and the next."""
    shards = len(sharded.clusters)
    home = i % shards
    value = bytes([i % 251, plan.seed % 251, 0x54])
    first = sharded.shardmap.global_index(home, _TXN_SLOT)
    other = sharded.shardmap.global_index((home + 1) % shards, _TXN_SLOT)
    return [(first, value), (other, value + b"'")]


def _workload(deployment, plan: FaultPlan, shards: int) -> Iterator[Tuple[bool, object]]:
    """The plan's requests as ``(is_txn, payload)``: sequential SETs of
    slots 0..7 on one group; on several, single-shard SETs spread over the
    shards with every fourth request a cross-shard transaction, so 2PC is
    always in flight across the plan's fault windows."""
    for i in range(plan.requests):
        value = bytes([i % 251, plan.seed % 251])
        if shards == 1:
            yield False, encode_set(i % 8, value)
        elif i % 4 == 3:
            yield True, _txn_writes(deployment, plan, i)
        else:
            index = deployment.shardmap.global_index(i % shards, i % _TXN_SLOT)
            yield False, encode_set(index, value)


def _liveness(deployment, client, plan: FaultPlan, shards: int, timeout: float):
    """Demand liveness once the world is healed: a reply quorum from every
    group and, on several, a cross-shard decision (commit or abort, either
    is live).  Returns the first failure as a violation."""
    healed = f"within {timeout}s of virtual time after all faults were healed"

    def failure(detail: str) -> Violation:
        return Violation(
            oracle="liveness",
            detail=detail,
            time=deployment.sim.now(),
            event_index=deployment.sim.events_processed,
        )

    if shards == 1:
        probes = [("", _PROBE_SLOT)]
    else:
        probes = [
            (f"shard{shard}: ", deployment.shardmap.global_index(shard, _SHARD_PROBE_SLOT))
            for shard in range(shards)
        ]
    for label, slot in probes:
        try:
            client.invoke(encode_set(slot, b"liveness-probe"), timeout=timeout)
        except InvocationTimeout:
            client.cancel()
            return failure(f"{label}no reply quorum {healed}")
    if shards > 1:
        writes = _txn_writes(deployment, plan, plan.requests)
        if client.invoke_txn(writes, timeout=timeout) is None:
            return failure(f"cross-shard transaction reached no decision {healed}")
    return None


# -- one plan, one verdict --------------------------------------------------------


def run_plan(
    plan: FaultPlan,
    shards: int = 1,
    plant: Optional[str] = None,
    check_interval: int = 10,
    liveness_timeout: float = 30.0,
    config_overrides: Optional[Dict] = None,
) -> RunOutcome:
    """Execute one fault plan against a fresh deployment of ``shards``
    groups; fully deterministic: (plan, shards, plant, overrides) fix the
    verdict.

    ``config_overrides`` merges extra :class:`BFTConfig` fields into the run
    configuration — the differential harness uses it to replay one fault plan
    under baseline and fast-path configurations and compare the outcomes."""
    run = FaultRun(
        plan,
        run_config(plan, config_overrides, checkpoint_interval=8, log_window=16),
        shards=shards,
        check_interval=check_interval,
        plant=plant,
    )
    run.start()
    deployment = run.deployment
    client = run.client("C0")
    completed = 0
    client_replies: List[Optional[bytes]] = []
    violation: Optional[Violation] = None
    try:
        for is_txn, payload in _workload(deployment, plan, shards):
            run.drain_destroys(client)
            if is_txn:
                if client.invoke_txn(payload, timeout=8.0) is not None:
                    completed += 1
                continue
            try:
                reply = client.invoke(payload, timeout=8.0)
                client_replies.append(reply)
                if reply == b"OK":
                    completed += 1
            except InvocationTimeout:
                client_replies.append(None)
                client.cancel()
        # Let any fault steps scheduled past the workload's end still fire
        # (overload and campaign episodes occupy [at, at + duration]).
        horizon = (
            max(
                (
                    s.at
                    + (
                        s.duration
                        if s.kind in OVERLOAD_KINDS or s.kind in CAMPAIGN_KINDS
                        else 0.0
                    )
                    for s in plan.steps
                ),
                default=0.0,
            )
            + 0.5
        )
        if run.sim.now() < horizon:
            run.sim.run_until(horizon)
        # A destroy step timed after the workload finished fires during the
        # horizon run; execute it before judging liveness.
        run.drain_destroys(client)
        # Heal the world, then demand liveness: a correct implementation
        # must answer once faults stop and <= f replicas are Byzantine.
        run.heal(2.0)
        run.suite.check_now()
        violation = _liveness(deployment, client, plan, shards, liveness_timeout)
        if violation is None:
            run.suite.check_now()
    except OracleViolation as caught:
        violation = caught.violation
    totals = deployment.total_counters()
    counters = {name: totals.get(name) for name in _VERDICT_COUNTERS}
    if shards == 1:
        counters["offered"] = run.offered()
        counters["swarm_completed"] = run.swarm_completed()
    else:
        counters.update((name, totals.get(name)) for name in _TXN_COUNTERS)
    if run.campaign is not None:
        counters.update((name, totals.get(name)) for name in _CAMPAIGN_COUNTERS)
    if run.tier is not None:
        counters.update((name, totals.get(name)) for name in _FUSION_COUNTERS)
    return RunOutcome(
        violation=violation,
        completed=completed,
        events=run.sim.events_processed,
        counters=counters,
        client_replies=client_replies,
        committed_history=(
            canonical_committed_history(run.recorders[0]) if shards == 1 else None
        ),
    )


# -- exploration sessions -----------------------------------------------------------


def explore(
    budget: int = 25,
    seed: int = 0,
    requests: int = 24,
    max_steps: int = 6,
    plant: Optional[str] = None,
    check_interval: int = 10,
    shrink: bool = True,
    max_shrink_runs: int = 64,
    implementation_faults: bool = False,
    overload: bool = False,
    log: Optional[Callable[[str], None]] = None,
    config_overrides: Optional[Dict] = None,
    shards: int = 1,
    destruction: bool = False,
) -> ExploreResult:
    """Run up to ``budget`` seeded random plans; stop at the first violation.

    With a fixed ``seed`` the generated plans, their verdicts, and any shrunk
    repro are identical across runs.  ``implementation_faults`` adds
    poison_request / corrupt_object steps to the generated plans, exercising
    the fault-containment supervisor under the oracles.  ``overload``
    generates pure-overload saturation plans judged strictly by the
    goodput-under-overload oracle.  ``destruction`` (sharded runs) ends
    every plan in a ``destroy_group`` catastrophe that the fused-backup tier
    must survive.  ``shards`` and ``config_overrides`` (extra
    :class:`BFTConfig` fields, e.g. the fast-path flags) apply to every plan
    run, including shrinking.
    """
    run = functools.partial(
        run_plan,
        shards=shards,
        plant=plant,
        check_interval=check_interval,
        config_overrides=config_overrides,
    )
    master = random.Random(seed)
    result = ExploreResult(seed=seed, budget=budget, plans_run=0)
    for index in range(budget):
        plan = generate_plan(
            master.randrange(2**31),
            requests=requests,
            max_steps=max_steps,
            implementation_faults=implementation_faults,
            overload=overload,
            destruction=destruction,
        )
        outcome = run(plan)
        result.plans_run += 1
        result.verdicts.append(
            {"index": index, "plan": plan.to_dict(), "outcome": outcome.to_dict()}
        )
        if log is not None:
            status = outcome.violation.oracle if outcome.violation else "ok"
            log(
                f"plan {index + 1}/{budget}: {len(plan.steps)} steps, "
                f"{outcome.completed}/{plan.requests} acked, "
                f"{outcome.events} events -> {status}"
            )
        if outcome.violation is not None:
            result.plan = plan
            result.violation = outcome.violation
            if shrink:
                if log is not None:
                    log(f"shrinking {len(plan.steps)}-step violating plan ...")
                shrunk = shrink_plan(
                    plan,
                    outcome.violation,
                    lambda p: run(p).violation,
                    max_runs=max_shrink_runs,
                )
                result.shrunk_plan = shrunk.plan
                result.shrunk_violation = shrunk.violation
                result.shrink_runs = shrunk.runs
                if log is not None:
                    log(
                        f"shrunk to {len(shrunk.plan.steps)} fault steps in "
                        f"{shrunk.runs} runs"
                    )
            break
    return result
