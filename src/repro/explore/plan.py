"""The fault-plan DSL: a declarative, seed-generatable fault timeline.

A :class:`FaultPlan` composes the primitives the test suite already uses by
hand — crashes, restarts, partitions, per-node packet loss, proactive
recoveries, and the Byzantine injectors from ``repro.faults`` — into a list
of timestamped :class:`FaultStep`\\ s plus the run parameters (cluster seed,
workload length, baseline loss, optional schedule-perturbation seed).  Plans
are pure data: :func:`generate_plan` is a deterministic function of its seed,
and the JSON codec round-trips plans byte-identically, which is what makes
repro artifacts replayable.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

PLAN_FORMAT_VERSION = 1

REPLICA_IDS: Tuple[str, ...] = ("R0", "R1", "R2", "R3")

# Fault steps that make their target a *Byzantine* replica: the target keeps
# running but misbehaves with its own keys, so safety oracles must exclude it
# from the "correct replicas" they quantify over.
BYZANTINE_KINDS: FrozenSet[str] = frozenset(
    {"equivocate", "lie_checkpoint", "corrupt_votes", "corrupt_results", "fabricate_cert"}
)

BENIGN_KINDS: FrozenSet[str] = frozenset(
    {"crash", "restart", "partition", "heal", "drop", "recover"}
)

# Implementation-fault steps drive the fault-containment layer:
# ``poison_request`` marks the target's primary implementation poisonable and
# injects a request carrying the poison pattern (deterministic crash →
# reactive repair → skip-past-poison → N-version failover);
# ``corrupt_object`` silently corrupts abstract object ``index`` in the
# target's concrete state (no ``modify`` upcall), which only the background
# scrubber can detect and repair.  Plans containing these steps run with the
# supervisor armed.
IMPLEMENTATION_KINDS: FrozenSet[str] = frozenset({"poison_request", "corrupt_object"})

# Overload steps are not faults at all: every node stays correct, the
# *offered load* is the adversary.  ``overload`` runs an open-loop client
# swarm at ``rate`` requests/second for ``duration`` seconds, optionally
# squeezing every link to ``bandwidth`` bytes/vsec so saturation is
# producible; the goodput-under-overload oracle judges the episode.
OVERLOAD_KINDS: FrozenSet[str] = frozenset({"overload"})

# Campaign steps are the geo-scale correlated scenarios; all but
# ``flash_crowd`` / ``age_replicas`` require the plan to name a topology
# preset (``FaultPlan.topology``) because they speak in regions:
#
# ``region_outage``    — every replica in ``region`` crashes at ``at`` and
#                        restarts at ``at + duration``.  An outage of a
#                        region holding more than f replicas is *allowed* but
#                        its span is a beyond-assumption window
#                        (:func:`beyond_assumption_windows`): liveness and
#                        availability SLOs are suspended there while safety
#                        oracles keep running throughout.
# ``partition_storm``  — ``count`` short correlated cuts along seeded region
#                        boundaries within [at, at + duration]; overlapping
#                        cuts stack and heal independently
#                        (``Network.cut_links``/``restore_links``).
# ``latency_spike``    — inter-region latency (all boundaries, or only those
#                        touching ``region``) inflated ``factor``× for
#                        ``duration``.
# ``flash_crowd``      — a diurnal burst: an open-loop swarm of ``clients``
#                        ramps to a peak of ``rate`` requests/second at the
#                        episode midpoint and back down over ``duration``.
# ``age_replicas``     — arms the fragmentation aging model on ``target``
#                        (or every replica when blank): per-op latency
#                        degradation that reactive repair cannot observe and
#                        only a proactive rotation clears (``fraction``
#                        overrides the per-op stall when > 0).
CAMPAIGN_KINDS: FrozenSet[str] = frozenset(
    {"region_outage", "partition_storm", "latency_spike", "flash_crowd", "age_replicas"}
)

# Destruction steps deliberately exceed the <= f fault assumption:
# ``destroy_group`` wipes every replica of shard group ``index`` — processes
# *and* disks — so the group's own replication cannot bring it back.  Only
# sharded runs with a fused-backup tier attached (repro.bft.fusion) can
# survive one; the runner aligns the victim group to a stable checkpoint
# boundary first (RPO = 0) so every safety oracle still holds unconditionally
# through the loss and reconstruction.
DESTRUCTION_KINDS: FrozenSet[str] = frozenset({"destroy_group"})

STEP_KINDS: FrozenSet[str] = (
    BYZANTINE_KINDS
    | BENIGN_KINDS
    | IMPLEMENTATION_KINDS
    | OVERLOAD_KINDS
    | CAMPAIGN_KINDS
    | DESTRUCTION_KINDS
)

# Step kinds only a single-group deployment supports: overload swarms,
# implementation faults and campaigns all use that group's slot layout
# (poison, corruption and swarm bands), which sharded groups do not have.
SINGLE_GROUP_KINDS: FrozenSet[str] = IMPLEMENTATION_KINDS | OVERLOAD_KINDS | CAMPAIGN_KINDS


def unsupported(kinds: Iterable[str], shards: int, topology: str = "") -> Optional[str]:
    """Why a deployment of ``shards`` groups cannot run steps of ``kinds``
    (or a plan naming ``topology``); ``None`` when it can.

    ``destroy_group`` needs the fused-backup tier, which rebuilds a group
    from its sibling groups, so it needs ``shards >= 2``; overload,
    implementation-fault and campaign steps (and topology presets) are
    single-group features.
    """
    kinds = set(kinds)
    if shards == 1 and kinds & DESTRUCTION_KINDS:
        return (
            f"step kinds {sorted(kinds & DESTRUCTION_KINDS)} need a sharded "
            f"deployment (shards >= 2) with a fused-backup tier"
        )
    if shards > 1 and kinds & SINGLE_GROUP_KINDS:
        return (
            f"step kinds {sorted(kinds & SINGLE_GROUP_KINDS)} are single-group "
            f"features, not supported on a sharded deployment"
        )
    if shards > 1 and topology:
        return "topology presets are not supported on a sharded deployment"
    return None


@dataclass(frozen=True)
class FaultStep:
    """One timestamped fault action.

    at:       absolute virtual time the step fires.
    kind:     one of STEP_KINDS.
    target:   replica id, for steps that act on one replica.
    groups:   partition groups (``partition`` only).
    fraction: outbound drop fraction (``drop`` only).
    duration: how long a ``drop`` interceptor stays installed, or how long an
              ``overload`` episode lasts.
    index:    abstract object index (``corrupt_object``) or shard group index
              (``destroy_group``; taken modulo the run's shard count).
    rate:     offered load in requests/second (``overload`` / ``flash_crowd``:
              the flash-crowd *peak* rate).
    clients:  size of the open-loop client swarm (``overload`` /
              ``flash_crowd``).
    bandwidth: per-link capacity in bytes/vsec during the episode
              (``overload`` only; 0 leaves links infinite).
    region:   region name (``region_outage`` / ``latency_spike``; blank on a
              spike means every inter-region boundary).
    count:    number of correlated cuts (``partition_storm`` only).
    factor:   latency multiplier (``latency_spike`` only).
    """

    at: float
    kind: str
    target: str = ""
    groups: Tuple[Tuple[str, ...], ...] = ()
    fraction: float = 0.0
    duration: float = 0.0
    index: int = 0
    rate: float = 0.0
    clients: int = 0
    bandwidth: float = 0.0
    region: str = ""
    count: int = 0
    factor: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in STEP_KINDS:
            raise ValueError(f"unknown fault step kind {self.kind!r}")

    def to_dict(self) -> Dict:
        entry: Dict = {"at": self.at, "kind": self.kind}
        if self.target:
            entry["target"] = self.target
        if self.groups:
            entry["groups"] = [list(g) for g in self.groups]
        if self.fraction:
            entry["fraction"] = self.fraction
        if self.duration:
            entry["duration"] = self.duration
        if self.index:
            entry["index"] = self.index
        if self.rate:
            entry["rate"] = self.rate
        if self.clients:
            entry["clients"] = self.clients
        if self.bandwidth:
            entry["bandwidth"] = self.bandwidth
        if self.region:
            entry["region"] = self.region
        if self.count:
            entry["count"] = self.count
        if self.factor:
            entry["factor"] = self.factor
        return entry

    @classmethod
    def from_dict(cls, entry: Dict) -> "FaultStep":
        return cls(
            at=float(entry["at"]),
            kind=entry["kind"],
            target=entry.get("target", ""),
            groups=tuple(tuple(g) for g in entry.get("groups", [])),
            fraction=float(entry.get("fraction", 0.0)),
            duration=float(entry.get("duration", 0.0)),
            index=int(entry.get("index", 0)),
            rate=float(entry.get("rate", 0.0)),
            clients=int(entry.get("clients", 0)),
            bandwidth=float(entry.get("bandwidth", 0.0)),
            region=entry.get("region", ""),
            count=int(entry.get("count", 0)),
            factor=float(entry.get("factor", 0.0)),
        )


@dataclass(frozen=True)
class FaultPlan:
    """A complete, replayable exploration run description."""

    seed: int  # simulator/cluster seed (all protocol nondeterminism)
    requests: int  # workload length (sequential SET operations)
    steps: Tuple[FaultStep, ...] = ()
    perturb_seed: Optional[int] = None  # tie-break shuffle seed (None = off)
    drop_rate: float = 0.0  # baseline network loss for the whole run
    recovery_period: float = 0.0  # proactive-recovery rotation (0 = off)
    topology: str = ""  # topology preset name ("" = flat default network)

    def byzantine_targets(self) -> FrozenSet[str]:
        return frozenset(s.target for s in self.steps if s.kind in BYZANTINE_KINDS)

    def implementation_targets(self) -> FrozenSet[str]:
        return frozenset(s.target for s in self.steps if s.kind in IMPLEMENTATION_KINDS)

    def has_implementation_faults(self) -> bool:
        return any(s.kind in IMPLEMENTATION_KINDS for s in self.steps)

    def has_overload(self) -> bool:
        return any(s.kind in OVERLOAD_KINDS for s in self.steps)

    def has_campaign(self) -> bool:
        return bool(self.topology) or any(
            s.kind in CAMPAIGN_KINDS for s in self.steps
        )

    def has_destruction(self) -> bool:
        return any(s.kind in DESTRUCTION_KINDS for s in self.steps)

    def kinds(self) -> FrozenSet[str]:
        return frozenset(s.kind for s in self.steps)

    def pure_overload(self) -> bool:
        """Fault-free saturation: every step is an overload episode.  Only
        then may the goodput oracle be strict (shed-but-commit, view number
        bounded) — real faults legitimately cause view changes."""
        return bool(self.steps) and all(s.kind in OVERLOAD_KINDS for s in self.steps)

    def to_dict(self) -> Dict:
        data = {
            "version": PLAN_FORMAT_VERSION,
            "seed": self.seed,
            "requests": self.requests,
            "perturb_seed": self.perturb_seed,
            "drop_rate": self.drop_rate,
            "recovery_period": self.recovery_period,
            "steps": [s.to_dict() for s in self.steps],
        }
        if self.topology:  # emitted only when set: old artifacts stay byte-identical
            data["topology"] = self.topology
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: Dict) -> "FaultPlan":
        version = data.get("version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise ValueError(f"unsupported plan format version {version}")
        return cls(
            seed=int(data["seed"]),
            requests=int(data["requests"]),
            perturb_seed=data.get("perturb_seed"),
            drop_rate=float(data.get("drop_rate", 0.0)),
            recovery_period=float(data.get("recovery_period", 0.0)),
            topology=data.get("topology", ""),
            steps=tuple(FaultStep.from_dict(s) for s in data.get("steps", [])),
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def validate_plan(plan: FaultPlan, f: int = 1) -> List[str]:
    """Structural sanity checks; returns a list of problems (empty = valid).

    Campaign steps are judged against the plan's topology preset: region
    names must exist, storms/spikes need positive parameters, and region
    steps are rejected outright when the plan names no topology.  A
    ``region_outage`` taking more than ``f`` replicas down is *not* a
    problem — it is a declared beyond-assumption window
    (:func:`beyond_assumption_windows`) during which liveness/availability
    judgement is suspended while safety oracles keep running.
    """
    problems: List[str] = []
    topo = None
    if plan.topology:
        from repro.net.topology import PRESETS

        if plan.topology not in PRESETS:
            problems.append(f"unknown topology preset {plan.topology!r}")
        else:
            topo = PRESETS[plan.topology]
    last_at = -1.0
    crashed: set = set()
    partitioned = False
    for step in plan.steps:
        if step.at < last_at:
            problems.append(f"steps not time-ordered at t={step.at}")
        last_at = step.at
        if step.kind == "crash":
            if step.target in crashed:
                problems.append(f"{step.target} crashed twice without restart")
            crashed.add(step.target)
            if len(crashed) > f:
                problems.append(f"more than f={f} replicas down at once")
        elif step.kind == "restart":
            if step.target not in crashed:
                problems.append(f"restart of non-crashed {step.target}")
            crashed.discard(step.target)
        elif step.kind == "partition":
            if partitioned:
                problems.append("partition while one is already active")
            partitioned = True
        elif step.kind == "heal":
            if not partitioned:
                problems.append("heal without an active partition")
            partitioned = False
        elif step.kind in IMPLEMENTATION_KINDS:
            if not step.target:
                problems.append(f"{step.kind} needs a target replica")
            if step.kind == "corrupt_object" and step.index < 0:
                problems.append("corrupt_object index must be >= 0")
        elif step.kind == "overload":
            if step.rate <= 0:
                problems.append("overload rate must be > 0")
            if step.clients <= 0:
                problems.append("overload needs at least one swarm client")
            if step.duration <= 0:
                problems.append("overload duration must be > 0")
            if step.bandwidth < 0:
                problems.append("overload bandwidth must be >= 0")
        elif step.kind == "region_outage":
            if not plan.topology:
                problems.append("region_outage requires a plan topology")
            elif topo is not None and step.region not in topo.region_names():
                problems.append(f"region_outage of unknown region {step.region!r}")
            elif topo is not None and not topo.region(step.region).replicas:
                problems.append(f"region_outage of replica-less region {step.region!r}")
            if step.duration <= 0:
                problems.append("region_outage duration must be > 0")
        elif step.kind == "partition_storm":
            if not plan.topology:
                problems.append("partition_storm requires a plan topology")
            if step.count <= 0:
                problems.append("partition_storm count must be > 0")
            if step.duration <= 0:
                problems.append("partition_storm duration must be > 0")
        elif step.kind == "latency_spike":
            if not plan.topology:
                problems.append("latency_spike requires a plan topology")
            elif (
                topo is not None
                and step.region
                and step.region not in topo.region_names()
            ):
                problems.append(f"latency_spike on unknown region {step.region!r}")
            if step.factor <= 1.0:
                problems.append("latency_spike factor must be > 1")
            if step.duration <= 0:
                problems.append("latency_spike duration must be > 0")
        elif step.kind == "flash_crowd":
            if step.rate <= 0:
                problems.append("flash_crowd peak rate must be > 0")
            if step.clients <= 0:
                problems.append("flash_crowd needs at least one swarm client")
            if step.duration <= 0:
                problems.append("flash_crowd duration must be > 0")
        elif step.kind == "age_replicas":
            if step.target and step.target not in REPLICA_IDS:
                problems.append(f"age_replicas of unknown replica {step.target!r}")
            if step.fraction < 0:
                problems.append("age_replicas per-op stall override must be >= 0")
        elif step.kind == "destroy_group":
            if step.index < 0:
                problems.append("destroy_group shard index must be >= 0")
    destroys = [s for s in plan.steps if s.kind in DESTRUCTION_KINDS]
    if len(destroys) > 1:
        # One catastrophe per run: the fused tier reconstructs sequentially
        # and a second loss during reconstruction is outside its model.
        problems.append("at most one destroy_group step per plan")
    if crashed:
        problems.append(f"plan ends with {sorted(crashed)} still crashed")
    if partitioned:
        problems.append("plan ends with an unhealed partition")
    if len(plan.byzantine_targets()) > f:
        problems.append(f"more than f={f} Byzantine replicas")
    # Implementation faults share the f budget with Byzantine behavior: a
    # poisoned replica is down until repaired and a corrupted one may serve
    # wrong values until scrubbed, so together they must stay within f.
    faulty = plan.byzantine_targets() | plan.implementation_targets()
    if len(faulty) > f:
        problems.append(f"more than f={f} faulty (Byzantine or implementation) replicas")
    poison_targets = frozenset(
        s.target for s in plan.steps if s.kind == "poison_request"
    )
    if poison_targets:
        for step in plan.steps:
            if step.kind == "crash" and step.target not in poison_targets:
                problems.append(
                    f"crash of {step.target} can overlap the poisoned "
                    f"{sorted(poison_targets)} being down (> f at once)"
                )
                break
    return problems


def beyond_assumption_windows(
    plan: FaultPlan, f: int = 1, margin: float = 0.0
) -> List[Tuple[float, float]]:
    """Time windows where the plan itself exceeds the <= f crash assumption.

    A ``region_outage`` of a region holding more than ``f`` replicas takes
    the system outside the fault model: liveness cannot be promised, so the
    availability SLO is suspended over ``[at, at + duration + margin]``
    (``margin`` covers post-restart catch-up).  Safety oracles are *never*
    suspended — correctness must hold even beyond the liveness assumptions.
    Overlapping and adjacent windows are merged; the result is time-ordered.
    """
    if not plan.topology:
        return []
    from repro.net.topology import PRESETS

    topo = PRESETS.get(plan.topology)
    if topo is None:
        return []
    raw: List[Tuple[float, float]] = []
    for step in plan.steps:
        if step.kind != "region_outage":
            continue
        if step.region not in topo.region_names():
            continue
        if len(topo.region(step.region).replicas) > f:
            raw.append((step.at, step.at + step.duration + margin))
    raw.sort()
    merged: List[Tuple[float, float]] = []
    for start, end in raw:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


# Overload-episode shape shared by generated plans and the acceptance tests:
# with every link squeezed to OVERLOAD_BANDWIDTH bytes/vsec the cluster
# sustains roughly OVERLOAD_SUSTAINABLE requests/second end to end (measured:
# an open-loop swarm at 80 req/s is fully absorbed, 120 req/s already sheds),
# so the generated rates are all >= 4x sustainable
# (see tests/explore/test_overload.py, which pins the calibration).
OVERLOAD_CLIENTS = 8
OVERLOAD_BANDWIDTH = 40_000.0
OVERLOAD_DURATION = 1.5
OVERLOAD_SUSTAINABLE = 100.0
OVERLOAD_RATES: Tuple[float, ...] = (600.0, 800.0, 1000.0)


def make_overload_step(
    at: float = 0.1,
    rate: float = OVERLOAD_RATES[0],
    clients: int = OVERLOAD_CLIENTS,
    duration: float = OVERLOAD_DURATION,
    bandwidth: float = OVERLOAD_BANDWIDTH,
) -> FaultStep:
    """The canonical pure-overload episode (open-loop swarm, squeezed links)."""
    return FaultStep(
        at=at,
        kind="overload",
        rate=rate,
        clients=clients,
        duration=duration,
        bandwidth=bandwidth,
    )


def generate_plan(
    seed: int,
    requests: int = 24,
    max_steps: int = 6,
    replica_ids: Tuple[str, ...] = REPLICA_IDS,
    f: int = 1,
    implementation_faults: bool = False,
    overload: bool = False,
    destruction: bool = False,
) -> FaultPlan:
    """Deterministically generate one exploration plan from a seed.

    The generated timeline keeps the run inside the protocol's fault
    assumptions — at most ``f`` replicas crashed at a time (crashes are
    paired with restarts), at most one partition at a time (paired with a
    heal), at most ``f`` Byzantine targets — so an honest implementation must
    satisfy every safety oracle on *every* generated plan.  Violations on
    generated plans therefore always indicate implementation bugs.

    ``implementation_faults`` (opt-in, so default plans stay byte-identical
    across versions) mixes in ``poison_request`` / ``corrupt_object`` steps
    targeting one replica, dropping any crash or Byzantine groups so the
    combined fault count stays within ``f``.

    ``overload`` (also opt-in) generates a *pure-overload* plan instead: one
    fault-free open-loop saturation episode at a seeded rate >= 4x the
    sustainable load, judged strictly by the goodput oracle (sheds happen,
    commits continue, the view number stays put).

    ``destruction`` (opt-in, sharded runs only) appends one ``destroy_group``
    step after every other fault has resolved: the named shard group loses
    all replicas *and* disks at once and must be rebuilt from the fused
    backup tier.  Crash/restart, Byzantine, and implementation groups are
    dropped from such plans — a destroyed group is replaced wholesale, which
    would invalidate their paired bookkeeping — leaving drops, partitions,
    and proactive recoveries to run alongside the catastrophe.  With the
    flag off no extra randomness is drawn, so default plans stay
    byte-identical across versions.
    """
    rng = random.Random(seed)
    if overload:
        step = make_overload_step(
            at=round(rng.uniform(0.05, 0.2), 4),
            rate=rng.choice(OVERLOAD_RATES),
        )
        return FaultPlan(
            seed=rng.randrange(2**31),
            requests=requests,
            steps=(step,),
            perturb_seed=rng.randrange(2**31) if rng.random() < 0.5 else None,
        )
    # Step groups are (time-ordered within themselves) lists of steps that
    # must travel together; the plan is their time-sorted merge.
    groups: List[List[FaultStep]] = []

    def t() -> float:
        return round(rng.uniform(0.05, 1.6), 4)

    if rng.random() < 0.55:  # crash/restart pair (<= f down at once: one pair)
        victim = rng.choice(replica_ids)
        start = t()
        groups.append(
            [
                FaultStep(at=start, kind="crash", target=victim),
                FaultStep(
                    at=round(start + rng.uniform(0.1, 0.7), 4),
                    kind="restart",
                    target=victim,
                ),
            ]
        )
    if rng.random() < 0.4:  # partition/heal pair
        split = rng.randrange(1, len(replica_ids))
        shuffled = list(replica_ids)
        rng.shuffle(shuffled)
        start = t()
        groups.append(
            [
                FaultStep(
                    at=start,
                    kind="partition",
                    groups=(tuple(sorted(shuffled[:split])), tuple(sorted(shuffled[split:]))),
                ),
                FaultStep(at=round(start + rng.uniform(0.1, 0.6), 4), kind="heal"),
            ]
        )
    for _ in range(rng.randrange(0, 3)):  # flaky-NIC style outbound loss
        groups.append(
            [
                FaultStep(
                    at=t(),
                    kind="drop",
                    target=rng.choice(replica_ids),
                    fraction=round(rng.uniform(0.1, 0.4), 3),
                    duration=round(rng.uniform(0.2, 1.0), 3),
                )
            ]
        )
    if rng.random() < 0.35:  # one-shot proactive recovery
        groups.append([FaultStep(at=t(), kind="recover", target=rng.choice(replica_ids))])
    if rng.random() < 0.45:  # one Byzantine replica (<= f)
        kind = rng.choice(
            ["equivocate", "equivocate", "fabricate_cert", "lie_checkpoint", "corrupt_votes", "corrupt_results"]
        )
        if kind == "equivocate" and rng.random() < 0.6:
            target = replica_ids[0]  # the view-0 primary actually equivocates
        else:
            target = rng.choice(replica_ids)
        groups.append([FaultStep(at=t(), kind=kind, target=target)])

    if implementation_faults:
        impl_target = rng.choice(replica_ids)
        impl_group: List[FaultStep] = []
        if rng.random() < 0.7:
            impl_group.append(
                FaultStep(at=t(), kind="poison_request", target=impl_target)
            )
        if not impl_group or rng.random() < 0.45:
            impl_group.append(
                FaultStep(
                    at=t(),
                    kind="corrupt_object",
                    target=impl_target,
                    index=rng.randrange(0, 8),
                )
            )
        impl_group.sort(key=lambda s: s.at)
        # Keep the total fault count within f: implementation faults replace
        # crash pairs and Byzantine misbehavior (all on one target anyway).
        groups = [
            group
            for group in groups
            if not any(
                s.kind in BYZANTINE_KINDS or s.kind in ("crash", "restart")
                for s in group
            )
        ]
    else:
        impl_group = []

    # Honor the step budget without breaking pairs: drop whole groups.  The
    # implementation-fault group (when present) goes first so the budget
    # never squeezes it out.
    rng.shuffle(groups)
    if impl_group:
        groups.insert(0, impl_group)
    steps: List[FaultStep] = []
    for group in groups:
        if len(steps) + len(group) > max_steps:
            continue
        steps.extend(group)

    if destruction:
        # Wholesale-replacement of a group cannot honor crash/restart pairing
        # or keep a Byzantine/poisoned replica faulty through the rebuild.
        steps = [
            s
            for s in steps
            if s.kind not in BYZANTINE_KINDS
            and s.kind not in IMPLEMENTATION_KINDS
            and s.kind not in ("crash", "restart")
        ]
        steps.append(
            FaultStep(
                at=round(rng.uniform(2.0, 2.6), 4),
                kind="destroy_group",
                index=rng.randrange(0, 2),
            )
        )
    steps.sort(key=lambda s: s.at)

    return FaultPlan(
        seed=rng.randrange(2**31),
        requests=requests,
        steps=tuple(steps),
        perturb_seed=rng.randrange(2**31) if rng.random() < 0.5 else None,
        drop_rate=round(rng.uniform(0.01, 0.05), 3) if rng.random() < 0.5 else 0.0,
        recovery_period=round(rng.uniform(2.0, 4.0), 2) if rng.random() < 0.35 else 0.0,
    )
