"""Differential protocol-equivalence harness for the RECIPE-style fast path.

One seeded fault plan is replayed through several :class:`BFTConfig`
variants — the baseline three-phase protocol and the fast-path stages
(pipelined ordering, speculative execution, read leases) — on the same
deterministic simulator.  The equivalence contract:

* every safety oracle holds in every configuration;
* requests acknowledged under *all* configurations got byte-identical
  replies;
* the committed operation sequences, projected onto the operations every
  configuration committed, are identical (same operations, same order).

The projection handles legitimate divergence in *coverage*: a request can
time out under one configuration and complete under another (timing shifts
with batching depth), but anything both configurations committed must agree
byte-for-byte.  A fast path that reordered, dropped, or double-executed
work, or leaked an uncommitted speculative result to a client, breaks one
of these checks or an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bft.testing import encode_set
from repro.explore.plan import FaultPlan
from repro.explore.runner import RunOutcome, run_plan

#: The configuration ladder: each rung enables one more fast-path mechanism,
#: so a failure isolates which mechanism broke equivalence.
DIFF_CONFIGS: Tuple[Tuple[str, Dict], ...] = (
    ("baseline", {}),
    ("pipelined", {"max_outstanding": 8}),
    (
        "speculative",
        {"max_outstanding": 8, "speculative_execution": True},
    ),
    (
        "fast-path",
        {
            "max_outstanding": 8,
            "speculative_execution": True,
            "read_leases": True,
        },
    ),
)


@dataclass
class DifferentialVerdict:
    """Comparison of one plan across the configuration ladder."""

    plan: FaultPlan
    outcomes: Dict[str, RunOutcome]
    mismatches: List[str] = field(default_factory=list)

    @property
    def equivalent(self) -> bool:
        return not self.mismatches

    def describe(self) -> str:
        if self.equivalent:
            return f"plan seed={self.plan.seed}: all configurations equivalent"
        lines = [f"plan seed={self.plan.seed}: {len(self.mismatches)} mismatch(es)"]
        lines.extend(f"  - {m}" for m in self.mismatches)
        return "\n".join(lines)


def workload_ops(plan: FaultPlan) -> List[bytes]:
    """The exact op bytes ``run_plan`` issues for each workload request."""
    return [
        encode_set(i % 8, bytes([i % 251, plan.seed % 251]))
        for i in range(plan.requests)
    ]


def run_differential(
    plan: FaultPlan,
    plant: Optional[str] = None,
    check_interval: int = 10,
    configs: Tuple[Tuple[str, Dict], ...] = DIFF_CONFIGS,
) -> DifferentialVerdict:
    """Replay ``plan`` under every configuration and compare the outcomes."""
    outcomes: Dict[str, RunOutcome] = {}
    for name, overrides in configs:
        outcomes[name] = run_plan(
            plan,
            plant=plant,
            check_interval=check_interval,
            config_overrides=overrides or None,
        )
    return compare_outcomes(plan, outcomes, [name for name, _overrides in configs])


def compare_outcomes(
    plan: FaultPlan, outcomes: Dict[str, RunOutcome], names: List[str]
) -> DifferentialVerdict:
    """Judge already-collected outcomes (the first name is the reference)."""
    verdict = DifferentialVerdict(plan=plan, outcomes=outcomes)
    baseline = names[0]

    for name in names:
        violation = outcomes[name].violation
        if violation is not None:
            verdict.mismatches.append(
                f"{name}: oracle violation [{violation.oracle}] {violation.detail}"
            )
    if verdict.mismatches:
        return verdict  # violations make the remaining comparisons noise

    # Client-visible replies: indices acknowledged under every configuration
    # must carry byte-identical results.
    replies = {name: outcomes[name].client_replies or [] for name in names}
    common_acked = [
        i
        for i in range(plan.requests)
        if all(i < len(replies[name]) and replies[name][i] is not None for name in names)
    ]
    for i in common_acked:
        values = {name: replies[name][i] for name in names}
        if len(set(values.values())) > 1:
            verdict.mismatches.append(
                f"request {i}: divergent replies "
                + ", ".join(f"{n}={v!r}" for n, v in sorted(values.items()))
            )

    # Committed operation sequences, projected onto the intersection: the
    # operations every configuration committed must appear in the same order
    # with the same bytes.
    histories = {name: outcomes[name].committed_history or [] for name in names}
    shared = set(histories[baseline])
    for name in names[1:]:
        shared &= set(histories[name])
    projected = {
        name: [entry for entry in histories[name] if entry in shared]
        for name in names
    }
    for name in names[1:]:
        if projected[name] != projected[baseline]:
            verdict.mismatches.append(
                f"{name}: committed sequence diverges from {baseline} on their "
                f"common operations ({len(projected[name])} vs "
                f"{len(projected[baseline])} entries)"
            )
    return verdict
