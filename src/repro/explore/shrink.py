"""Automatic shrinking of violating fault plans, plus repro artifacts.

Given a plan whose run violated a safety oracle, :func:`shrink_plan` bisects
the fault timeline (delta debugging over step subsets, then simplification
of the run parameters) down to a minimal plan that still triggers the *same*
oracle.  Every candidate is re-run through the caller-supplied ``violates``
function, so the result is verified, not guessed.

The shrunk plan and the violation it reproduces are saved as a JSON artifact
(:func:`write_artifact`) that ``repro replay`` re-executes deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.explore.oracles import Violation
from repro.explore.plan import FaultPlan, FaultStep

ARTIFACT_VERSION = 1

# A predicate that re-runs a candidate plan and returns the violation it
# produces (None when the candidate passes all oracles).
ViolatesFn = Callable[[FaultPlan], Optional[Violation]]


@dataclass
class ShrinkResult:
    plan: FaultPlan
    violation: Violation
    runs: int  # candidate executions spent


def _with_steps(plan: FaultPlan, steps: Tuple[FaultStep, ...]) -> FaultPlan:
    return replace(plan, steps=steps)


def shrink_plan(
    plan: FaultPlan,
    violation: Violation,
    violates: ViolatesFn,
    max_runs: int = 64,
) -> ShrinkResult:
    """Minimize ``plan`` while it still triggers ``violation.oracle``."""
    runs = 0
    best_plan = plan
    best_violation = violation

    def try_candidate(candidate: FaultPlan) -> Optional[Violation]:
        nonlocal runs
        if runs >= max_runs:
            return None
        runs += 1
        found = violates(candidate)
        if found is not None and found.oracle == violation.oracle:
            return found
        return None

    # -- ddmin over the fault steps -------------------------------------------
    steps: List[FaultStep] = list(best_plan.steps)
    chunks = 2
    while len(steps) > 1 and runs < max_runs:
        size = max(1, len(steps) // chunks)
        reduced = False
        start = 0
        while start < len(steps):
            candidate_steps = tuple(steps[:start] + steps[start + size:])
            if len(candidate_steps) == len(steps):
                break
            found = try_candidate(_with_steps(best_plan, candidate_steps))
            if found is not None:
                steps = list(candidate_steps)
                best_plan = _with_steps(best_plan, candidate_steps)
                best_violation = found
                chunks = max(2, chunks - 1)
                reduced = True
                break
            start += size
        if not reduced:
            if size <= 1:
                break
            chunks = min(len(steps), chunks * 2)

    # -- simplify run parameters ----------------------------------------------
    # Build each candidate from the *current* best plan so accepted
    # simplifications compose instead of reverting one another.
    for simplify in (
        lambda p: replace(p, perturb_seed=None),
        lambda p: replace(p, recovery_period=0.0),
        lambda p: replace(p, drop_rate=0.0),
    ):
        simpler = simplify(best_plan)
        if simpler == best_plan:
            continue
        found = try_candidate(simpler)
        if found is not None:
            best_plan = simpler
            best_violation = found

    # -- shorten the workload ---------------------------------------------------
    requests = best_plan.requests
    while requests > 4 and runs < max_runs:
        candidate = replace(best_plan, requests=requests // 2)
        found = try_candidate(candidate)
        if found is None:
            break
        best_plan = candidate
        best_violation = found
        requests //= 2

    return ShrinkResult(plan=best_plan, violation=best_violation, runs=runs)


# -- repro artifacts -----------------------------------------------------------


def artifact_dict(
    plan: FaultPlan,
    violation: Violation,
    plant: Optional[str] = None,
    original_plan: Optional[FaultPlan] = None,
    shards: int = 1,
    fast_path: bool = False,
) -> Dict:
    data: Dict = {
        "version": ARTIFACT_VERSION,
        "plan": plan.to_dict(),
        "violation": violation.to_dict(),
        "plant": plant,
    }
    if original_plan is not None:
        data["original_plan"] = original_plan.to_dict()
    if shards != 1:
        # Emitted only for sharded runs: single-group artifacts stay
        # byte-identical to version-1 files written before sharding existed.
        data["shards"] = shards
    if fast_path:
        data["fast_path"] = True  # likewise written only when set
    return data


def write_artifact(path, plan: FaultPlan, violation: Violation, **fields) -> None:
    """Write :func:`artifact_dict` (``fields`` are its keyword options)."""
    data = artifact_dict(plan, violation, **fields)
    Path(path).write_text(json.dumps(data, sort_keys=True, indent=2) + "\n")


def load_artifact(path) -> Tuple[FaultPlan, Dict, Optional[str]]:
    """Returns ``(plan, recorded_violation_dict, plant_name)``."""
    data = json.loads(Path(path).read_text())
    version = data.get("version")
    if version != ARTIFACT_VERSION:
        raise ValueError(f"unsupported artifact version {version!r}")
    plan = FaultPlan.from_dict(data["plan"])
    return plan, data["violation"], data.get("plant")
