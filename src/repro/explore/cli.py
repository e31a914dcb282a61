"""``repro explore`` / ``repro replay`` — exploration from the command line.

Exit codes (both subcommands): 0 = no safety violation, 1 = a violation was
found (explore writes the shrunk repro artifact), 2 = usage error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.explore.plan import (
    DESTRUCTION_KINDS,
    IMPLEMENTATION_KINDS,
    OVERLOAD_KINDS,
    unsupported,
)
from repro.explore.runner import explore, run_plan
from repro.explore.shrink import load_artifact, write_artifact
from repro.faults.plant import PLANTED_BUGS, SHARDED_PLANTED_BUGS, planted_bugs

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2

DEFAULT_ARTIFACT = "explore-repro.json"


def _explore_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro explore",
        description="Explore seeded random fault schedules under safety oracles.",
    )
    parser.add_argument("--budget", type=int, default=25, help="plans to run (default 25)")
    parser.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    parser.add_argument(
        "--requests", type=int, default=24, help="workload requests per plan (default 24)"
    )
    parser.add_argument(
        "--max-steps", type=int, default=6, help="max fault steps per plan (default 6)"
    )
    parser.add_argument(
        "--plant",
        choices=sorted(set(PLANTED_BUGS) | set(SHARDED_PLANTED_BUGS)),
        default=None,
        help="plant a known protocol regression (exploration should find it)",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="explore against a sharded deployment of N independent BASE "
        "groups with a cross-shard transactional workload (default 1: the "
        "classic single-group exploration)",
    )
    parser.add_argument(
        "--check-interval",
        type=int,
        default=10,
        help="events between oracle sweeps (default 10)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_ARTIFACT,
        help=f"repro artifact path on violation (default {DEFAULT_ARTIFACT})",
    )
    parser.add_argument(
        "--impl-faults",
        action="store_true",
        help="add implementation-fault steps (poison_request, corrupt_object) "
        "to generated plans, exercising reactive repair and the scrubber",
    )
    parser.add_argument(
        "--overload",
        action="store_true",
        help="generate pure-overload saturation plans (open-loop client swarm "
        "at >= 4x sustainable load) judged by the goodput-under-overload oracle",
    )
    parser.add_argument(
        "--fast-path",
        action="store_true",
        help="run every plan with the RECIPE-style fast path on (pipelined "
        "ordering, speculative execution, read leases) — the oracles must "
        "hold exactly as they do for the baseline protocol",
    )
    parser.add_argument(
        "--destroy-group",
        action="store_true",
        help="end every generated plan with a destroy_group catastrophe "
        "(all replicas and disks of one shard group wiped at once) that the "
        "fused-backup tier must survive; requires --shards 2 (or more)",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="skip shrinking the violating plan"
    )
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    return parser


#: BFTConfig overrides applied by ``--fast-path`` (kept in one place so
#: explore and replay exercise the identical configuration; the artifact
#: records ``"fast_path": true`` and replay reads it).
FAST_PATH_OVERRIDES = {
    "max_outstanding": 8,
    "speculative_execution": True,
    "read_leases": True,
}


def explore_main(argv: List[str]) -> int:
    try:
        args = _explore_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.budget < 1 or args.requests < 1:
        print("explore: --budget and --requests must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if args.shards < 1:
        print("explore: --shards must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    kinds = set()
    for flag, flag_kinds in (
        (args.impl_faults, IMPLEMENTATION_KINDS),
        (args.overload, OVERLOAD_KINDS),
        (args.destroy_group, DESTRUCTION_KINDS),
    ):
        if flag:
            kinds |= flag_kinds
    problem = unsupported(kinds, args.shards)
    if problem is not None:
        print(f"explore: --shards {args.shards}: {problem}", file=sys.stderr)
        return EXIT_USAGE
    if args.plant is not None and args.plant not in planted_bugs(args.shards):
        print(
            f"explore: plant {args.plant!r} does not apply to --shards "
            f"{args.shards}; plants there: {sorted(planted_bugs(args.shards))}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    result = explore(
        budget=args.budget,
        seed=args.seed,
        requests=args.requests,
        max_steps=args.max_steps,
        plant=args.plant,
        check_interval=args.check_interval,
        shrink=not args.no_shrink,
        implementation_faults=args.impl_faults,
        overload=args.overload,
        log=None if args.quiet else print,
        config_overrides=FAST_PATH_OVERRIDES if args.fast_path else None,
        shards=args.shards,
        destruction=args.destroy_group,
    )
    if not result.found:
        print(
            f"explore: {result.plans_run} plans (seed {result.seed}) "
            f"held every safety oracle"
        )
        return EXIT_OK
    final_plan = result.shrunk_plan or result.plan
    final_violation = result.shrunk_violation or result.violation
    assert final_plan is not None and final_violation is not None
    write_artifact(
        args.out,
        final_plan,
        final_violation,
        plant=args.plant,
        original_plan=result.plan if result.shrunk_plan else None,
        shards=args.shards,
        fast_path=args.fast_path,
    )
    print(
        f"explore: VIOLATION [{final_violation.oracle}] after "
        f"{result.plans_run} plans: {final_violation.detail}"
    )
    print(
        f"explore: repro with {len(final_plan.steps)} fault steps written to "
        f"{args.out} (replay with: repro replay {args.out})"
    )
    return EXIT_VIOLATION


def _replay_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro replay",
        description=(
            "Deterministically re-execute a saved exploration repro artifact "
            "or a soak-run artifact."
        ),
    )
    parser.add_argument("artifact", help="path to a JSON repro artifact")
    parser.add_argument(
        "--check-interval",
        type=int,
        default=10,
        help="events between oracle sweeps (default 10; must match the artifact run)",
    )
    return parser


def replay_main(argv: List[str]) -> int:
    try:
        args = _replay_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    path = Path(args.artifact)
    if not path.is_file():
        print(f"replay: no such artifact: {path}", file=sys.stderr)
        return EXIT_USAGE
    try:
        import json

        raw = json.loads(path.read_text())
        if raw.get("format") == "soak":
            return _replay_soak(path)
        shards = int(raw.get("shards", 1))
        fast_path = bool(raw.get("fast_path", False))
    except (ValueError, OSError) as exc:
        print(f"replay: malformed artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        plan, recorded, plant = load_artifact(path)
    except (ValueError, KeyError) as exc:
        print(f"replay: malformed artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    outcome = run_plan(
        plan,
        shards=shards,
        plant=plant,
        check_interval=args.check_interval,
        config_overrides=FAST_PATH_OVERRIDES if fast_path else None,
    )
    if outcome.violation is None:
        print(
            f"replay: no violation (recorded run saw [{recorded.get('oracle')}]); "
            f"{outcome.events} events"
        )
        return EXIT_OK
    observed = outcome.violation
    matches = (
        observed.oracle == recorded.get("oracle")
        and observed.detail == recorded.get("detail")
    )
    print(
        f"replay: VIOLATION [{observed.oracle}] at t={observed.time:.4f} "
        f"(event {observed.event_index}): {observed.detail}"
    )
    print(
        "replay: reproduces the recorded violation exactly"
        if matches
        else "replay: WARNING - violation differs from the recorded one"
    )
    return EXIT_VIOLATION


def _replay_soak(path: Path) -> int:
    """Re-execute a soak artifact and compare against the recorded verdict."""
    from repro.soak.runner import load_soak_artifact, run_soak

    try:
        plan, slo, recorded = load_soak_artifact(path)
    except (ValueError, KeyError) as exc:
        print(f"replay: malformed soak artifact: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = run_soak(plan, slo=slo)
    matches = (
        report.ok == recorded.get("ok")
        and report.slo_violations == recorded.get("slo_violations")
        and report.safety_violations == recorded.get("safety_violations")
        and report.events == recorded.get("events")
    )
    status = "SLO held" if report.ok else (
        f"{len(report.slo_violations)} SLO + "
        f"{len(report.safety_violations)} safety violations"
    )
    print(
        f"replay: soak {plan.topology or 'flat'} (seed {plan.seed}): {status}; "
        f"{report.probe_ops} probe ops, {report.events} events"
    )
    print(
        "replay: reproduces the recorded soak run exactly"
        if matches
        else "replay: WARNING - soak verdict differs from the recorded one"
    )
    return EXIT_OK if report.ok else EXIT_VIOLATION
