"""Benchmark runner: what clients see, and what each op costs the host.

    python3 perfbench/run.py --workload shard_txn --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout.  ``--seed`` names :data:`TRIALS`
independent trials of the workload (trial seeds ``seed * TRIALS + i``).
With ``--trace 0`` the runner plays every trial once, then keeps cycling
through them until ``--seconds`` of host time are used; it checks the
outputs of every repetition, times the workload's ``setup_samples``
set-ups on their own, and prints the end-to-end metrics, with host times
scaled to the reference host's speed by :func:`speed_probe`.  With
``--trace 1`` it makes one untraced and one traced repetition of the first
trial, requires their virtual-time figures to be byte-identical, writes the
span log under ``.bench_out/``, and prints the per-layer metrics.  The last
line of standard output is always the JSON result; the exit code is 0 only
if every check passed.  See ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import hmac
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = Path(".bench_out")

#: End-to-end metrics and their units, in report order.
END_TO_END: List[Tuple[str, str]] = [
    ("setup_s", "s"),
    ("host_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "fraction"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("outage_max_ms", "ms"),
    ("txn_commit_ratio", "fraction"),
    ("andrew_overhead", "x"),
    ("availability", "fraction"),
]

#: Independent trials per run.  The virtual metrics pool them: a longest
#: outage is one extreme event, and one trial's reading of it moves too much
#: from seed to seed to compare two commits by.
TRIALS = 3

#: Host seconds of busy work before anything is timed: a freshly started
#: process runs measurably slower for its first few hundred milliseconds.
WARM_UP_S = 1.0

#: Host seconds :func:`speed_probe` takes on the reference host, a quiet
#: 2-vCPU virtual machine running Python 3.11.  Host times are reported
#: scaled to that host's speed; see "Host speed" in NOTES.md.
PROBE_REFERENCE_S = 1.2


def _load_program() -> None:
    """Put the package on the path and import every module the run uses,
    so that import cost lands in neither set-up nor the measured phase."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: package source not found at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import repro.bench.andrew  # noqa: F401
    import repro.bft.sharding  # noqa: F401
    import repro.explore.oracles  # noqa: F401
    import repro.nfs.relay  # noqa: F401
    import repro.soak.runner  # noqa: F401


class RunResult:
    """One repetition with its client ledger and host times."""

    def __init__(self, rep, ledger, phase, message_stats, digest_stats) -> None:
        self.rep = rep
        self.ledger = ledger
        self.phase = phase
        self.message_stats = message_stats
        self.digest_stats = digest_stats

    @property
    def host_ms_per_op(self) -> float:
        return 1000.0 * self.phase.measured_s / len(self.rep.ops)

    def virtual(self) -> Dict[str, float]:
        """Every figure read off the virtual clock or the program's counters;
        a host-only change must leave this byte-identical for one seed."""
        from ledger import client_metrics

        figures = client_metrics(self.rep.ops, self.rep.stop)
        figures.update(self.rep.virtual)
        figures["events"] = self.rep.events
        figures["failed_ops"] = self.rep.failed_ops
        for name in ("messages_sent", "bytes_sent", "requests_executed", "view_changes_started"):
            figures[name] = self.rep.counters.get(name)
        return figures

    def summary(self) -> "Summary":
        return Summary(
            virtual=self.virtual(),
            latencies=[op.latency() for op in self.rep.ops if op.accepted],
            host_ms_per_op=self.host_ms_per_op,
            failures=list(self.rep.failures),
        )


@dataclass
class Summary:
    """What the report needs from one repetition.  Keeping only this (and
    not the deployment) lets each repetition start from the same heap."""

    virtual: Dict[str, float]
    latencies: List[float]  # virtual seconds, accepted operations
    host_ms_per_op: float
    failures: List[str]


def speed_probe() -> float:
    """Host seconds of a fixed workload shaped like the simulator's: dict
    and heap churn over about 30 MB, and short HMACs.  It runs no code
    of the program, so a change to the program cannot move it; only the
    host's speed can.  The host's speed wavers within a second, so the
    probe runs for over a second to average that out."""
    started = time.perf_counter()
    for _ in range(3):
        table: Dict[int, list] = {}
        heap: List[Tuple[int, int]] = []
        for i in range(100_000):
            key = (i * 2654435761) & 0xFFFFFF
            table[key] = [i, str(i)]
            heapq.heappush(heap, (key, i))
        found = sum(len(table.get((i * 2654435761) & 0xFFFFFF, ())) for i in range(100_000))
        while heap:
            heapq.heappop(heap)
        secret = b"k" * 16
        for i in range(20_000):
            hmac.new(secret, b"%d:%d" % (i, found), hashlib.sha256).digest()
        del table
        gc.collect()
    return time.perf_counter() - started


def time_setup(workload, seed: int, count: int) -> List[float]:
    """Host seconds of ``count`` set-ups, each timed on its own."""
    samples = []
    for _ in range(count):
        started = time.perf_counter()
        workload.build(seed)
        samples.append(time.perf_counter() - started)
    gc.collect()
    return samples


def warm_up(seconds: float) -> None:
    deadline = time.perf_counter() + seconds
    total = 0
    while time.perf_counter() < deadline:
        total += sum(i * i % 7 for i in range(10_000))


def run_once(workload, seed: int, tracer=None, stamp_phases: bool = False) -> RunResult:
    from ledger import ClientLedger
    from repro.bft.messages import MESSAGE_STATS
    from repro.crypto.digest import DIGEST_STATS
    from workloads import Phase

    ledger = ClientLedger(stamp_phases=stamp_phases)
    if tracer is not None:
        tracer.install()
    ledger.install()
    messages = MESSAGE_STATS.snapshot()
    digests = DIGEST_STATS.snapshot()
    phase = Phase(tracer)
    try:
        rep = workload.run(seed, phase, ledger)
    finally:
        ledger.remove()
        if tracer is not None:
            tracer.remove()
    return RunResult(rep, ledger, phase, MESSAGE_STATS.diff(messages), DIGEST_STATS.diff(digests))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(
    trials: List[Summary], runs: List[Summary], setup_samples: List[float], slowdown: float, peak_mb: float
) -> Dict[str, float]:
    """Host metrics: over every repetition, divided by the host's mean
    ``slowdown`` against the reference host, and the median set-up sample
    (already scaled).  Virtual metrics: pooled over the trials (one
    repetition of each)."""
    from ledger import percentile

    def total(name: str) -> float:
        return sum(trial.virtual.get(name, 0) for trial in trials)

    def mean(name: str) -> float:
        return statistics.fmean(trial.virtual[name] for trial in trials)

    latencies = sorted(latency for trial in trials for latency in trial.latencies)
    first = trials[0].virtual
    return {
        "setup_s": statistics.median(setup_samples),
        "host_ms_per_op": sum(run.host_ms_per_op * run.virtual["offered"] for run in runs)
        / sum(run.virtual["offered"] for run in runs)
        / slowdown,
        "peak_rss_mb": peak_mb,
        "ok_ratio": total("on_time") / total("offered"),
        "latency_p50_ms": 1000.0 * percentile(latencies, 0.50),
        "latency_p99_ms": 1000.0 * percentile(latencies, 0.99),
        "outage_max_ms": mean("outage_max_ms"),
        # Neutral 1.0 where the workload does not exercise the metric.
        "txn_commit_ratio": total("txn_committed") / total("txn_started") if total("txn_started") else 1.0,
        "andrew_overhead": mean("andrew_overhead") if "andrew_overhead" in first else 1.0,
        "availability": mean("availability") if "availability" in first else total("accepted") / total("offered"),
    }


def not_exercised(trial: Summary) -> List[str]:
    """End-to-end metrics the workload has no figures for (reported as 1.0)."""
    figures = {"txn_commit_ratio": "txn_started", "andrew_overhead": "andrew_overhead"}
    return [name for name, figure in figures.items() if not trial.virtual.get(figure)]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _load_program()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    deadline = time.perf_counter() + args.seconds
    trial_seeds = [args.seed * TRIALS + i for i in range(TRIALS)]
    print(f"workload {workload.name} seed {args.seed}: {workload.why}")
    print(f"injected link delay: {workload.link}")

    runs: List[Summary] = []
    first_of: Dict[int, Summary] = {}  # trial seed -> its first repetition
    problems: List[str] = []
    warm_up(WARM_UP_S)
    if args.trace:
        trial_seeds = trial_seeds[:1]
        first_of[trial_seeds[0]] = run_once(workload, trial_seeds[0]).summary()
        runs.append(first_of[trial_seeds[0]])
        gc.collect()
        from spans import SpanTracer

        tracer = SpanTracer()
        traced = run_once(workload, trial_seeds[0], tracer=tracer, stamp_phases=True)
        runs.append(traced.summary())
        if runs[1].virtual != runs[0].virtual:
            problems.append("traced run perturbed the simulation: virtual figures differ from the untraced run")
    else:
        # The speed probe runs after each repetition, not before the first:
        # its memory would count in that repetition's peak.  Set-up is timed
        # in equal shares after each trial's first repetition's probe.
        probes: List[float] = []
        setup_samples: List[float] = []
        longest = 0.0
        while True:
            seed = trial_seeds[len(runs) % TRIALS]
            before = time.perf_counter()
            summary = run_once(workload, seed).summary()
            runs.append(summary)
            if len(runs) == 1:
                # One workload run's peak: later repetitions only re-fill
                # memory the first one already used.
                peak_mb = peak_rss_mb()
            gc.collect()
            probes.append(speed_probe())
            if len(runs) <= TRIALS:
                # Scaled by the probe just before, which saw the same host.
                scale = PROBE_REFERENCE_S / probes[-1]
                setup_samples.extend(scale * s for s in time_setup(workload, seed, workload.setup_samples // TRIALS))
            if seed not in first_of:
                first_of[seed] = summary
            elif summary.virtual != first_of[seed].virtual:
                problems.append(f"trial seed {seed} diverged in virtual time between repetitions")
            longest = max(longest, time.perf_counter() - before)
            if len(runs) >= TRIALS and time.perf_counter() + longest > deadline:
                break

    for run in runs:
        problems.extend(run.failures)
    for seed in trial_seeds:
        figures = first_of[seed].virtual
        print(
            f"trial seed {seed}: offered {figures['offered']}, accepted {figures['accepted']}, "
            f"latency samples {figures['latency_samples']}, refused {figures['refused']}, "
            f"cancelled {figures['cancelled']}, simulator events {figures['events']}"
        )

    if args.trace:
        from layers import PER_LAYER, per_layer_metrics

        values = per_layer_metrics(
            traced.rep,
            tracer,
            traced.ledger,
            traced.message_stats,
            traced.digest_stats,
            runs[0].host_ms_per_op,
        )
        unit_of = dict(PER_LAYER)
        stem = OUT / f"spans-{workload.name}-seed{trial_seeds[0]}"
        tracer.write(stem)
        print(f"span log: {len(tracer.span_name)} spans in {stem}.spans (+ .json)")
    else:
        slowdown = statistics.fmean(probes) / PROBE_REFERENCE_S
        values = end_to_end([first_of[seed] for seed in trial_seeds], runs, setup_samples, slowdown, peak_mb)
        unit_of = dict(END_TO_END)
        print(f"repetitions {len(runs)}; host ms/op each, as timed: {', '.join(f'{run.host_ms_per_op:.4f}' for run in runs)}")
        print(
            f"set-up: {len(setup_samples)} samples scaled to the reference host, "
            f"min {min(setup_samples):.5f} s, max {max(setup_samples):.5f} s"
        )
        print(f"speed probes (s; reference {PROBE_REFERENCE_S}): {', '.join(f'{p:.4f}' for p in probes)}")
        print(f"host slowdown against the reference host: {slowdown:.4f}")
        print(f"not exercised here, reported as 1.0: {', '.join(not_exercised(runs[0]))}")

    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    result = {
        "correct": not problems,
        "attempted": sum(run.virtual["offered"] for run in runs),
        "failed": sum(run.virtual["failed_ops"] for run in runs),
        "metrics": {name: {"value": values[name], "unit": unit_of[name]} for name in unit_of},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
