"""Verdict pins: the exact outcome of one small run per runner path.

Each verdict digest is the SHA-256 of the canonical JSON
(``sort_keys=True``) of ``ExploreResult.to_dict()`` or
``SoakReport.to_dict()``: every plan, violation (oracle, detail, time,
event index), acknowledged count, event count and counter.  Single-group
runs also pin the canonical committed history of every plan they ran
(shrink runs included).  Any change to what these runs do — a different
schedule, verdict, counter or committed order — fails here.  Refresh a
digest only for an intended behaviour change, and say which one.

All digests but ``shards2-fast`` were recorded before the sharded runner
was folded into ``run_plan``; the fold left every one of them unchanged.
``shards2-fast`` pins the fast path on a sharded deployment, which first
ran with that change.
"""

import hashlib
import json

import pytest

import repro.explore.runner as runner
from repro.explore.cli import FAST_PATH_OVERRIDES
from repro.explore.plan import FaultPlan, FaultStep
from repro.soak.runner import SoakSLO, run_soak

#: name -> (explore() arguments, verdict digest, committed-history digest)
EXPLORE_PINS = {
    "default": (
        dict(budget=3, seed=0, requests=10),
        "28e7589c8423a8fc62662edcb9a6b8634b7310492f0330b27a0b6540dc865ade",
        "566371e557defc5bca8ac6f4446d26ca8fffbb066ba8e5cef876916a3d0e230b",
    ),
    "impl-faults": (
        dict(budget=2, seed=0, requests=12, implementation_faults=True),
        "ee5a7cc218bbfadd9f7503b48b38abc9ee13f3b3aebfca50faaf7c2c099b9609",
        "4961bd13bdbff5253e36ac2cc099192830bba2cd7c2f62178433b82cf8c93921",
    ),
    "overload": (
        dict(budget=1, seed=0, requests=8, overload=True),
        "176e58cfb90dabbe5994967c67b190c515f2ebbdeb5e88e8d2a2945e13b64293",
        "ab2382ae5008a0730aff35fd7bd4e542744cb8495622761e82ac88512b735598",
    ),
    "fast-path": (
        dict(budget=3, seed=0, requests=10, config_overrides=FAST_PATH_OVERRIDES),
        "fdc226d4ac7b0a9f428eda985bf402ad435a9f277dd5984bdad2fbac705f9d8b",
        "32974dc5339860f5aa1578235e0cb81d9a60fe0bc1684fc6cc4584bd7ba2d7fb",
    ),
    "shards2": (
        dict(budget=3, seed=0, requests=12, shards=2),
        "bcfa04b7c0b215bec992e0ac8b6c84304f66db256e6064b83be19258899a3eed",
        None,
    ),
    "shards2-fast": (
        dict(budget=3, seed=0, requests=12, shards=2, config_overrides=FAST_PATH_OVERRIDES),
        "5ea419c9f30c34fe05870e89acdf24d876247da1cd67b7cd8abe6d7106f03958",
        None,
    ),
    "shards2-destroy": (
        dict(budget=2, seed=0, requests=12, shards=2, destruction=True),
        "42442a4b112b653e211884dd5c6864c956ac5c741bf90bbcb2bda2bd8d01a13b",
        None,
    ),
    "shards2-split-brain": (
        dict(budget=2, seed=0, requests=16, shards=2, plant="split-brain-decide"),
        "f5375a7aba9f9b424074ef1adb9eddc6d924ba4c92ffcfacefcca0b05859ebb8",
        None,
    ),
}

SOAK_PIN = "a617e7f9140c1c0e561b0be28c57918cdea02e78cf2ae310422dc742024c99f4"


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(EXPLORE_PINS))
def test_explore_verdicts_are_pinned(name, monkeypatch):
    kwargs, verdict_digest, history_digest = EXPLORE_PINS[name]
    histories = []
    run_plan = runner.run_plan

    def recording_run_plan(*args, **kw):
        outcome = run_plan(*args, **kw)
        if outcome.committed_history is not None:
            histories.append(_digest(repr(outcome.committed_history)))
        return outcome

    monkeypatch.setattr(runner, "run_plan", recording_run_plan)
    result = runner.explore(**kwargs)
    assert _digest(result.to_dict()) == verdict_digest
    if history_digest is None:
        assert histories == []
    else:
        assert _digest(histories) == history_digest


def test_soak_report_is_pinned():
    plan = FaultPlan(
        seed=21,
        requests=0,
        topology="wan3",
        steps=(
            FaultStep(at=10.0, kind="partition_storm", count=2, duration=30.0),
            FaultStep(at=20.0, kind="flash_crowd", rate=8.0, clients=2, duration=30.0),
        ),
    )
    report = run_soak(plan, slo=SoakSLO(window=30.0))
    assert _digest(report.to_dict()) == SOAK_PIN
