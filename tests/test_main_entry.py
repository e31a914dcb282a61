"""The ``python -m repro`` / ``repro`` entry point.

Regression: ``repro andrew`` used to run ``examples/andrew_benchmark.py``
through a cwd-relative path, so it crashed from any directory other than the
repository root.  The script must now resolve relative to the package.
"""

from pathlib import Path

import pytest

from repro.__main__ import _andrew_script_path, main


def test_andrew_script_resolves_from_any_cwd(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the old code only worked from the repo root
    script = _andrew_script_path()
    assert script.is_absolute()
    assert script.is_file()
    assert script.name == "andrew_benchmark.py"


def test_andrew_script_matches_repo_copy():
    repo_root = Path(__file__).resolve().parents[1]
    assert _andrew_script_path() == repo_root / "examples" / "andrew_benchmark.py"


def test_version_command(capsys):
    assert main(["version"]) == 0
    out = capsys.readouterr().out.strip()
    assert out and out[0].isdigit()


def test_unknown_command_exits_2(capsys):
    assert main(["frobnicate"]) == 2
    assert "lint" in capsys.readouterr().out  # usage text mentions the linter


def test_lint_subcommand_is_wired(capsys):
    assert main(["lint", "--list-rules"]) == 0
    assert "DET001" in capsys.readouterr().out


def test_bench_subcommand_is_wired():
    # Usage errors surface as exit 2 without running any scenario.
    assert main(["bench", "--suite", "frobnicate"]) == 2


# -- repro explore / repro replay ----------------------------------------------------


def test_explore_clean_run_exits_0(tmp_path, capsys):
    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--budget", "3", "--seed", "0", "--requests", "10",
         "--quiet", "--out", str(out)]
    )
    assert code == 0
    assert not out.exists()  # no violation, no artifact
    assert "held every safety oracle" in capsys.readouterr().out


def test_explore_planted_bug_exits_1_and_writes_artifact(tmp_path, capsys):
    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--budget", "10", "--seed", "0", "--requests", "16",
         "--plant", "weak-prepare-quorum", "--quiet", "--out", str(out)]
    )
    assert code == 1
    assert out.is_file()
    text = capsys.readouterr().out
    assert "VIOLATION" in text and "repro replay" in text

    # The artifact replays to the same violation, exit code 1.
    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert "reproduces the recorded violation exactly" in capsys.readouterr().out


def test_replay_of_benign_plan_exits_0(tmp_path, capsys):
    """An artifact whose plan no longer violates (e.g. recorded against a
    plant that is not applied) replays clean with exit 0."""
    from repro.explore.oracles import Violation
    from repro.explore.plan import generate_plan
    from repro.explore.shrink import write_artifact

    path = tmp_path / "benign.json"
    write_artifact(
        path,
        generate_plan(0, requests=8),
        Violation(oracle="prefix", detail="recorded elsewhere", time=1.0, event_index=5),
        plant=None,
    )
    assert main(["replay", str(path)]) == 0
    assert "no violation" in capsys.readouterr().out


def test_replay_missing_artifact_exits_2(capsys):
    assert main(["replay", "/no/such/file.json"]) == 2
    assert "no such artifact" in capsys.readouterr().err


def test_replay_malformed_artifact_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"version": 99}')
    assert main(["replay", str(bad)]) == 2
    assert "malformed" in capsys.readouterr().err


def test_explore_usage_error_exits_2(capsys):
    assert main(["explore", "--budget", "0"]) == 2


def test_sharded_explore_planted_bug_exits_1_and_replays(tmp_path, capsys):
    import json

    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--shards", "2", "--budget", "5", "--seed", "0",
         "--requests", "16", "--plant", "split-brain-decide", "--quiet",
         "--out", str(out)]
    )
    assert code == 1
    assert json.loads(out.read_text())["shards"] == 2

    capsys.readouterr()
    assert main(["replay", str(out)]) == 1
    assert "reproduces the recorded violation exactly" in capsys.readouterr().out


def test_sharded_explore_on_the_fast_path_exits_0(tmp_path, capsys):
    out = tmp_path / "repro.json"
    code = main(
        ["explore", "--shards", "2", "--fast-path", "--budget", "3",
         "--seed", "0", "--requests", "12", "--quiet", "--out", str(out)]
    )
    assert code == 0
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--destroy-group"],
        ["--plant", "split-brain-decide"],
        ["--impl-faults", "--shards", "2"],
    ],
    ids=["destroy-without-shards", "sharded-plant-without-shards", "impl-faults-sharded"],
)
def test_explore_rejects_features_the_deployment_size_lacks(argv, capsys):
    assert main(["explore", "--budget", "1", "--quiet", *argv]) == 2
    assert "--shards" in capsys.readouterr().err
