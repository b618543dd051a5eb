import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import branchlab
from branchlab.cli import main
from branchlab.config import Config, ConfigError

from .oracles import sign_test_p_value


def _base_overrides(root: Path, **extra) -> list[str]:
    values = {
        "run.root": str(root),
        "run.seed": "5",
        "family.n": "12",
        "family.m": "3",
        "family.train_count": "10",
        "family.valid_count": "4",
        "family.test_count": "4",
        "collect.max_nodes": "25",
        "collect.max_clock": "2500",
        "select.epochs": "8",
        "train.epochs": "8",
        "train.checkpoint_every": "4",
        "eval.max_nodes": "60",
        "eval.max_clock": "2500",
    }
    values.update({k: str(v) for k, v in extra.items()})
    args = []
    for k, v in values.items():
        args.extend(["--set", f"{k}={v}"])
    return args


def _run(command: str, overrides: list[str], *extra_args) -> int:
    return main([*overrides, command, *extra_args])


def test_full_pipeline_smoke(tmp_path):
    root = tmp_path / "run"
    ov = _base_overrides(root)

    assert _run("generate", ov) == 0
    manifest = json.loads((root / "instances" / "manifest.json").read_text())
    assert len(manifest["splits"]["train"]) == 10
    assert len(manifest["files"]) == 18
    assert (root / "config.effective.txt").exists()

    assert _run("collect", ov) == 0
    episodes = json.loads((root / "episodes" / "manifest.json").read_text())
    assert len(episodes["files"]) == 10
    assert episodes["total_transitions"] == sum(episodes["transition_counts"].values())
    assert episodes["total_transitions"] > 0

    assert _run("select", ov) == 0
    env_report = json.loads((root / "selected" / "envelope_report.json").read_text())
    import math

    assert env_report["selected"] == math.ceil(0.15 * env_report["total"])
    # ratio ranking reproducible from the emitted (G, V) columns
    cols = env_report["columns"]
    ratios = sorted(
        (c["G_shifted"] / c["V_shifted"] for c in cols), reverse=True
    )
    boundary = ratios[env_report["selected"] - 1]
    assert env_report["threshold"] == pytest.approx(boundary, rel=1e-12)
    dataset_lines = (root / "selected" / "dataset.jsonl").read_text().splitlines()
    assert len(dataset_lines) == env_report["selected"]

    assert _run("train", ov) == 0
    curve = (root / "checkpoints" / "loss_curve.csv").read_text().splitlines()
    assert curve[0] == "epoch,train_loss,valid_loss"
    assert len(curve) == 1 + 8

    assert _run("evaluate", ov) == 0
    table = json.loads((root / "reports" / "checkpoint_table.json").read_text())
    assert table["selected"] in [e["checkpoint"] for e in table["table"]]
    assert all("valid_loss" in e and "mean_reward" in e for e in table["table"])

    assert _run("report", ov, "--plot-data") == 0
    summary = (root / "reports" / "summary.txt").read_text()
    assert "best checkpoint" in summary
    # the criterion-8 statistic: paired W/L against random and its p-value
    (gcnn,) = sorted((root / "reports").glob("eval_gcnn_*.json"))
    ours, theirs = (
        {r["instance"]: r["cumulative_reward"] for r in json.loads(path.read_text())["rows"]}
        for path in (gcnn, root / "reports" / "eval_random.json")
    )
    wins = sum(ours[k] > theirs[k] for k in ours)
    losses = sum(ours[k] < theirs[k] for k in ours)
    p = sign_test_p_value(wins, wins + losses)
    assert (f"{gcnn.stem} vs eval_random: W{wins}/L{losses} on cumulative reward, "
            f"one-sided sign test p = {p:.4g}\n") in summary
    plot_files = list((root / "reports" / "plotdata").glob("*.csv"))
    assert plot_files
    assert plot_files[0].read_text().splitlines()[0] == "clock,dual_bound"
    # loss curve passthrough: epochs strictly increasing, values copied verbatim
    copied = (root / "reports" / "loss_curve.csv").read_text().splitlines()
    assert copied == curve


def test_generate_rerun_identical_manifest(tmp_path):
    ov1 = _base_overrides(tmp_path / "a")
    ov2 = _base_overrides(tmp_path / "b")
    assert _run("generate", ov1) == 0
    assert _run("generate", ov2) == 0
    m1 = json.loads((tmp_path / "a" / "instances" / "manifest.json").read_text())
    m2 = json.loads((tmp_path / "b" / "instances" / "manifest.json").read_text())
    assert m1["files"] == m2["files"]


def test_collect_rerun_identical_digests(tmp_path):
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 4})
    assert _run("generate", ov) == 0
    assert _run("collect", ov) == 0
    first = json.loads((root / "episodes" / "manifest.json").read_text())
    assert _run("collect", ov) == 0
    second = json.loads((root / "episodes" / "manifest.json").read_text())
    assert first["files"] == second["files"]


def test_mismatched_config_hash_refused(tmp_path):
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 3})
    assert _run("generate", ov) == 0
    # changing any config key invalidates downstream stages
    ov_changed = _base_overrides(root, **{"family.train_count": 3, "hybrid.r0": "0.7"})
    assert _run("collect", ov_changed) == 2


def test_execution_only_keys_not_hashed():
    """run.root and eval.workers only say where and how fast a run executes,
    so they leave the hash alone; a result-changing key moves it."""
    base = Config.load(None, ["run.root=runs/a", "eval.workers=1"])
    moved = Config.load(None, ["run.root=elsewhere/b", "eval.workers=2"])
    assert base.hash() == moved.hash()
    assert Config.load(None, ["eval.clock_mode=wall"]).hash() != base.hash()
    # the effective config still echoes every key
    assert "run.root = elsewhere/b" in moved.canonical_text()
    assert "eval.workers = 2" in moved.canonical_text()


def test_evaluate_accepts_other_worker_count(tmp_path):
    root = tmp_path / "run"
    small = {"family.train_count": 3, "family.valid_count": 2,
             "family.test_count": 2, "train.epochs": 4}
    ov = _base_overrides(root, **small, **{"eval.workers": 1})
    for command in ("generate", "collect", "select", "train"):
        assert _run(command, ov) == 0, command
    assert _run("evaluate", _base_overrides(root, **small, **{"eval.workers": 2})) == 0


def test_unknown_config_key_is_usage_error(tmp_path):
    assert main(["--set", "no.such.key=1", "generate"]) == 1


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_missing_artifacts_is_data_error(tmp_path):
    ov = _base_overrides(tmp_path / "empty")
    assert _run("collect", ov) == 2


def test_config_file_and_override_precedence(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("run.seed = 7\nhybrid.r0 = 0.25   # comment\n")
    cfg = Config.load(cfg_file, ["hybrid.r0=0.75"])
    assert cfg.get_int("run.seed") == 7
    assert cfg.get_float("hybrid.r0") == 0.75


def test_config_rejects_unknown_keys(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("does.not.exist = 1\n")
    with pytest.raises(ConfigError, match="unknown key"):
        Config.load(cfg_file)


def test_config_hash_key_order_independent(tmp_path):
    a = tmp_path / "a.cfg"
    b = tmp_path / "b.cfg"
    a.write_text("run.seed = 3\nhybrid.r0 = 0.5\n")
    b.write_text("hybrid.r0 = 0.5\nrun.seed = 3\n")
    assert Config.load(a).hash() == Config.load(b).hash()


def test_episode_headers_count_expert_rules(tmp_path):
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 4})
    assert _run("generate", ov) == 0
    assert _run("collect", ov) == 0
    manifest = json.loads((root / "episodes" / "manifest.json").read_text())
    for name in manifest["files"]:
        header = json.loads((root / "episodes" / f"{name}.jsonl").read_text().splitlines()[0])
        # each branching decision draws exactly one of the two rules
        counts = header["rule_counts"]
        assert sorted(counts) == ["ac", "pc"]
        assert counts["pc"] + counts["ac"] == header["transitions"]


def test_broken_episode_artifacts_are_data_errors(tmp_path, capsys):
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 3, "train.epochs": 2})
    for command in ("generate", "collect", "select"):
        assert _run(command, ov) == 0, command
    states = sorted((root / "episodes" / "observations").glob("*.npz"))
    assert states
    kept = {path: path.read_bytes() for path in states}

    for path in states:
        path.unlink()
    capsys.readouterr()
    assert _run("train", ov) == 2
    assert ".npz" in capsys.readouterr().err
    assert _run("select", ov) == 2
    assert states[0].name in capsys.readouterr().err
    for path, data in kept.items():
        path.write_bytes(data)

    dataset = root / "selected" / "dataset.jsonl"
    rows = [json.loads(line) for line in dataset.read_text().splitlines()]
    rows[0]["t"] = 1 - min(rows[0]["t"], 1)     # another state of the same episode
    dataset.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))
    assert _run("train", ov) == 2
    assert "does not match the row's digest" in capsys.readouterr().err

    episode = root / "episodes" / f"{states[0].stem}.jsonl"
    episode.write_text("")
    assert _run("select", ov) == 2
    assert "empty episode file" in capsys.readouterr().err


def test_train_digests_only_the_selected_states(tmp_path, monkeypatch):
    from branchlab import cli, trajectories

    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 3, "train.epochs": 1})
    for command in ("generate", "collect", "select"):
        assert _run(command, ov) == 0, command
    calls = []
    for module in (cli, trajectories):
        digest = module.state_digest
        monkeypatch.setattr(module, "state_digest",
                            lambda obs, cand, digest=digest: calls.append(1) or digest(obs, cand))
    assert _run("train", ov) == 0
    rows = (root / "selected" / "dataset.jsonl").read_text().splitlines()
    assert len(calls) == len(rows)


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child_import(code, **env):
    """Run ``code`` in a fresh interpreter that sees this checkout's package
    and no BLAS thread variables except ``env``; return its stdout as JSON."""
    package_parent = Path(branchlab.__file__).resolve().parent.parent
    child_env = {k: v for k, v in os.environ.items() if k not in _BLAS_VARS}
    child_env.update(env, PYTHONPATH=str(package_parent))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env=child_env)
    return json.loads(out.stdout)


def test_import_branchlab_does_not_load_numpy():
    loaded = _child_import(
        "import json, sys, branchlab; print(json.dumps('numpy' in sys.modules))")
    assert loaded is False


def test_cli_import_sets_only_unset_blas_thread_variables():
    got = _child_import(
        "import json, os, branchlab.cli\n"
        f"print(json.dumps({{v: os.environ.get(v) for v in {_BLAS_VARS!r}}}))",
        OMP_NUM_THREADS="3")
    assert got == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "3", "MKL_NUM_THREADS": "1"}
