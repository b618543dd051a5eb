import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
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
    ov = _base_overrides(root, **{"eval.baselines": "most-infeasible,random"})

    assert _run("generate", ov) == 0
    manifest = json.loads((root / "instances" / "manifest.json").read_text())
    assert len(manifest["splits"]["train"]) == 10
    assert len(manifest["files"]) == 18
    assert (root / "config.effective.txt").exists()

    assert _run("collect", ov) == 0
    episodes = json.loads((root / "episodes" / "manifest.json").read_text())
    assert sorted(episodes["files"]) == sorted(
        [f"train_{i:04d}.jsonl" for i in range(10)]
        + [f"observations/{name}.npz" for name, count in episodes["transition_counts"].items()
           if count])
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
    # a report that no manifest names is not read
    reports = json.loads((root / "reports" / "manifest.json").read_text())
    named = sorted(key for key in reports["files"] if key.startswith("eval_")
                   and key.endswith(".json"))
    assert len(named) == 3
    (root / "reports" / "eval_stray.json").write_bytes(
        (root / "reports" / "eval_random.json").read_bytes())

    assert _run("report", ov, "--plot-data") == 0
    summary = (root / "reports" / "summary.txt").read_text()
    assert "best checkpoint" in summary
    assert "eval_stray" not in summary
    assert not list((root / "reports" / "plotdata").glob("eval_stray_*"))
    # the leaderboard: every named report, best mean reward first, each line's
    # number the report's own aggregate
    board = re.findall(r"^(eval_\S+): mean reward (\S+), mean integral", summary, re.M)
    assert sorted(stem for stem, _ in board) == [key.removesuffix(".json") for key in named]
    rewards = [json.loads((root / "reports" / f"{stem}.json").read_text())["aggregate"]
               ["mean_reward"] for stem, _ in board]
    assert [text for _, text in board] == [repr(r) for r in rewards]
    assert rewards == sorted(rewards, reverse=True)
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


def test_select_scores_with_the_fitted_envelope_once(tmp_path, monkeypatch):
    """``select`` ranks by the values that the envelope fit reports: those of
    the returned parameters, bit for bit, with the violation fraction taken
    from them; the report's V column holds them."""
    from branchlab import cli, gnn
    from branchlab.selection import train_envelope

    fits = []

    def recorded(*args, **kwargs):
        fits.append((args[0], *train_envelope(*args, **kwargs)))
        return fits[-1][1:]

    monkeypatch.setattr(cli, "train_envelope", recorded)
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 4, "select.epochs": 3})
    for command in ("generate", "collect", "select"):
        assert _run(command, ov) == 0, command
    (returns, params, report), = fits
    values = gnn.state_values(params, gnn.Pieces(e.obs for e in returns.entries))
    assert values.tobytes() == report.values.tobytes()
    G = np.array([e.G for e in returns.entries])
    assert report.violation_fraction == float(np.mean(values < G))
    columns = json.loads((root / "selected" / "envelope_report.json").read_text())["columns"]
    assert [c["V"] for c in columns] == values.tolist()


def test_unknown_baseline_fails_before_any_solve(tmp_path, capsys):
    """An unknown ``eval.baselines`` name is a config error raised before
    checkpoint selection, so no report is written."""
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 3, "family.valid_count": 2,
                                  "family.test_count": 2, "train.epochs": 2,
                                  "train.checkpoint_every": 1,
                                  "eval.baselines": "random,foo"})
    for command in ("generate", "collect", "select", "train"):
        assert _run(command, ov) == 0, command
    capsys.readouterr()
    assert _run("evaluate", ov) == 2
    err = capsys.readouterr().err
    assert "eval.baselines: unknown policy 'foo'" in err
    assert "known policies: active-constraint, " in err
    assert not (root / "reports" / "checkpoint_table.json").exists()


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
    for key in (key for key in manifest["files"] if key.endswith(".jsonl")):
        header = json.loads((root / "episodes" / key).read_text().splitlines()[0])
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
    _move_row(dataset)
    assert _run("train", ov) == 2
    assert f"{dataset}: contents differ from the sha256" in capsys.readouterr().err

    episode = root / "episodes" / f"{states[0].stem}.jsonl"
    episode.write_text("")
    assert _run("select", ov) == 2
    assert f"{episode}: contents differ from the sha256" in capsys.readouterr().err


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


def test_cli_import_does_not_load_the_process_pool():
    """Only ``eval.workers > 1`` runs a process pool, so importing the CLI
    does not load it (1.9 MB of RSS in every stage process)."""
    loaded = _child_import(
        "import json, sys, branchlab.cli\n"
        "print(json.dumps('concurrent.futures.process' in sys.modules))")
    assert loaded is False


def test_stage_manifests_record_wall_time(tmp_path):
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 3, "family.test_count": 2,
                                  "train.epochs": 2, "train.checkpoint_every": 1})
    dirs = {"collect": "episodes", "select": "selected", "train": "checkpoints",
            "evaluate": "reports"}
    assert _run("generate", ov) == 0
    for stage, directory in dirs.items():
        assert _run(stage, ov) == 0, stage
        wall = json.loads((root / directory / "manifest.json").read_text())["wall_s"]
        assert isinstance(wall, float) and math.isfinite(wall) and wall >= 0.0, stage
    # evaluation reports stay free of timings: reruns compare them byte for byte
    for path in (root / "reports").glob("eval_*.json"):
        assert "wall_s" not in path.read_text()


def test_every_manifest_hashes_what_it_names(tmp_path):
    """Each of the five stage manifests maps exactly the files its stage
    writes, keyed by their path in the stage directory, to their sha256, and
    ``select``'s manifest pins the episodes' files it ranked."""
    root = tmp_path / "run"
    ov = _base_overrides(root, **{"family.train_count": 3, "family.valid_count": 2,
                                  "family.test_count": 2, "train.epochs": 2,
                                  "train.checkpoint_every": 1})
    for command in ("generate", "collect", "select", "train", "evaluate", "report"):
        assert _run(command, ov) == 0, command
    expected = {
        "instances": {p.name: p for p in (root / "instances").glob("*.milp")},
        "episodes": {str(p.relative_to(root / "episodes")): p
                     for p in (root / "episodes").glob("**/*.*") if p.name != "manifest.json"},
        "selected": {name: root / "selected" / name
                     for name in ("dataset.jsonl", "envelope_report.json")},
        "checkpoints": {p.name: p for p in (root / "checkpoints").iterdir()
                        if p.name != "manifest.json"},
        "reports": {p.name: p for p in (root / "reports").iterdir()
                    if p.name == "checkpoint_table.json"
                    or (p.name.startswith("eval_") and p.suffix in (".json", ".csv"))},
    }
    assert len(expected["instances"]) == 7 and len(expected["episodes"]) == 6
    assert "observations/train_0000.npz" in expected["episodes"]
    assert "loss_curve.csv" in expected["checkpoints"]
    assert len(expected["checkpoints"]) == 3        # two checkpoints and the loss curve
    assert len(expected["reports"]) == 5            # the table, gcnn and random
    for stage, files in expected.items():
        manifest = json.loads((root / stage / "manifest.json").read_text())
        assert manifest["files"] == {
            key: hashlib.sha256(path.read_bytes()).hexdigest() for key, path in files.items()
        }, stage
    episodes = json.loads((root / "episodes" / "manifest.json").read_text())["files"]
    assert json.loads((root / "selected" / "manifest.json").read_text())["episodes"] == episodes


def test_main_runs_the_stage_function_the_module_holds(tmp_path, monkeypatch):
    """``main`` looks the stage function up on the module when it runs, so a
    function replaced there (as a tracer wraps it) is the one called."""
    from branchlab import cli

    calls = []
    monkeypatch.setattr(cli, "cmd_generate", lambda cfg: calls.append(cfg) or 0)
    assert main(["--set", f"run.root={tmp_path / 'run'}", "generate"]) == 0
    (cfg,) = calls
    assert cfg.get("run.root") == str(tmp_path / "run")
    assert not (tmp_path / "run").exists()


_SMALL = {"family.train_count": 3, "family.valid_count": 2, "family.test_count": 2,
          "train.epochs": 2, "train.checkpoint_every": 1}


@pytest.fixture(scope="module")
def trained_root(tmp_path_factory):
    """A run root after ``train``, which each test below leaves as it found it."""
    root = tmp_path_factory.mktemp("trained") / "run"
    ov = _base_overrides(root, **_SMALL)
    for command in ("generate", "collect", "select", "train"):
        assert _run(command, ov) == 0, command
    return root, ov


def _edit_milp(path):
    """Halve row 0's right-hand side (``ROW <i> <rhs> ...``)."""
    lines = path.read_text().splitlines()
    i = next(i for i, line in enumerate(lines) if line.startswith("ROW 0 "))
    fields = lines[i].split(" ")
    fields[2] = repr(float(fields[2]) / 2)
    lines[i] = " ".join(fields)
    path.write_text("\n".join(lines) + "\n")


def _edit_arrays(path, name):
    with np.load(path) as z:
        arrays = {k: z[k] for k in z.files}
    arrays[name].flat[0] += 0.5
    np.savez(path, **arrays)


def _move_row(path):
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[0]["t"] = 1 - min(rows[0]["t"], 1)     # another state of the same episode
    path.write_text("".join(json.dumps(row, sort_keys=True) + "\n" for row in rows))


@pytest.mark.parametrize("relative, edit, stage", [
    ("instances/train_0000.milp", _edit_milp, "collect"),
    ("episodes/observations/train_0000.npz", lambda p: _edit_arrays(p, "var"), "select"),
    ("episodes/observations/train_0000.npz", lambda p: _edit_arrays(p, "cons"), "train"),
    ("selected/dataset.jsonl", _move_row, "train"),
    ("checkpoints/ckpt_0001.npz", lambda p: _edit_arrays(p, "pol_b"), "evaluate"),
], ids=["milp-before-collect", "npz-before-select", "npz-before-train",
        "moved-row-before-train", "checkpoint-before-evaluate"])
def test_changed_file_is_refused_by_the_next_stage(trained_root, capsys, relative, edit, stage):
    """A file changed after its stage wrote it, though still well formed, is
    a data error naming the file in every stage that reads it."""
    root, ov = trained_root
    path = root / relative
    kept = path.read_bytes()
    edit(path)
    assert path.read_bytes() != kept
    capsys.readouterr()
    try:
        assert _run(stage, ov) == 2
        manifest = root / relative.split("/")[0] / "manifest.json"
        assert (f"error: {path}: contents differ from the sha256 that {manifest} records"
                in capsys.readouterr().err)
    finally:
        path.write_bytes(kept)


def test_episodes_collected_after_select_are_refused_by_train(tmp_path, monkeypatch, capsys):
    """``train`` reads states from the episodes that ``select`` ranked and
    pinned; episodes collected again since, with a valid manifest of their
    own, are a data error."""
    from branchlab import cli

    root = tmp_path / "run"
    ov = _base_overrides(root, **_SMALL)
    for command in ("generate", "collect", "select"):
        assert _run(command, ov) == 0, command
    pinned = json.loads((root / "selected" / "manifest.json").read_text())["episodes"]
    solve = cli.solve
    monkeypatch.setattr(cli, "solve", lambda inst, policy, budget, seed:
                        solve(inst, policy, budget, seed=seed + 1))
    assert _run("collect", ov) == 0
    files = json.loads((root / "episodes" / "manifest.json").read_text())["files"]
    changed = sorted(key for key in files if files[key] != pinned.get(key))
    assert changed
    capsys.readouterr()
    assert _run("train", ov) == 2
    assert (f"error: {root / 'episodes' / changed[0]}: differs from the episodes that "
            f"{root / 'selected' / 'manifest.json'} pins") in capsys.readouterr().err


def test_no_loadable_checkpoint_is_a_data_error(trained_root, monkeypatch, capsys):
    """Checkpoints whose bytes match their manifest but none of which loads
    end ``evaluate`` with exit 2, not a traceback."""
    from branchlab import evaluation
    from branchlab.gnn import GcnnError

    def refuse(path):
        raise GcnnError(f"cannot load {path}")

    root, ov = trained_root
    monkeypatch.setattr(evaluation, "load_checkpoint", refuse)
    capsys.readouterr()
    assert _run("evaluate", ov) == 2
    err = capsys.readouterr().err
    assert "error: every checkpoint failed to load; ckpt_0001: GcnnError: cannot load" in err
    assert not (root / "reports" / "checkpoint_table.json").exists()
