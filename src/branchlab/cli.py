"""End-to-end pipeline CLI: generate -> collect -> select -> train -> evaluate
-> compare -> report.

Artifacts live under the run root (``instances/``, ``episodes/``,
``selected/``, ``checkpoints/``, ``reports/``), each stage writing a manifest
stamped with (config hash, seed, feature-catalog version). Exit codes:
0 success, 1 usage, 2 data error, 3 partial-failure threshold exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

# The matrices are small, so BLAS threads only spin and wait on each other,
# the more so on a busy machine. One thread each unless the user chose a
# count; this has to run before numpy loads its BLAS (``import branchlab``
# loads nothing).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np

from .bnb import Budget, solve
from .config import Config, ConfigError
from .evaluation import (
    checkpoint_table_json,
    compare_policies,
    evaluate_policy,
    paired_sign_test,
    plot_data_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    select_best_checkpoint,
)
from .gnn import GcnnPolicy, TrainConfig, load_checkpoint, train_policy
from .instances import (
    InstanceFamilySpec,
    MilpInstance,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .observation import CATALOG_VERSION, state_digest
from .rules import STANDARD_POLICIES, HybridExpertPolicy
from .selection import EnvelopeConfig, compute_returns, select_top, train_envelope
from .trajectories import read_episode_file, read_states, write_episode_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stamp(cfg: Config) -> dict:
    return {
        "config_hash": cfg.hash(),
        "seed": cfg.get_int("run.seed"),
        "catalog_version": CATALOG_VERSION,
    }


def _write_manifest(directory: Path, cfg: Config, payload: dict) -> None:
    manifest = dict(_stamp(cfg))
    manifest.update(payload)
    (directory / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


def _read_manifest(directory: Path) -> dict:
    return json.loads((directory / "manifest.json").read_text())


def _instance_dir(cfg: Config) -> Path:
    return Path(cfg.get("run.root")) / "instances"


def _load_split(cfg: Config, split: str) -> list[MilpInstance]:
    manifest = _read_manifest(_instance_dir(cfg))
    _check_stamp(cfg, manifest, "instances")
    names = manifest["splits"][split]
    return [
        parse_instance((_instance_dir(cfg) / f"{name}.milp").read_text())
        for name in names
    ]


def _check_stamp(cfg: Config, artifact: dict, what: str) -> None:
    if artifact.get("config_hash") != cfg.hash():
        raise ConfigError(
            f"{what}: config hash {artifact.get('config_hash')} does not match "
            f"effective config {cfg.hash()}; refusing to mix artifacts"
        )


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_generate(cfg: Config) -> int:
    out = _instance_dir(cfg)
    out.mkdir(parents=True, exist_ok=True)
    cfg.write_effective(cfg.get("run.root"))
    seed = cfg.get_int("run.seed")
    family = cfg.get("family.name")
    n, m = cfg.get_int("family.n"), cfg.get_int("family.m")
    density = cfg.get_float("family.density")
    splits: dict[str, list[str]] = {}
    files: dict[str, str] = {}
    for code, split in enumerate(("train", "valid", "test")):
        count = cfg.get_int(f"family.{split}_count")
        names = []
        for i in range(count):
            spec = InstanceFamilySpec(
                family=family, n=n, m=m, density=density,
                seed=seed + 1_000_003 * (code * 1_000_000 + i),
                name=f"{split}_{i:04d}",
            )
            inst = generate_instance(spec)
            path = out / f"{inst.name}.milp"
            path.write_text(serialize_instance(inst))
            files[inst.name] = _sha256(path)
            names.append(inst.name)
        splits[split] = names
    _write_manifest(out, cfg, {"splits": splits, "files": files})
    print(f"generated {sum(len(v) for v in splits.values())} instances under {out}")
    return EXIT_OK


def cmd_collect(cfg: Config) -> int:
    instances = _load_split(cfg, "train")
    out = Path(cfg.get("run.root")) / "episodes"
    (out / "observations").mkdir(parents=True, exist_ok=True)
    budget = Budget(
        max_nodes=cfg.get_int("collect.max_nodes"),
        max_clock=cfg.get_float("collect.max_clock"),
    )
    seed = cfg.get_int("run.seed")
    files: dict[str, str] = {}
    counts: dict[str, int] = {}
    failures: list[str] = []
    for inst in instances:
        policy = HybridExpertPolicy(
            r0=cfg.get_float("hybrid.r0"),
            db0_mode=cfg.get("hybrid.db0_mode"),
            db0_value=cfg.get_float("hybrid.db0_value"),
            epsilon=cfg.get_float("pc.epsilon"),
        )
        try:
            result = solve(inst, policy, budget, seed=seed)
        except Exception as exc:
            print(f"collect: {inst.name} failed: {exc}", file=sys.stderr)
            failures.append(inst.name)
            continue
        path = out / f"{inst.name}.jsonl"
        provenance = dict(_stamp(cfg), rule_counts=policy.rule_counts)
        write_episode_file(path, result.episode, provenance=provenance)
        files[inst.name] = _sha256(path)
        counts[inst.name] = len(result.episode.transitions)
    _write_manifest(
        out, cfg,
        {
            "files": files,
            "transition_counts": counts,
            "total_transitions": sum(counts.values()),
            "failed": failures,
        },
    )
    print(
        f"collected {len(files)} episodes, {sum(counts.values())} transitions, "
        f"{len(failures)} failures"
    )
    if instances and len(failures) > 0.10 * len(instances):
        return EXIT_PARTIAL
    return EXIT_OK


def _load_episodes(cfg: Config):
    out = Path(cfg.get("run.root")) / "episodes"
    manifest = _read_manifest(out)
    _check_stamp(cfg, manifest, "episodes")
    return [read_episode_file(out / f"{name}.jsonl") for name in sorted(manifest["files"])]


def cmd_select(cfg: Config) -> int:
    episodes = _load_episodes(cfg)
    returns = compute_returns(episodes, cfg.get_float("select.gamma"))
    if not returns.entries:
        raise ConfigError("no transitions collected; nothing to select from")
    env_cfg = EnvelopeConfig(
        ridge=cfg.get_float("select.ridge"),
        penalty=cfg.get_float("select.penalty"),
        epochs=cfg.get_int("select.epochs"),
        lr=cfg.get_float("select.lr"),
        p=cfg.get_float("select.p"),
        seed=cfg.get_int("run.seed"),
    )
    params, env_report = train_envelope(returns, env_cfg)
    from .selection import envelope_values, shift_to_positive

    values = envelope_values(params, returns.entries)
    selected, threshold = select_top(returns.entries, values, env_cfg.p)
    lengths = {ep.instance: len(ep.transitions) for ep in episodes}
    positions = [e.t / lengths[e.episode] for e in selected]

    out = Path(cfg.get("run.root")) / "selected"
    out.mkdir(parents=True, exist_ok=True)
    dataset = out / "dataset.jsonl"
    lines = []
    for e in selected:
        lines.append(
            json.dumps(
                {
                    "obs": state_digest(e.obs, e.cand),
                    "set": list(e.cand),
                    "a": e.action,
                    "G": e.G,
                    "episode": e.episode,
                    "t": e.t,
                },
                sort_keys=True,
            )
        )
    dataset.write_text("\n".join(lines) + "\n")
    g_shift, v_shift = shift_to_positive(
        np.array([e.G for e in returns.entries]), values
    )
    report = dict(_stamp(cfg))
    report.update(
        {
            "p": env_cfg.p,
            "total": len(returns.entries),
            "selected": len(selected),
            "threshold": threshold,
            "final_loss": env_report.final_loss,
            "fit_epochs": env_report.epochs,
            "return_mean": env_report.return_mean,
            "return_std": env_report.return_std,
            "violation_fraction": env_report.violation_fraction,
            # selected states by relative position t / episode length, in fifths
            "selected_position_histogram": np.histogram(
                positions, bins=5, range=(0.0, 1.0))[0].tolist(),
            "selected_position_median": float(np.median(positions)),
            "columns": [
                {"episode": e.episode, "t": e.t, "G": e.G, "V": float(values[i]),
                 "G_shifted": float(g_shift[i]), "V_shifted": float(v_shift[i])}
                for i, e in enumerate(returns.entries)
            ],
        }
    )
    (out / "envelope_report.json").write_text(json.dumps(report, sort_keys=True, indent=1))
    _write_manifest(
        out, cfg,
        {"files": {"dataset.jsonl": _sha256(dataset)},
         "selected": len(selected), "total": len(returns.entries)},
    )
    print(f"selected {len(selected)} of {len(returns.entries)} transitions (p={env_cfg.p})")
    return EXIT_OK


def _load_dataset(cfg: Config):
    root = Path(cfg.get("run.root"))
    manifest = _read_manifest(root / "selected")
    _check_stamp(cfg, manifest, "selected dataset")
    lines = (root / "selected" / "dataset.jsonl").read_text().splitlines()
    rows = [json.loads(line) for line in lines]
    # each episode's states are read once; only the selected ones are checked
    states = {
        name: read_states(root / "episodes" / f"{name}.jsonl")
        for name in sorted({row["episode"] for row in rows})
    }
    batch = []
    for row in rows:
        ss, t, cand = states[row["episode"]], int(row["t"]), tuple(row["set"])
        if not (0 <= t < len(ss) and state_digest(ss[t], cand) == row["obs"]):
            raise ValueError(
                f"dataset row for episode {row['episode']!r}, transition {t}: "
                "the episode's state does not match the row's digest"
            )
        batch.append((ss[t], cand, int(row["a"])))
    return batch


def cmd_train(cfg: Config) -> int:
    batch = _load_dataset(cfg)
    out = Path(cfg.get("run.root")) / "checkpoints"
    out.mkdir(parents=True, exist_ok=True)
    train_cfg = TrainConfig(
        lr=cfg.get_float("train.lr"),
        batch_size=cfg.get_int("train.batch"),
        epochs=cfg.get_int("train.epochs"),
        seed=cfg.get_int("run.seed"),
        checkpoint_every=cfg.get_int("train.checkpoint_every"),
        valid_fraction=cfg.get_float("train.valid_fraction"),
    )
    result = train_policy(batch, train_cfg, out, extra_meta=_stamp(cfg))
    curve_path = out / "loss_curve.csv"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "train_loss", "valid_loss"])
    for epoch, train_l, valid_l in result.curve:
        writer.writerow([epoch, repr(train_l), repr(valid_l)])
    curve_path.write_text(buf.getvalue())
    files = {path.name: _sha256(path) for _cid, path in result.checkpoints}
    files["loss_curve.csv"] = _sha256(curve_path)
    _write_manifest(
        out, cfg,
        {"files": files, "checkpoints": [cid for cid, _ in result.checkpoints],
         "diverged": result.diverged, "epochs_run": len(result.curve)},
    )
    print(f"trained {len(result.curve)} epochs, {len(result.checkpoints)} checkpoints")
    return EXIT_OK if not result.diverged else EXIT_DATA


def _eval_budget(cfg: Config) -> Budget:
    return Budget(
        max_nodes=cfg.get_int("eval.max_nodes"),
        max_clock=cfg.get_float("eval.max_clock"),
        clock_mode=cfg.get("eval.clock_mode"),
    )


def cmd_evaluate(cfg: Config) -> int:
    ck_dir = Path(cfg.get("run.root")) / "checkpoints"
    manifest = _read_manifest(ck_dir)
    _check_stamp(cfg, manifest, "checkpoints")
    checkpoints = [(cid, ck_dir / f"{cid}.npz") for cid in manifest["checkpoints"]]
    valid_instances = _load_split(cfg, "valid")
    test_instances = _load_split(cfg, "test")
    budget = _eval_budget(cfg)
    seed = cfg.get_int("run.seed")
    workers = cfg.get_int("eval.workers")

    best_id, table = select_best_checkpoint(
        checkpoints, valid_instances, budget, workers=workers, seed=seed
    )
    out = Path(cfg.get("run.root")) / "reports"
    out.mkdir(parents=True, exist_ok=True)
    (out / "checkpoint_table.json").write_text(checkpoint_table_json(best_id, table))

    params = load_checkpoint(ck_dir / f"{best_id}.npz")
    policies = [GcnnPolicy(params, name=f"gcnn:{best_id}")]
    for name in cfg.get("eval.baselines").split(","):
        name = name.strip()
        if name:
            policies.append(STANDARD_POLICIES[name]())
    files = {"checkpoint_table.json": _sha256(out / "checkpoint_table.json")}
    for policy in policies:
        report = evaluate_policy(
            policy, test_instances, budget, workers=workers, seed=seed,
            fingerprint_extra=_stamp(cfg),
        )
        safe = policy.name.replace(":", "_").replace("/", "_")
        (out / f"eval_{safe}.json").write_text(report_to_json(report))
        (out / f"eval_{safe}.csv").write_text(report_to_csv(report))
        files[f"eval_{safe}.json"] = _sha256(out / f"eval_{safe}.json")
        files[f"eval_{safe}.csv"] = _sha256(out / f"eval_{safe}.csv")
    _write_manifest(out, cfg, {"files": files, "best_checkpoint": best_id})
    print(f"best checkpoint {best_id}; evaluated {len(policies)} policies on "
          f"{len(test_instances)} test instances")
    return EXIT_OK


def cmd_compare(cfg: Config) -> int:
    test_instances = _load_split(cfg, "test")
    budget = _eval_budget(cfg)
    seed = cfg.get_int("run.seed")
    policies = [
        STANDARD_POLICIES[name]()
        for name in ("most-infeasible", "pseudocost", "strong-branching",
                     "active-constraint", "random")
    ]
    rows = compare_policies(
        policies, test_instances, budget,
        workers=cfg.get_int("eval.workers"), seed=seed,
    )
    out = Path(cfg.get("run.root")) / "reports"
    out.mkdir(parents=True, exist_ok=True)
    payload = dict(_stamp(cfg))
    payload["leaderboard"] = [
        {k: v for k, v in row.items() if k != "report"} for row in rows
    ]
    (out / "leaderboard.json").write_text(json.dumps(payload, sort_keys=True, indent=1, allow_nan=True))
    print("policy ranking by mean cumulative reward:")
    for row in payload["leaderboard"]:
        print(f"  {row['policy']:<20} {row['mean_reward']:.6g}")
    return EXIT_OK


def cmd_report(cfg: Config, plot_data: bool = False) -> int:
    root = Path(cfg.get("run.root"))
    reports_dir = root / "reports"
    manifest = _read_manifest(reports_dir)
    _check_stamp(cfg, manifest, "reports")

    lines = ["run summary", "===========", f"config hash: {cfg.hash()}"]
    for stage in ("instances", "episodes", "selected", "checkpoints"):
        stage_dir = root / stage
        if (stage_dir / "manifest.json").exists():
            stage_manifest = _read_manifest(stage_dir)
            _check_stamp(cfg, stage_manifest, stage)
            lines.append(f"{stage}: ok (hash {stage_manifest['config_hash']})")

    best = manifest.get("best_checkpoint")
    if best:
        lines.append(f"best checkpoint: {best}")
    table_path = reports_dir / "checkpoint_table.json"
    if table_path.exists():
        table = json.loads(table_path.read_text())
        lines.append("checkpoint table (valid loss vs reward):")
        for entry in table["table"]:
            lines.append(
                f"  {entry['checkpoint']}: loss={entry['valid_loss']!r} "
                f"reward={entry['mean_reward']!r}"
            )

    curve_path = root / "checkpoints" / "loss_curve.csv"
    if curve_path.exists():
        rows = curve_path.read_text().splitlines()
        lines.append(f"training epochs: {max(len(rows) - 1, 0)}")
        copied = reports_dir / "loss_curve.csv"
        copied.write_text("\n".join(rows) + "\n")

    reports = {}
    for path in sorted(reports_dir.glob("eval_*.json")):
        report = reports[path.stem] = report_from_json(path.read_text())
        _check_stamp(cfg, report.fingerprint, path.name)
        agg = report.aggregate()
        lines.append(
            f"{path.stem}: mean reward {agg['mean_reward']!r}, "
            f"mean integral {agg['mean_integral']!r} over {agg['evaluated']} instances"
        )
        if plot_data:
            plot_dir = reports_dir / "plotdata"
            plot_dir.mkdir(exist_ok=True)
            for row in report.rows:
                if row.ok:
                    (plot_dir / f"{path.stem}_{row.instance}.csv").write_text(plot_data_csv(row))
    if "eval_random" in reports:
        # the paper's claim (acceptance criterion 8): the learned policy beats
        # random branching by a paired sign test
        for stem in (s for s in reports if s.startswith("eval_gcnn")):
            wins, losses, p = paired_sign_test(reports[stem], reports["eval_random"])
            lines.append(f"{stem} vs eval_random: W{wins}/L{losses} on cumulative "
                         f"reward, one-sided sign test p = {p:.4g}")

    summary = reports_dir / "summary.txt"
    summary.write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


# ---------------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="branchlab", description=__doc__)
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set", action="append", default=[], metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("generate", "collect", "select", "train", "evaluate", "compare"):
        sub.add_parser(name)
    report_parser = sub.add_parser("report")
    report_parser.add_argument(
        "--plot-data", action="store_true",
        help="emit (clock, dual bound) CSV series per instance",
    )
    args = parser.parse_args(argv)

    try:
        cfg = Config.load(args.config, args.set)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "collect":
            return cmd_collect(cfg)
        if args.command == "select":
            return cmd_select(cfg)
        if args.command == "train":
            return cmd_train(cfg)
        if args.command == "evaluate":
            return cmd_evaluate(cfg)
        if args.command == "compare":
            return cmd_compare(cfg)
        if args.command == "report":
            return cmd_report(cfg, plot_data=args.plot_data)
    except (ConfigError, ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    parser.error(f"unknown command {args.command!r}")
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
