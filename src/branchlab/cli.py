"""End-to-end pipeline CLI: generate -> collect -> select -> train -> evaluate
-> report.

Artifacts live under the run root. Five stages each write a directory and
its ``manifest.json``, stamped with (config hash, seed, feature-catalog
version), holding the stage's wall time as ``wall_s`` and, under ``files``,
the sha256 of each file it writes, keyed by its path in the directory:

- ``generate``: ``instances/``, every ``<instance>.milp``;
- ``collect``: ``episodes/``, every ``<instance>.jsonl`` and its states,
  ``observations/<instance>.npz``;
- ``select``: ``selected/``, ``dataset.jsonl`` and ``envelope_report.json``;
  its manifest also pins, under ``episodes``, the episodes' ``files`` that
  it ranked;
- ``train``: ``checkpoints/``, every checkpoint ``.npz`` and ``loss_curve.csv``;
- ``evaluate``: ``reports/``, ``checkpoint_table.json`` and every
  ``eval_*.json`` and ``eval_*.csv``.

``report`` writes into ``reports/`` (``summary.txt``, which ranks the
``eval_*.json`` reports that the manifest names by mean reward, a copy of
``loss_curve.csv`` and ``plotdata/``) and writes no manifest. A stage reads
its inputs' manifests through ``_stage_input``, which refuses a config-hash
mismatch and a missing or changed file, and writes its own through
``_StageOutput``; ``train`` also refuses episodes that differ from those
``select`` pinned. The sha256 values are the run root's one integrity
check. Exit codes: 0 success, 1 usage, 2 data error, 3 partial-failure
threshold exceeded.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time
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
    evaluate_policy,
    paired_sign_test,
    plot_data_csv,
    report_from_json,
    report_to_csv,
    report_to_json,
    reward_rank,
    select_best_checkpoint,
)
from .gnn import GcnnError, GcnnPolicy, TrainConfig, load_checkpoint, train_policy
from .instances import (
    InstanceFamilySpec,
    generate_instance,
    parse_instance,
    serialize_instance,
)
from .observation import CATALOG_VERSION
from .rules import STANDARD_POLICIES, HybridExpertPolicy
from .selection import EnvelopeConfig, compute_returns, select_top, shift_to_positive, train_envelope
from .trajectories import observations_path, read_episode_file, read_states, write_episode_file

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_PARTIAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def _stamp(cfg: Config) -> dict:
    return {
        "config_hash": cfg.hash(),
        "seed": cfg.get_int("run.seed"),
        "catalog_version": CATALOG_VERSION,
    }


def _check_stamp(cfg: Config, artifact: dict, what: str) -> None:
    if artifact.get("config_hash") != cfg.hash():
        raise ConfigError(
            f"{what}: config hash {artifact.get('config_hash')} does not match "
            f"effective config {cfg.hash()}; refusing to mix artifacts"
        )


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stage_input(cfg: Config, stage: str, what: str | None = None) -> tuple[Path, dict]:
    """The directory ``stage`` under the run root and its manifest, refused
    (as ``what``, by default the stage) unless stamped with this config's
    hash and unless every file it names is there with the sha256 it records."""
    directory = Path(cfg.get("run.root")) / stage
    manifest = json.loads((directory / "manifest.json").read_text())
    _check_stamp(cfg, manifest, what or stage)
    for key, digest in manifest["files"].items():
        if _sha256(directory / key) != digest:
            raise ValueError(f"{directory / key}: contents differ from the sha256 "
                             f"that {directory / 'manifest.json'} records")
    return directory, manifest


class _StageOutput:
    """A stage's directory under the run root, created on construction, and
    its manifest: the stamp, the sha256 of each file written or recorded,
    keyed by its path in the directory, the stage's payload and its wall
    time since construction as ``wall_s``."""

    def __init__(self, cfg: Config, stage: str):
        self.started = time.perf_counter()
        self.stamp = _stamp(cfg)
        self.dir = Path(cfg.get("run.root")) / stage
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files: dict[str, str] = {}

    def write(self, name: str, text: str) -> None:
        path = self.dir / name
        path.write_text(text)
        self.files[name] = _sha256(path)

    def record(self, path: Path) -> None:
        """Hash a file that another function wrote."""
        self.files[path.relative_to(self.dir).as_posix()] = _sha256(path)

    def close(self, **payload) -> None:
        manifest = dict(self.stamp, files=self.files, **payload)
        manifest["wall_s"] = time.perf_counter() - self.started
        (self.dir / "manifest.json").write_text(json.dumps(manifest, sort_keys=True, indent=1))


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def cmd_generate(cfg: Config) -> int:
    out = _StageOutput(cfg, "instances")
    cfg.write_effective(cfg.get("run.root"))
    seed = cfg.get_int("run.seed")
    family = cfg.get("family.name")
    n, m = cfg.get_int("family.n"), cfg.get_int("family.m")
    density = cfg.get_float("family.density")
    splits: dict[str, list[str]] = {}
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
            out.write(f"{inst.name}.milp", serialize_instance(inst))
            names.append(inst.name)
        splits[split] = names
    out.close(splits=splits)
    print(f"generated {sum(len(v) for v in splits.values())} instances under {out.dir}")
    return EXIT_OK


def cmd_collect(cfg: Config) -> int:
    out = _StageOutput(cfg, "episodes")
    ins_dir, ins_manifest = _stage_input(cfg, "instances")
    instances = [parse_instance((ins_dir / f"{name}.milp").read_text())
                 for name in ins_manifest["splits"]["train"]]
    (out.dir / "observations").mkdir(exist_ok=True)
    budget = Budget(
        max_nodes=cfg.get_int("collect.max_nodes"),
        max_clock=cfg.get_float("collect.max_clock"),
    )
    seed = cfg.get_int("run.seed")
    hybrid = dict(
        r0=cfg.get_float("hybrid.r0"),
        db0_mode=cfg.get("hybrid.db0_mode"),
        db0_value=cfg.get_float("hybrid.db0_value"),
        epsilon=cfg.get_float("pc.epsilon"),
    )
    counts: dict[str, int] = {}
    failures: list[str] = []
    for inst in instances:
        policy = HybridExpertPolicy(**hybrid)
        try:
            result = solve(inst, policy, budget, seed=seed)
        except Exception as exc:
            print(f"collect: {inst.name} failed: {exc}", file=sys.stderr)
            failures.append(inst.name)
            continue
        path = out.dir / f"{inst.name}.jsonl"
        provenance = dict(out.stamp, rule_counts=policy.rule_counts)
        write_episode_file(path, result.episode, provenance=provenance)
        out.record(path)
        if result.episode.transitions:
            out.record(observations_path(path))
        counts[inst.name] = len(result.episode.transitions)
    out.close(
        transition_counts=counts,
        total_transitions=sum(counts.values()),
        failed=failures,
    )
    print(
        f"collected {len(counts)} episodes, {sum(counts.values())} transitions, "
        f"{len(failures)} failures"
    )
    if instances and len(failures) > 0.10 * len(instances):
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_select(cfg: Config) -> int:
    out = _StageOutput(cfg, "selected")
    ep_dir, ep_manifest = _stage_input(cfg, "episodes")
    episodes = [read_episode_file(ep_dir / key)
                for key in sorted(ep_manifest["files"]) if key.endswith(".jsonl")]
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
    _params, env_report = train_envelope(returns, env_cfg)
    values = env_report.values
    selected, threshold = select_top(returns.entries, values, env_cfg.p)
    lengths = {ep.instance: len(ep.transitions) for ep in episodes}
    positions = [e.t / lengths[e.episode] for e in selected]

    lines = []
    for e in selected:
        lines.append(
            json.dumps(
                {
                    "set": list(e.cand),
                    "a": e.action,
                    "G": e.G,
                    "episode": e.episode,
                    "t": e.t,
                },
                sort_keys=True,
            )
        )
    out.write("dataset.jsonl", "\n".join(lines) + "\n")
    g_shift, v_shift = shift_to_positive(
        np.array([e.G for e in returns.entries]), values
    )
    report = dict(out.stamp)
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
    out.write("envelope_report.json", json.dumps(report, sort_keys=True, indent=1))
    out.close(selected=len(selected), total=len(returns.entries), episodes=ep_manifest["files"])
    print(f"selected {len(selected)} of {len(returns.entries)} transitions (p={env_cfg.p})")
    return EXIT_OK


def _load_dataset(cfg: Config):
    """The selected (state, candidate set, action) triples, read from the
    episodes that ``select`` ranked and no others."""
    directory, manifest = _stage_input(cfg, "selected", "selected dataset")
    ep_dir, ep_manifest = _stage_input(cfg, "episodes")
    pinned, files = manifest.get("episodes", {}), ep_manifest["files"]
    changed = sorted(key for key in pinned.keys() | files.keys()
                     if pinned.get(key) != files.get(key))
    if changed:
        raise ValueError(f"{ep_dir / changed[0]}: differs from the episodes that "
                         f"{directory / 'manifest.json'} pins ({len(changed)} files differ)")
    rows = [json.loads(line) for line in (directory / "dataset.jsonl").read_text().splitlines()]
    states = {name: read_states(ep_dir / f"{name}.jsonl")
              for name in sorted({row["episode"] for row in rows})}
    return [(states[row["episode"]][int(row["t"])], tuple(row["set"]), int(row["a"]))
            for row in rows]


def cmd_train(cfg: Config) -> int:
    out = _StageOutput(cfg, "checkpoints")
    batch = _load_dataset(cfg)
    train_cfg = TrainConfig(
        lr=cfg.get_float("train.lr"),
        batch_size=cfg.get_int("train.batch"),
        epochs=cfg.get_int("train.epochs"),
        seed=cfg.get_int("run.seed"),
        checkpoint_every=cfg.get_int("train.checkpoint_every"),
        valid_fraction=cfg.get_float("train.valid_fraction"),
    )
    result = train_policy(batch, train_cfg, out.dir, extra_meta=out.stamp)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["epoch", "train_loss", "valid_loss"])
    for epoch, train_l, valid_l in result.curve:
        writer.writerow([epoch, repr(train_l), repr(valid_l)])
    out.write("loss_curve.csv", buf.getvalue())
    for _cid, path in result.checkpoints:
        out.record(path)
    out.close(checkpoints=[cid for cid, _ in result.checkpoints],
              diverged=result.diverged, epochs_run=len(result.curve))
    print(f"trained {len(result.curve)} epochs, {len(result.checkpoints)} checkpoints")
    return EXIT_OK if not result.diverged else EXIT_DATA


def cmd_evaluate(cfg: Config) -> int:
    out = _StageOutput(cfg, "reports")
    baselines = [name.strip() for name in cfg.get("eval.baselines").split(",") if name.strip()]
    for name in baselines:
        if name not in STANDARD_POLICIES:
            raise ConfigError(f"eval.baselines: unknown policy {name!r}; known policies: "
                              f"{', '.join(sorted(STANDARD_POLICIES))}")
    ck_dir, ck_manifest = _stage_input(cfg, "checkpoints")
    checkpoints = [(cid, ck_dir / f"{cid}.npz") for cid in ck_manifest["checkpoints"]]
    ins_dir, ins_manifest = _stage_input(cfg, "instances")
    valid_instances, test_instances = (
        [parse_instance((ins_dir / f"{name}.milp").read_text())
         for name in ins_manifest["splits"][split]]
        for split in ("valid", "test")
    )
    budget = Budget(
        max_nodes=cfg.get_int("eval.max_nodes"),
        max_clock=cfg.get_float("eval.max_clock"),
        clock_mode=cfg.get("eval.clock_mode"),
    )
    seed = cfg.get_int("run.seed")
    workers = cfg.get_int("eval.workers")

    best_id, table = select_best_checkpoint(
        checkpoints, valid_instances, budget, workers=workers, seed=seed
    )
    out.write("checkpoint_table.json", checkpoint_table_json(best_id, table))

    params = load_checkpoint(ck_dir / f"{best_id}.npz")
    policies = [GcnnPolicy(params, name=f"gcnn:{best_id}")]
    policies += [STANDARD_POLICIES[name]() for name in baselines]
    for policy in policies:
        report = evaluate_policy(
            policy, test_instances, budget, workers=workers, seed=seed,
            fingerprint_extra=out.stamp,
        )
        safe = policy.name.replace(":", "_").replace("/", "_")
        out.write(f"eval_{safe}.json", report_to_json(report))
        out.write(f"eval_{safe}.csv", report_to_csv(report))
    out.close(best_checkpoint=best_id)
    print(f"best checkpoint {best_id}; evaluated {len(policies)} policies on "
          f"{len(test_instances)} test instances")
    return EXIT_OK


def cmd_report(cfg: Config, plot_data: bool = False) -> int:
    reports_dir, manifest = _stage_input(cfg, "reports")
    root = reports_dir.parent

    lines = ["run summary", "===========", f"config hash: {cfg.hash()}"]
    for stage in ("instances", "episodes", "selected", "checkpoints"):
        if (root / stage / "manifest.json").exists():
            _stage_dir, stage_manifest = _stage_input(cfg, stage)
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
    for key in sorted(manifest["files"]):
        if key.startswith("eval_") and key.endswith(".json"):
            report = reports[key.removesuffix(".json")] = report_from_json(
                (reports_dir / key).read_text())
            _check_stamp(cfg, report.fingerprint, key)
    # best mean reward first; ties keep the names' order
    ranked = sorted(reports.items(),
                    key=lambda item: -reward_rank(item[1].aggregate()["mean_reward"]))
    for stem, report in ranked:
        agg = report.aggregate()
        lines.append(
            f"{stem}: mean reward {agg['mean_reward']!r}, "
            f"mean integral {agg['mean_integral']!r} over {agg['evaluated']} instances"
        )
        if plot_data:
            plot_dir = reports_dir / "plotdata"
            plot_dir.mkdir(exist_ok=True)
            for row in report.rows:
                if row.ok:
                    (plot_dir / f"{stem}_{row.instance}.csv").write_text(plot_data_csv(row))
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
    for name in ("generate", "collect", "select", "train", "evaluate"):
        sub.add_parser(name)
    report_parser = sub.add_parser("report")
    report_parser.add_argument(
        "--plot-data", action="store_true",
        help="emit (clock, dual bound) CSV series per instance",
    )
    args = vars(parser.parse_args(argv))

    try:
        cfg = Config.load(args.pop("config"), args.pop("set"))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    # looked up when called, so that a stage function replaced on the module
    # (as a tracer wraps it) is the one that runs; the subcommand's own
    # arguments (``report --plot-data``) are its keyword arguments
    stage = globals()[f"cmd_{args.pop('command')}"]
    try:
        return stage(cfg, **args)
    except (ConfigError, ValueError, OSError, KeyError, GcnnError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
