"""Parallel policy evaluation, checkpoint selection by reward, and reports.

Each instance is solved by an independent engine seeded from (seed, instance
name), so pseudo-clock results are identical for any worker count. Reports
order rows by instance name and serialize floats via repr, which makes the
JSON and CSV forms byte-stable across identical runs.

A report row is an ``EvalRow`` and its fields are the schema: the JSON form
holds every field and reads back into an equal row, and the CSV form holds
every field but the dual-bound series (``trace``, ``horizon``), in field
order. A new field reaches both forms by being declared.
"""

from __future__ import annotations

import csv
import io
import json
import math
import statistics
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

from .bnb import Budget, solve
from .gnn import GcnnError, GcnnPolicy, Pieces, load_checkpoint, policy_loss
from .rules import BranchingPolicy


@dataclass
class EvalRow:
    """One instance's evaluation result. The defaults are an error row's."""

    instance: str
    status: str
    dual_integral: float = math.nan
    cumulative_reward: float = math.nan
    reward_constant: float = math.nan
    nodes: int = 0
    clock_used: float = 0.0
    lp_iterations: int = 0
    trace: list[tuple[float, float]] = field(default_factory=list)
    horizon: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.error == "" and math.isfinite(self.cumulative_reward)


@dataclass
class EvalReport:
    policy: str
    rows: list[EvalRow]
    fingerprint: dict

    def ok_rows(self) -> list[EvalRow]:
        return [r for r in self.rows if r.ok]

    def aggregate(self) -> dict:
        ok = self.ok_rows()
        if not ok:
            return {
                "instances": len(self.rows), "evaluated": 0,
                "mean_reward": math.nan, "median_reward": math.nan,
                "mean_integral": math.nan, "mean_nodes": math.nan,
            }
        rewards = [r.cumulative_reward for r in ok]
        return {
            "instances": len(self.rows),
            "evaluated": len(ok),
            "mean_reward": sum(rewards) / len(rewards),
            "median_reward": statistics.median(rewards),
            "mean_integral": sum(r.dual_integral for r in ok) / len(ok),
            "mean_nodes": sum(r.nodes for r in ok) / len(ok),
        }


def _evaluate_one(payload) -> EvalRow:
    inst, policy, budget, seed = payload
    try:
        result = solve(inst, policy, budget, seed=seed, record_episode=False)
        integral = result.dual_integral()
        reward = result.reward_constant - integral
        return EvalRow(
            instance=inst.name,
            status=result.status.value,
            dual_integral=integral,
            cumulative_reward=reward,
            reward_constant=result.reward_constant,
            nodes=result.nodes_processed,
            clock_used=result.clock_used,
            lp_iterations=result.lp_iterations,
            trace=list(result.trace.events),
            horizon=result.trace.horizon,
        )
    except Exception as exc:               # per-instance failures become error rows
        return EvalRow(instance=inst.name, status="error", error=f"{type(exc).__name__}: {exc}")


def evaluate_policy(
    policy: BranchingPolicy,
    instances: list,
    budget: Budget,
    workers: int = 1,
    seed: int = 0,
    fingerprint_extra: dict | None = None,
) -> EvalReport:
    """Solve every instance under the policy; failures become error rows."""
    if workers < 1:
        raise ValueError("workers must be >= 1")
    payloads = [(inst, policy, budget, seed) for inst in instances]
    if workers == 1 or len(payloads) <= 1:
        rows = [_evaluate_one(p) for p in payloads]
    else:
        from concurrent.futures import ProcessPoolExecutor   # 1.9 MB of RSS: loaded only here
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_evaluate_one, payloads))
    rows.sort(key=lambda r: r.instance)
    fingerprint = {
        "policy": policy.name,
        "seed": seed,
        "max_nodes": budget.max_nodes,
        "max_clock": budget.max_clock,
        "clock_mode": budget.clock_mode,
        "reproducible": budget.clock_mode == "pseudo",
    }
    if fingerprint_extra:
        fingerprint.update(fingerprint_extra)
    return EvalReport(policy=policy.name, rows=rows, fingerprint=fingerprint)


def report_to_json(report: EvalReport) -> str:
    payload = {
        "fingerprint": report.fingerprint,
        "aggregate": report.aggregate(),
        "rows": [asdict(r) for r in report.rows],
    }
    return json.dumps(payload, sort_keys=True, allow_nan=True)


def report_from_json(text: str) -> EvalReport:
    """Inverse of ``report_to_json``; a field missing from a row takes its
    default, and a key that is not a field is a ValueError."""
    payload = json.loads(text)
    try:
        rows = [
            EvalRow(**dict(d, trace=[(c, z) for c, z in d.get("trace", [])]))
            for d in payload["rows"]
        ]
    except TypeError as exc:
        raise ValueError(f"report row: {exc}") from None
    return EvalReport(payload["fingerprint"]["policy"], rows, payload["fingerprint"])


# every row field but the dual-bound series, in field order
_CSV_FIELDS = tuple(f.name for f in fields(EvalRow) if f.name not in ("trace", "horizon"))


def report_to_csv(report: EvalReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_FIELDS)
    for r in report.rows:
        writer.writerow([getattr(r, name) for name in _CSV_FIELDS])
    return buf.getvalue()


def plot_data_csv(row: EvalRow) -> str:
    """The (clock, bound) series of one instance for external plotting."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["clock", "dual_bound"])
    for c, z in row.trace:
        writer.writerow([repr(float(c)), repr(float(z))])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Checkpoint selection: by mean cumulative reward, never by loss (the table
# still shows the loss so reward/loss divergence is observable).
# ---------------------------------------------------------------------------

@dataclass
class CheckpointEntry:
    checkpoint_id: str
    valid_loss: float
    mean_reward: float
    mean_integral: float
    report: EvalReport | None = None
    error: str = ""


def select_best_checkpoint(
    checkpoints: list[tuple[str, str | Path]],
    instances: list,
    budget: Budget,
    workers: int = 1,
    seed: int = 0,
    valid_batch=None,
) -> tuple[str, list[CheckpointEntry]]:
    """Evaluate every checkpoint and pick the highest mean cumulative reward.

    ``valid_batch`` (obs, cand, action) triples give each checkpoint's
    cross-entropy loss; otherwise the loss stored at save time
    is reported. Ties go to the later checkpoint, and a checkpoint that
    solved no instance ranks below every other. Raises ``GcnnError`` if none
    loads.
    """
    if not checkpoints:
        raise ValueError("no checkpoints given")
    if valid_batch is not None:
        valid_batch = Pieces(valid_batch)
    table: list[CheckpointEntry] = []
    for cid, path in checkpoints:
        try:
            params = load_checkpoint(path)
        except Exception as exc:
            table.append(
                CheckpointEntry(cid, math.nan, -math.inf, math.nan,
                                error=f"{type(exc).__name__}: {exc}")
            )
            continue
        if valid_batch is not None:
            loss = policy_loss(params, valid_batch)
        else:
            loss = float(params.meta.get("valid_loss", math.nan))
        report = evaluate_policy(
            GcnnPolicy(params, name=cid), instances, budget, workers=workers, seed=seed
        )
        agg = report.aggregate()
        table.append(
            CheckpointEntry(cid, loss, agg["mean_reward"], agg["mean_integral"], report)
        )
    if all(e.error for e in table):
        raise GcnnError(f"every checkpoint failed to load; {table[0].checkpoint_id}: "
                        f"{table[0].error}")
    best = None
    for entry in table:
        if entry.error:
            continue
        if best is None or reward_rank(entry.mean_reward) >= reward_rank(best.mean_reward):
            best = entry
    return best.checkpoint_id, table


def reward_rank(mean_reward: float) -> float:
    """A mean reward as a sort key, with NaN (no row solved) below every number."""
    return -math.inf if math.isnan(mean_reward) else mean_reward


def checkpoint_table_json(best_id: str, table: list[CheckpointEntry]) -> str:
    return json.dumps(
        {
            "selected": best_id,
            "selection_criterion": "mean_cumulative_reward",
            "table": [
                {
                    "checkpoint": e.checkpoint_id,
                    "valid_loss": e.valid_loss,
                    "mean_reward": e.mean_reward,
                    "mean_integral": e.mean_integral,
                    "error": e.error,
                }
                for e in table
            ],
        },
        sort_keys=True,
        allow_nan=True,
    )


def paired_sign_test(report: EvalReport, baseline: EvalReport) -> tuple[int, int, float]:
    """Wins and losses of ``report`` against ``baseline`` on cumulative reward,
    paired by instance over the rows both evaluated (ties dropped), and the
    one-sided sign-test p-value P(X >= wins), X ~ Binomial(wins + losses, 1/2)."""
    base = {r.instance: r.cumulative_reward for r in baseline.ok_rows()}
    pairs = [(r.cumulative_reward, base[r.instance])
             for r in report.ok_rows() if r.instance in base]
    wins = sum(a > b for a, b in pairs)
    losses = sum(a < b for a, b in pairs)
    trials = wins + losses
    tail = sum(math.comb(trials, k) for k in range(wins, trials + 1))
    return wins, losses, tail / 2**trials

