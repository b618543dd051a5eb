import json
import math
from dataclasses import fields

import numpy as np
import pytest

from branchlab import gnn
from branchlab.bnb import Budget, DualTrace, dual_integral
from branchlab.evaluation import (
    EvalReport,
    EvalRow,
    compare_policies,
    evaluate_policy,
    paired_sign_test,
    report_from_json,
    report_to_csv,
    report_to_json,
    select_best_checkpoint,
)
from branchlab.instances import InstanceFamilySpec, generate_instance
from branchlab.rules import MostInfeasiblePolicy, RandomPolicy, StrongBranchingPolicy

from .conftest import make_instance
from .oracles import sign_test_p_value
from .test_gnn import collect_states


def _instances(family, count, n=10, m=3, base_seed=0):
    return [
        generate_instance(InstanceFamilySpec(family, n=n, m=m, seed=base_seed + i,
                                             name=f"{family}_{i:03d}"))
        for i in range(count)
    ]


def test_worker_count_invariance():
    instances = _instances("multi-knapsack", 8)
    budget = Budget(max_nodes=60, max_clock=4000)
    a = evaluate_policy(MostInfeasiblePolicy(), instances, budget, workers=1, seed=4)
    b = evaluate_policy(MostInfeasiblePolicy(), instances, budget, workers=4, seed=4)
    assert report_to_json(a) == report_to_json(b)
    assert report_to_csv(a) == report_to_csv(b)


def test_all_root_solved_gives_zero_integrals():
    # trivially integral roots: min sum x, no constraints binding
    instances = [
        make_instance(f"triv_{i}", [1, 1], [[1, 1]], [2], [0, 0], [1, 1], 2)
        for i in range(3)
    ]
    report = evaluate_policy(MostInfeasiblePolicy(), instances, Budget(max_nodes=10))
    assert all(r.dual_integral == 0.0 for r in report.rows)
    assert all(r.cumulative_reward == r.reward_constant for r in report.rows)


def test_row_integral_matches_trace_recomputation(knapsack):
    report = evaluate_policy(MostInfeasiblePolicy(), [knapsack], Budget(max_nodes=100))
    row = report.rows[0]
    trace = DualTrace(horizon=row.horizon, opt_value=row.reward_constant / row.horizon)
    for c, z in row.trace:
        trace.append(c, z)
    assert dual_integral(trace) == pytest.approx(row.dual_integral, rel=1e-12, abs=1e-12)


def test_reward_integral_consistency():
    instances = _instances("set-cover", 6, n=12, m=6)
    report = evaluate_policy(MostInfeasiblePolicy(), instances, Budget(max_nodes=80))
    for row in report.ok_rows():
        # reward is defined as constant minus integral; recomputing the
        # subtraction must reproduce the stored reward bit for bit
        assert row.cumulative_reward == row.reward_constant - row.dual_integral


def test_aggregate_recomputable_from_rows():
    instances = _instances("multi-knapsack", 5)
    report = evaluate_policy(MostInfeasiblePolicy(), instances, Budget(max_nodes=60))
    agg = report.aggregate()
    ok = report.ok_rows()
    assert agg["mean_reward"] == pytest.approx(
        sum(r.cumulative_reward for r in ok) / len(ok), abs=1e-12
    )
    assert agg["mean_integral"] == pytest.approx(
        sum(r.dual_integral for r in ok) / len(ok), abs=1e-12
    )


def test_error_rows_do_not_abort_batch():
    good = _instances("multi-knapsack", 2)

    class Exploding(MostInfeasiblePolicy):
        name = "exploding"

        def select(self, ctx):
            if ctx.instance.name.endswith("001"):
                raise RuntimeError("boom")
            return super().select(ctx)

    report = evaluate_policy(Exploding(), good, Budget(max_nodes=50))
    statuses = {r.instance: r.status for r in report.rows}
    assert statuses["multi-knapsack_001"] == "error"
    assert statuses["multi-knapsack_000"] == "optimal"
    assert report.aggregate()["evaluated"] == 1


def test_report_json_roundtrip():
    instances = _instances("multi-knapsack", 3)
    report = evaluate_policy(MostInfeasiblePolicy(), instances, Budget(max_nodes=40))
    again = report_from_json(report_to_json(report))
    assert report_to_json(again) == report_to_json(report)


def test_report_forms_follow_the_row_fields():
    """The JSON rows hold every ``EvalRow`` field and read back into equal
    rows, error rows included; the CSV holds every field but the dual-bound
    series, in field order."""

    class FailsOnOne(MostInfeasiblePolicy):
        def select(self, ctx):
            if ctx.instance.name.endswith("001"):
                raise RuntimeError("boom")
            return super().select(ctx)

    report = evaluate_policy(FailsOnOne(), _instances("multi-knapsack", 3), Budget(max_nodes=40))
    assert [r.status == "error" for r in report.rows] == [False, True, False]
    names = [f.name for f in fields(EvalRow)]
    text = report_to_json(report)
    assert all(sorted(row) == sorted(names) for row in json.loads(text)["rows"])
    # repr shows every field, the trace pairs' type and a NaN as NaN
    assert repr(report_from_json(text).rows) == repr(report.rows)
    with pytest.raises(ValueError, match="unexpected keyword argument 'nodez'"):
        report_from_json(text.replace('"nodes"', '"nodez"'))
    csv_lines = report_to_csv(report).splitlines()
    assert csv_lines[0].split(",") == [n for n in names if n not in ("trace", "horizon")]
    assert len(csv_lines) == 1 + len(report.rows)


def test_single_checkpoint_selected(tmp_path):
    params = gnn.init_params(0)
    path = tmp_path / "only.npz"
    gnn.save_checkpoint(path, params, {"valid_loss": 0.5})
    best, table = select_best_checkpoint(
        [("only", path)], _instances("multi-knapsack", 2), Budget(max_nodes=30)
    )
    assert best == "only"
    assert len(table) == 1
    assert table[0].valid_loss == 0.5


def test_checkpoint_tie_goes_to_later(tmp_path):
    params = gnn.init_params(0)
    pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
    gnn.save_checkpoint(pa, params, {"valid_loss": 0.4})
    gnn.save_checkpoint(pb, params, {"valid_loss": 0.6})
    best, table = select_best_checkpoint(
        [("a", pa), ("b", pb)], _instances("multi-knapsack", 2), Budget(max_nodes=30)
    )
    # identical parameters give identical rewards: the later checkpoint wins
    assert table[0].mean_reward == table[1].mean_reward
    assert best == "b"


def test_checkpoint_that_solved_nothing_is_not_selected(tmp_path, monkeypatch):
    """A checkpoint whose every validation row failed has a NaN mean reward;
    loaded first, it must still lose to a checkpoint that solved something."""
    from branchlab import evaluation

    evaluate = evaluation.evaluate_policy

    def first_fails(policy, instances, budget, **kwargs):
        report = evaluate(policy, instances, budget, **kwargs)
        if policy.name == "a":
            report.rows = [EvalRow(r.instance, "error", error="RuntimeError: boom")
                           for r in report.rows]
        return report

    monkeypatch.setattr(evaluation, "evaluate_policy", first_fails)
    params = gnn.init_params(0)
    pa, pb = tmp_path / "a.npz", tmp_path / "b.npz"
    gnn.save_checkpoint(pa, params, {"valid_loss": 0.4})
    gnn.save_checkpoint(pb, params, {"valid_loss": 0.6})
    best, table = select_best_checkpoint(
        [("a", pa), ("b", pb)], _instances("multi-knapsack", 2), Budget(max_nodes=30)
    )
    assert math.isnan(table[0].mean_reward) and math.isfinite(table[1].mean_reward)
    assert best == "b"


def test_all_checkpoints_failing_raises(tmp_path):
    bad = tmp_path / "bad.npz"
    bad.write_bytes(b"not a checkpoint")
    with pytest.raises(RuntimeError, match="every checkpoint"):
        select_best_checkpoint([("bad", bad)], _instances("multi-knapsack", 1),
                               Budget(max_nodes=10))


def build_loss_reward_divergence(tmp_path, n_instances=8):
    """Two checkpoints whose loss and reward orderings disagree.

    One policy imitates strong branching, the other imitates the *worst*
    strong-branching candidate at every state; measuring validation loss on
    the mislabeled transitions makes the misbehaving checkpoint look better
    by loss while its in-tree reward is worse.
    """
    from branchlab.bnb import solve
    from branchlab.rules import BranchingPolicy, score_product
    from branchlab.simplex import LpStatus

    class WorstStrongBranching(BranchingPolicy):
        name = "worst-strong-branching"

        def select(self, ctx):
            worst, worst_score = None, math.inf
            for j in sorted(ctx.candidates):
                down, up = ctx.probe(j)
                gd = down.objective - ctx.lp.objective if down.status is LpStatus.OPTIMAL else 1e6
                gu = up.objective - ctx.lp.objective if up.status is LpStatus.OPTIMAL else 1e6
                score = score_product(gd, gu)
                if score < worst_score:
                    worst, worst_score = j, score
            return worst

    instances = _instances("multi-knapsack", n_instances, n=14, m=3, base_seed=40)
    collect_budget = Budget(max_nodes=25)
    good_batch, bad_batch = [], []
    for inst in instances:
        res = solve(inst, StrongBranchingPolicy(), collect_budget, seed=0)
        good_batch.extend((t.obs, t.cand, t.action) for t in res.episode.transitions)
        res = solve(inst, WorstStrongBranching(), collect_budget, seed=0)
        bad_batch.extend((t.obs, t.cand, t.action) for t in res.episode.transitions)

    cfg = gnn.TrainConfig(lr=0.03, batch_size=16, epochs=40, seed=0,
                          checkpoint_every=40, valid_fraction=0.0)
    good = gnn.train_policy(good_batch, cfg, tmp_path / "good")
    bad = gnn.train_policy(bad_batch, cfg, tmp_path / "bad")
    pa = tmp_path / "ckpt_good.npz"
    pb = tmp_path / "ckpt_bad.npz"
    gnn.save_checkpoint(pa, good.params, {})
    gnn.save_checkpoint(pb, bad.params, {})
    return instances, [("good", pa), ("bad", pb)], bad_batch


def test_selection_by_reward_overrides_loss(tmp_path):
    instances, checkpoints, mislabeled = build_loss_reward_divergence(tmp_path)
    budget = Budget(max_nodes=4000, max_clock=1500)
    best, table = select_best_checkpoint(
        checkpoints, instances, budget, valid_batch=mislabeled, seed=0
    )
    by_id = {e.checkpoint_id: e for e in table}
    assert by_id["bad"].valid_loss < by_id["good"].valid_loss
    assert by_id["good"].mean_reward > by_id["bad"].mean_reward
    assert best == "good"


def test_compare_policy_against_itself():
    instances = _instances("multi-knapsack", 4)
    rows = compare_policies(
        [MostInfeasiblePolicy(), MostInfeasiblePolicy()], instances, Budget(max_nodes=40)
    )
    assert len(rows) == 2
    assert rows[0]["mean_reward"] == rows[1]["mean_reward"]


def test_sb_beats_random_on_node_count():
    instances = _instances("multi-knapsack", 50, n=10, m=3, base_seed=100)
    budget = Budget(max_nodes=100_000)
    sb = evaluate_policy(StrongBranchingPolicy(), instances, budget, seed=1)
    rnd = evaluate_policy(RandomPolicy(), instances, budget, seed=1)
    sb_nodes = {r.instance: r.nodes for r in sb.rows}
    rnd_nodes = {r.instance: r.nodes for r in rnd.rows}
    wins = sum(1 for k in sb_nodes if sb_nodes[k] < rnd_nodes[k])
    trials = sum(1 for k in sb_nodes if sb_nodes[k] != rnd_nodes[k])
    assert sum(sb_nodes.values()) <= sum(rnd_nodes.values())
    assert sign_test_p_value(wins, trials) < 0.05


def test_paired_sign_test_matches_the_oracle():
    """Wins and losses pair rows by instance over the rows both reports
    evaluated; ties, error rows and unmatched instances drop out, and the
    p-value is the oracle's one-sided binomial tail."""
    rng = np.random.default_rng(8)
    for trial in range(40):
        count = int(rng.integers(0, 60))
        ours = rng.integers(-3, 4, count).astype(float)
        theirs = rng.integers(-3, 4, count).astype(float)
        rows = [EvalRow(f"i{k}", "optimal", cumulative_reward=v) for k, v in enumerate(ours)]
        base = [EvalRow(f"i{k}", "optimal", cumulative_reward=v) for k, v in enumerate(theirs)]
        dropped = set()
        for k in range(count):
            u = rng.random()
            if u < 0.05:
                rows[k] = EvalRow(f"i{k}", "error", error="boom")
                dropped.add(k)
            elif u < 0.1:
                base[k] = EvalRow(f"j{k}", "optimal", cumulative_reward=0.0)
                dropped.add(k)
        kept = [k for k in range(count) if k not in dropped]
        wins = sum(ours[k] > theirs[k] for k in kept)
        losses = sum(ours[k] < theirs[k] for k in kept)
        got = paired_sign_test(EvalReport("a", rows, {}), EvalReport("b", base, {}))
        assert got[:2] == (wins, losses), trial
        assert got[2] == pytest.approx(sign_test_p_value(wins, wins + losses), rel=1e-12)
    # past 1023 trials 2.0**trials overflows a float; the exact tail does not
    rows = [EvalRow(f"i{k}", "optimal", cumulative_reward=float(k % 3 != 0))
            for k in range(1500)]
    base = [EvalRow(f"i{k}", "optimal", cumulative_reward=0.5) for k in range(1500)]
    wins, losses, p = paired_sign_test(EvalReport("a", rows, {}), EvalReport("b", base, {}))
    assert (wins, losses) == (1000, 500) and 0.0 <= p < 1e-30
