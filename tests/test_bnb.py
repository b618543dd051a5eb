import collections
import dataclasses
import math

import numpy as np
import pytest

from branchlab.bnb import (
    Budget,
    DualTrace,
    PolicyError,
    SolveStatus,
    area_under_bound,
    cumulative_reward,
    dual_integral,
    solve,
    solve_result_to_json,
)
from branchlab.instances import InstanceFamilySpec, generate_instance
from branchlab.rules import (
    STANDARD_POLICIES,
    BranchingPolicy,
    MostInfeasiblePolicy,
    StrongBranchingPolicy,
)
from branchlab.simplex import BoundOverride, LpStatus, NumericalInstabilityError

from .conftest import make_instance
from .oracles import brute_force_binary, brute_force_integer


def _trace(events, horizon, opt):
    tr = DualTrace(horizon=horizon, opt_value=opt)
    for c, z in events:
        tr.append(c, z)
    return tr


# -- dual integral -------------------------------------------------------------

def test_dual_integral_step_trace():
    # piecewise by hand: 10*5 - (0*4 + 5*6) = 20
    assert dual_integral(_trace([(0, 0.0), (4, 5.0)], 10, 5.0)) == 20.0


def test_dual_integral_flat_at_opt_is_zero():
    assert dual_integral(_trace([(3, 5.0)], 10, 5.0)) == 0.0


def test_dual_integral_empty_trace():
    assert dual_integral(_trace([], 10, 5.0)) == 0.0


def test_dual_integral_monotonicity_violation():
    tr = DualTrace(horizon=10, opt_value=5.0)
    tr.events = [(0, 3.0), (2, 1.0)]        # bypass append's own check
    with pytest.raises(ValueError, match="decreased"):
        dual_integral(tr)


def test_trace_append_rejects_decrease():
    tr = DualTrace(horizon=10, opt_value=5.0)
    tr.append(0, 3.0)
    with pytest.raises(NumericalInstabilityError, match="decreased"):
        tr.append(1, 2.0)


def test_cumulative_reward():
    tr = _trace([(0, 0.0), (4, 5.0)], 10, 5.0)
    assert cumulative_reward(tr, 100.0) == 80.0


def test_cumulative_reward_solved_at_root_equals_constant():
    tr = _trace([(2, 5.0)], 10, 5.0)
    assert cumulative_reward(tr, 42.0) == 42.0


def test_area_under_bound_backfill():
    events = [(2, 1.0), (5, 3.0)]
    # value 1 on [0,5), 3 from 5 on
    assert area_under_bound(events, 0, 2) == pytest.approx(2.0)
    assert area_under_bound(events, 0, 5) == pytest.approx(5.0)
    assert area_under_bound(events, 4, 6) == pytest.approx(1.0 + 3.0)
    assert area_under_bound(events, 6, 6) == 0.0


# -- engine ----------------------------------------------------------------------

def test_knapsack_all_policies_find_optimum(knapsack):
    for name, cls in STANDARD_POLICIES.items():
        res = solve(knapsack, cls(), Budget(max_nodes=1000), seed=1)
        assert res.status is SolveStatus.OPTIMAL, name
        assert res.incumbent_value == pytest.approx(-5.0, abs=1e-9), name
        assert res.trace.opt_value == pytest.approx(-5.0, abs=1e-9)
        # proof event: final bound equals the incumbent value
        assert res.trace.events[-1][1] == pytest.approx(res.incumbent_value, abs=1e-7)


def test_integral_root_means_no_transitions():
    # relaxation optimum is already integral: min x1 with x binary
    inst = make_instance("int-root", [1, 1], [[1, 1]], [2], [0, 0], [1, 1], 2)
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=10))
    assert res.status is SolveStatus.OPTIMAL
    assert len(res.episode.transitions) == 0
    assert res.dual_integral() == 0.0
    assert res.cumulative_reward() == res.reward_constant


def test_budget_one_node():
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=12, m=3, seed=2))
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=1))
    assert res.status is SolveStatus.BUDGET_EXHAUSTED
    assert len(res.trace.events) >= 1
    # one node expanded: at most one decision, taken at the root
    assert len(res.episode.transitions) <= 1
    for tr in res.episode.transitions:
        assert tr.action in tr.cand and tr.reward == 0.0


def test_policy_returning_non_candidate_is_hard_error(knapsack):
    class Rogue(BranchingPolicy):
        name = "rogue"

        def select(self, ctx):
            return 0 if 0 not in ctx.candidates else 1

    with pytest.raises(PolicyError) as err:
        solve(knapsack, Rogue(), Budget(max_nodes=10))
    assert "node" in str(err.value) and "candidate" in str(err.value)


def test_episode_chain_consistency():
    for seed in range(20):
        inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=12, m=3, seed=seed))
        res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=60), seed=5)
        if len(res.episode.transitions) >= 2:
            break
    ts = res.episode.transitions
    assert len(ts) >= 2
    for tr in ts:
        assert tr.action in tr.cand and math.isfinite(tr.reward)
    # decisions are recorded in the order they were taken
    assert [tr.clock for tr in ts] == sorted(tr.clock for tr in ts)
    # first reward anchors the window: exactly zero
    assert ts[0].reward == 0.0


def test_reward_telescoping():
    """Summed rewards equal the bound area between first and last decisions."""
    for seed in (3, 8, 21):
        inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=12, m=3, seed=seed))
        res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=200), seed=seed)
        ts = res.episode.transitions
        if len(ts) < 2:
            continue
        total = sum(t.reward for t in ts)
        expected = area_under_bound(res.trace.events, ts[0].clock, ts[-1].clock)
        assert total == pytest.approx(expected, rel=1e-9, abs=1e-9)


def test_reward_plus_tail_is_full_area():
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=12, m=3, seed=13))
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=200, max_clock=5000), seed=0)
    ts = res.episode.transitions
    assert len(ts) >= 2
    total_reward = sum(t.reward for t in ts)
    head = area_under_bound(res.trace.events, 0.0, ts[0].clock)
    tail = area_under_bound(res.trace.events, ts[-1].clock, res.trace.horizon)
    full = area_under_bound(res.trace.events, 0.0, res.trace.horizon)
    assert total_reward + head + tail == pytest.approx(full, rel=1e-9)
    # and the full area is the reward-complement of the integral
    assert res.reward_constant - res.dual_integral() == pytest.approx(full, rel=1e-9)


def test_determinism_bit_for_bit():
    inst = generate_instance(InstanceFamilySpec("item-placement-like", n=12, m=3, seed=6))
    a = solve(inst, STANDARD_POLICIES["hybrid-expert"](), Budget(max_nodes=80), seed=9)
    b = solve(inst, STANDARD_POLICIES["hybrid-expert"](), Budget(max_nodes=80), seed=9)
    assert solve_result_to_json(a) == solve_result_to_json(b)


def test_exactness_against_brute_force_sample():
    budget = Budget(max_nodes=100_000)
    for fam in ("multi-knapsack", "set-cover", "item-placement-like"):
        for seed in range(4):
            inst = generate_instance(InstanceFamilySpec(fam, n=11, m=3, seed=seed))
            expected, _ = brute_force_binary(inst)
            res = solve(inst, STANDARD_POLICIES["strong-branching"](), budget, seed=2)
            assert res.status is SolveStatus.OPTIMAL
            assert res.incumbent_value == pytest.approx(expected, abs=1e-6)


def test_incumbent_is_integral(knapsack):
    res = solve(knapsack, MostInfeasiblePolicy(), Budget(max_nodes=100))
    assert res.incumbent is not None
    frac = np.abs(res.incumbent[:2] - np.round(res.incumbent[:2]))
    assert np.all(frac <= 1e-6)


def test_trace_monotone_and_strictly_increasing_clocks():
    inst = generate_instance(InstanceFamilySpec("set-cover", n=14, m=8, seed=3))
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=300), seed=1)
    clocks = [c for c, _ in res.trace.events]
    bounds = [z for _, z in res.trace.events]
    assert clocks == sorted(clocks) and len(set(clocks)) == len(clocks)
    assert bounds == sorted(bounds)


def test_mixed_integer_instance():
    # one integer variable, one continuous: branching only on the integer part
    inst = make_instance(
        "mixed", [-3, -2], [[2, 1], [1, 3]], [3.5, 4.0], [0, 0], [2, 2], 1
    )
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=100))
    assert res.status is SolveStatus.OPTIMAL
    # oracle: fix x0 in {0, 1} and solve the 1-d remainder exactly
    best = math.inf
    for x0 in (0.0, 1.0):
        hi = min(2.0, 3.5 - 2 * x0, (4.0 - x0) / 3.0)
        if hi < 0:
            continue
        best = min(best, -3 * x0 - 2 * hi)
    assert res.incumbent_value == pytest.approx(best, abs=1e-7)


def test_wall_clock_mode_runs():
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=10, m=2, seed=1))
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=50, max_clock=30.0, clock_mode="wall"))
    assert res.status in (SolveStatus.OPTIMAL, SolveStatus.BUDGET_EXHAUSTED)
    assert res.clock_used > 0.0


def test_child_lp_below_parent_keeps_trace_monotone(monkeypatch):
    """A child LP may come back slightly below its parent's (within the
    simplex tolerance). Its node keeps the parent's bound, so the solve
    finishes and the dual-bound trace never decreases."""
    import dataclasses

    from branchlab import bnb

    stubbed = []

    class LowChildSolver(bnb.SimplexSolver):
        def solve(self, overrides=(), warm=None, iter_limit=100_000):
            sol = super().solve(overrides, warm=warm, iter_limit=iter_limit)
            if warm is not None and not stubbed and sol.status is bnb.LpStatus.OPTIMAL:
                sol = dataclasses.replace(sol, objective=warm.objective - 1e-9)
                stubbed.append(sol)
            return sol

    monkeypatch.setattr(bnb, "SimplexSolver", LowChildSolver)
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=10, m=3, seed=1))
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=10_000), seed=0)
    x = stubbed[0].x[:inst.num_int]
    assert np.any(np.abs(x - np.round(x)) > 1e-6), "the stubbed child must be queued"
    assert res.status is SolveStatus.OPTIMAL
    bounds = [z for _, z in res.trace.events]
    assert bounds == sorted(bounds)


# -- probed children -------------------------------------------------------------

class _UnrecordedProbes:
    """A node context whose probes call the engine's probe directly (the
    solver's ``probe_children``, clock and pseudocost update), so the context
    records nothing and branching solves both children again."""

    def __init__(self, ctx):
        self._ctx = ctx

    def __getattr__(self, name):
        return getattr(self._ctx, name)

    def probe(self, j):
        return self._ctx._engine.probe(self._ctx.node, j)


class ResolvingStrongBranching(StrongBranchingPolicy):
    """Strong branching's scores and choices, with the chosen children
    probed a second time, as the engine once solved them again."""

    def select(self, ctx):
        j = super().select(_UnrecordedProbes(ctx))
        ctx.probe(j)
        return j


def _sample_instances():
    for fam in ("multi-knapsack", "set-cover", "item-placement-like"):
        for seed in range(3):
            yield generate_instance(InstanceFamilySpec(fam, n=12, m=4, seed=seed))


def _recording_solver(monkeypatch, calls):
    """Make the engine's solver log (overrides, warm, iterations) per solve."""
    from branchlab import bnb

    class RecordingSolver(bnb.SimplexSolver):
        def solve(self, overrides=(), warm=None, iter_limit=100_000):
            sol = super().solve(overrides, warm=warm, iter_limit=iter_limit)
            calls.append((tuple(overrides), warm, sol.iterations))
            return sol

    monkeypatch.setattr(bnb, "SimplexSolver", RecordingSolver)


def test_strong_branching_solves_each_child_once(monkeypatch):
    """No LP is solved twice from the same warm solution with the same
    overrides, and the pseudo-clock counts exactly the solves made."""
    repeated_before = 0
    for inst in _sample_instances():
        for policy, reuse in ((StrongBranchingPolicy(), True),
                              (ResolvingStrongBranching(), False)):
            calls = []
            _recording_solver(monkeypatch, calls)
            res = solve(inst, policy, Budget(max_nodes=10_000), seed=3)
            assert res.status is SolveStatus.OPTIMAL, inst.name
            assert res.lp_iterations == sum(it for _, _, it in calls), inst.name
            # the logged warm solutions stay alive, so their ids are unique
            keys = [(ov, id(warm)) for ov, warm, _ in calls]
            if reuse:
                assert len(set(keys)) == len(keys), inst.name
            else:
                repeated_before += len(keys) - len(set(keys))
    assert repeated_before > 0, "the reference must re-solve probed children"


def _without_pseudocosts(obs):
    """The observation's arrays, leaving out the pseudocost columns 10 and 11."""
    return (np.delete(obs.var_features, [10, 11], axis=1).tobytes(),
            obs.cons_features.tobytes(), obs.edge_val.tobytes())


def test_reused_children_keep_the_tree():
    """Against strong branching that re-solves its chosen children: the same
    status, incumbent, node count, decisions, bound values and observations
    with every clock stamp no later. The reference folds the chosen
    children into the pseudocosts twice, so observations are compared
    without the pseudocost columns."""
    earlier = 0
    for inst in _sample_instances():
        new = solve(inst, StrongBranchingPolicy(), Budget(max_nodes=10_000), seed=3)
        ref = solve(inst, ResolvingStrongBranching(), Budget(max_nodes=10_000), seed=3)
        assert new.status is ref.status, inst.name
        assert new.incumbent_value == ref.incumbent_value, inst.name
        assert np.array_equal(new.incumbent, ref.incumbent), inst.name
        assert new.nodes_processed == ref.nodes_processed, inst.name
        assert [z for _, z in new.trace.events] == [z for _, z in ref.trace.events]
        assert all(a <= b for (a, _), (b, _) in zip(new.trace.events, ref.trace.events))
        assert new.clock_used <= ref.clock_used
        decisions = [(_without_pseudocosts(t.obs), t.cand, t.action)
                     for t in new.episode.transitions]
        assert decisions == [(_without_pseudocosts(t.obs), t.cand, t.action)
                             for t in ref.episode.transitions]
        assert all(a.clock <= b.clock for a, b in
                   zip(new.episode.transitions, ref.episode.transitions))
        earlier += new.clock_used < ref.clock_used
    assert earlier >= 5, earlier


def test_strong_branching_counts_each_pseudocost_once(monkeypatch):
    """Every optimal probed child updates the pseudocosts exactly once, the
    children the engine then branches into included."""
    from branchlab import bnb

    updates, optimal = [], []
    pc_update = bnb.pc_update

    def counting_update(*args):
        updates.append(args)
        pc_update(*args)

    monkeypatch.setattr(bnb, "pc_update", counting_update)

    class CountingSolver(bnb.SimplexSolver):
        def probe_children(self, overrides, parent, j, iter_limit=100_000):
            pair = super().probe_children(overrides, parent, j, iter_limit=iter_limit)
            optimal.extend(c for c in pair if c.status is LpStatus.OPTIMAL)
            return pair

    monkeypatch.setattr(bnb, "SimplexSolver", CountingSolver)
    for inst in _sample_instances():
        solve(inst, StrongBranchingPolicy(), Budget(max_nodes=10_000), seed=3)
        assert len(updates) == len(optimal), inst.name
    assert len(optimal) > 0


class ProbeFirst(BranchingPolicy):
    """Probe the lowest candidate and branch on it."""

    name = "probe-first"

    def select(self, ctx):
        j = min(ctx.candidates)
        ctx.probe(j)
        return j


def test_only_probed_children_take_the_dual(monkeypatch):
    """The dual simplex solves exactly the children a policy probes: both
    children of every node under a policy that probes its choice, none
    under one that does not probe."""
    from branchlab import simplex

    duals = []
    dual = simplex.SimplexSolver._dual

    def counting(self, state, iter_limit):
        duals.append(self.dual_probes)
        return dual(self, state, iter_limit)

    monkeypatch.setattr(simplex.SimplexSolver, "_dual", counting)
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=10, m=3, seed=1))
    res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=10_000), seed=0)
    assert res.nodes_processed > 1 and duals == []
    res = solve(inst, ProbeFirst(), Budget(max_nodes=10_000), seed=0)
    assert res.nodes_processed > 1 and duals == [True] * (2 * res.nodes_processed)


def _stub_probes(monkeypatch, change):
    from branchlab import bnb

    class StubbedSolver(bnb.SimplexSolver):
        def probe_children(self, overrides, parent, j, iter_limit=100_000):
            down, up = super().probe_children(overrides, parent, j, iter_limit=iter_limit)
            return change(parent, down), change(parent, up)

    monkeypatch.setattr(bnb, "SimplexSolver", StubbedSolver)


def test_probed_child_at_iteration_limit_raises(monkeypatch):
    _stub_probes(monkeypatch, lambda parent, child: dataclasses.replace(
        child, status=LpStatus.ITERATION_LIMIT, x=None))
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=10, m=3, seed=1))
    with pytest.raises(NumericalInstabilityError, match="iteration limit"):
        solve(inst, ProbeFirst(), Budget(max_nodes=100), seed=0)


def test_probed_child_beating_parent_raises(monkeypatch):
    def beat(parent, child):
        if child.status is not LpStatus.OPTIMAL:
            return child
        gap = 1e-3 * (1 + abs(parent.objective))
        return dataclasses.replace(child, objective=parent.objective - gap)

    _stub_probes(monkeypatch, beat)
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=10, m=3, seed=1))
    with pytest.raises(NumericalInstabilityError, match="beats parent"):
        solve(inst, ProbeFirst(), Budget(max_nodes=100), seed=0)


# -- general integers --------------------------------------------------------------

def _general_integer_instances(count, seed):
    """Pure integer instances with boxes [0 or 1, up to 4]: mixed-sign rows,
    nonnegative capacity rows and a few rows that cut everything off."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        n = int(rng.integers(3, 6))
        m = int(rng.integers(1, 4))
        lo = rng.integers(0, 2, n).astype(float)
        up = np.minimum(lo + rng.integers(1, 4, n), 4.0)
        A = rng.integers(-2, 6, (m, n)).astype(float)
        b = np.round((A @ ((lo + up) / 2)) * rng.uniform(0.5, 1.2, m) + rng.uniform(-1, 1, m), 1)
        c = -rng.integers(1, 9, n).astype(float)
        out.append(make_instance(f"gi{len(out)}", c, A, b, lo, up, n))
    return out


def test_general_integer_instances_match_enumeration(monkeypatch):
    """Every standard rule reaches the enumerated optimum of small general
    integer instances, where branching makes overrides other than 0 and 1."""
    calls = []
    _recording_solver(monkeypatch, calls)
    values = {name: set() for name in STANDARD_POLICIES}
    solved = infeasible = 0
    for inst in _general_integer_instances(20, seed=5):
        expected, _ = brute_force_integer(inst)
        for name, cls in STANDARD_POLICIES.items():
            start = len(calls)
            res = solve(inst, cls(), Budget(max_nodes=100_000), seed=1)
            values[name].update(ov.value for overrides, _, _ in calls[start:] for ov in overrides)
            if expected is None:
                assert res.status is SolveStatus.INFEASIBLE, (inst.name, name)
                infeasible += 1
                continue
            assert res.status is SolveStatus.OPTIMAL, (inst.name, name)
            assert res.incumbent_value == pytest.approx(expected, abs=1e-6), (inst.name, name)
            solved += 1
    assert all(seen - {0.0, 1.0} for seen in values.values()), values
    assert solved >= 15 * len(STANDARD_POLICIES), (solved, infeasible)


def test_strong_branching_probes_match_solve_on_general_integers(monkeypatch):
    """Strong branching, whose probes run the dual simplex, reaches the
    enumerated optimum of the general-integer instances above, and every
    probed child has the status of the same child solved by ``solve`` (the
    primal repair) from the same parent, and its objective within 1e-9
    relative."""
    from branchlab import bnb

    compared = collections.Counter()

    class CheckingSolver(bnb.SimplexSolver):
        def probe_children(self, overrides, parent, j, iter_limit=100_000):
            pair = super().probe_children(overrides, parent, j, iter_limit=iter_limit)
            xj = float(parent.x[j])
            split = (BoundOverride(j, "upper", math.floor(xj)),
                     BoundOverride(j, "lower", math.ceil(xj)))
            for child, ov in zip(pair, split):
                ref = self.solve(tuple(overrides) + (ov,), warm=parent)
                assert child.status is ref.status
                if child.status is LpStatus.OPTIMAL:
                    assert child.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
                compared[child.status] += 1
            return pair

    monkeypatch.setattr(bnb, "SimplexSolver", CheckingSolver)
    solved = 0
    for inst in _general_integer_instances(20, seed=5):
        expected, _ = brute_force_integer(inst)
        res = solve(inst, StrongBranchingPolicy(), Budget(max_nodes=100_000), seed=1)
        if expected is None:
            assert res.status is SolveStatus.INFEASIBLE, inst.name
            continue
        assert res.status is SolveStatus.OPTIMAL, inst.name
        assert res.incumbent_value == pytest.approx(expected, abs=1e-6), inst.name
        solved += 1
    assert solved >= 15, solved
    assert compared[LpStatus.OPTIMAL] >= 80 and compared[LpStatus.INFEASIBLE] >= 30, compared
