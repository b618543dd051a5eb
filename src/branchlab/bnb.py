"""Branch-and-bound driver with best-bound node selection and a deterministic
pseudo-clock.

The clock advances by one unit per simplex iteration across every LP solve
the engine performs (node solves, strong-branching probes, dive estimates),
so identical inputs give identical traces regardless of machine. A wall-clock
mode exists for reporting but is not reproducible.

The root is the first child: it is queued by the same method as every other
node, as the child of a sentinel parent with no overrides and no bound. One
method (``_Engine._counted``) counts every LP the engine solves on the clock
and raises the typed error an iteration limit or an unbounded relaxation
calls for, so a fault raises where its LP is solved, a probed child's
included, whether or not the policy then branches on it.

A node's two children are one pair of LPs for the variable it branches on:
the pair the policy already probed (strong branching probes every candidate)
or else a fresh pair. So each child LP is solved, counted on the clock,
checked against its parent and folded into the pseudocosts once. A probe
solves its pair with the dual simplex (``SimplexSolver.probe_children``), a
fresh pair with the primal repair (``SimplexSolver.solve``): a cheaper
child would buy more nodes within a pseudo-clock budget, so the node
children of the policies that do not probe keep the pivots their budgets
were set with.

Whenever the incumbent improves, the engine sets the objective limit of
its solver (``SimplexSolver.objective_limit``) to the incumbent less
``PRUNE_TOL``, the margin by which a child or a queued node is pruned. Only
the dual reads the limit, and no node solve runs it: the root is solved
before any incumbent exists, and node children and dives start warm.
A probe whose dual objective reaches the limit stops there
(``LpStatus.CUTOFF``): the engine drops such a child as it drops an
infeasible one, leaves it out of the pseudocosts, as every child that is
not optimal, and strong branching scores it by its objective, a lower
bound on the child's.

The dual-bound trace holds (clock, best dual bound) events; the dual integral
is the area between the optimum and the bound curve over the horizon and is 0
when the instance is solved at the root. Per-decision rewards are the bound
areas accrued between consecutive decisions, so summed rewards telescope to
the area between the first and last decision clocks.
"""

from __future__ import annotations

import enum
import heapq
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .instances import MilpInstance, stable_key
from .observation import extract_observation
from .rules import BranchingPolicy, PseudocostStore, pc_update
from .simplex import (
    FEAS_TOL,
    INT_TOL,
    BoundOverride,
    LpSolution,
    LpStatus,
    NumericalInstabilityError,
    SimplexSolver,
)
from .trajectories import Episode, Transition

PRUNE_TOL = 1e-9    # a bound within this of the incumbent cannot improve it


class SolveStatus(enum.Enum):
    OPTIMAL = "optimal"
    BUDGET_EXHAUSTED = "budget-exhausted"
    INFEASIBLE = "infeasible"


class PolicyError(RuntimeError):
    pass


@dataclass(frozen=True)
class Budget:
    max_nodes: int | None = None
    max_clock: float | None = None
    clock_mode: str = "pseudo"      # "pseudo" | "wall"

    def __post_init__(self):
        if self.max_nodes is None and self.max_clock is None:
            raise ValueError("budget needs max_nodes and/or max_clock")
        if self.max_nodes is not None and self.max_nodes <= 0:
            raise ValueError("max_nodes must be positive")
        if self.max_clock is not None and self.max_clock <= 0:
            raise ValueError("max_clock must be positive")
        if self.clock_mode not in ("pseudo", "wall"):
            raise ValueError(f"clock_mode must be 'pseudo' or 'wall', got {self.clock_mode!r}")


class DualTrace:
    """Monotone best-dual-bound curve on the pseudo-clock.

    Events are (clock, bound) with strictly increasing clocks and
    nondecreasing bounds; the bound before the first event is read as the
    first event's value.
    """

    def __init__(self, horizon: float = 0.0, opt_value: float = math.nan):
        self.events: list[tuple[float, float]] = []
        self.horizon = horizon
        self.opt_value = opt_value

    def append(self, clock: float, bound: float) -> None:
        if self.events:
            last_clock, last_bound = self.events[-1]
            if bound < last_bound - 1e-15 * (1 + abs(last_bound)):
                # only an inexact LP lowers the bound: a numerical fault
                raise NumericalInstabilityError(
                    f"dual bound decreased: {last_bound} -> {bound} at clock {clock}"
                )
            if bound <= last_bound:
                return
            if clock == last_clock:
                self.events[-1] = (clock, bound)
                return
            if clock < last_clock:
                raise ValueError(f"clock moved backwards: {last_clock} -> {clock}")
        self.events.append((clock, bound))


def _validate_trace(trace: DualTrace) -> None:
    prev_c, prev_z = -math.inf, -math.inf
    for c, z in trace.events:
        if c <= prev_c:
            raise ValueError(f"trace clocks not strictly increasing at {c}")
        if z < prev_z:
            raise ValueError(f"trace bound decreased at clock {c}: {prev_z} -> {z}")
        prev_c, prev_z = c, z
    if trace.events and trace.events[-1][0] > trace.horizon:
        raise ValueError("trace event beyond the horizon")


def dual_integral(trace: DualTrace) -> float:
    """Area between the optimum and the bound curve over [0, horizon].

    Computed in complement form, sum of (opt - bound) * segment length, so a
    solve whose bound equals the optimum throughout yields exactly 0.
    """
    _validate_trace(trace)
    if not trace.events:
        return 0.0
    opt = trace.opt_value
    T = trace.horizon
    total = (opt - trace.events[0][1]) * trace.events[0][0]       # backfilled head
    for k, (c, z) in enumerate(trace.events):
        end = trace.events[k + 1][0] if k + 1 < len(trace.events) else T
        total += (opt - z) * (end - c)
    return total


def cumulative_reward(trace: DualTrace, constant: float) -> float:
    return constant - dual_integral(trace)


def area_under_bound(events: list[tuple[float, float]], a: float, b: float) -> float:
    """Integral of the (backfilled) bound curve over the clock window [a, b]."""
    if b <= a or not events:
        return 0.0
    total = 0.0
    starts = [0.0] + [c for c, _ in events[1:]]
    values = [z for _, z in events]
    for k, (s, z) in enumerate(zip(starts, values)):
        e = starts[k + 1] if k + 1 < len(starts) else math.inf
        lo, hi = max(s, a), min(e, b)
        if hi > lo:
            total += z * (hi - lo)
    return total


@dataclass
class BnbNode:
    id: int
    depth: int
    overrides: tuple[BoundOverride, ...]
    lp: LpSolution
    bound: float        # max of the parent's bound and this LP's objective
    candidate_set: tuple[int, ...] = ()


# the parent of the root: the root is queued as any other child
_ROOT = BnbNode(id=-1, depth=-1, overrides=(), lp=None, bound=-math.inf)


@dataclass
class SolveResult:
    status: SolveStatus
    incumbent: np.ndarray | None
    incumbent_value: float
    nodes_processed: int
    trace: DualTrace
    episode: Episode
    clock_used: float = 0.0
    lp_iterations: int = 0
    reward_constant: float = 0.0

    def dual_integral(self) -> float:
        return dual_integral(self.trace)

    def cumulative_reward(self) -> float:
        return cumulative_reward(self.trace, self.reward_constant)


def solve_result_to_json(result: SolveResult) -> str:
    """Canonical text serialization used by the determinism contract."""
    payload = {
        "status": result.status.value,
        "incumbent": None if result.incumbent is None else [repr(float(v)) for v in result.incumbent],
        "incumbent_value": repr(float(result.incumbent_value)),
        "nodes_processed": result.nodes_processed,
        "clock_used": repr(float(result.clock_used)),
        "lp_iterations": result.lp_iterations,
        "trace": {
            "events": [[repr(float(c)), repr(float(z))] for c, z in result.trace.events],
            "horizon": repr(float(result.trace.horizon)),
            "opt_value": repr(float(result.trace.opt_value)),
        },
        "reward_constant": repr(float(result.reward_constant)),
        "episode": [
            {
                "set": list(tr.cand),
                "a": tr.action,
                "r": repr(float(tr.reward)),
                "clock": repr(float(tr.clock)),
            }
            for tr in result.episode.transitions
        ],
    }
    return json.dumps(payload, sort_keys=True)


@dataclass
class ResetContext:
    instance: MilpInstance
    root: LpSolution
    solve: object       # (overrides, warm) -> LpSolution, clock-accounted


class NodeContext:
    """Everything a branching policy may consult at one node."""

    def __init__(self, engine, node: BnbNode):
        self._engine = engine
        self.instance = engine.inst
        self.node = node
        self.lp = node.lp
        self.candidates = node.candidate_set
        self.depth = node.depth
        self.pseudocosts = engine.pc
        self.rng = engine.rng
        self.dual_bound = engine.current_bound()
        self.probed: dict[int, tuple[LpSolution, LpSolution]] = {}
        self._obs = None

    @property
    def observation(self):
        if self._obs is None:
            self._obs = self._engine.observe(self.node)
        return self._obs

    def probe(self, j: int) -> tuple[LpSolution, LpSolution]:
        """The (down, up) children of branching on candidate j, solved warm
        from this node's LP; kept so that branching on j reuses them."""
        self.probed[j] = self._engine.probe(self.node, j)
        return self.probed[j]


class _Engine:
    def __init__(self, inst, policy, budget, seed, record_episode):
        self.inst = inst
        self.policy = policy
        self.budget = budget
        self.record_episode = record_episode
        self.solver = SimplexSolver(inst)
        self.pc = PseudocostStore(inst.num_vars)
        self.rng = np.random.default_rng([seed, stable_key(inst.name)])
        self.iterations = 0
        self._wall_start = time.perf_counter()
        self.trace = DualTrace()
        self.heap: list[tuple[float, int, BnbNode]] = []   # unique ids: nodes never compared
        self.next_id = 0
        self.incumbent: np.ndarray | None = None
        self.incumbent_value = math.inf
        self.nodes_processed = 0
        self.decisions: list[Transition] = []

    # -- clock ---------------------------------------------------------------

    def clock(self) -> float:
        if self.budget.clock_mode == "wall":
            return time.perf_counter() - self._wall_start
        return float(self.iterations)

    def _out_of_clock(self) -> bool:
        return self.budget.max_clock is not None and self.clock() >= self.budget.max_clock

    # -- LP plumbing -----------------------------------------------------------

    def _counted(self, sol: LpSolution) -> LpSolution:
        """Count an LP the engine solved on the clock and raise the error its
        status calls for; every LP passes through here once."""
        self.iterations += sol.iterations
        if sol.status is LpStatus.ITERATION_LIMIT:
            raise NumericalInstabilityError("LP hit the iteration limit")
        if sol.status is LpStatus.UNBOUNDED:
            raise ValueError("relaxation is unbounded; instance violates preconditions")
        return sol

    def _solve_lp(self, overrides, warm=None) -> LpSolution:
        return self._counted(self.solver.solve(overrides, warm=warm))

    def probe(self, node: BnbNode, j: int) -> tuple[LpSolution, LpSolution]:
        """The (down, up) children of branching on j, solved by the dual
        simplex from the node's LP."""
        pair = self.solver.probe_children(node.overrides, node.lp, j)
        return self._account(node, j, tuple(map(self._counted, pair)))

    def _account(
        self, node: BnbNode, j: int, pair: tuple[LpSolution, LpSolution],
    ) -> tuple[LpSolution, LpSolution]:
        """Check each optimal (down, up) child of branching on j against the
        parent (a tightened child cannot beat it beyond ``FEAS_TOL``) and fold
        it into the pseudocosts; this is the only place either happens."""
        parent_obj = node.lp.objective
        xj = float(node.lp.x[j])
        frac = xj - math.floor(xj)
        for child, direction, dist in zip(pair, ("down", "up"), (frac, 1.0 - frac)):
            if child.status is not LpStatus.OPTIMAL:
                continue
            if child.objective < parent_obj - FEAS_TOL * (1 + abs(parent_obj)):
                raise NumericalInstabilityError(
                    f"child bound {child.objective} beats parent {parent_obj}"
                )
            pc_update(self.pc, j, direction, parent_obj, child.objective, dist)
        return pair

    def observe(self, node: BnbNode):
        return extract_observation(
            self.inst, node.depth, node.lp, node.candidate_set,
            psi_up=self.pc.effective_up(), psi_down=self.pc.effective_down(),
        )

    # -- tree ----------------------------------------------------------------

    def _candidates(self, lp: LpSolution) -> tuple[int, ...]:
        p = self.inst.num_int
        if p == 0 or lp.x is None:
            return ()
        xs = lp.x[:p]
        frac = xs - np.floor(xs)
        score = np.minimum(frac, 1.0 - frac)
        return tuple(int(j) for j in np.where(score > INT_TOL)[0])

    def _try_incumbent(self, lp: LpSolution) -> None:
        p = self.inst.num_int
        x = lp.x.copy()
        if p:
            x[:p] = np.round(x[:p])
        value = float(self.inst.objective @ x)
        if value < self.incumbent_value - 1e-12:
            self.incumbent = x
            self.incumbent_value = value
            self.solver.objective_limit = value - PRUNE_TOL

    def _add_child(self, parent: BnbNode, overrides: tuple[BoundOverride, ...],
                   lp: LpSolution) -> None:
        """Queue the child that adds ``overrides`` to its parent's unless it is
        infeasible, cut off, integral or pruned. A child LP may come back a
        little below its parent's (within ``FEAS_TOL``); the child's bound,
        which keys the heap and so the dual-bound trace, is then the
        parent's, so the trace never decreases."""
        if lp.status is LpStatus.INFEASIBLE or lp.status is LpStatus.CUTOFF:
            return
        cands = self._candidates(lp)
        if not cands:
            self._try_incumbent(lp)
            return
        bound = max(parent.bound, lp.objective)
        if bound >= self.incumbent_value - PRUNE_TOL:
            return
        node = BnbNode(
            id=self.next_id, depth=parent.depth + 1,
            overrides=parent.overrides + overrides, lp=lp, bound=bound, candidate_set=cands,
        )
        self.next_id += 1
        heapq.heappush(self.heap, (bound, node.id, node))

    def _cleanup_heap(self) -> None:
        while self.heap and self.heap[0][0] >= self.incumbent_value - PRUNE_TOL:
            heapq.heappop(self.heap)

    def current_bound(self) -> float:
        self._cleanup_heap()
        if self.heap:
            return self.heap[0][0]
        return self.incumbent_value

    def _record_bound(self) -> None:
        bound = self.current_bound()
        if math.isfinite(bound):
            self.trace.append(self.clock(), bound)

    # -- main loop --------------------------------------------------------------

    def run(self) -> SolveResult:
        root = self._solve_lp(())
        if root.status is LpStatus.OPTIMAL:
            self.policy.reset(ResetContext(self.inst, root, self._solve_lp))
        self._add_child(_ROOT, (), root)
        self._record_bound()
        while self.heap:
            max_nodes = self.budget.max_nodes
            if (max_nodes is not None and self.nodes_processed >= max_nodes) or self._out_of_clock():
                return self._finish(SolveStatus.BUDGET_EXHAUSTED)
            node = heapq.heappop(self.heap)[2]
            self._expand(node)
            self.nodes_processed += 1
            self._record_bound()
        # the heap is empty, so the last recorded bound is the incumbent's
        return self._finish(
            SolveStatus.OPTIMAL if self.incumbent is not None else SolveStatus.INFEASIBLE
        )

    def _expand(self, node: BnbNode) -> None:
        ctx = NodeContext(self, node)
        decision_clock = self.clock()
        action = self.policy.select(ctx)
        if not isinstance(action, (int, np.integer)) or int(action) not in node.candidate_set:
            raise PolicyError(
                f"node {node.id}: policy returned {action!r}, "
                f"not in candidate set {node.candidate_set}"
            )
        action = int(action)
        if self.record_episode:
            # the reward is known only once the next decision is taken
            self.decisions.append(Transition(obs=ctx.observation, cand=node.candidate_set,
                                             action=action, reward=0.0, clock=decision_clock))
        xj = float(node.lp.x[action])
        split = (BoundOverride(action, "upper", math.floor(xj)),
                 BoundOverride(action, "lower", math.ceil(xj)))
        pair = ctx.probed.get(action)
        if pair is None:
            pair = self._account(node, action, tuple(
                self._solve_lp(node.overrides + (ov,), warm=node.lp) for ov in split))
        for ov, lp in zip(split, pair):
            self._add_child(node, (ov,), lp)

    def _finish(self, status: SolveStatus) -> SolveResult:
        end_clock = self.clock()
        if self.budget.max_clock is not None:
            horizon = float(self.budget.max_clock)
        else:
            horizon = end_clock
        trace = self.trace
        trace.events = [(c, z) for c, z in trace.events if c <= horizon]
        if status is SolveStatus.INFEASIBLE and self.incumbent is None:
            opt_value = math.nan
        elif self.incumbent is not None:
            opt_value = self.incumbent_value
        elif trace.events:
            opt_value = trace.events[-1][1]
        else:
            opt_value = math.nan
        trace.horizon, trace.opt_value = horizon, opt_value

        episode = Episode(
            instance=self.inst.name,
            transitions=self.decisions,
            trace_events=list(trace.events),
            horizon=horizon,
            opt_value=opt_value,
        )
        # every decision is taken before the horizon, so the events cut off
        # beyond it do not change the area between two decisions
        for prev, tr in zip(self.decisions, self.decisions[1:]):
            tr.reward = area_under_bound(trace.events, prev.clock, tr.clock)

        constant = horizon * opt_value if not math.isnan(opt_value) else 0.0
        return SolveResult(
            status=status,
            incumbent=self.incumbent,
            incumbent_value=self.incumbent_value,
            nodes_processed=self.nodes_processed,
            trace=trace,
            episode=episode,
            clock_used=end_clock,
            lp_iterations=self.iterations,
            reward_constant=constant,
        )


def solve(
    inst: MilpInstance,
    policy: BranchingPolicy,
    budget: Budget,
    seed: int = 0,
    record_episode: bool = True,
) -> SolveResult:
    """Run branch and bound on one instance under the given policy and budget."""
    engine = _Engine(inst, policy, budget, seed, record_episode)
    return engine.run()
