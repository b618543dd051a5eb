"""Bounded-variable primal and dual simplex over dense desk-scale LPs.

The solver works on the slack form ``A x + s = b`` with ``l <= x <= u`` and
``s >= 0``, on ``W = [A I]`` alone: there are no artificial columns.
Nonbasic variables sit at a finite bound (free variables at 0). Every solve
starts the same way: from the warm solution's basis, or from the slack basis
when there is none or it is malformed or singular (``_start``); each
out-of-bound basic variable is then repaired in turn (``_repair``), unless
the dual simplex below takes the start, and phase two runs. A repair drives
one variable to its violated bound while those still waiting are relaxed to
+-inf on their violated side, so the working region holds every feasible
point and, by convexity, a repair that stops short of the bound proves the
LP infeasible. A repaired variable keeps its true bounds, so each is
repaired at most once: a bounded-variable phase 1 (Maros, Computational
Techniques of the Simplex Method, 2003). A branch-and-bound child starts
with exactly one repair.

Two kinds of start take a bounded dual simplex instead (``_dual``;
Koberstein, PhD thesis, Paderborn 2005): a solve called with ``dual=True``,
as ``probe_children`` calls it for strong branching's probes, warm-started
from their parent's optimal basis; and a cold start (no warm solution)
whose slack basis is dual feasible, as at the set-cover and item-placement
roots (costs >= 0, structurals at their lower bounds, covering rows
violated). Dual pivots move the out-of-bound basic variables to their
bounds, keeping every reduced cost's sign, until the point is feasible;
``_phase_two`` then prices once more, refactorizes and audits, as after a
repair. The start's reduced costs are computed once, to check its dual
feasibility, and handed to ``_dual``. The dual's choices are deterministic:

- the leaving row is chosen by dual steepest edge (Forrest and Goldfarb,
  Math. Prog. 57, 1992): the violated row (beyond ``FEAS_TOL``) of largest
  ``violation**2 / |row of Binv|**2``, ties to the lowest row
  (``_leaving_row``). The solver keeps ``Binv`` explicitly, so the weights
  are exact and need no update recurrence; they cost one O(m^2) pass over
  the violated rows, the order of each pivot's rank-1 update. A lone
  violated row, as at every probe's first pivot, is taken without weights;
- the entering column is the least ratio of reduced cost to pivot-row
  entry among the columns that move the leaving variable toward its bound
  with ``|pivot| > _PIVOT_TOL``; among ratios within 1e-12 of the least,
  the largest ``|pivot|`` wins, ties to the lowest index
  (``_dual_ratio_test``);
- bound flipping (the long-step ratio test): a boxed column the ratio test
  returns is passed, flipped to its other bound, when the leaving row would
  still be violated by more than ``FEAS_TOL`` after its move of
  ``|pivot| * width``; the ratio test is then asked again, and the flipped
  column, no longer eligible, gives way to the next breakpoint. The first
  column that cannot be passed enters, and the flips move the point at
  once. The threshold is ``_leaving_row``'s: with 0 in its place, a child
  whose violation equals the sum of the passable widths would be declared
  infeasible whenever rounding left a remainder after the last of them;
- no eligible column, before or after flips, proves the child infeasible;
- after 3(n+m) pivots without a rise in the dual objective, both choices
  take the lowest index and nothing flips, as the primal switches to
  Bland's rule.

A dual pivot counts one iteration however many columns it flips, as a
primal pivot counts one: the flips are arithmetic inside one ratio test.
The dual objective ``cost @ x`` of a dual feasible basis bounds the child's
optimum from below, up to the dual tolerance ``_DUAL_TOL`` on the reduced
costs. So once a pivot takes it to ``objective_limit`` or above, the solve
stops with ``LpStatus.CUTOFF`` and that objective, without a point or a
basis: the branch-and-bound engine sets its solver's limit to its
incumbent less its prune tolerance, and a child that cannot beat the
incumbent needs no optimum. The limit is infinite by default.

A ``dual=True`` start that is not dual feasible within ``_DUAL_TOL``
raises ``ValueError``; there is no fallback. A cold start that is not, and
every other warm start, a branch-and-bound node's own children among them,
takes the primal repair. The pseudo-clock counts iterations, so a cheaper
child buys more nodes within a budget set in iterations, and more nodes
cost more time: with every dual feasible start on the dual, ``pipeline``
(seed 1) took 29,141 iterations instead of 53,614, but its evaluation
budget of 400 pseudo-clock iterations per solve then bought 9,364 nodes
instead of 4,823, and a round took 6.0-7.3 s instead of 4.1-4.6 s. So node
children keep the repair until a warm solve's fixed cost falls or budgets
stop rewarding cheaper LPs (ROADMAP item 10). The pipeline's policies
never probe and its knapsack roots are primal feasible at the slack basis,
so it never sees the dual.

A warm start factorizes its basis with one ``np.linalg.inv`` of
``W[:, basis]``. The solver keeps the last such inverse with its basis and
hands out a copy (the pivots update the inverse in place) when the next warm
start has the same basis, as a node's probes, or its two children, do. The copy
equals the inverse that call would have computed, bit for bit: it is the same
LAPACK call on the same matrix. One entry bounds the memory to one m x m
array, where an inverse kept on every solution would multiply it by the open
nodes.

Each pivot runs a few whole-array numpy operations (the reduced costs, the
entering column, the point and the basis exchange, ``_exchange``, which
both simplex methods share: the rank-1 update of the basis inverse and the
refactorization every ``_REFACTOR_EVERY`` pivots or on drift) and keeps
everything else off numpy, since on the 3-row LPs that dominate
branch-and-bound numpy's cost per call, not its arithmetic, sets the time:

- pricing (``_price``) scores every column ``_SIGN[stat] * d`` (``|d|`` for
  a free column) and takes one ``argmax``;
- the leaving row comes from a scan of the rows on plain Python floats
  (``_ratio_test``), taken once per pivot with ``tolist()``; its tie rules
  are sequential, so it stays a loop, which beats a vectorized scan on short
  LPs;
- the basis-side data that scan reads (the basis and its lower and upper
  bounds, as lists) and ``cost[basis]`` (an array, for the duals) are taken
  once per call of ``_iterate`` and updated in place by each pivot, as the
  bounds do not move within a call;
- the dual mirrors this: it prices its leaving row with a few whole-array
  operations on the violated rows (``_leaving_row``), and scans the columns
  for its entering one on plain Python floats (``_dual_ratio_test``).

Exactness contract: every pivot, iteration count and returned field is the
same, bit for bit, as with whole-array code that gathers everything afresh
on each pivot. Pricing picks the column a boolean-mask rule picks: an
eligible score equals ``|d|`` exactly, any other is at most ``_DUAL_TOL``,
and ``argmax`` keeps the first of equal scores. Everything else makes the
same floating-point operations on the same values, and Python floats follow
the same IEEE arithmetic as numpy's float64. ``tests/oracles.py`` keeps the
earlier pricing rule, ratio test and leaving row as references.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .instances import MilpInstance

FEAS_TOL = 1e-7
INT_TOL = 1e-6

_DUAL_TOL = 1e-9
_PIVOT_TOL = 1e-10
_REFACTOR_EVERY = 50
_DRIFT_TOL = 1e-9

_AT_LOWER, _AT_UPPER, _BASIC, _FREE = 0, 1, 2, 3
# pricing sign per status: a column at its lower bound improves when d < 0,
# one at its upper bound when d > 0, a basic column never; a free column
# improves either way and is scored |d| apart from this table
_SIGN = np.array([-1.0, 1.0, 0.0, 1.0])


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"
    CUTOFF = "cutoff"


class SimplexError(RuntimeError):
    pass


class NumericalInstabilityError(SimplexError):
    pass


@dataclass(frozen=True)
class BoundOverride:
    """A tightening of one variable bound (new lower >= old, or new upper <= old)."""

    var: int
    side: str           # "lower" | "upper"
    value: float

    def __post_init__(self):
        if self.side not in ("lower", "upper"):
            raise ValueError(f"side must be 'lower' or 'upper', got {self.side!r}")
        if math.isnan(self.value):      # every bound comparison would ignore it
            raise ValueError(f"bound override of variable {self.var} is NaN")


@dataclass(frozen=True)
class LpSolution:
    """Result of one LP solve.

    ``x``, ``duals`` and ``reduced_costs`` are defined when status is optimal;
    a ``CUTOFF`` solve's ``objective`` is the dual objective it stopped at, a
    lower bound on the optimum, and it has no basis;
    ``basis`` holds the basic variable indices in row order (indices >= n are
    slacks) and ``at_upper`` the nonbasic-at-upper set, enough to warm-start a
    child solve.
    """

    status: LpStatus
    x: np.ndarray | None
    objective: float
    basis: tuple[int, ...]
    iterations: int
    duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None
    at_upper: frozenset[int] = frozenset()


class _State:
    """Mutable solve state; lives for one solve() call, across its repairs and
    phase two."""

    __slots__ = ("lb", "ub", "basis", "stat", "x", "Binv", "pivots", "iters")

    def __init__(self, lb, ub, basis, stat, x, Binv):
        self.lb = lb
        self.ub = ub
        self.basis = basis      # (m,) variable index per row
        self.stat = stat        # (n + m,) status codes
        self.x = x              # (n + m,) current point
        self.Binv = Binv        # (m, m)
        self.pivots = 0
        self.iters = 0


class SimplexSolver:
    """Reusable solver context for one instance; caches the dense matrix."""

    def __init__(self, inst: MilpInstance):
        self.inst = inst
        self.n = inst.num_vars
        self.m = inst.num_cons
        N = self.n + self.m
        W = np.zeros((self.m, N))
        if inst.nnz:
            W[inst.row_idx, inst.col_idx] = inst.coef
        W[:, self.n:] = np.eye(self.m)
        self.W = W
        self.cost = np.concatenate([inst.objective, np.zeros(self.m)])
        self.lb0 = np.concatenate([inst.lower, np.zeros(self.m)])
        self.ub0 = np.concatenate([inst.upper, np.full(self.m, math.inf)])
        self.b = inst.rhs.copy()
        self._bscale = 1.0 + (float(np.abs(self.b).max()) if self.m else 0.0)
        self._warm_basis: tuple[int, ...] | None = None    # last warm basis ...
        self._warm_inv: np.ndarray | None = None           # ... and its inverse
        self.objective_limit = math.inf     # the dual stops (CUTOFF) at this objective

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        overrides: tuple[BoundOverride, ...] | list[BoundOverride] = (),
        warm: LpSolution | None = None,
        iter_limit: int = 100_000,
        dual: bool = False,
    ) -> LpSolution:
        """Solve the LP under ``overrides``, from ``warm``'s basis when it is a
        basis of this LP, else from the slack basis.

        With ``dual`` the dual simplex runs from that start, which must be
        dual feasible (``ValueError`` otherwise): strong branching's probes
        ask for it. A cold start (``warm`` None) takes the dual when its
        slack basis is dual feasible; every other start takes the primal
        repair.
        """
        lb, ub = self.lb0.copy(), self.ub0.copy()
        for ov in overrides:
            if not (0 <= ov.var < self.n):
                raise ValueError(f"override variable {ov.var} out of range")
            if ov.side == "lower":
                if ov.value < self.lb0[ov.var] - 1e-9:
                    raise ValueError(f"override loosens lower bound of variable {ov.var}")
                lb[ov.var] = max(lb[ov.var], ov.value)
            else:
                if ov.value > self.ub0[ov.var] + 1e-9:
                    raise ValueError(f"override loosens upper bound of variable {ov.var}")
                ub[ov.var] = min(ub[ov.var], ov.value)
        if (lb > ub + 1e-12).any():
            return LpSolution(LpStatus.INFEASIBLE, None, math.inf, (), 0)

        state = self._start(lb, ub, warm)
        d = None        # the start's reduced costs, when the dual takes it
        if dual or warm is None:
            stat = state.stat
            d = self.cost - (self.cost[state.basis] @ state.Binv) @ self.W
            if _price(d, stat, (stat == _FREE).nonzero()[0].tolist(), False)[0] >= 0:
                if dual:
                    raise ValueError("start is not dual feasible")
                d = None
        if d is not None:
            status = self._dual(state, iter_limit, d)
        else:
            status = self._repair(state, iter_limit)
        if status is LpStatus.CUTOFF:
            return LpSolution(status, None, float(self.cost @ state.x), (), state.iters)
        if status is not LpStatus.OPTIMAL:
            return LpSolution(status, None, math.inf, (), state.iters)
        return self._phase_two(state, iter_limit)

    def probe_children(
        self,
        overrides: tuple[BoundOverride, ...],
        parent: LpSolution,
        j: int,
        iter_limit: int = 100_000,
    ) -> tuple[LpSolution, LpSolution]:
        """Solve the floor/ceil children of branching on variable j, each
        through ``solve`` from the parent's basis with the dual simplex."""
        if parent.status is not LpStatus.OPTIMAL or parent.x is None:
            raise ValueError("parent solution must be optimal")
        xj = float(parent.x[j])
        frac = xj - math.floor(xj)
        if min(frac, 1.0 - frac) <= INT_TOL:
            raise ValueError(f"variable {j} is integral at {xj!r}; nothing to probe")
        down = self.solve(
            tuple(overrides) + (BoundOverride(j, "upper", math.floor(xj)),),
            warm=parent, iter_limit=iter_limit, dual=True,
        )
        up = self.solve(
            tuple(overrides) + (BoundOverride(j, "lower", math.ceil(xj)),),
            warm=parent, iter_limit=iter_limit, dual=True,
        )
        return down, up

    # -- start construction ----------------------------------------------------

    def _start(self, lb, ub, warm: LpSolution | None) -> _State:
        """The starting state with its basic values: the warm solution's basis
        when it is a basis of this LP, otherwise the slack basis."""
        n, m = self.n, self.m
        Binv = None
        if warm is not None and m > 0 and len(warm.basis) == m:
            Binv = self._warm_inverse(warm.basis)
        if Binv is None:
            basis = np.arange(n, n + m, dtype=np.int64)
            stat, x = _nonbasic_start(lb, ub, basis, ())
            Binv = np.eye(m)
        else:
            basis = np.array(warm.basis, dtype=np.int64)
            stat, x = _nonbasic_start(lb, ub, basis, warm.at_upper)
        state = _State(lb, ub, basis, stat, x, Binv)
        self._set_basic_values(state)
        return state

    def _warm_inverse(self, wb: tuple[int, ...]) -> np.ndarray | None:
        """A copy of the inverse of ``W[:, wb]``, or None when ``wb`` is not a
        basis of this LP (repeated or out-of-range indices, or singular)."""
        if wb != self._warm_basis:
            if len(set(wb)) != self.m or min(wb) < 0 or max(wb) >= self.n + self.m:
                return None
            try:
                inv = np.linalg.inv(self.W[:, list(wb)])
            except np.linalg.LinAlgError:
                return None
            self._warm_basis, self._warm_inv = wb, inv
        return self._warm_inv.copy()

    def _repair(self, state, iter_limit) -> LpStatus:
        """Repair each out-of-bound basic variable in turn, in row order; one
        that came inside its bounds while it waited needs no repair."""
        lb, ub, x, basis = state.lb, state.ub, state.x, state.basis
        xb = x[basis]
        above = xb > ub[basis] + FEAS_TOL
        rows = np.flatnonzero(above | (xb < lb[basis] - FEAS_TOL)).tolist()
        if not rows:
            return LpStatus.OPTIMAL
        waiting = [(basis.item(r), above.item(r)) for r in rows]
        held = []       # the true violated-side bound of each one after the first
        for k, up in waiting[1:]:
            side = ub if up else lb
            held.append(side.item(k))
            side[k] = math.inf if up else -math.inf
        for (k, up), bound in zip(waiting, [None] + held):
            if bound is not None:       # it may have come inside while it waited
                if up:
                    ub[k] = bound
                    if x.item(k) <= bound + FEAS_TOL:
                        continue
                else:
                    lb[k] = bound
                    if x.item(k) >= bound - FEAS_TOL:
                        continue
            status = self._repair_single(state, k, up, iter_limit)
            if status is not LpStatus.OPTIMAL:
                return status
        return LpStatus.OPTIMAL

    def _repair_single(self, state, k, above: bool, iter_limit) -> LpStatus:
        """Drive the out-of-bound basic variable k back inside its range.

        k is boxed between its violated bound and its current value, so
        minimizing toward that bound either reaches it or, by convexity,
        proves the LP infeasible.
        """
        true_lb, true_ub = float(state.lb[k]), float(state.ub[k])
        cost = np.zeros(len(state.x))
        if above:
            state.lb[k] = true_ub
            state.ub[k] = state.x[k]
            cost[k] = 1.0
            target = true_ub
        else:
            state.lb[k] = state.x[k]
            state.ub[k] = true_lb
            cost[k] = -1.0
            target = true_lb
        status = self._iterate(cost, state, iter_limit, stop_var=(k, target, above))
        state.lb[k], state.ub[k] = true_lb, true_ub
        if status is LpStatus.ITERATION_LIMIT:
            return LpStatus.ITERATION_LIMIT
        if status is LpStatus.UNBOUNDED:
            raise NumericalInstabilityError("bound repair reported unbounded")
        reached = (
            state.x[k] <= true_ub + FEAS_TOL if above
            else state.x[k] >= true_lb - FEAS_TOL
        )
        if not reached:
            return LpStatus.INFEASIBLE
        if state.stat[k] != _BASIC:
            state.x[k] = target
            state.stat[k] = _AT_UPPER if above else _AT_LOWER
            self._set_basic_values(state)
        return LpStatus.OPTIMAL

    def _dual(self, state, iter_limit, d) -> LpStatus:
        """Run dual pivots from a dual feasible start, whose reduced costs
        are ``d``, until the point is primal feasible (``_phase_two`` then
        finishes the solve).

        Each pivot takes the leaving row from ``_leaving_row``. It passes each
        breakpoint ``_dual_ratio_test`` returns whose column's flip to its
        other bound leaves the row violated by more than ``FEAS_TOL``, and
        asks again; the first it cannot pass enters, the flips move the
        point, and the leaving variable goes to its violated bound, so every
        reduced cost keeps its sign. No eligible column proves the LP
        infeasible. The dual objective, ``cost @ x``, never falls; once it
        reaches ``objective_limit`` the solve stops (``CUTOFF``). After
        3(n+m) pivots without a rise both choices take the lowest index and
        nothing flips, as ``_iterate`` switches to Bland's rule.
        """
        W, cost, x, stat, basis = self.W, self.cost, state.x, state.stat, state.basis
        lb, ub = state.lb, state.ub
        # basis-side state, updated in place by each pivot (the bounds do not
        # move within one call), and the statuses as a list for the ratio test
        lbb, ubb, cb = state.lb[basis], state.ub[basis], cost[basis]
        stat_l = stat.tolist()
        bland = False
        stall = 0
        stall_limit = 3 * (self.n + self.m)
        prev_obj = float(cost @ x)
        while True:
            r, above = _leaving_row(basis, x[basis], lbb, ubb, state.Binv, bland)
            if r < 0:
                return LpStatus.OPTIMAL
            if state.iters >= iter_limit:
                return LpStatus.ITERATION_LIMIT

            Binv = state.Binv
            d_l, alpha = d.tolist(), (Binv[r] @ W).tolist()
            k = basis.item(r)
            bound = ubb.item(r) if above else lbb.item(r)
            rest = x.item(k) - bound if above else bound - x.item(k)    # the violation left
            flips = []
            while True:
                e = _dual_ratio_test(d_l, alpha, stat_l, above, bland)
                if e < 0:
                    return LpStatus.INFEASIBLE
                if bland:
                    break
                # an unboxed column's width is infinite: it is never passed
                passed = abs(alpha[e]) * (ub.item(e) - lb.item(e))
                if not rest - passed > FEAS_TOL:
                    break
                rest -= passed
                stat_l[e] = _AT_UPPER if stat_l[e] == _AT_LOWER else _AT_LOWER
                flips.append(e)
            if flips:
                new = np.array([ub.item(j) if stat_l[j] == _AT_UPPER else lb.item(j)
                                for j in flips])
                delta = new - x[flips]
                x[flips] = new
                stat[flips] = [stat_l[j] for j in flips]
                x[basis] -= Binv @ (W[:, flips] @ delta)

            col = Binv @ W[:, e]
            t = (x.item(k) - bound) / col.item(r)       # the entering variable's move
            x[e] = x.item(e) + t
            x[basis] -= t * col
            stat[k] = stat_l[k] = _AT_UPPER if above else _AT_LOWER
            x[k] = bound
            basis[r] = e
            lbb[r], ubb[r], cb[r] = lb[e], ub[e], cost[e]
            stat[e] = stat_l[e] = _BASIC
            self._exchange(state, r, col)

            state.iters += 1
            obj = float(cost @ x)
            if obj >= self.objective_limit:
                return LpStatus.CUTOFF
            d = cost - (cb @ state.Binv) @ W
            if obj > prev_obj + 1e-12 * (1.0 + abs(prev_obj)):
                stall = 0
                prev_obj = obj
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True

    # -- core iteration ---------------------------------------------------------

    def _set_basic_values(self, state):
        nonbasic = state.stat != _BASIC
        rhs = self.b - self.W[:, nonbasic] @ state.x[nonbasic]
        state.x[state.basis] = state.Binv @ rhs

    def _refactor(self, state):
        try:
            state.Binv = np.linalg.inv(self.W[:, state.basis])
        except np.linalg.LinAlgError:
            raise NumericalInstabilityError("basis matrix is singular") from None
        self._set_basic_values(state)

    def _exchange(self, state, r, col):
        """Update the basis inverse for the pivot of the entering column
        ``col`` (``Binv @ W[:, e]``) in row r, once the point and the basis
        have moved, and refactorize every ``_REFACTOR_EVERY`` pivots or on
        drift: ``W x = b`` holds exactly in real arithmetic."""
        Binv = state.Binv
        # |col[r]| > _PIVOT_TOL: both ratio tests skip smaller entries
        prow = Binv[r] / col[r]
        Binv -= col[:, None] * prow
        Binv[r] = prow
        state.pivots += 1
        if (
            state.pivots % _REFACTOR_EVERY == 0
            or np.abs(self.W @ state.x - self.b).max() > _DRIFT_TOL * self._bscale
        ):
            self._refactor(state)

    def _iterate(self, cost, state, iter_limit, stop_var=None) -> LpStatus:
        """Run primal pivots for the given cost vector until done.

        Dantzig pricing by default; Bland's rule engages after 3(n+m) stalled
        iterations and guarantees termination on degenerate problems.
        """
        bland = False
        stall = 0
        stall_limit = 3 * (self.n + self.m)
        W, x, stat, basis = self.W, state.x, state.stat, state.basis
        # bounds do not move within one call (a repair moves them around it)
        lb, ub = state.lb.tolist(), state.ub.tolist()
        # basis-side state, updated in place by each pivot
        basis_l = basis.tolist()
        lbb = [lb[v] for v in basis_l]
        ubb = [ub[v] for v in basis_l]
        cb = cost[basis]
        free = (stat == _FREE).nonzero()[0].tolist()
        prev_obj = float(cost @ x)
        while True:
            if stop_var is not None:
                k, target, above = stop_var
                if (above and x.item(k) <= target + 1e-12) or (
                    not above and x.item(k) >= target - 1e-12
                ):
                    return LpStatus.OPTIMAL
            if state.iters >= iter_limit:
                return LpStatus.ITERATION_LIMIT

            Binv = state.Binv
            d = cost - (cb @ Binv) @ W
            e, direction = _price(d, stat, free, bland)
            if e < 0:
                return LpStatus.OPTIMAL

            col = Binv @ W[:, e]
            step = direction * col          # basic values move by -t * step
            step_l = step.tolist()
            t_best, leave_row = _ratio_test(
                basis_l, x[basis].tolist(), lbb, ubb, step_l, ub[e] - lb[e], bland,
            )
            if not math.isfinite(t_best):
                return LpStatus.UNBOUNDED

            x[e] = x.item(e) + direction * t_best
            x[basis] -= t_best * step
            if leave_row < 0:
                # only a column at a finite bound flips: up from lower, down from upper
                if direction > 0:
                    stat[e], x[e] = _AT_UPPER, ub[e]
                else:
                    stat[e], x[e] = _AT_LOWER, lb[e]
            else:
                if step_l[leave_row] > 0:
                    stat[basis_l[leave_row]] = _AT_LOWER
                    x[basis_l[leave_row]] = lbb[leave_row]
                else:
                    stat[basis_l[leave_row]] = _AT_UPPER
                    x[basis_l[leave_row]] = ubb[leave_row]
                basis[leave_row] = basis_l[leave_row] = e
                lbb[leave_row], ubb[leave_row] = lb[e], ub[e]
                cb[leave_row] = cost[e]
                stat[e] = _BASIC
                if e in free:
                    free.remove(e)
                self._exchange(state, leave_row, col)

            state.iters += 1
            obj = float(cost @ x)
            if obj < prev_obj - 1e-12 * (1.0 + abs(prev_obj)):
                stall = 0
                prev_obj = obj
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True

    def _phase_two(self, state, iter_limit) -> LpSolution:
        n, cost = self.n, self.cost
        status = self._iterate(cost, state, iter_limit)

        if status is LpStatus.UNBOUNDED:
            return LpSolution(LpStatus.UNBOUNDED, None, -math.inf, (), state.iters)
        if status is LpStatus.ITERATION_LIMIT:
            return LpSolution(
                LpStatus.ITERATION_LIMIT, None, float(cost @ state.x),
                tuple(int(v) for v in state.basis), state.iters,
            )

        self._refactor(state)
        y = cost[state.basis] @ state.Binv
        reduced = cost[:n] - y @ self.W[:, :n]
        self._audit(state, y, reduced)
        x = state.x[:n].copy()
        obj = float(self.inst.objective @ x)
        at_upper = frozenset(np.flatnonzero(state.stat == _AT_UPPER).tolist())
        return LpSolution(
            LpStatus.OPTIMAL, x, obj,
            tuple(state.basis.tolist()), state.iters,
            duals=y.copy(), reduced_costs=reduced, at_upper=at_upper,
        )

    def _audit(self, state, y, reduced) -> None:
        """Check an optimal point before it is returned, once per LP.

        The feasibility tests are comparisons, which are all False for NaN,
        so the point, duals and reduced costs are first checked to be finite.
        """
        n, x = self.n, state.x
        if not np.isfinite(np.concatenate((x, y, reduced))).all():
            raise NumericalInstabilityError("optimal point, duals or reduced costs not finite")
        tol = FEAS_TOL * self._bscale
        if (
            (x < state.lb - tol).any()
            or (x > state.ub + tol).any()
            or (self.W[:, :n] @ x[:n] > self.b + tol).any()
        ):
            raise NumericalInstabilityError("optimal point failed the feasibility audit")


def _nonbasic_start(lb, ub, basis, at_upper):
    """Statuses and values of a starting point with the given basis.

    A nonbasic variable sits at its upper bound if it is in ``at_upper`` (a
    parent solution's nonbasic-at-upper set) and that bound is finite,
    otherwise at its finite lower bound, otherwise at its finite upper bound,
    otherwise free at 0. Basic values are left for the caller to compute.
    """
    prefer_upper = np.zeros(len(lb), dtype=bool)
    prefer_upper[list(at_upper)] = True
    fin_lb = np.isfinite(lb)
    upper = np.isfinite(ub) & (prefer_upper | ~fin_lb)
    stat = np.where(upper, _AT_UPPER, np.where(fin_lb, _AT_LOWER, _FREE)).astype(np.int8)
    stat[basis] = _BASIC
    x = np.where(upper, ub, np.where(fin_lb, lb, 0.0))
    return stat, x


def _price(d, stat, free, bland) -> tuple[int, float]:
    """The entering column of one pivot and its direction of motion.

    ``d`` holds the reduced costs, ``stat`` the status codes, and ``free``
    the nonbasic free columns (those with status ``_FREE``). A column's score
    is ``_SIGN[stat] * d``, and ``|d|`` for a free column: an eligible
    column (one whose move improves the objective by more than
    ``_DUAL_TOL``) scores exactly ``|d|``, any other at most ``_DUAL_TOL``.
    Dantzig's rule takes the first column of largest score, Bland's the first
    eligible one; a NaN reduced cost is never eligible. The column increases
    (direction +1) when its ``d`` is negative. Returns ``(-1, 0.0)`` when no
    column is eligible.
    """
    score = _SIGN.take(stat) * d
    if free:
        score[free] = np.abs(d[free])
    if bland:
        e = int((score > _DUAL_TOL).argmax())
    else:
        e = int(score.argmax())
        if score.item(e) != score.item(e):     # argmax stops at the first NaN
            score = np.fmax(score, 0.0)
            e = int(score.argmax())
    if not score.item(e) > _DUAL_TOL:
        return -1, 0.0
    return e, (1.0 if d.item(e) < 0.0 else -1.0)


def _ratio_test(basis, xb, lbb, ubb, step, own, bland) -> tuple[float, int]:
    """The step length and leaving row of one pivot.

    Row i's basic variable ``basis[i]`` (value ``xb[i]`` in ``[lbb[i],
    ubb[i]]``) moves by ``-t * step[i]``; ``own`` is the entering variable's
    bound-flip length. A row wins by a strict improvement of more than 1e-12;
    within 1e-12 of the best, Bland's rule keeps the lowest variable index and
    the default keeps the largest ``|step|`` for stability. Returns
    ``leave_row = -1`` for a bound flip, and an infinite step if unbounded.
    All arguments are plain Python floats and lists.
    """
    isfinite = math.isfinite
    t_best = own if isfinite(own) else math.inf
    leave_row = -1
    for i, ci in enumerate(step):
        if ci > _PIVOT_TOL:
            lo = lbb[i]
            if not isfinite(lo):
                continue
            room = xb[i] - lo
        elif ci < -_PIVOT_TOL:
            hi = ubb[i]
            if not isfinite(hi):
                continue
            room, ci = hi - xb[i], -ci
        else:
            continue
        # max(room, 0.0) without the call: keeps -0.0 and NaN as max() does
        t_i = (0.0 if room < 0.0 else room) / ci
        if t_i < t_best - 1e-12:
            t_best, leave_row = t_i, i
        elif leave_row >= 0 and t_i <= t_best + 1e-12:
            if bland:
                if basis[i] < basis[leave_row]:
                    leave_row = i
            elif abs(ci) > abs(step[leave_row]):
                leave_row = i
    return t_best, leave_row


def _leaving_row(basis, xb, lbb, ubb, Binv, bland) -> tuple[int, bool]:
    """The leaving row of one dual pivot, and whether its basic variable lies
    above its upper bound (else below its lower bound).

    Row i's basic variable ``basis[i]`` has value ``xb[i]`` and bounds
    ``lbb[i]``, ``ubb[i]`` (all arrays); ``Binv`` is the basis inverse. A
    row is violated when its value lies outside its bounds by more than
    ``FEAS_TOL``. Dual steepest edge takes the violated row of largest
    ``violation**2 / |Binv[i]|**2``, ties to the lowest row; a lone
    violated row is taken without its weight. Bland's rule takes the
    violated row of lowest variable index. Returns ``(-1, False)`` when no
    row is violated; a NaN value never is, and the audit rejects it.
    """
    violation = np.maximum(xb - ubb, lbb - xb)
    rows = (violation > FEAS_TOL).nonzero()[0]
    if not len(rows):
        return -1, False
    if bland:
        r = rows.item(basis[rows].argmin())
    elif len(rows) == 1:
        r = rows.item(0)
    else:
        v, rinv = violation[rows], Binv[rows]
        r = rows.item((v * v / (rinv * rinv).sum(axis=1)).argmax())
    return r, xb.item(r) > ubb.item(r)


def _dual_ratio_test(d, alpha, stat, above, bland) -> int:
    """The entering column of one dual pivot.

    ``d`` holds the reduced costs, ``stat`` the status codes and ``alpha``
    the leaving row of ``B^-1 W``; the leaving variable goes to its upper
    bound when ``above``, else to its lower one. A nonbasic column is
    eligible when moving it the way its bound allows (a free column either
    way) moves the leaving variable toward that bound, with ``|alpha_j| >
    _PIVOT_TOL``. Its ratio is how far its reduced cost lies on the
    optimal side of 0 (0 when it lies within the tolerance on the other
    side), over ``|alpha_j|``. Among the columns within 1e-12 of the least
    ratio, the largest ``|alpha_j|`` wins, ties to the lowest index; Bland's
    rule takes the lowest index. Returns -1 when no column is eligible. All
    arguments are plain Python floats and lists.
    """
    sign = 1.0 if above else -1.0
    t_min = math.inf
    eligible = []       # (ratio, |alpha_j|, j) in column order
    for j, s in enumerate(stat):
        if s == _BASIC:
            continue
        a = sign * alpha[j]
        if s == _AT_LOWER:
            if a <= _PIVOT_TOL:
                continue
            slack = d[j]
        elif s == _AT_UPPER:
            if a >= -_PIVOT_TOL:
                continue
            a, slack = -a, -d[j]
        else:
            a, slack = abs(a), abs(d[j])
            if a <= _PIVOT_TOL:
                continue
        t = (0.0 if slack < 0.0 else slack) / a
        if t < t_min:
            t_min = t
        eligible.append((t, a, j))
    best, best_a = -1, 0.0
    for t, a, j in eligible:
        if t <= t_min + 1e-12:
            if bland:
                return j
            if a > best_a:
                best, best_a = j, a
    return best
