"""Bounded-variable primal simplex over dense desk-scale LPs.

The solver works on the slack form ``A x + s = b`` with ``l <= x <= u`` and
``s >= 0``. Nonbasic variables sit at a finite bound (free variables at 0).
Phase 1 appends artificial columns for rows whose slack starts negative; a
warm start from a parent basis with a single out-of-bound basic variable is
repaired in place, which is exactly the case produced by tightening one bound
when branching.

A warm start factorizes its basis with one ``np.linalg.inv`` of
``W[:, basis]``. The solver keeps the last such inverse with its basis and
hands out a copy (the pivots update the inverse in place) when the next warm
start has the same basis, as a node's probes, or its two children, do. The copy
equals the inverse that call would have computed, bit for bit: it is the same
LAPACK call on the same matrix. One entry bounds the memory to one m x m
array, where an inverse kept on every solution would multiply it by the open
nodes.

Each pivot prices and updates the basis inverse with whole-array numpy
operations, but scans the rows for the leaving variable (``_ratio_test``) on
plain Python floats taken once per pivot with ``tolist()``. The scan's tie
rules are sequential, so it stays a loop: on numpy scalars each row would cost
several boxed scalar operations, and a vectorized scan is slower on the 3-row
LPs that dominate branch-and-bound, where numpy's per-call cost outweighs the
loop. Python floats follow the same IEEE arithmetic as numpy's float64.
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


class LpStatus(enum.Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ITERATION_LIMIT = "iteration-limit"


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


@dataclass(frozen=True)
class LpSolution:
    """Result of one LP solve.

    ``x``, ``duals`` and ``reduced_costs`` are defined when status is optimal;
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
    """Mutable solve state; lives for one solve() call, possibly across phases."""

    __slots__ = ("W", "b", "lb", "ub", "basis", "stat", "x", "Binv", "pivots", "iters")

    def __init__(self, W, b, lb, ub, basis, stat, x, Binv):
        self.W = W
        self.b = b
        self.lb = lb
        self.ub = ub
        self.basis = basis      # (m,) variable index per row
        self.stat = stat        # (ncols,) status codes
        self.x = x              # (ncols,) current point
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

    # -- public API ----------------------------------------------------------

    def solve(
        self,
        overrides: tuple[BoundOverride, ...] | list[BoundOverride] = (),
        warm: LpSolution | None = None,
        iter_limit: int = 100_000,
    ) -> LpSolution:
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
        if np.any(lb > ub + 1e-12):
            return LpSolution(LpStatus.INFEASIBLE, None, math.inf, (), 0)

        if warm is not None and self.m > 0 and len(warm.basis) == self.m:
            sol = self._solve_warm(lb, ub, warm, iter_limit)
            if sol is not None:
                return sol
        return self._solve_cold(lb, ub, iter_limit)

    def probe_children(
        self,
        overrides: tuple[BoundOverride, ...],
        parent: LpSolution,
        j: int,
        iter_limit: int = 100_000,
    ) -> tuple[LpSolution, LpSolution]:
        """Solve the floor/ceil children of branching on variable j."""
        if parent.status is not LpStatus.OPTIMAL or parent.x is None:
            raise ValueError("parent solution must be optimal")
        xj = float(parent.x[j])
        frac = xj - math.floor(xj)
        if min(frac, 1.0 - frac) <= INT_TOL:
            raise ValueError(f"variable {j} is integral at {xj!r}; nothing to probe")
        down = self.solve(
            tuple(overrides) + (BoundOverride(j, "upper", math.floor(xj)),),
            warm=parent, iter_limit=iter_limit,
        )
        up = self.solve(
            tuple(overrides) + (BoundOverride(j, "lower", math.ceil(xj)),),
            warm=parent, iter_limit=iter_limit,
        )
        return down, up

    # -- start construction ----------------------------------------------------

    def _solve_cold(self, lb, ub, iter_limit) -> LpSolution:
        n, m = self.n, self.m
        N = n + m
        basis = np.arange(n, N, dtype=np.int64)
        stat, x = _nonbasic_start(lb, ub, basis, ())
        slack = self.b - self.W[:, :n] @ x[:n]
        x[n:] = slack

        state = _State(self.W, self.b, lb, ub, basis, stat, x, np.eye(m))

        violated = np.where(slack < -FEAS_TOL)[0]
        if len(violated) > 0:
            state, status = self._phase_one(state, violated, iter_limit)
            if status is not LpStatus.OPTIMAL:
                return LpSolution(status, None, math.inf, (), state.iters)
        return self._phase_two(state, iter_limit)

    def _phase_one(self, state, violated, iter_limit):
        """Append one artificial column per violated row and minimize their sum."""
        n, m = self.n, self.m
        k = len(violated)
        W1 = np.concatenate([state.W, np.zeros((m, k))], axis=1)
        cost1 = np.zeros(n + m + k)
        lb1 = np.concatenate([state.lb, np.zeros(k)])
        ub1 = np.concatenate([state.ub, np.full(k, math.inf)])
        x1 = np.concatenate([state.x, np.zeros(k)])
        stat1 = np.concatenate([state.stat, np.full(k, _AT_LOWER, dtype=np.int8)])
        basis1 = state.basis.copy()
        for t, i in enumerate(violated):
            col = n + m + t
            W1[i, col] = -1.0
            cost1[col] = 1.0
            slack_var = int(basis1[i])
            x1[col] = -float(x1[slack_var])     # = A_i x_N - b_i > 0
            stat1[slack_var] = _AT_LOWER        # slack leaves at its lower bound 0
            x1[slack_var] = 0.0
            basis1[i] = col
            stat1[col] = _BASIC

        st1 = _State(W1, state.b, lb1, ub1, basis1, stat1, x1, np.eye(m))
        self._refactor(st1)
        status = self._iterate(cost1, st1, iter_limit)
        if status is LpStatus.ITERATION_LIMIT:
            return st1, LpStatus.ITERATION_LIMIT
        if status is LpStatus.UNBOUNDED:
            raise NumericalInstabilityError("phase-1 objective reported unbounded")
        art_sum = float(st1.x[n + m:].sum())
        if art_sum > FEAS_TOL * self._bscale:
            return st1, LpStatus.INFEASIBLE
        # pin artificials at zero; any still basic are degenerate and immobile
        st1.lb[n + m:] = 0.0
        st1.ub[n + m:] = 0.0
        st1.x[n + m:] = np.maximum(st1.x[n + m:], 0.0)
        return st1, LpStatus.OPTIMAL

    def _solve_warm(self, lb, ub, warm: LpSolution, iter_limit) -> LpSolution | None:
        """Warm start from a parent basis; returns None to fall back to cold."""
        n, m = self.n, self.m
        N = n + m
        basis = np.array(warm.basis, dtype=np.int64)
        if len(np.unique(basis)) != m or basis.min() < 0 or basis.max() >= N:
            return None
        stat, x = _nonbasic_start(lb, ub, basis, warm.at_upper)
        if warm.basis != self._warm_basis:
            try:
                inv = np.linalg.inv(self.W[:, basis])
            except np.linalg.LinAlgError:
                return None
            self._warm_basis, self._warm_inv = warm.basis, inv
        Binv = self._warm_inv.copy()
        state = _State(self.W, self.b, lb, ub, basis, stat, x, Binv)
        self._set_basic_values(state)

        xb = state.x[basis]
        below = xb < state.lb[basis] - FEAS_TOL
        above = xb > state.ub[basis] + FEAS_TOL
        n_viol = int(below.sum() + above.sum())
        if n_viol == 0:
            return self._phase_two(state, iter_limit)
        if n_viol > 1:
            return None
        row = int(np.where(below | above)[0][0])
        k = int(basis[row])
        status = self._repair_single(state, k, bool(above[row]), iter_limit)
        if status is LpStatus.ITERATION_LIMIT:
            return LpSolution(LpStatus.ITERATION_LIMIT, None, math.inf, (), state.iters)
        if status is LpStatus.INFEASIBLE:
            return LpSolution(LpStatus.INFEASIBLE, None, math.inf, (), state.iters)
        return self._phase_two(state, iter_limit)

    def _repair_single(self, state, k, above: bool, iter_limit) -> LpStatus:
        """Drive the one out-of-bound basic variable k back inside its range.

        The violated side is clamped at the current value and the opposite
        side at the true bound, so minimizing toward the true bound either
        reaches it (then the point is feasible, by convexity) or proves the
        tightened problem infeasible.
        """
        true_lb, true_ub = float(state.lb[k]), float(state.ub[k])
        cost = np.zeros(state.W.shape[1])
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

    # -- core iteration ---------------------------------------------------------

    def _set_basic_values(self, state):
        nonbasic = state.stat != _BASIC
        rhs = state.b - state.W[:, nonbasic] @ state.x[nonbasic]
        state.x[state.basis] = state.Binv @ rhs

    def _refactor(self, state):
        try:
            state.Binv = np.linalg.inv(state.W[:, state.basis])
        except np.linalg.LinAlgError:
            raise NumericalInstabilityError("basis matrix is singular") from None
        self._set_basic_values(state)

    def _iterate(self, cost, state, iter_limit, stop_var=None) -> LpStatus:
        """Run primal pivots for the given cost vector until done.

        Dantzig pricing by default; Bland's rule engages after 3(n+m) stalled
        iterations and guarantees termination on degenerate problems.
        """
        bland = False
        stall = 0
        stall_limit = 3 * (self.n + self.m)
        prev_obj = float(cost @ state.x)
        while True:
            if stop_var is not None:
                k, target, above = stop_var
                if (above and state.x[k] <= target + 1e-12) or (
                    not above and state.x[k] >= target - 1e-12
                ):
                    return LpStatus.OPTIMAL
            if state.iters >= iter_limit:
                return LpStatus.ITERATION_LIMIT

            y = cost[state.basis] @ state.Binv
            d = cost - y @ state.W
            can_inc = ((state.stat == _AT_LOWER) | (state.stat == _FREE)) & (d < -_DUAL_TOL)
            can_dec = ((state.stat == _AT_UPPER) | (state.stat == _FREE)) & (d > _DUAL_TOL)
            eligible = np.where(can_inc | can_dec)[0]
            if len(eligible) == 0:
                return LpStatus.OPTIMAL
            if bland:
                e = int(eligible[0])
            else:
                e = int(eligible[np.argmax(np.abs(d[eligible]))])
            direction = 1.0 if can_inc[e] else -1.0

            col = state.Binv @ state.W[:, e]
            step = direction * col          # basic values move by -t * step
            basis = state.basis
            t_best, leave_row = _ratio_test(
                basis.tolist(), state.x[basis].tolist(), state.lb[basis].tolist(),
                state.ub[basis].tolist(), step.tolist(),
                float(state.ub[e] - state.lb[e]), bland,
            )
            if not math.isfinite(t_best):
                return LpStatus.UNBOUNDED

            state.x[e] += direction * t_best
            state.x[basis] -= t_best * step
            if leave_row < 0:
                state.stat[e] = _AT_UPPER if state.stat[e] == _AT_LOWER else _AT_LOWER
                state.x[e] = state.ub[e] if state.stat[e] == _AT_UPPER else state.lb[e]
            else:
                lv = int(basis[leave_row])
                if step[leave_row] > 0:
                    state.stat[lv] = _AT_LOWER
                    state.x[lv] = state.lb[lv]
                else:
                    state.stat[lv] = _AT_UPPER
                    state.x[lv] = state.ub[lv]
                basis[leave_row] = e
                state.stat[e] = _BASIC
                # |col[leave_row]| > _PIVOT_TOL: the ratio test skips smaller entries
                prow = state.Binv[leave_row] / col[leave_row]
                state.Binv -= np.outer(col, prow)
                state.Binv[leave_row] = prow
                state.pivots += 1
                # W x = b holds exactly in real arithmetic; refactor on drift
                if (
                    state.pivots % _REFACTOR_EVERY == 0
                    or np.abs(state.W @ state.x - state.b).max() > _DRIFT_TOL * self._bscale
                ):
                    self._refactor(state)

            state.iters += 1
            obj = float(cost @ state.x)
            if obj < prev_obj - 1e-12 * (1.0 + abs(prev_obj)):
                stall = 0
                prev_obj = obj
            else:
                stall += 1
                if stall > stall_limit:
                    bland = True

    def _phase_two(self, state, iter_limit) -> LpSolution:
        n, m = self.n, self.m
        cost = np.zeros(state.W.shape[1])
        cost[: n + m] = self.cost
        status = self._iterate(cost, state, iter_limit)

        if status is LpStatus.UNBOUNDED:
            return LpSolution(LpStatus.UNBOUNDED, None, -math.inf, (), state.iters)
        if status is LpStatus.ITERATION_LIMIT:
            return LpSolution(
                LpStatus.ITERATION_LIMIT, None, float(cost @ state.x),
                tuple(int(v) for v in state.basis), state.iters,
            )

        self._refactor(state)
        if not self._primal_feasible(state):
            raise NumericalInstabilityError("optimal point failed the feasibility audit")
        x = state.x[:n].copy()
        obj = float(self.inst.objective @ x)
        y = cost[state.basis] @ state.Binv
        reduced = self.cost[:n] - y @ self.W[:, :n]
        at_upper = frozenset(np.flatnonzero(state.stat[: n + m] == _AT_UPPER).tolist())
        return LpSolution(
            LpStatus.OPTIMAL, x, obj,
            tuple(state.basis.tolist()), state.iters,
            duals=y.copy(), reduced_costs=reduced, at_upper=at_upper,
        )

    def _primal_feasible(self, state) -> bool:
        n, m = self.n, self.m
        x = state.x[: n + m]
        tol = FEAS_TOL * self._bscale
        if np.any(x < state.lb[: n + m] - tol) or np.any(x > state.ub[: n + m] + tol):
            return False
        if m == 0:
            return True
        return not np.any(self.W[:, :n] @ x[:n] > self.b + tol)


def _nonbasic_start(lb, ub, basis, at_upper):
    """Statuses and values of a starting point with the given basis.

    A nonbasic variable sits at its upper bound if it is in ``at_upper`` (a
    parent solution's nonbasic-at-upper set) and that bound is finite,
    otherwise at its finite lower bound, otherwise at its finite upper bound,
    otherwise free at 0. Basic values are left at 0 for the caller to compute.
    """
    in_basis = np.zeros(len(lb), dtype=bool)
    in_basis[basis] = True
    prefer_upper = np.zeros(len(lb), dtype=bool)
    prefer_upper[list(at_upper)] = True
    fin_lb, fin_ub = np.isfinite(lb), np.isfinite(ub)
    upper = ~in_basis & fin_ub & (prefer_upper | ~fin_lb)
    lower = ~in_basis & fin_lb & ~upper
    stat = np.full(len(lb), _FREE, dtype=np.int8)
    stat[in_basis] = _BASIC
    stat[lower] = _AT_LOWER
    stat[upper] = _AT_UPPER
    x = np.zeros(len(lb))
    x[lower] = lb[lower]
    x[upper] = ub[upper]
    return stat, x


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
