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

Each pivot runs a few whole-array numpy operations (the reduced costs, the
entering column, the point and the rank-1 update of the basis inverse) and
keeps everything else off numpy, since on the 3-row LPs that dominate
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
  bounds do not move within a call.

Exactness contract: every pivot, iteration count and returned field is the
same, bit for bit, as with whole-array code that gathers everything afresh
on each pivot. Pricing picks the column a boolean-mask rule picks: an
eligible score equals ``|d|`` exactly, any other is at most ``_DUAL_TOL``,
and ``argmax`` keeps the first of equal scores. Everything else makes the
same floating-point operations on the same values, and Python floats follow
the same IEEE arithmetic as numpy's float64. ``tests/oracles.py`` keeps the
earlier pricing rule and ratio test as references.
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
        if (lb > ub + 1e-12).any():
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
        wb = warm.basis
        if len(set(wb)) != m or min(wb) < 0 or max(wb) >= N:
            return None
        basis = np.array(wb, dtype=np.int64)
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

        xb, ubb = x[basis], ub[basis]
        viol = np.flatnonzero((xb < lb[basis] - FEAS_TOL) | (xb > ubb + FEAS_TOL))
        if len(viol) == 0:
            return self._phase_two(state, iter_limit)
        if len(viol) > 1:
            return None
        row = int(viol[0])
        above = xb.item(row) > ubb.item(row) + FEAS_TOL
        status = self._repair_single(state, wb[row], above, iter_limit)
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
        W, b, x, stat, basis = state.W, state.b, state.x, state.stat, state.basis
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
                # |col[leave_row]| > _PIVOT_TOL: the ratio test skips smaller entries
                prow = Binv[leave_row] / col[leave_row]
                Binv -= col[:, None] * prow
                Binv[leave_row] = prow
                state.pivots += 1
                # W x = b holds exactly in real arithmetic; refactor on drift
                if (
                    state.pivots % _REFACTOR_EVERY == 0
                    or np.abs(W @ x - b).max() > _DRIFT_TOL * self._bscale
                ):
                    self._refactor(state)

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
        n, m = self.n, self.m
        if state.W.shape[1] == n + m:
            cost = self.cost
        else:                               # zero cost on the artificial columns
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
        y = cost[state.basis] @ state.Binv
        reduced = self.cost[:n] - y @ self.W[:, :n]
        self._audit(state, y, reduced)
        x = state.x[:n].copy()
        obj = float(self.inst.objective @ x)
        at_upper = frozenset(np.flatnonzero(state.stat[: n + m] == _AT_UPPER).tolist())
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
        n, m = self.n, self.m
        if not np.isfinite(np.concatenate((state.x, y, reduced))).all():
            raise NumericalInstabilityError("optimal point, duals or reduced costs not finite")
        x = state.x[: n + m]
        tol = FEAS_TOL * self._bscale
        if (
            (x < state.lb[: n + m] - tol).any()
            or (x > state.ub[: n + m] + tol).any()
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
