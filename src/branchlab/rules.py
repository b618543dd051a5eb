"""Branching policies: most-infeasible, pseudocost, strong branching,
active-constraint, the hybrid sampling expert, and a random baseline.

Policies implement ``select(ctx) -> int`` where ``ctx`` is the engine-provided
node context. They must return a member of ``ctx.candidates``; randomized
policies draw from ``ctx.rng`` so runs are reproducible per (seed, instance).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .simplex import FEAS_TOL, INT_TOL, BoundOverride, LpStatus

PC_EPSILON = 1e-6
INFEASIBLE_GAIN = 1e6     # stand-in objective gain for an infeasible child
DB0_GAP_FRACTION = 0.2    # hybrid expert's default DB0: root bound + this share of the gap


class PseudocostStore:
    """Running average objective gain per unit fractional distance, per direction.

    A direction with no observations reports the neutral default 1.0.
    """

    def __init__(self, num_vars: int):
        self.psi_up = np.zeros(num_vars)
        self.psi_down = np.zeros(num_vars)
        self.count_up = np.zeros(num_vars, dtype=np.int64)
        self.count_down = np.zeros(num_vars, dtype=np.int64)

    def effective_up(self) -> np.ndarray:
        return np.where(self.count_up > 0, self.psi_up, 1.0)

    def effective_down(self) -> np.ndarray:
        return np.where(self.count_down > 0, self.psi_down, 1.0)


def pc_update(
    store: PseudocostStore,
    j: int,
    direction: str,
    parent_obj: float,
    child_obj: float,
    fractional_distance: float,
) -> None:
    """Fold one observed per-unit gain into the running average.

    Infeasible children (infinite objective) leave the store unchanged.
    """
    if fractional_distance <= 0:
        raise ValueError("fractional distance must be positive")
    if not math.isfinite(child_obj):
        return
    gain = max(child_obj - parent_obj, 0.0) / fractional_distance
    if direction == "up":
        store.count_up[j] += 1
        store.psi_up[j] += (gain - store.psi_up[j]) / store.count_up[j]
    elif direction == "down":
        store.count_down[j] += 1
        store.psi_down[j] += (gain - store.psi_down[j]) / store.count_down[j]
    else:
        raise ValueError(f"direction must be 'up' or 'down', got {direction!r}")


def score_product(a: float, b: float, epsilon: float = PC_EPSILON) -> float:
    """Two-sided score: product of the clamped per-side gains."""
    return max(a, epsilon) * max(b, epsilon)


def pc_score(xj: float, psi_down: float, psi_up: float, epsilon: float = PC_EPSILON) -> float:
    frac = xj - math.floor(xj)
    return score_product(frac * psi_down, (1.0 - frac) * psi_up, epsilon)


def most_infeasible_select(x: np.ndarray, candidates) -> int:
    """Candidate whose fractional part is closest to one half; ties -> lowest index."""
    if len(candidates) == 0:
        raise ValueError("empty candidate set")
    best, best_score = None, -1.0
    for j in sorted(int(c) for c in candidates):
        frac = x[j] - math.floor(x[j])
        score = min(frac, 1.0 - frac)
        if score > best_score + 1e-15:
            best, best_score = j, score
    return best


def pseudocost_select(x: np.ndarray, candidates, store: PseudocostStore,
                      epsilon: float = PC_EPSILON) -> int:
    pu, pd = store.effective_up(), store.effective_down()
    best, best_score = None, -math.inf
    for j in sorted(int(c) for c in candidates):
        score = pc_score(float(x[j]), float(pd[j]), float(pu[j]), epsilon)
        if score > best_score:
            best, best_score = j, score
    return best


def ac_score(
    inst,
    x: np.ndarray,
    candidates,
    weights: tuple[float, float, float, float],
) -> np.ndarray:
    """Active-constraint scores for every candidate, in candidate order.

    Four per-candidate tallies over the rows tight at the relaxation optimum:
    raw presence, presence diluted by how many candidates share the row,
    coefficient magnitude against the row norm, and magnitude against the
    candidate total in that row. Each tally is scaled to [0, 1] across the
    candidates (all-zero stays zero) and blended with the given weights.
    """
    cand = np.asarray(sorted(int(c) for c in candidates), dtype=np.int64)
    k = len(cand)
    scores = np.zeros((4, k))
    m = inst.num_cons
    if m == 0 or inst.nnz == 0:
        return np.zeros(k)
    act = np.zeros(m)
    np.add.at(act, inst.row_idx, inst.coef * x[inst.col_idx])
    slack = inst.rhs - act
    active_rows = np.where(slack <= FEAS_TOL)[0]
    if len(active_rows) == 0:
        return np.zeros(k)

    A = inst.dense_matrix()
    cand_pos = {int(j): t for t, j in enumerate(cand)}
    row_norm = np.sqrt((A**2).sum(axis=1))
    row_norm[row_norm == 0.0] = 1.0
    for i in active_rows:
        row = A[i]
        nz_cand = [j for j in cand if row[j] != 0.0]
        cand_abs_sum = sum(abs(row[j]) for j in nz_cand)
        for j in nz_cand:
            t = cand_pos[j]
            scores[0, t] += 1.0
            scores[1, t] += 1.0 / len(nz_cand)
            scores[2, t] += abs(row[j]) / row_norm[i]
            if cand_abs_sum > 0:
                scores[3, t] += abs(row[j]) / cand_abs_sum
    for w in range(4):
        mx = scores[w].max(initial=0.0)
        if mx > 0:
            scores[w] /= mx
    return np.asarray(weights) @ scores


def ac_select(inst, x, candidates, weights) -> int | None:
    """Argmax active-constraint candidate, or None when every score is zero."""
    cand = sorted(int(c) for c in candidates)
    scores = ac_score(inst, x, cand, weights)
    if not np.any(scores > 0):
        return None
    return int(cand[int(np.argmax(scores))])


def _ac_or_most_infeasible(ctx, weights) -> int:
    """Active-constraint choice at the node, else the most-infeasible candidate."""
    choice = ac_select(ctx.instance, ctx.lp.x, ctx.candidates, weights)
    if choice is None:
        return most_infeasible_select(ctx.lp.x, ctx.candidates)
    return choice


@dataclass(frozen=True)
class HybridConfig:
    db0: float              # dual-bound threshold
    r0: float = 0.5         # sampling probability, in (0, 1)

    def __post_init__(self):
        if not (0.0 < self.r0 < 1.0):
            raise ValueError(f"r0 must lie in (0, 1), got {self.r0}")


def hybrid_rule(db: float, config: HybridConfig, r: float) -> str:
    """Which sub-rule the hybrid sampler uses for draw r at dual bound db."""
    if (db <= config.db0 and r <= config.r0) or (db > config.db0 and r > config.r0):
        return "pc"
    return "ac"


# ---------------------------------------------------------------------------
# Policy objects
# ---------------------------------------------------------------------------

class BranchingPolicy:
    name = "policy"

    def reset(self, rctx) -> None:
        """Called once per instance before the first decision."""

    def select(self, ctx) -> int:
        raise NotImplementedError


class MostInfeasiblePolicy(BranchingPolicy):
    name = "most-infeasible"

    def select(self, ctx) -> int:
        return most_infeasible_select(ctx.lp.x, ctx.candidates)


class PseudocostPolicy(BranchingPolicy):
    name = "pseudocost"

    def select(self, ctx) -> int:
        return pseudocost_select(ctx.lp.x, ctx.candidates, ctx.pseudocosts)


class StrongBranchingPolicy(BranchingPolicy):
    name = "strong-branching"

    def select(self, ctx) -> int:
        best, best_score = None, -math.inf
        for j in sorted(int(c) for c in ctx.candidates):
            down, up = ctx.probe(j)
            score = score_product(_gain(down, ctx.lp), _gain(up, ctx.lp))
            if score > best_score:
                best, best_score = j, score
        return best


def _gain(child, parent) -> float:
    """A probed child's objective gain over its parent: a lower bound on it
    for a child cut off at the incumbent, ``INFEASIBLE_GAIN`` for an
    infeasible one."""
    if child.status is LpStatus.OPTIMAL or child.status is LpStatus.CUTOFF:
        return child.objective - parent.objective
    return INFEASIBLE_GAIN


class ActiveConstraintPolicy(BranchingPolicy):
    name = "active-constraint"

    def __init__(self, weights: tuple[float, float, float, float] = (1.0, 1.0, 1.0, 1.0)):
        self.weights = weights

    def select(self, ctx) -> int:
        return _ac_or_most_infeasible(ctx, self.weights)


class RandomPolicy(BranchingPolicy):
    name = "random"

    def select(self, ctx) -> int:
        cand = sorted(int(c) for c in ctx.candidates)
        return cand[int(ctx.rng.integers(0, len(cand)))]


class HybridExpertPolicy(BranchingPolicy):
    """Sampling expert mixing pseudocost and active-constraint decisions.

    With the dual bound below the threshold the pseudocost rule fires with
    probability r0, above it with probability 1 - r0; the active-constraint
    rule fills the remainder with fresh uniform weights each time. The
    threshold defaults to the root bound plus 20% of the gap estimated by a
    most-infeasible dive.
    """

    name = "hybrid-expert"

    def __init__(self, r0: float = 0.5, db0_mode: str = "auto", db0_value: float = 0.0,
                 epsilon: float = PC_EPSILON):
        if db0_mode not in ("auto", "value"):
            raise ValueError(f"db0_mode must be 'auto' or 'value', got {db0_mode!r}")
        self.r0 = r0
        self.db0_mode = db0_mode
        self.db0_value = db0_value
        self.epsilon = epsilon
        self.config: HybridConfig | None = None
        self.rule_counts = {"pc": 0, "ac": 0}

    def reset(self, rctx) -> None:
        if self.db0_mode == "value":
            self.config = HybridConfig(db0=self.db0_value, r0=self.r0)
            return
        root_obj = rctx.root.objective
        estimate = _dive_estimate(rctx)
        if estimate is None or not math.isfinite(estimate):
            db0 = root_obj
        else:
            db0 = root_obj + DB0_GAP_FRACTION * (estimate - root_obj)
        self.config = HybridConfig(db0=db0, r0=self.r0)

    def select(self, ctx) -> int:
        r = float(ctx.rng.uniform())
        rule = hybrid_rule(ctx.dual_bound, self.config, r)
        self.rule_counts[rule] += 1
        if rule == "pc":
            return pseudocost_select(ctx.lp.x, ctx.candidates, ctx.pseudocosts, self.epsilon)
        return _ac_or_most_infeasible(ctx, tuple(ctx.rng.uniform(size=4)))


def _dive_estimate(rctx) -> float | None:
    """Most-infeasible rounding dive from the root; returns an incumbent
    value estimate or None when the dive dead-ends."""
    inst = rctx.instance
    lp = rctx.root
    overrides: tuple[BoundOverride, ...] = ()
    for _ in range(inst.num_int + 1):
        if lp.status is not LpStatus.OPTIMAL:
            return None
        fracs = lp.x[: inst.num_int] - np.floor(lp.x[: inst.num_int])
        frac_score = np.minimum(fracs, 1.0 - fracs)
        cand = np.where(frac_score > INT_TOL)[0]
        if len(cand) == 0:
            return float(lp.objective)
        j = int(cand[int(np.argmax(frac_score[cand]))])
        target = round(float(lp.x[j]))
        if target >= lp.x[j]:
            ov = BoundOverride(j, "lower", float(target))
        else:
            ov = BoundOverride(j, "upper", float(target))
        overrides = overrides + (ov,)
        lp = rctx.solve(overrides, warm=lp)
    return None


STANDARD_POLICIES = {
    "most-infeasible": MostInfeasiblePolicy,
    "pseudocost": PseudocostPolicy,
    "strong-branching": StrongBranchingPolicy,
    "active-constraint": ActiveConstraintPolicy,
    "hybrid-expert": HybridExpertPolicy,
    "random": RandomPolicy,
}
