"""Correctness checks that do not use the program's solver path.

Reference optima come from enumeration over the instance data alone; the
other checks test properties every correct answer has (feasibility, a
monotone dual bound below the optimum, chaining returns, the selection rule,
the integral of a trace). Each check raises ``CheckError`` with a message
that names what is wrong.
"""

from __future__ import annotations

import math

import numpy as np

OPT_TOL = 1e-6      # incumbent value against the reference optimum, relative to 1 + |z*|
FEAS_TOL = 1e-6     # integrality, bounds and A x <= b
REL_TOL = 1e-9      # recomputed floating-point sums against the program's


class CheckError(AssertionError):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def dense(inst) -> np.ndarray:
    A = np.zeros((inst.num_cons, inst.num_vars))
    A[inst.row_idx, inst.col_idx] = inst.coef
    return A


# ---------------------------------------------------------------------------
# Reference optima
# ---------------------------------------------------------------------------

def _best_pair(inst, X1: np.ndarray, X2: np.ndarray) -> float:
    """Minimum of c @ (x1 + x2) over the rows of X1 and X2 with
    A (x1 + x2) <= b: the two halves of a meet-in-the-middle enumeration."""
    A, c, b = dense(inst), inst.objective, inst.rhs
    act1, act2 = X1 @ A.T, X2 @ A.T
    c1, c2 = X1 @ c, X2 @ c
    b = b + FEAS_TOL * (1 + np.abs(b))
    # a row that holds for the largest activity of each half holds for every pair
    tight = act1.max(axis=0) + act2.max(axis=0) > b
    act1, act2, b = act1[:, tight], act2[:, tight], b[tight]
    best = math.inf
    for lo in range(0, len(X1), 64):
        ok = np.all(act1[lo:lo + 64, None, :] + act2[None, :, :] <= b, axis=2)
        if ok.any():
            best = min(best, float((c1[lo:lo + 64, None] + c2[None, :])[ok].min()))
    _require(math.isfinite(best), f"{inst.name}: enumeration found no feasible point")
    return best


def knapsack_optimum(inst) -> float:
    """Minimum objective over every binary point with A x <= b (2^n points,
    enumerated as two halves of n/2 columns)."""
    n = inst.num_vars
    _require(bool(np.all(inst.lower == 0.0) and np.all(inst.upper == 1.0)),
             f"{inst.name}: knapsack enumeration needs binary variables")
    h = n // 2

    def half(lo, hi):
        k = hi - lo
        X = np.zeros((2 ** k, n))
        X[:, lo:hi] = (np.arange(2 ** k)[:, None] >> np.arange(k)) & 1
        return X

    return _best_pair(inst, half(0, h), half(h, n))


def placement_optimum(inst, bins: int) -> float:
    """Minimum objective over every assignment of exactly one bin per item
    (bins^items points, enumerated as two halves of the items). Columns are
    item-major: item i in bin k is column i * bins + k. Every row of the
    instance, assignment and capacity alike, is checked for each point."""
    n = inst.num_vars
    items = n // bins
    _require(items * bins == n, f"{inst.name}: {n} columns do not split into {bins} bins")

    def half(first, last):
        k = last - first
        choice = (np.arange(bins ** k)[:, None] // bins ** np.arange(k)) % bins
        X = np.zeros((bins ** k, n))
        rows = np.arange(bins ** k)
        for t in range(k):
            X[rows, (first + t) * bins + choice[:, t]] = 1.0
        return X

    return _best_pair(inst, half(0, items // 2), half(items // 2, items))


# ---------------------------------------------------------------------------
# Solve results
# ---------------------------------------------------------------------------

def check_incumbent(inst, x, value: float) -> None:
    """Integral on the integer columns, within bounds, A x <= b, and its
    objective equal to the reported value."""
    _require(x is not None, f"{inst.name}: no incumbent")
    x = np.asarray(x, dtype=float)
    p = inst.num_int
    _require(bool(np.all(np.abs(x[:p] - np.round(x[:p])) <= FEAS_TOL)),
             f"{inst.name}: incumbent is not integral")
    _require(bool(np.all(x >= inst.lower - FEAS_TOL) and np.all(x <= inst.upper + FEAS_TOL)),
             f"{inst.name}: incumbent violates a variable bound")
    _require(bool(np.all(dense(inst) @ x <= inst.rhs + FEAS_TOL * (1 + np.abs(inst.rhs)))),
             f"{inst.name}: incumbent violates A x <= b")
    obj = float(inst.objective @ x)
    _require(abs(obj - value) <= OPT_TOL * (1 + abs(value)),
             f"{inst.name}: incumbent objective {obj!r} differs from reported {value!r}")


def check_optimum(name: str, value: float, z_star: float) -> None:
    _require(abs(value - z_star) <= OPT_TOL * (1 + abs(z_star)),
             f"{name}: value {value!r} differs from the reference optimum {z_star!r}")


def check_bounds(name: str, events, z_star: float) -> None:
    """Every recorded dual bound is at most the optimum and never decreases;
    clocks strictly increase."""
    prev_c, prev_z = -math.inf, -math.inf
    for c, z in events:
        _require(c > prev_c, f"{name}: trace clock {c!r} does not increase")
        _require(z >= prev_z, f"{name}: dual bound decreased {prev_z!r} -> {z!r}")
        _require(z <= z_star + OPT_TOL * (1 + abs(z_star)),
                 f"{name}: dual bound {z!r} above the optimum {z_star!r}")
        prev_c, prev_z = c, z


def gap_area(events, horizon: float, reference: float) -> float:
    """Integral over [0, horizon] of (reference - bound); the bound before the
    first event is read as the first event's value."""
    if not events:
        return 0.0
    total = (reference - events[0][1]) * events[0][0]
    for k, (c, z) in enumerate(events):
        end = events[k + 1][0] if k + 1 < len(events) else horizon
        total += (reference - z) * (end - c)
    return total


def gap_integral(events, horizon: float, z_star: float) -> float:
    """The gap area against the optimum z*, divided by horizon * |z*|."""
    return gap_area(events, horizon, z_star) / (horizon * abs(z_star))


def check_report_integral(name: str, row: dict) -> None:
    """A report row's dual integral equals the integral of its own trace
    against its own reference (reward constant / horizon), and its reward is
    the constant minus the integral."""
    horizon = row["horizon"]
    reference = row["reward_constant"] / horizon
    events = [(float(c), float(z)) for c, z in row["trace"]]
    expected = gap_area(events, horizon, reference)
    got = row["dual_integral"]
    _require(abs(got - expected) <= REL_TOL * (1.0 + abs(expected) + abs(row["reward_constant"])),
             f"{name}: dual_integral {got!r}, recomputed from its trace {expected!r}")
    reward = row["reward_constant"] - got
    _require(abs(row["cumulative_reward"] - reward) <= 1e-9 * (1.0 + abs(reward)),
             f"{name}: cumulative_reward {row['cumulative_reward']!r} is not constant - integral")


# ---------------------------------------------------------------------------
# Pipeline artifacts
# ---------------------------------------------------------------------------

def check_returns(episodes: dict[str, list[float]], columns: list[dict], gamma: float) -> None:
    """The returns in the envelope report chain, G_t = r_t + gamma * G_{t+1}
    with G past the end 0, over the rewards read from the episode files. An
    episode without decisions (solved at the root) has no returns."""
    by_episode: dict[str, dict[int, float]] = {}
    for col in columns:
        by_episode.setdefault(col["episode"], {})[col["t"]] = col["G"]
    episodes = {name: rewards for name, rewards in episodes.items() if rewards}
    _require(set(by_episode) == set(episodes),
             "envelope report and episode files name different episodes")
    for name, rewards in episodes.items():
        G = by_episode[name]
        _require(sorted(G) == list(range(len(rewards))),
                 f"{name}: envelope report positions do not cover the episode")
        for t, r in enumerate(rewards):
            nxt = G[t + 1] if t + 1 < len(rewards) else 0.0
            want = r + gamma * nxt
            _require(abs(G[t] - want) <= REL_TOL * (1.0 + abs(want)) + 1e-9,
                     f"{name}: G_{t} = {G[t]!r} but r_t + gamma * G_(t+1) = {want!r}")


def expected_selection(columns: list[dict], p: float) -> set[tuple[str, int]]:
    """The ceil(p% * m) columns with the highest G_shifted / V_shifted, ties
    to the earlier column."""
    ratios = [c["G_shifted"] / c["V_shifted"] for c in columns]
    k = math.ceil(p / 100.0 * len(columns))
    order = sorted(range(len(columns)), key=lambda i: (-ratios[i], i))
    return {(columns[i]["episode"], columns[i]["t"]) for i in order[:k]}


def check_selection(dataset_rows: list[dict], columns: list[dict], p: float) -> None:
    chosen = [(r["episode"], r["t"]) for r in dataset_rows]
    _require(len(chosen) == len(set(chosen)), "dataset.jsonl repeats an entry")
    want = expected_selection(columns, p)
    _require(set(chosen) == want,
             f"dataset.jsonl differs from the top {len(want)} ratios in "
             f"{len(set(chosen) ^ want)} entries")
