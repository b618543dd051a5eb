"""Independent oracles the tests check the implementation against.

These deliberately avoid the library's own solver paths: LP optima come from
dense vertex enumeration, MILP optima from exhaustive enumeration of binary
assignments or of small integer boxes, the simplex ratio test from a plain
numpy-scalar loop, simplex pricing from the boolean-mask rule it replaced,
the dual simplex's leaving row from the largest-violation rule it replaced,
the GCNN's half-convolutions from their edge-level form, the GCNN's stacked
pieces from slices of one stack of every state, and statistical claims from
an exact binomial tail.
"""

from __future__ import annotations

import itertools
import math

from dataclasses import dataclass

import numpy as np

from branchlab.gnn import _CHUNK, GraphBatch, segment_sum
from branchlab.observation import CONS_FEATURES, BipartiteObservation
from branchlab.simplex import _AT_LOWER, _AT_UPPER, _FREE, FEAS_TOL


def lp_vertex_optimum(c, A, b, l, u, tol=1e-9):
    """Minimum of c @ x over {Ax <= b, l <= x <= u} by vertex enumeration.

    Bounds must be finite (the polytope is then compact, so an optimum, if the
    region is nonempty, is attained at a vertex). Returns None when infeasible.
    """
    c = np.asarray(c, dtype=float)
    A = np.asarray(A, dtype=float).reshape(len(b), len(c))
    n = len(c)
    rows = [A[i] for i in range(len(b))]
    rhs = list(b)
    eye = np.eye(n)
    for j in range(n):
        rows.append(eye[j])
        rhs.append(u[j])
        rows.append(-eye[j])
        rhs.append(-l[j])
    best = None
    for combo in itertools.combinations(range(len(rows)), n):
        M = np.array([rows[i] for i in combo])
        r = np.array([rhs[i] for i in combo])
        if abs(np.linalg.det(M)) < 1e-10:
            continue
        x = np.linalg.solve(M, r)
        if (
            np.all(A @ x <= np.asarray(b) + tol)
            and np.all(x >= np.asarray(l) - tol)
            and np.all(x <= np.asarray(u) + tol)
        ):
            v = float(c @ x)
            if best is None or v < best:
                best = v
    return best


def ratio_test_reference(step, basis, x, lb, ub, own, bland, pivot_tol):
    """The simplex ratio test as a loop over numpy scalars.

    Row i's basic variable ``basis[i]`` moves by ``-t * step[i]``; ``x``,
    ``lb`` and ``ub`` are indexed by variable, and ``own`` is the entering
    variable's bound-flip length. Returns ``(t_best, leave_row)``, with
    ``leave_row = -1`` for a bound flip. This is the solver's original scan,
    kept as the reference for its plain-float rewrite.
    """
    m = len(basis)
    t_best = own if np.isfinite(own) else math.inf
    leave_row = -1
    for i in range(m):
        ci = step[i]
        bi = basis[i]
        if ci > pivot_tol:
            lo = lb[bi]
            if not np.isfinite(lo):
                continue
            t_i = max(x[bi] - lo, 0.0) / ci
        elif ci < -pivot_tol:
            hi = ub[bi]
            if not np.isfinite(hi):
                continue
            t_i = max(hi - x[bi], 0.0) / (-ci)
        else:
            continue
        if t_i < t_best - 1e-12:
            t_best, leave_row = t_i, i
        elif leave_row >= 0 and t_i <= t_best + 1e-12:
            # tie-break: Bland by lowest variable index, default by
            # largest pivot magnitude for stability
            if bland:
                if bi < basis[leave_row]:
                    leave_row = i
            elif abs(ci) > abs(step[leave_row]):
                leave_row = i
    return t_best, leave_row


def pricing_reference(d, stat, bland, dual_tol):
    """Simplex pricing with boolean masks: the solver's original rule, kept as
    the reference for its signed-score rewrite.

    A column may increase if it sits at its lower bound or is free and its
    reduced cost ``d`` is below ``-dual_tol``; it may decrease if it sits at
    its upper bound or is free and ``d`` is above ``dual_tol``. Dantzig's rule
    takes the eligible column of largest ``|d|`` (the first on ties), Bland's
    the first eligible column. Returns ``(e, direction)``, or ``(-1, 0.0)``
    when no column is eligible.
    """
    can_inc = ((stat == _AT_LOWER) | (stat == _FREE)) & (d < -dual_tol)
    can_dec = ((stat == _AT_UPPER) | (stat == _FREE)) & (d > dual_tol)
    eligible = np.where(can_inc | can_dec)[0]
    if len(eligible) == 0:
        return -1, 0.0
    if bland:
        e = int(eligible[0])
    else:
        e = int(eligible[np.argmax(np.abs(d[eligible]))])
    direction = 1.0 if can_inc[e] else -1.0
    return e, direction


def leaving_row_reference(basis, xb, lbb, ubb, Binv, bland):
    """The dual simplex's leaving row by largest bound violation: the
    solver's rule before dual steepest edge, kept as a reference with
    ``_leaving_row``'s arguments (``Binv`` is not read).

    The row whose value lies furthest outside its bounds, by more than
    ``FEAS_TOL``, wins, the lowest of equal rows; Bland's rule takes the
    violated row of lowest variable index. Returns ``(r, above)``, or
    ``(-1, False)`` when every row is within its bounds or a NaN value
    stops ``argmax``.
    """
    violation = np.maximum(xb - ubb, lbb - xb)
    if bland:
        rows = np.flatnonzero(violation > FEAS_TOL)
        if not len(rows):
            return -1, False
        r = int(rows[basis[rows].argmin()])
    else:
        r = int(violation.argmax())
        if not violation.item(r) > FEAS_TOL:
            return -1, False
    return r, xb.item(r) > ubb.item(r)


def brute_force_binary(inst, tol=1e-9):
    """Exact optimum of an all-binary instance by exhaustive enumeration.

    Returns (value, point) or (None, None) when no assignment is feasible.
    """
    n = inst.num_vars
    assert inst.num_int == n, "oracle only handles pure binary instances"
    A = inst.dense_matrix()
    X = np.array(list(itertools.product([0.0, 1.0], repeat=n)))
    ok = np.all(X >= inst.lower - tol, axis=1) & np.all(X <= inst.upper + tol, axis=1)
    if inst.num_cons:
        ok &= np.all(X @ A.T <= inst.rhs + tol, axis=1)
    if not ok.any():
        return None, None
    vals = X[ok] @ inst.objective
    k = int(np.argmin(vals))
    return float(vals[k]), X[ok][k]


def brute_force_integer(inst, max_points=100_000, tol=1e-9):
    """Exact optimum of a pure integer instance with finite bounds by
    enumerating every integer point of its box.

    Returns (value, point) or (None, None) when no point is feasible.
    """
    n = inst.num_vars
    assert inst.num_int == n, "oracle only handles pure integer instances"
    lo, up = np.ceil(inst.lower - tol), np.floor(inst.upper + tol)
    assert np.all(np.isfinite(lo)) and np.all(np.isfinite(up)), "box must be finite"
    sizes = np.maximum(up - lo + 1, 0).astype(int)
    assert int(np.prod(sizes)) <= max_points, "box too large to enumerate"
    X = np.array(list(itertools.product(*(np.arange(a, b + 1) for a, b in zip(lo, up)))),
                 dtype=float).reshape(-1, n)
    ok = np.ones(len(X), dtype=bool)
    if inst.num_cons:
        ok &= np.all(X @ inst.dense_matrix().T <= inst.rhs + tol, axis=1)
    if not ok.any():
        return None, None
    vals = X[ok] @ inst.objective
    k = int(np.argmin(vals))
    return float(vals[k]), X[ok][k]


def sign_test_p_value(wins: int, trials: int) -> float:
    """One-sided exact binomial tail P(X >= wins) under fair-coin null."""
    return sum(math.comb(trials, k) for k in range(wins, trials + 1)) / 2.0**trials


# ---------------------------------------------------------------------------
# The GCNN half-convolution in its edge-level form: every message is a
# two-layer perceptron evaluated on its edge, so each weight multiplies an
# (edges x hidden) array. Kept as the reference for the node-level rewrite;
# it has the signatures of ``gnn._half_conv`` and ``gnn._half_conv_backward``
# and can stand in for them.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgePass:
    """What one half-convolution computed, kept for the backward."""

    msg: str
    upd: str
    cons: np.ndarray       # constraint embeddings read by the messages
    var: np.ndarray        # variable embeddings read by the messages
    to_cons: bool          # receiving side: constraints, else variables
    act: np.ndarray        # (E, HIDDEN) relu of the message pre-activations
    raw: np.ndarray        # summed messages before the prenormalisation scale
    agg: np.ndarray        # raw times the scale
    hidden: np.ndarray     # relu of the update's pre-activations

    @property
    def own(self) -> np.ndarray:
        return self.cons if self.to_cons else self.var


def half_conv_edges(P, msg: str, upd: str, cons, var, g: GraphBatch, to_cons: bool):
    """One half-convolution: a message per edge from both endpoint embeddings
    and the edge value, summed into the receiving side and prenormalised, then
    the update. Returns the update's output and its :class:`EdgePass`."""
    pre = ((cons[g.edge_row] @ P[f"{msg}_w_c"] + var[g.edge_col] @ P[f"{msg}_w_v"])
           + (g.edge_val @ P[f"{msg}_w_e"] + P[f"{msg}_b1"]))
    act = np.maximum(pre, 0.0)
    own, idx = (cons, g.edge_row) if to_cons else (var, g.edge_col)
    raw = segment_sum(act @ P[f"{msg}_w2"] + P[f"{msg}_b2"], idx, own.shape[0])
    agg = raw * P[f"{msg}_norm"]
    hidden = np.maximum((own @ P[f"{upd}_w_self"] + agg @ P[f"{upd}_w_agg"]) + P[f"{upd}_b1"],
                        0.0)
    out = hidden @ P[f"{upd}_w2"] + P[f"{upd}_b2"]
    return out, EdgePass(msg, upd, cons, var, to_cons, act, raw, agg, hidden)


def half_conv_edges_backward(P, p: EdgePass, g: GraphBatch, d_out: np.ndarray, grads: dict):
    """Backward of one half-convolution. Stores its parameter gradients in
    ``grads`` and returns the gradients reaching the receiving side's own
    embedding (the update's self term) and, through the edge gathers, the
    constraint and the variable embeddings."""
    msg, upd = p.msg, p.upd
    grads[f"{upd}_w2"] = p.hidden.T @ d_out
    grads[f"{upd}_b2"] = d_out.sum(axis=0)
    d_hid = (d_out @ P[f"{upd}_w2"].T) * (p.hidden > 0.0)
    grads[f"{upd}_b1"] = d_hid.sum(axis=0)
    grads[f"{upd}_w_self"] = p.own.T @ d_hid
    grads[f"{upd}_w_agg"] = p.agg.T @ d_hid
    d_own = d_hid @ P[f"{upd}_w_self"].T
    idx = g.edge_row if p.to_cons else g.edge_col
    d_msg = ((d_hid @ P[f"{upd}_w_agg"].T) * P[f"{msg}_norm"])[idx]
    grads[f"{msg}_w2"] = p.act.T @ d_msg
    grads[f"{msg}_b2"] = d_msg.sum(axis=0)
    d_pre = (d_msg @ P[f"{msg}_w2"].T) * (p.act > 0.0)
    grads[f"{msg}_b1"] = d_pre.sum(axis=0)
    grads[f"{msg}_w_e"] = g.edge_val.T @ d_pre
    grads[f"{msg}_w_c"] = p.cons[g.edge_row].T @ d_pre
    grads[f"{msg}_w_v"] = p.var[g.edge_col].T @ d_pre
    d_cons = segment_sum(d_pre @ P[f"{msg}_w_c"].T, g.edge_row, p.cons.shape[0])
    d_var = segment_sum(d_pre @ P[f"{msg}_w_v"].T, g.edge_col, p.var.shape[0])
    return d_own, d_cons, d_var


# ---------------------------------------------------------------------------
# Pieces sliced out of one stack of every state, with their offsets and
# labels re-based to the piece: the network's former input path, which the
# pieces it stacks one at a time must reproduce array for array.
# ---------------------------------------------------------------------------

def stack_whole(states):
    """Observations, or (obs, cand, action) triples with their labels,
    stacked as one disjoint union; also each graph's first variable,
    constraint and edge, and past the last graph their totals."""
    labelled = not isinstance(states[0], BipartiteObservation)
    obs = [s[0] for s in states] if labelled else list(states)
    sizes = np.array([(o.num_vars, o.num_cons, len(o.edge_val)) for o in obs], dtype=np.int64)
    starts = np.zeros((len(obs) + 1, 3), dtype=np.int64)
    np.cumsum(sizes, axis=0, out=starts[1:])
    cons = [o.cons_features for o in obs if o.num_cons]
    labels = None
    if labelled:
        cand_idx, cand_graph, action_idx = [], [], []
        for k, (_o, cand, action) in enumerate(states):
            cand_idx.extend(int(c) + int(starts[k, 0]) for c in cand)
            cand_graph.extend([k] * len(cand))
            action_idx.append(int(action) + int(starts[k, 0]))
        labels = tuple(np.asarray(a, dtype=np.int64) for a in (cand_idx, cand_graph, action_idx))
    whole = GraphBatch(
        np.concatenate([o.var_features for o in obs]),
        np.concatenate(cons) if cons else np.zeros((0, CONS_FEATURES)),
        np.concatenate([np.asarray(o.edge_row, dtype=np.int64) + off
                        for o, off in zip(obs, starts[:-1, 1])]),
        np.concatenate([np.asarray(o.edge_col, dtype=np.int64) + off
                        for o, off in zip(obs, starts[:-1, 0])]),
        np.concatenate([o.edge_val for o in obs]).reshape(-1, 1),
        np.repeat(np.arange(len(obs), dtype=np.int64), sizes[:, 0]),
        1.0 / np.maximum(sizes[:, :1], 1),
        labels,
    )
    return whole, starts


class SlicedPieces:
    """What ``gnn.Pieces`` gives a pass, each piece of at most ``_CHUNK``
    graphs sliced out of :func:`stack_whole` and re-based to the piece."""

    def __init__(self, states):
        states = list(states)
        self.num_graphs = len(states)
        self.labelled = not isinstance(states[0], BipartiteObservation)
        self.whole, self.starts = stack_whole(states)

    def __iter__(self):
        g, starts = self.whole, self.starts
        for lo in range(0, g.num_graphs, _CHUNK):
            hi = min(lo + _CHUNK, g.num_graphs)
            (v0, c0, e0), (v1, c1, e1) = starts[lo], starts[hi]
            labels = None
            if g.labels is not None:
                cand_idx, cand_graph, action_idx = g.labels
                k0, k1 = np.searchsorted(cand_graph, (lo, hi))    # stacked in graph order
                labels = (cand_idx[k0:k1] - v0, cand_graph[k0:k1] - lo, action_idx[lo:hi] - v0)
            yield GraphBatch(
                g.var_features[v0:v1], g.cons_features[c0:c1],
                g.edge_row[e0:e1] - c0, g.edge_col[e0:e1] - v0, g.edge_val[e0:e1],
                g.var_graph[v0:v1] - lo, g.pool_scale[lo:hi], labels,
            )
