"""Bipartite graph-convolutional policy/value network.

One convolution round in two passes (variables to constraints, then
constraints back to variables), each message and update function a two-layer
perceptron with relu on the hidden layer. A node sums the messages of its
incident edges, and the sum is multiplied by a per-pass scalar, the scale-only
prenormalisation of Gasse et al. (2019): :func:`prenormalize` fixes it from
training states before gradient training so that the aggregated term has unit
root mean square. Fresh parameters carry scale 1 (plain sums); left at 1 on
dense rows, summed messages swamp the per-variable features that the branching
rules score. A per-variable head produces branching logits that are masked to
the candidate set; a mean-pooled scalar head produces the state value used by
the envelope fit.

Message passing multiplies at the nodes, never at the edges. A message is
a two-layer perceptron of its edge, ``relu(c_i W_c + v_j W_v + e_ij w_e +
b1) W2 + b2``. Its first layer is a sum of terms in one endpoint each, so
``C W_c`` and ``V W_v`` are computed per node and gathered to the edges. Its
second layer is linear, so the sum of a receiver's messages is (the sum of
its edges' relu activations) ``W2`` + (its edge count) ``b2``; a node without
edges receives 0. In real arithmetic this is the function that evaluates
every message on its edge (``tests/oracles.py`` keeps that form); in floats
the sums run in another order, and results move by about 1e-15 relative.
Per edge only gathers, adds, the relu and segment sums run, so the work on
edges is E x HIDDEN, not E x HIDDEN^2. The per-edge (E x HIDDEN) arrays are
the forward's pre-activation, which becomes the activation in place, one
gather or edge-term temporary at a time, and the segment sum's flat index.
Of these the backward keeps only the relu's on/off pattern (one byte an
entry). It builds one per-edge array of its own, the pre-activation
gradient, and segment-sums it by constraint and by variable to reach
``W_c``, ``W_v`` and the embeddings.

A batch of observations runs as one disjoint-union graph through one plain
numpy forward, :func:`_forward`, which serves inference and loss evaluation
and returns the activations it computed; prenormalisation runs it only as far
as the raw message sums it reads (:func:`_raw_sums`). :func:`grad`
differentiates the network with a hand-written backward over those
activations: the two loss heads, the two half-convolutions and the input
embeddings. Edge gathers are differentiated by row scatters accumulated with
``np.bincount`` in index order. Where an embedding feeds several terms, its
gradient is summed in one fixed order: constraint embeddings as (update self
term + message gather), variable embeddings as (second update's self term +
first pass's message gather) + second pass's message gather; a weight's
ridge term is added after its network term. Results are therefore
reproducible bit for bit.

The piece of at most 32 graphs (a :class:`GraphBatch`) is the only stacked
form: a function that takes many states takes them as :class:`Pieces`, and
each pass, gradients included, stacks and runs one piece at a time, so it
holds one piece's inputs and activations whatever the number of states (a
value-head gradient of 256 dense 16x3 states: 2.9 MB, against 19.2 MB in one
pass). Each head's loss is written once (:func:`_policy_loss`,
:func:`_envelope_loss`) and summed over the pieces in piece order by
:func:`_loss`, for :func:`grad` and the scorers alike, so they agree on it
bit for bit. No caller keeps stacked pieces between passes; the stackers
shift indices with one array operation per field, so a 32-graph piece of
dense 16x3 states stacks in about 80 us bare and 145 us labelled, against a
forward of about 1.7 ms. Measured at the criterion-8 size (seed 11, 6,961
states, peak RSS of each stage process, medians of eight runs): a stack of
every state put ``select`` at 91.8 MB, against 71.3 MB, and stacks of
``train``'s two splits put it at 60.6 MB, against 55.8 MB. Keeping those
splits' pieces stacked instead would save ``train`` about 3% of its time
and cost 2.9 MB.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .observation import BipartiteObservation, CATALOG_VERSION, CONS_FEATURES, VAR_FEATURES
from .rules import BranchingPolicy

HIDDEN = 32
CHECKPOINT_FORMAT = 2    # 2: adds the prenormalisation scales

_SHAPES = {
    "emb_v_w": (VAR_FEATURES, HIDDEN), "emb_v_b": (HIDDEN,),
    "emb_c_w": (CONS_FEATURES, HIDDEN), "emb_c_b": (HIDDEN,),
    "gc_w_c": (HIDDEN, HIDDEN), "gc_w_v": (HIDDEN, HIDDEN), "gc_w_e": (1, HIDDEN),
    "gc_b1": (HIDDEN,), "gc_w2": (HIDDEN, HIDDEN), "gc_b2": (HIDDEN,),
    "fc_w_self": (HIDDEN, HIDDEN), "fc_w_agg": (HIDDEN, HIDDEN),
    "fc_b1": (HIDDEN,), "fc_w2": (HIDDEN, HIDDEN), "fc_b2": (HIDDEN,),
    "gv_w_c": (HIDDEN, HIDDEN), "gv_w_v": (HIDDEN, HIDDEN), "gv_w_e": (1, HIDDEN),
    "gv_b1": (HIDDEN,), "gv_w2": (HIDDEN, HIDDEN), "gv_b2": (HIDDEN,),
    "fv_w_self": (HIDDEN, HIDDEN), "fv_w_agg": (HIDDEN, HIDDEN),
    "fv_b1": (HIDDEN,), "fv_w2": (HIDDEN, HIDDEN), "fv_b2": (HIDDEN,),
    "pol_w": (HIDDEN, 1), "pol_b": (1,),
    "val_w": (HIDDEN, 1), "val_b": (1,),
}

PARAM_NAMES = tuple(sorted(_SHAPES))     # trained by gradient descent
WEIGHT_NAMES = tuple(n for n in PARAM_NAMES if "_w" in n)
NORM_NAMES = ("gc_norm", "gv_norm")       # fixed by prenormalize(), in forward order
STATE_NAMES = PARAM_NAMES + NORM_NAMES     # everything a checkpoint stores
_SHAPES.update({name: (1,) for name in NORM_NAMES})   # after PARAM_NAMES: not trained


class GcnnError(RuntimeError):
    pass


@dataclass
class GcnnParameters:
    arrays: dict[str, np.ndarray]
    meta: dict = field(default_factory=dict)

    def copy(self) -> "GcnnParameters":
        return GcnnParameters({k: v.copy() for k, v in self.arrays.items()}, dict(self.meta))


def init_params(seed: int = 0, zero: bool = False) -> GcnnParameters:
    rng = np.random.default_rng([seed, 0x6E657477])
    arrays = {}
    for name in PARAM_NAMES:
        shape = _SHAPES[name]
        if zero or name.endswith("_b") or name.endswith("b1") or name.endswith("b2"):
            arrays[name] = np.zeros(shape)
        else:
            fan_in, fan_out = shape[0], shape[-1]
            s = math.sqrt(6.0 / (fan_in + fan_out))
            arrays[name] = rng.uniform(-s, s, size=shape)
    for name in NORM_NAMES:
        arrays[name] = np.ones(1)
    meta = {
        "catalog_version": CATALOG_VERSION,
        "hidden": HIDDEN,
        "var_features": VAR_FEATURES,
        "cons_features": CONS_FEATURES,
        "seed": seed,
    }
    return GcnnParameters(arrays, meta)


# ---------------------------------------------------------------------------
# Stacked batches and the forward pass
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GraphBatch:
    """One piece of a pass, a disjoint union of states: edge, candidate and
    action indices count from the piece's first variable and constraint."""

    var_features: np.ndarray    # (N, VAR_FEATURES)
    cons_features: np.ndarray   # (M, CONS_FEATURES)
    edge_row: np.ndarray        # (E,) stacked constraint index
    edge_col: np.ndarray        # (E,) stacked variable index
    edge_val: np.ndarray        # (E, 1)
    var_graph: np.ndarray       # (N,) graph of each variable
    pool_scale: np.ndarray      # (B, 1) 1 / number of variables
    # stacked candidates, the graph of each, and each graph's stacked expert action
    labels: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    @property
    def num_graphs(self) -> int:
        return len(self.pool_scale)


def stack_observations(observations) -> GraphBatch:
    """Stack observations into one piece; each graph's edge indices are
    shifted by its first constraint and variable, one array op per field."""
    observations = list(observations)
    sizes = np.array([(o.num_vars, o.num_cons) for o in observations], dtype=np.int64)
    offsets = np.repeat(np.cumsum(sizes, axis=0) - sizes,
                        [o.num_edges for o in observations], axis=0)
    return GraphBatch(
        var_features=_stack_rows([o.var_features for o in observations],
                                 VAR_FEATURES, "variable"),
        cons_features=_stack_rows([o.cons_features for o in observations if o.num_cons],
                                  CONS_FEATURES, "constraint"),
        edge_row=np.concatenate([o.edge_row for o in observations], dtype=np.int64)
        + offsets[:, 1],
        edge_col=np.concatenate([o.edge_col for o in observations], dtype=np.int64)
        + offsets[:, 0],
        edge_val=np.concatenate([o.edge_val for o in observations]).reshape(-1, 1),
        var_graph=np.repeat(np.arange(len(observations), dtype=np.int64), sizes[:, 0]),
        pool_scale=1.0 / np.maximum(sizes[:, :1], 1),
    )


def stack_states(states) -> GraphBatch:
    """Stack (obs, cand, action) triples with the labels that the policy
    loss reads (:attr:`GraphBatch.labels`)."""
    states = list(states)
    g = stack_observations(obs for obs, _c, _a in states)
    cands = [np.asarray(c, dtype=np.int64).reshape(-1) for _o, c, _a in states]
    counts = [len(c) for c in cands]
    cand = np.concatenate(cands)
    cand_graph = np.repeat(np.arange(len(states), dtype=np.int64), counts)
    action = np.array([int(a) for _o, _c, a in states], dtype=np.int64)
    chosen = np.zeros(len(states), dtype=bool)
    chosen[cand_graph[cand == action[cand_graph]]] = True
    if not chosen.all():
        k = int(np.argmin(chosen))
        raise ValueError(f"action {states[k][2]} is not a candidate "
                         f"{tuple(int(c) for c in cands[k])}")
    num_vars = np.array([obs.num_vars for obs, _c, _a in states], dtype=np.int64)
    var_off = np.cumsum(num_vars) - num_vars
    return replace(g, labels=(cand + np.repeat(var_off, counts), cand_graph, action + var_off))


_CHUNK = 32     # graphs per piece of every network pass


class Pieces:
    """Many states as every network pass reads them: pieces of at most
    ``_CHUNK`` graphs in state order, each stacked on its own (observations
    bare, (obs, cand, action) triples with labels). A pass stacks each piece
    when it reaches it."""

    def __init__(self, states):
        states = list(states)
        if not states:
            raise ValueError("empty observation batch")
        self.num_graphs = len(states)
        self.labelled = not isinstance(states[0], BipartiteObservation)
        self._stack = stack_states if self.labelled else stack_observations
        self._parts = [states[lo:lo + _CHUNK] for lo in range(0, len(states), _CHUNK)]

    def __iter__(self):
        return map(self._stack, self._parts)


def _stack_rows(arrays: list[np.ndarray], width: int, what: str) -> np.ndarray:
    """Row-stack 2-D feature arrays that must all be ``width`` wide."""
    widths = {a.shape[1] for a in arrays}
    if widths - {width}:
        raise GcnnError(f"{what} feature width {sorted(widths - {width})} != {width}")
    return np.concatenate(arrays) if arrays else np.zeros((0, width))


def segment_sum(x: np.ndarray, idx: np.ndarray, num_rows: int) -> np.ndarray:
    """Row scatter of a 2-D array: out[i] = sum of x[k] over k with
    idx[k] == i, accumulated by ``np.bincount`` in index order."""
    width = x.shape[1]
    flat = (idx[:, None] * width + np.arange(width)).ravel()
    return np.bincount(flat, weights=x.ravel(), minlength=num_rows * width).reshape(
        num_rows, width
    )


def segment_logsumexp(x: np.ndarray, seg: np.ndarray, num_segments: int) -> np.ndarray:
    """Stable log-sum-exp of x (1-D) within each segment."""
    mx = np.full(num_segments, -np.inf)
    np.maximum.at(mx, seg, x)
    total = np.bincount(seg, weights=np.exp(x - mx[seg]), minlength=num_segments)
    return mx + np.log(total)


@dataclass(frozen=True)
class _Pass:
    """What one half-convolution computed, kept for the backward."""

    msg: str
    upd: str
    cons: np.ndarray       # constraint embeddings read by the messages
    var: np.ndarray        # variable embeddings read by the messages
    to_cons: bool          # receiving side: constraints, else variables
    active: np.ndarray     # (E, HIDDEN) bool: message pre-activation > 0
    summed: np.ndarray     # relu of the message pre-activations, summed per receiver
    degree: np.ndarray     # (R,) edges per receiver
    agg: np.ndarray        # summed messages times the prenormalisation scale
    hidden: np.ndarray     # relu of the update's pre-activations

    @property
    def own(self) -> np.ndarray:
        return self.cons if self.to_cons else self.var


def _half_conv(P, msg: str, upd: str, cons, var, g: GraphBatch, to_cons: bool):
    """One half-convolution: a message per edge from both endpoint embeddings
    and the edge value, summed into the receiving side and prenormalised, then
    the update. Returns the update's output and its :class:`_Pass`.

    Both message layers multiply node arrays: the first layer's endpoint
    terms are projected before the gather, and the second layer is applied
    to the per-receiver sums (its bias once per incident edge)."""
    own = cons if to_cons else var
    act, summed, degree, raw = _message_sums(P, msg, cons, var, g, to_cons)
    agg = raw * P[f"{msg}_norm"]
    hidden = np.maximum((own @ P[f"{upd}_w_self"] + agg @ P[f"{upd}_w_agg"]) + P[f"{upd}_b1"],
                        0.0)
    out = hidden @ P[f"{upd}_w2"] + P[f"{upd}_b2"]
    return out, _Pass(msg, upd, cons, var, to_cons, act > 0.0, summed, degree, agg,
                      hidden)


def _message_sums(P, msg: str, cons, var, g: GraphBatch, to_cons: bool):
    """The messages of one half-convolution, summed per receiver: the
    relu activations per edge, their sums, the receivers' edge counts and
    the raw sums (before the prenormalisation scale)."""
    own, idx = (cons, g.edge_row) if to_cons else (var, g.edge_col)
    pre = (cons @ P[f"{msg}_w_c"] + P[f"{msg}_b1"])[g.edge_row]
    pre += (var @ P[f"{msg}_w_v"])[g.edge_col]
    pre += g.edge_val * P[f"{msg}_w_e"]
    act = np.maximum(pre, 0.0, out=pre)
    summed = segment_sum(act, idx, own.shape[0])
    degree = np.bincount(idx, minlength=own.shape[0]).astype(np.float64)
    raw = summed @ P[f"{msg}_w2"] + degree[:, None] * P[f"{msg}_b2"]
    return act, summed, degree, raw


def _embed(P, g: GraphBatch):
    """The input embeddings: variables (N, HIDDEN), constraints (M, HIDDEN)."""
    return (g.var_features @ P["emb_v_w"] + P["emb_v_b"],
            g.cons_features @ P["emb_c_w"] + P["emb_c_b"])


def _forward(P, g: GraphBatch):
    """Stacked logits (N, 1), per-graph values (B, 1), and the activations
    the backward reads."""
    V0, C0 = _embed(P, g)
    C1, gc = _half_conv(P, "gc", "fc", C0, V0, g, True)
    V1, gv = _half_conv(P, "gv", "fv", C1, V0, g, False)
    logits = V1 @ P["pol_w"] + P["pol_b"]
    pooled = segment_sum(V1, g.var_graph, g.num_graphs) * g.pool_scale
    values = pooled @ P["val_w"] + P["val_b"]
    return logits, values, {"gc": gc, "gv": gv, "V1": V1, "pooled": pooled}


def _half_conv_backward(P, p: _Pass, g: GraphBatch, d_out: np.ndarray, grads: dict):
    """Backward of one half-convolution. Stores its parameter gradients in
    ``grads`` and returns the gradients reaching the receiving side's own
    embedding (the update's self term) and, through the edge gathers, the
    constraint and the variable embeddings. The only per-edge arrays are the
    pre-activation gradient and the segment sums' indices."""
    msg, upd = p.msg, p.upd
    grads[f"{upd}_w2"] = p.hidden.T @ d_out
    grads[f"{upd}_b2"] = d_out.sum(axis=0)
    d_hid = (d_out @ P[f"{upd}_w2"].T) * (p.hidden > 0.0)
    grads[f"{upd}_b1"] = d_hid.sum(axis=0)
    grads[f"{upd}_w_self"] = p.own.T @ d_hid
    grads[f"{upd}_w_agg"] = p.agg.T @ d_hid
    d_own = d_hid @ P[f"{upd}_w_self"].T
    d_raw = (d_hid @ P[f"{upd}_w_agg"].T) * P[f"{msg}_norm"]
    grads[f"{msg}_w2"] = p.summed.T @ d_raw
    grads[f"{msg}_b2"] = p.degree @ d_raw
    idx = g.edge_row if p.to_cons else g.edge_col
    d_pre = (d_raw @ P[f"{msg}_w2"].T)[idx]
    d_pre *= p.active
    grads[f"{msg}_w_e"] = g.edge_val.T @ d_pre
    d_cons = segment_sum(d_pre, g.edge_row, p.cons.shape[0])
    d_var = segment_sum(d_pre, g.edge_col, p.var.shape[0])
    grads[f"{msg}_b1"] = d_cons.sum(axis=0)
    grads[f"{msg}_w_c"] = p.cons.T @ d_cons
    grads[f"{msg}_w_v"] = p.var.T @ d_var
    return d_own, d_cons @ P[f"{msg}_w_c"].T, d_var @ P[f"{msg}_w_v"].T


def _backward(P, g: GraphBatch, acts: dict, d_V1: np.ndarray, grads: dict) -> None:
    """Backward from the last variable embeddings to the input embeddings."""
    dV_own, dC1, dV_gv = _half_conv_backward(P, acts["gv"], g, d_V1, grads)
    dC_own, dC_gc, dV_gc = _half_conv_backward(P, acts["gc"], g, dC1, grads)
    dC0 = dC_own + dC_gc
    dV0 = (dV_own + dV_gc) + dV_gv
    grads["emb_v_w"] = g.var_features.T @ dV0
    grads["emb_v_b"] = dV0.sum(axis=0)
    grads["emb_c_w"] = g.cons_features.T @ dC0
    grads["emb_c_b"] = dC0.sum(axis=0)


def forward_numpy(params: GcnnParameters, obs: BipartiteObservation) -> tuple[np.ndarray, float]:
    """Returns (per-variable logits, state value) for one observation."""
    logits, values, _ = _forward(params.arrays, stack_observations([obs]))
    return logits.ravel(), float(values[0, 0])


def state_values(params: GcnnParameters, batch: Pieces) -> np.ndarray:
    """Value-head outputs of many states, forwarded piece by piece."""
    return np.concatenate([_forward(params.arrays, piece)[1] for piece in batch]).ravel()


def prenormalize(params: GcnnParameters, batch: Pieces) -> None:
    """Fix the prenormalisation scales from many states, in place.

    Gasse et al. (2019) prenormalise the summed messages once from training
    data before gradient training. Messages are not shifted here, so each
    pass's scale is 1 / root mean square of its raw sums over every entry
    (node and channel) of the given states, taken with the earlier scale
    already fixed; a pass whose sums are all but zero keeps scale 1.
    """
    P = params.arrays
    for name in NORM_NAMES:
        P[name][:] = 1.0
    for name in NORM_NAMES:
        squares, count = 0.0, 0
        for piece in batch:
            raw = _raw_sums(P, piece, name.split("_")[0])
            squares += float((raw ** 2).sum())
            count += raw.size
        rms = math.sqrt(squares / count) if count else 0.0
        P[name][:] = 1.0 / rms if rms > 1e-8 else 1.0


def _raw_sums(P, g: GraphBatch, msg: str) -> np.ndarray:
    """The raw message sums of the half-convolution ``msg`` ("gc" or "gv"),
    computed as :func:`_forward` computes them, and nothing after them."""
    V0, C0 = _embed(P, g)
    if msg == "gc":
        return _message_sums(P, "gc", C0, V0, g, True)[3]
    C1, _ = _half_conv(P, "gc", "fc", C0, V0, g, True)
    return _message_sums(P, "gv", C1, V0, g, False)[3]


def masked_probabilities(logits: np.ndarray, cand: tuple[int, ...]) -> np.ndarray:
    """Softmax over the candidate entries only, in candidate order."""
    z = logits[list(cand)]
    z = z - z.max()
    e = np.exp(z)
    return e / e.sum()


def predict_branch(params: GcnnParameters, obs: BipartiteObservation,
                   cand: tuple[int, ...]) -> int:
    """Argmax-logit candidate; ties resolve to the lowest variable index."""
    if len(cand) == 0:
        raise ValueError("empty candidate set")
    order = sorted(int(c) for c in cand)
    logits, _ = forward_numpy(params, obs)
    return order[int(np.argmax(logits[order]))]


# ---------------------------------------------------------------------------
# Losses: the masked-softmax cross-entropy and the penalized envelope loss
# ---------------------------------------------------------------------------

def _policy_loss(logits: np.ndarray, g: GraphBatch, scale: float) -> tuple[float, np.ndarray]:
    """Summed negative log-probability of the expert actions under the
    softmax over each graph's candidates, and the gradient of ``scale`` times
    that sum in the logits."""
    cand_idx, cand_graph, action_idx = g.labels
    z = logits[cand_idx].reshape(-1)
    lse = segment_logsumexp(z, cand_graph, g.num_graphs)
    nll = lse.reshape(-1, 1) - logits[action_idx]
    d_nll = np.full_like(nll, scale)
    softmax = np.exp(z - lse[cand_graph]).reshape(-1, 1)
    d_logits = (segment_sum(softmax * d_nll[cand_graph], cand_idx, logits.shape[0])
                + segment_sum(-d_nll, action_idx, logits.shape[0]))
    return float(nll.sum()), d_logits


def _envelope_loss(values: np.ndarray, returns: np.ndarray,
                   penalty: float) -> tuple[float, np.ndarray]:
    """Penalized squared errors of the values (B,), summed, and their
    gradient in the values: undershoots weigh ``penalty`` times more (the
    indicator is read at the current value; exactly at the kink the
    non-penalized branch is used)."""
    diff = values - returns
    w = np.where(values >= returns, 1.0, penalty)
    return float((diff**2 * w).sum()), 2.0 * diff * w


def _loss(P, batch: Pieces, head: str, returns=None, penalty: float = 1000.0,
          ridge: float = 0.0, grads: dict | None = None) -> float:
    """One head's loss over many states, run forward (and, given a ``grads``
    dict, backward into it) one piece at a time, so that memory depends on
    the piece size, not on the number of states. The pieces' losses and
    gradients are summed in piece order; then the policy loss is divided by
    the number of graphs, or the envelope loss gets its ridge term, ``ridge``
    times the squared weights (biases excluded)."""
    if head == "policy" and not batch.labelled:
        raise ValueError("the policy loss needs (obs, cand, action) triples")
    total, lo = 0.0, 0
    for piece in batch:
        logits, values, acts = _forward(P, piece)
        if head == "policy":
            loss, d_logits = _policy_loss(logits, piece, 1.0 / batch.num_graphs)
        else:
            loss, d_values = _envelope_loss(values.ravel(), returns[lo:lo + piece.num_graphs],
                                            penalty)
        total += loss
        lo += piece.num_graphs
        if grads is None:
            continue
        if not math.isfinite(total):
            raise GcnnError("non-finite loss; lower the learning rate")
        part = {}
        if head == "policy":
            part["pol_w"] = acts["V1"].T @ d_logits
            part["pol_b"] = d_logits.sum(axis=0)
            d_V1 = d_logits @ P["pol_w"].T
        else:
            d_values = d_values.reshape(-1, 1)
            part["val_w"] = acts["pooled"].T @ d_values
            part["val_b"] = d_values.sum(axis=0)
            d_V1 = ((d_values @ P["val_w"].T) * piece.pool_scale)[piece.var_graph]
        _backward(P, piece, acts, d_V1, part)
        for name, term in part.items():
            grads[name] = grads[name] + term if name in grads else term
    if head == "policy":
        return total / batch.num_graphs
    if ridge > 0:
        total += sum(float((P[name] ** 2).sum()) for name in WEIGHT_NAMES) * ridge
    if ridge > 0 and grads is not None:
        for name in WEIGHT_NAMES:
            term = 2.0 * P[name] * ridge
            grads[name] = grads[name] + term if name in grads else term
    return total


def grad(params: GcnnParameters, batch: Pieces, head: str, **kwargs):
    """Exact gradients of one loss head over many states, by the
    hand-written backward.

    head: "policy" for :func:`policy_loss` (on labelled states);
    or "value" for :func:`value_loss` (pass ``returns``, ``penalty``,
    ``ridge``). Returns (the same loss as those scorers', gradient dict in
    ``PARAM_NAMES`` order, shaped like the parameters).
    """
    if head not in ("policy", "value"):
        raise ValueError(f"unknown loss head {head!r}")
    P = params.arrays
    grads: dict[str, np.ndarray] = {}
    loss = _loss(P, batch, head, grads=grads, **kwargs)
    if not np.isfinite(loss):
        raise GcnnError("non-finite loss; lower the learning rate")
    out = {}
    for name in PARAM_NAMES:
        out[name] = grads.get(name, np.zeros_like(P[name]))
        if not np.all(np.isfinite(out[name])):
            raise GcnnError(f"non-finite gradient in parameter {name}")
    return loss, out


def policy_loss(params: GcnnParameters, batch: Pieces) -> float:
    """The loss of :func:`grad`'s policy head over labelled states."""
    return _loss(params.arrays, batch, "policy")


def value_loss(params: GcnnParameters, batch: Pieces, returns, penalty: float,
               ridge: float) -> float:
    """The loss of :func:`grad`'s value head over many states."""
    return _loss(params.arrays, batch, "value", returns, penalty, ridge)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = 10.0) -> float:
    """Scale the gradients in place to a global norm of at most ``max_norm``;
    returns the norm before scaling. The squared norms are summed in sorted
    name order (``PARAM_NAMES`` order), so the result does not depend on the
    dict's insertion order."""
    total = math.sqrt(sum(float((grads[name] ** 2).sum()) for name in sorted(grads)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for g in grads.values():
            g *= scale
    return total


def sgd_step(params: GcnnParameters, grads: dict[str, np.ndarray], lr: float) -> None:
    for name in PARAM_NAMES:
        params.arrays[name] -= lr * grads[name]


# ---------------------------------------------------------------------------
# Checkpoints: versioned binary, little-endian float64 arrays plus a JSON
# metadata blob; loading refuses a mismatched feature-catalog version.
# ---------------------------------------------------------------------------

def save_checkpoint(path: str | Path, params: GcnnParameters, extra_meta: dict | None = None) -> None:
    meta = dict(params.meta)
    meta["checkpoint_format"] = CHECKPOINT_FORMAT
    meta["catalog_version"] = CATALOG_VERSION
    meta["hidden"] = HIDDEN
    if extra_meta:
        meta.update(extra_meta)
    payload = {name: params.arrays[name].astype("<f8") for name in STATE_NAMES}
    payload["__meta__"] = np.frombuffer(
        json.dumps(meta, sort_keys=True).encode(), dtype=np.uint8
    )
    np.savez(path, **payload)


def load_checkpoint(path: str | Path) -> GcnnParameters:
    with np.load(path) as data:
        meta = json.loads(bytes(data["__meta__"]).decode())
        if meta.get("catalog_version") != CATALOG_VERSION:
            raise GcnnError(
                f"checkpoint catalog version {meta.get('catalog_version')} != {CATALOG_VERSION}"
            )
        if meta.get("checkpoint_format") != CHECKPOINT_FORMAT:
            raise GcnnError(f"unknown checkpoint format {meta.get('checkpoint_format')}")
        arrays = {}
        for name in STATE_NAMES:
            arr = np.asarray(data[name], dtype=np.float64)
            if arr.shape != _SHAPES[name]:
                raise GcnnError(f"parameter {name} has shape {arr.shape}, expected {_SHAPES[name]}")
            arrays[name] = arr
    return GcnnParameters(arrays, meta)


# ---------------------------------------------------------------------------
# Imitation training
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-2
    batch_size: int = 32
    epochs: int = 40
    seed: int = 0
    checkpoint_every: int = 10
    valid_fraction: float = 0.2
    clip_norm: float = 10.0

    def __post_init__(self):
        for name in ("lr", "valid_fraction", "clip_norm"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.lr <= 0 or self.batch_size <= 0 or self.epochs <= 0 or self.checkpoint_every <= 0:
            raise ValueError("training config values must be positive")
        if not 0 <= self.valid_fraction < 1:
            raise ValueError(f"valid_fraction must lie in [0, 1), got {self.valid_fraction!r}")


@dataclass
class TrainResult:
    checkpoints: list[tuple[str, Path]]     # (checkpoint id, path)
    curve: list[tuple[int, float, float]]   # (epoch, train loss, valid loss)
    params: GcnnParameters
    diverged: bool = False


def train_policy(dataset, config: TrainConfig, out_dir: str | Path,
                 extra_meta: dict | None = None) -> TrainResult:
    """Mini-batch gradient descent on the cross-entropy loss.

    The prenormalisation scales are fixed from the training split first.
    Deterministic given the config seed. Writes a checkpoint every
    ``checkpoint_every`` epochs plus the final epoch; on divergence the last
    finite checkpoint is retained and training stops.
    """
    if len(dataset) == 0:
        raise ValueError("empty training dataset")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([config.seed, 0x747261696E])
    params = init_params(config.seed)

    idx = rng.permutation(len(dataset))
    n_valid = int(config.valid_fraction * len(dataset))
    valid_idx, train_idx = idx[:n_valid], idx[n_valid:]
    if len(train_idx) == 0:
        train_idx, valid_idx = idx, idx[:0]
    train_set = [dataset[i] for i in train_idx]
    train_batch = Pieces(train_set)
    valid_batch = Pieces(dataset[i] for i in valid_idx) if len(valid_idx) else None
    prenormalize(params, train_batch)

    checkpoints: list[tuple[str, Path]] = []
    curve: list[tuple[int, float, float]] = []
    diverged = False

    def _save(epoch: int, train_l: float, valid_l: float) -> None:
        cid = f"ckpt_{epoch:04d}"
        path = out_dir / f"{cid}.npz"
        meta = {"epoch": epoch, "train_loss": train_l, "valid_loss": valid_l}
        if extra_meta:
            meta.update(extra_meta)
        save_checkpoint(path, params, meta)
        checkpoints.append((cid, path))

    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(len(train_set))
        try:
            for start in range(0, len(order), config.batch_size):
                batch = Pieces(train_set[i] for i in order[start:start + config.batch_size])
                _loss, grads = grad(params, batch, "policy")
                clip_gradients(grads, config.clip_norm)
                sgd_step(params, grads, config.lr)
        except GcnnError:
            diverged = True
            break
        train_l = policy_loss(params, train_batch)
        valid_l = policy_loss(params, valid_batch) if valid_batch is not None else math.nan
        if not math.isfinite(train_l):
            diverged = True
            break
        curve.append((epoch, train_l, valid_l))
        if epoch % config.checkpoint_every == 0 or epoch == config.epochs:
            _save(epoch, train_l, valid_l)

    if not checkpoints and curve:
        epoch, train_l, valid_l = curve[-1]
        _save(epoch, train_l, valid_l)
    return TrainResult(checkpoints=checkpoints, curve=curve, params=params, diverged=diverged)


class GcnnPolicy(BranchingPolicy):
    """Branching policy that plugs trained parameters into the engine."""

    def __init__(self, params: GcnnParameters, name: str = "gcnn"):
        self.params = params
        self.name = name

    def select(self, ctx) -> int:
        return predict_branch(self.params, ctx.observation, ctx.candidates)
