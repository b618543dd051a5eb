"""Bipartite-graph state extraction and the state digest used to index states.

The feature catalog is fixed and versioned; episode files and model
checkpoints record ``CATALOG_VERSION`` so datasets stay portable. Variable
features (width 12, per column j):

    0  objective coefficient, scaled by the max |c|
    1  fractional part of the relaxation value
    2  candidate flag
    3  lower bound finite flag
    4  upper bound finite flag
    5  at-lower flag
    6  at-upper flag
    7  basis membership flag
    8  reduced-cost sign (-1/0/+1)
    9  depth / (depth + 1)
    10 upward rate estimate, scaled to the candidate max
    11 downward rate estimate, scaled to the candidate max

Constraint features (width 5, per row i): rhs and slack scaled by the row
2-norm and clipped to [-1, 1], activity flag, dual-value sign, row density.
Edges carry the row-normalized coefficient, one per structural nonzero.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .instances import MilpInstance
from .simplex import FEAS_TOL, LpSolution, LpStatus

CATALOG_VERSION = 1
VAR_FEATURES = 12
CONS_FEATURES = 5

_QUANT = 1e-9   # canonical serialization quantizes reals to this grid


@dataclass(frozen=True)
class BipartiteObservation:
    var_features: np.ndarray       # (n, VAR_FEATURES)
    cons_features: np.ndarray      # (m, CONS_FEATURES)
    edge_row: np.ndarray           # (nnz,) constraint index
    edge_col: np.ndarray           # (nnz,) variable index
    edge_val: np.ndarray           # (nnz,) normalized coefficient

    def __post_init__(self):
        """Check the graph's structure once, where it is built: an edge index
        outside its side would otherwise land on another graph's node once
        observations are stacked. The feature widths are checked where the
        network reads them (``gnn.stack_observations``)."""
        if self.var_features.ndim != 2 or self.cons_features.ndim != 2:
            raise ValueError("observation feature arrays must be 2-D")
        row, col, val = self.edge_row, self.edge_col, self.edge_val
        if not (row.ndim == col.ndim == val.ndim == 1 and len(row) == len(col) == len(val)):
            raise ValueError("observation edge arrays must be 1-D and of equal length")
        if row.dtype.kind not in "iu" or col.dtype.kind not in "iu":
            raise ValueError("observation edge indices must be integers")
        if len(row) and not (0 <= row.min() and row.max() < self.num_cons
                             and 0 <= col.min() and col.max() < self.num_vars):
            raise ValueError(
                f"observation edge index outside {self.num_cons} constraints "
                f"and {self.num_vars} variables"
            )

    @property
    def num_vars(self) -> int:
        return self.var_features.shape[0]

    @property
    def num_cons(self) -> int:
        return self.cons_features.shape[0]

    @property
    def num_edges(self) -> int:
        return len(self.edge_val)


def extract_observation(
    inst: MilpInstance,
    depth: int,
    lp: LpSolution,
    candidates: tuple[int, ...] | list[int],
    psi_up: np.ndarray | None = None,
    psi_down: np.ndarray | None = None,
) -> BipartiteObservation:
    """Build the bipartite observation for one node.

    ``psi_up``/``psi_down`` are the per-variable branching rate estimates used
    by features 10/11; callers without a history pass None and those features
    are constant across variables.
    """
    if lp.status is not LpStatus.OPTIMAL or lp.x is None:
        raise ValueError("observation requires an optimal node LP")
    n, m = inst.num_vars, inst.num_cons
    x = lp.x
    cand_mask = np.zeros(n, dtype=bool)
    cand_idx = np.asarray(list(candidates), dtype=np.int64)
    cand_mask[cand_idx] = True

    V = np.zeros((n, VAR_FEATURES))
    cmax = float(np.abs(inst.objective).max(initial=0.0))
    V[:, 0] = inst.objective / cmax if cmax > 0 else 0.0
    V[:, 1] = x - np.floor(x)
    V[:, 2] = cand_mask
    lo_fin = np.isfinite(inst.lower)
    up_fin = np.isfinite(inst.upper)
    V[:, 3] = lo_fin
    V[:, 4] = up_fin
    V[lo_fin, 5] = np.abs(x[lo_fin] - inst.lower[lo_fin]) <= FEAS_TOL
    V[up_fin, 6] = np.abs(x[up_fin] - inst.upper[up_fin]) <= FEAS_TOL
    basics = [b for b in lp.basis if b < n]
    V[basics, 7] = 1.0
    if lp.reduced_costs is not None:
        rc = lp.reduced_costs
        V[:, 8] = np.where(rc > FEAS_TOL, 1.0, np.where(rc < -FEAS_TOL, -1.0, 0.0))
    V[:, 9] = depth / (depth + 1.0)
    if len(cand_idx) > 0:
        pu = psi_up if psi_up is not None else np.ones(n)
        pd = psi_down if psi_down is not None else np.ones(n)
        mu = float(pu[cand_idx].max(initial=0.0))
        md = float(pd[cand_idx].max(initial=0.0))
        if mu > 0:
            V[:, 10] = np.clip(pu / mu, 0.0, 1.0)
        if md > 0:
            V[:, 11] = np.clip(pd / md, 0.0, 1.0)

    C = np.zeros((m, CONS_FEATURES))
    row_norm = np.ones(m)
    edge_val = np.zeros(inst.nnz)
    if m > 0:
        sq = np.zeros(m)
        np.add.at(sq, inst.row_idx, inst.coef**2)
        row_norm = np.sqrt(sq)
        row_norm[row_norm == 0.0] = 1.0
        act = np.zeros(m)
        if inst.nnz:
            np.add.at(act, inst.row_idx, inst.coef * x[inst.col_idx])
        slack = inst.rhs - act
        C[:, 0] = np.clip(inst.rhs / row_norm, -1.0, 1.0)
        C[:, 1] = np.clip(slack / row_norm, -1.0, 1.0)
        C[:, 2] = slack <= FEAS_TOL
        if lp.duals is not None:
            y = lp.duals
            C[:, 3] = np.where(y > FEAS_TOL, 1.0, np.where(y < -FEAS_TOL, -1.0, 0.0))
        nnz_per_row = np.zeros(m)
        np.add.at(nnz_per_row, inst.row_idx, 1.0)
        C[:, 4] = nnz_per_row / max(n, 1)
        edge_val = inst.coef / row_norm[inst.row_idx]

    obs = BipartiteObservation(
        var_features=V,
        cons_features=C,
        edge_row=inst.row_idx.copy(),
        edge_col=inst.col_idx.copy(),
        edge_val=edge_val,
    )
    _freeze(obs)
    return obs


def _freeze(obs: BipartiteObservation) -> None:
    for a in (obs.var_features, obs.cons_features, obs.edge_row, obs.edge_col, obs.edge_val):
        a.flags.writeable = False


def canonical_bytes(obs: BipartiteObservation, candidates: tuple[int, ...] | list[int]) -> bytes:
    """Canonical serialization: fixed field order, reals quantized to 1e-9.

    Two states serialize identically iff their quantized features, edge lists
    and candidate sets agree, independent of process or platform.
    """
    parts = [
        np.array(
            [CATALOG_VERSION, obs.num_vars, obs.num_cons, obs.num_edges, len(candidates)],
            dtype="<i8",
        ).tobytes()
    ]
    for arr in (obs.var_features, obs.cons_features, obs.edge_val):
        q = np.rint(np.asarray(arr, dtype=np.float64) / _QUANT).astype("<i8")
        parts.append(q.tobytes())
    parts.append(obs.edge_row.astype("<i8").tobytes())
    parts.append(obs.edge_col.astype("<i8").tobytes())
    parts.append(np.asarray(sorted(int(c) for c in candidates), dtype="<i8").tobytes())
    return b"".join(parts)


def state_digest(obs: BipartiteObservation, candidates: tuple[int, ...] | list[int]) -> str:
    """128-bit hex digest of the canonical serialization of (obs, candidates)."""
    return hashlib.blake2b(canonical_bytes(obs, candidates), digest_size=16).hexdigest()
