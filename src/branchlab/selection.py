"""Return labeling, penalized upper-envelope fitting, and top-p% selection.

Per-state returns are discounted sums of the per-decision rewards to episode
end. The envelope is the shared graph network with its scalar head, trained
under an asymmetric squared loss that charges undershoots ``K`` times more,
plus a ridge term on weights only. Selection keeps the top p% of state-action
pairs ranked by the ratio of return to (floored) envelope value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .gnn import (
    GcnnError,
    GcnnParameters,
    Pieces,
    clip_gradients,
    grad,
    init_params,
    prenormalize,
    sgd_step,
    state_values,
    value_loss,
)
from .trajectories import Episode


@dataclass
class ReturnEntry:
    obs: object
    cand: tuple[int, ...]
    action: int
    G: float
    episode: str
    t: int


@dataclass
class ReturnSet:
    entries: list[ReturnEntry]
    gamma: float


_BATCH = 256        # entries per envelope gradient step
_TOL = 1e-4         # a pass must lower the best envelope loss by this fraction ...
_PATIENCE = 3       # ... within this many passes, or the fit stops


@dataclass(frozen=True)
class EnvelopeConfig:
    ridge: float = 1e-4         # weight-only ridge coefficient
    penalty: float = 1000.0     # undershoot multiplier, >> 1
    epochs: int = 40            # most passes over the data (see train_envelope)
    lr: float = 1e-4
    p: float = 15.0             # selection percentage
    seed: int = 0

    def __post_init__(self):
        for name in ("ridge", "penalty", "lr", "p"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.ridge < 0:
            raise ValueError("ridge must be nonnegative")
        if self.penalty < 1:
            raise ValueError("penalty coefficient must be >= 1")
        if not (0 < self.p <= 100):
            raise ValueError("selection percentage must lie in (0, 100]")
        if self.epochs <= 0 or self.lr <= 0:
            raise ValueError("epochs and lr must be positive")


def compute_returns(episodes: list[Episode], gamma: float) -> ReturnSet:
    """Backward recursion G_t = r_t + gamma * G_{t+1} over each episode's
    decisions in order, with G = r on the last one. Episodes read from disk
    were checked by ``read_episode_file``.
    """
    entries: list[ReturnEntry] = []
    for ep in episodes:
        ts = ep.transitions
        G = 0.0
        returns = [0.0] * len(ts)
        for t in range(len(ts) - 1, -1, -1):
            G = ts[t].reward + gamma * G
            returns[t] = G
        for t, tr in enumerate(ts):
            entries.append(
                ReturnEntry(
                    obs=tr.obs, cand=tr.cand, action=tr.action,
                    G=returns[t], episode=ep.instance, t=t,
                )
            )
    return ReturnSet(entries=entries, gamma=gamma)


@dataclass
class EnvelopeReport:
    final_loss: float           # standardized units, see train_envelope
    violation_fraction: float
    epochs: int                 # passes run
    loss_curve: list[float] = field(default_factory=list)
    return_mean: float = 0.0
    return_std: float = 1.0
    values: np.ndarray = field(default_factory=lambda: np.zeros(0))   # fitted V per entry


def _rescale_value_head(params: GcnnParameters, shift: float, scale: float) -> None:
    """Make the value head output ``shift + scale * value``; exact because
    the head is affine in the pooled embedding."""
    params.arrays["val_w"] *= scale
    params.arrays["val_b"] = shift + scale * params.arrays["val_b"]


def train_envelope(
    dataset: ReturnSet,
    config: EnvelopeConfig,
    start: GcnnParameters | None = None,
) -> tuple[GcnnParameters, EnvelopeReport]:
    """Fit the envelope by mini-batch gradient descent on the penalized loss,
    in standardized return units.

    The network is fit to z = (G - mean) / std instead of the raw returns G,
    so the fit does not depend on the reward scale: clipped steps from values
    of order 1 cannot reach returns of order 1e5, and an envelope that stays
    far below every return ranks states by raw return alone. A fresh network
    is prenormalised on the entries and its value bias starts at the mean
    return (z = 0); a given ``start`` is mapped into z units and otherwise
    used as is. The value head is affine in the pooled embedding, so the
    fitted head maps back exactly and the returned parameters output returns
    in their own units.

    Each pass visits the entries once in a seeded order, in mini-batches of
    256. A step follows the clipped gradient of the batch's share of the loss
    (its penalized squares plus the ridge term times its share of the
    entries); its size halves, for that step only, while it would raise the
    batch loss. Stopping rule: after ``config.epochs`` passes, or earlier once
    3 passes in a row have not lowered the best full standardized loss so far
    by 1e-4 of its value; the parameters of the best pass are returned. The
    loss curve (full loss after each pass) and the final loss are in
    standardized units. Deterministic in the seed.
    """
    entries = dataset.entries
    if not entries:
        raise ValueError("empty return-labeled set")
    returns = np.array([e.G for e in entries])
    mean = float(returns.mean())
    std = float(returns.std())
    if not std > 0.0:
        std = 1.0
    z = (returns - mean) / std
    observations = [e.obs for e in entries]
    full = Pieces(observations)     # re-stacked on each use: a kept stack is O(dataset)
    if start is not None:
        params = start.copy()
        _rescale_value_head(params, -mean / std, 1.0 / std)
    else:
        params = init_params(config.seed)
        prenormalize(params, full)

    rng = np.random.default_rng([config.seed, 0x656E76])
    best, best_loss = params, value_loss(params, full, z, config.penalty, config.ridge)
    curve: list[float] = []
    stalled = 0
    while len(curve) < config.epochs and stalled < _PATIENCE:
        order = rng.permutation(len(entries))
        for lo in range(0, len(order), _BATCH):
            idx = order[lo:lo + _BATCH]
            part = Pieces(observations[i] for i in idx)
            ridge = config.ridge * len(idx) / len(entries)
            try:
                before, grads = grad(params, part, "value", returns=z[idx],
                                     penalty=config.penalty, ridge=ridge)
            except GcnnError as exc:
                raise ValueError(
                    f"envelope training diverged ({exc}); use a smaller learning rate"
                ) from exc
            clip_gradients(grads)
            lr = config.lr
            while True:
                trial = params.copy()
                sgd_step(trial, grads, lr)
                if value_loss(trial, part, z[idx], config.penalty, ridge) <= before or lr < 1e-12:
                    params = trial
                    break
                lr *= 0.5
        loss = value_loss(params, full, z, config.penalty, config.ridge)
        if not math.isfinite(loss):
            raise ValueError("envelope training diverged; use a smaller learning rate")
        curve.append(loss)
        stalled = stalled + 1 if best_loss - loss < _TOL * abs(best_loss) else 0
        if loss < best_loss:
            best, best_loss = params, loss

    params = best.copy()
    _rescale_value_head(params, mean, std)
    values = state_values(params, full)
    report = EnvelopeReport(
        final_loss=best_loss,
        violation_fraction=float((values < returns).mean()),
        epochs=len(curve),
        loss_curve=curve,
        return_mean=mean,
        return_std=std,
        values=values,
    )
    return params, report


def shift_to_positive(returns: np.ndarray, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shift returns and envelope outputs into a strictly positive range.

    Both series move by one common offset (their joint negative part plus
    their joint magnitude), so the ratio ranking compares each return to its
    state's envelope on the same footing regardless of sign or episode
    position, and scaling both series by a positive constant scales the
    offset identically, leaving the ranking unchanged. Shifting only the
    denominator would rank raw returns, which for negative-reward tasks
    collapses into preferring late, small-magnitude transitions.
    """
    returns = np.asarray(returns, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    lo = min(0.0, float(returns.min(initial=0.0)), float(values.min(initial=0.0)))
    scale = max(float(np.abs(returns).max(initial=0.0)),
                float(np.abs(values).max(initial=0.0)))
    if scale == 0.0:
        scale = 1.0
    offset = -lo + scale
    return returns + offset, values + offset


def select_top(
    entries: list[ReturnEntry],
    values: np.ndarray,
    p: float,
) -> tuple[list[ReturnEntry], float]:
    """Keep the ceil(p% * m) entries with the largest return/envelope ratio.

    Ranking uses the positively shifted pair from :func:`shift_to_positive`;
    an entry that realizes its state's envelope scores 1, underachievers
    score below it. Ties at the boundary break by earlier episode/transition
    order. Returns the selected entries (in original order) and the threshold
    x such that every selected entry satisfies shifted_G > x * shifted_V.
    """
    if not entries:
        raise ValueError("empty return-labeled set")
    if not (0 < p <= 100):
        raise ValueError("selection percentage must lie in (0, 100]")
    if len(values) != len(entries):
        raise ValueError("values and entries have different lengths")
    g_shift, v_shift = shift_to_positive(np.array([e.G for e in entries]), values)
    ratios = g_shift / v_shift
    k = math.ceil(p / 100.0 * len(entries))
    order = sorted(range(len(entries)), key=lambda i: (-ratios[i], i))
    chosen = sorted(order[:k])
    boundary = float(ratios[order[k - 1]])
    threshold = float(np.nextafter(boundary, -math.inf))
    return [entries[i] for i in chosen], threshold
