"""Transition and episode records plus their on-disk form.

One transition is recorded per branching decision: the state (observation
plus candidate set), the chosen candidate, the reward accrued since the
previous decision, and the decision's clock. An episode is its decisions in
order; returns are a backward pass over them, so no transition stores its
successor.

An episode is stored as two files. ``<name>.jsonl`` holds a header line with
provenance and the dual-bound trace, then one row per decision with the
state digest (``state_digest``), candidate set, action, reward and clock.
``observations/<name>.npz`` holds the states: ``var`` (T, n, 12) and
``cons`` (T, m, 5), one slice per decision, and the edge list
``edge_row``/``edge_col``/``edge_val`` once, because every state of one
instance shares it. An episode with no decisions has no ``.npz``. Rows
written before the format dropped next-state links also carry
``next_obs``/``next_set``/``d``; the reader ignores them.

``read_episode_file`` reads both files and checks every state against its
row's digest; ``read_states`` reads the states alone, for a reader that
checks only the states it uses.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .observation import BipartiteObservation, CATALOG_VERSION, state_digest


@dataclass
class Transition:
    obs: BipartiteObservation
    cand: tuple[int, ...]
    action: int
    reward: float
    clock: float = 0.0

    def digest(self) -> str:
        return state_digest(self.obs, self.cand)


@dataclass
class Episode:
    instance: str
    transitions: list[Transition] = field(default_factory=list)
    trace_events: list[tuple[float, float]] = field(default_factory=list)
    horizon: float = 0.0
    opt_value: float = math.nan


class ChainError(ValueError):
    """An episode row does not fit its episode: its stored state differs from
    its digest, its action is outside its candidate set, or its reward is
    not finite."""

    def __init__(self, episode: str, position: int, message: str):
        super().__init__(f"episode {episode!r}, transition {position}: {message}")
        self.episode = episode
        self.position = position


def observations_path(path: str | Path) -> Path:
    """Where the states of the episode file at ``path`` are stored."""
    path = Path(path)
    return path.parent / "observations" / f"{path.stem}.npz"


_EDGES = ("edge_row", "edge_col", "edge_val")


def write_episode_file(path: str | Path, episode: Episode, provenance: dict | None = None) -> None:
    header = {
        "type": "header",
        "instance": episode.instance,
        "catalog_version": CATALOG_VERSION,
        "transitions": len(episode.transitions),
        "trace": [[c, z] for c, z in episode.trace_events],
        "horizon": episode.horizon,
        "opt_value": None if math.isnan(episode.opt_value) else episode.opt_value,
    }
    header.update(provenance or {})
    lines = [json.dumps(header, sort_keys=True)]
    for tr in episode.transitions:
        row = {
            "obs": tr.digest(),
            "set": list(tr.cand),
            "a": tr.action,
            "r": tr.reward,
            "clock": tr.clock,
        }
        lines.append(json.dumps(row, sort_keys=True))
    # every state of one instance shares its edge list, so it is stored once
    states = [tr.obs for tr in episode.transitions]
    for t, obs in enumerate(states):
        for name in _EDGES:
            a, b = getattr(obs, name), getattr(states[0], name)
            if a.dtype != b.dtype or a.shape != b.shape or a.tobytes() != b.tobytes():
                raise ValueError(f"episode {episode.instance!r}, transition {t}: "
                                 f"{name} differs from the first state's")
    npz = observations_path(path)
    if states:
        npz.parent.mkdir(parents=True, exist_ok=True)
        np.savez(npz, var=np.stack([obs.var_features for obs in states]),
                 cons=np.stack([obs.cons_features for obs in states]),
                 **{name: getattr(states[0], name) for name in _EDGES})
    else:
        npz.unlink(missing_ok=True)
    Path(path).write_text("\n".join(lines) + "\n")


def read_states(path: str | Path) -> list[BipartiteObservation]:
    """The states stored for the episode file at ``path``, in decision order,
    as read-only views. Nothing here checks them against the episode's rows."""
    npz = observations_path(path)
    try:
        with np.load(npz) as z:
            var, cons, *edges = (z[k] for k in ("var", "cons", *_EDGES))
    except (zipfile.BadZipFile, EOFError) as exc:
        raise ValueError(f"{npz}: {exc}") from None
    for a in (var, cons, *edges):
        a.flags.writeable = False
    if len(var) != len(cons):
        raise ValueError(f"{npz}: holds {len(var)} variable and {len(cons)} constraint slices")
    return [BipartiteObservation(var[t], cons[t], *edges) for t in range(len(var))]


def read_episode_file(path: str | Path) -> Episode:
    """Read an episode and its states. The ``.npz`` must hold one state per
    row, each state must match its row's digest, each action must be in its
    row's candidate set and each reward must be finite. A dropped or moved
    row fails the count or the digest check."""
    lines = Path(path).read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty episode file")
    header = json.loads(lines[0])
    if header.get("type") != "header":
        raise ValueError(f"{path}: first line is not an episode header")
    if header.get("catalog_version") != CATALOG_VERSION:
        raise ValueError(
            f"{path}: catalog version {header.get('catalog_version')} != {CATALOG_VERSION}"
        )
    episode = Episode(
        instance=header["instance"],
        trace_events=[(float(c), float(z)) for c, z in header.get("trace", [])],
        horizon=float(header.get("horizon", 0.0)),
        opt_value=math.nan if header.get("opt_value") is None else float(header["opt_value"]),
    )
    rows = [json.loads(line) for line in lines[1:]]
    states = read_states(path) if rows else []
    if len(states) != len(rows):
        raise ValueError(f"{observations_path(path)}: holds {len(states)} states "
                         f"for {len(rows)} transitions")
    for t, row in enumerate(rows):
        if state_digest(states[t], row["set"]) != row["obs"]:
            raise ChainError(episode.instance, t, "stored state does not match its digest")
        tr = Transition(
            obs=states[t],
            cand=tuple(row["set"]),
            action=int(row["a"]),
            reward=float(row["r"]),
            clock=float(row.get("clock", 0.0)),
        )
        if tr.action not in tr.cand:
            raise ChainError(episode.instance, t, f"action {tr.action} not in candidate set")
        if not math.isfinite(tr.reward):
            raise ChainError(episode.instance, t, "non-finite reward")
        episode.transitions.append(tr)
    return episode
