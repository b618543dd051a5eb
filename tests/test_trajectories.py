import json

import numpy as np
import pytest

from branchlab.bnb import Budget, solve
from branchlab.cli import main
from branchlab.instances import InstanceFamilySpec, generate_instance
from branchlab.rules import MostInfeasiblePolicy
from branchlab.trajectories import (
    ChainError,
    observations_path,
    read_episode_file,
    write_episode_file,
)

from .conftest import make_instance

_ARRAYS = ("var_features", "cons_features", "edge_row", "edge_col", "edge_val")


def _same_state(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in _ARRAYS)


def _solved_episode(seed=3, max_nodes=40):
    for s in range(seed, seed + 20):
        inst = generate_instance(InstanceFamilySpec("multi-knapsack", n=12, m=3, seed=s))
        res = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=max_nodes), seed=1)
        if len(res.episode.transitions) >= 2:
            return res.episode
    raise RuntimeError("no branching episode found")


def _written_episode(tmp_path):
    episode = _solved_episode()
    path = tmp_path / f"{episode.instance}.jsonl"
    write_episode_file(path, episode)
    return episode, path


def test_episode_file_roundtrip(tmp_path):
    episode = _solved_episode()
    path = tmp_path / "ep.jsonl"
    write_episode_file(path, episode, provenance={"seed": 1})
    again = read_episode_file(path)
    assert again.instance == episode.instance
    assert len(again.transitions) == len(episode.transitions)
    assert again.trace_events == episode.trace_events
    assert again.horizon == episode.horizon
    assert again.opt_value == episode.opt_value
    for a, b in zip(again.transitions, episode.transitions):
        assert _same_state(a.obs, b.obs)
        assert a.cand == b.cand and a.action == b.action
        assert a.reward == b.reward and a.clock == b.clock


def test_states_roundtrip_as_arrays(tmp_path):
    episode, path = _written_episode(tmp_path)
    with np.load(observations_path(path)) as z:
        assert sorted(z.files) == ["cons", "edge_col", "edge_row", "edge_val", "var"]
        assert z["var"].shape[0] == len(episode.transitions)
    again = read_episode_file(path)
    for a, b in zip(again.transitions, episode.transitions):
        for name in _ARRAYS:
            assert np.array_equal(getattr(a.obs, name), getattr(b.obs, name)), name
            assert not getattr(a.obs, name).flags.writeable


def test_episode_solved_at_root_has_no_states_file(tmp_path):
    # the LP optimum (1, 1) is integral, so the root needs no branching
    inst = make_instance("integral", [-1, -1], [[1, 1]], [2], [0, 0], [1, 1], 2)
    episode = solve(inst, MostInfeasiblePolicy(), Budget(max_nodes=10), seed=1).episode
    assert episode.transitions == []
    path = tmp_path / "integral.jsonl"
    write_episode_file(path, _solved_episode())     # states the next write replaces
    assert observations_path(path).exists()
    write_episode_file(path, episode)
    assert not observations_path(path).exists()
    again = read_episode_file(path)
    assert again.transitions == []
    assert again.trace_events == episode.trace_events


def test_writer_rejects_edges_that_differ_between_states(tmp_path):
    episode = _solved_episode()
    obs = episode.transitions[1].obs
    edge_val = obs.edge_val.copy()
    edge_val[0] += 1.0
    object.__setattr__(obs, "edge_val", edge_val)
    with pytest.raises(ValueError, match="edge_val"):
        write_episode_file(tmp_path / "ep.jsonl", episode)


def test_two_collects_write_identical_state_files(tmp_path):
    for name in ("a", "b"):
        overrides = []
        for key, value in {"run.root": tmp_path / name, "family.n": 12,
                           "family.train_count": 3, "collect.max_nodes": 25}.items():
            overrides += ["--set", f"{key}={value}"]
        assert main([*overrides, "generate"]) == 0
        assert main([*overrides, "collect"]) == 0
    files = sorted(p.name for p in (tmp_path / "a" / "episodes" / "observations").iterdir())
    assert files and all(f.endswith(".npz") for f in files)
    for f in files:
        a = (tmp_path / "a" / "episodes" / "observations" / f).read_bytes()
        assert a == (tmp_path / "b" / "episodes" / "observations" / f).read_bytes()


def _split(text):
    """An episode file's header line and its rows."""
    lines = text.splitlines()
    return lines[0], [json.loads(line) for line in lines[1:]]


def _write(path, header, rows):
    path.write_text("\n".join([header] + [json.dumps(r, sort_keys=True) for r in rows]) + "\n")


def test_rows_with_next_state_links_still_read(tmp_path):
    """Rows written before the format dropped the state digest ``obs`` and
    the next-state links ``next_obs``/``next_set``/``d`` read as the same
    episode."""
    episode, path = _written_episode(tmp_path)
    header, rows = _split(path.read_text())
    for t, row in enumerate(rows):
        row["obs"] = f"{t:032x}"
    for t, row in enumerate(rows):
        last = t + 1 == len(rows)
        row["next_obs"] = None if last else rows[t + 1]["obs"]
        row["next_set"] = None if last else rows[t + 1]["set"]
        row["d"] = last
    _write(path, header, rows)
    again = read_episode_file(path)
    assert [(t.cand, t.action, t.reward, t.clock) for t in again.transitions] == \
        [(t.cand, t.action, t.reward, t.clock) for t in episode.transitions]
    assert all(_same_state(a.obs, b.obs) for a, b in zip(again.transitions, episode.transitions))


def _action_outside_set(rows, t):
    rows[t]["a"] = max(rows[t]["set"]) + 1


def _nan_reward(rows, t):
    rows[t]["r"] = float("nan")


def _swap_with_next(rows, t):
    rows[t], rows[t + 1] = rows[t + 1], rows[t]


@pytest.fixture(scope="module")
def collected_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("run")
    overrides = []
    for key, value in {"run.root": root, "family.n": 12, "family.train_count": 3,
                       "collect.max_nodes": 25}.items():
        overrides += ["--set", f"{key}={value}"]
    assert main([*overrides, "generate"]) == 0
    assert main([*overrides, "collect"]) == 0
    return root, overrides


@pytest.mark.parametrize("change, message", [
    (_action_outside_set, "not in candidate set"),
    (_nan_reward, "non-finite reward"),
    (_swap_with_next, None),
], ids=["action-outside-set", "nan-reward", "swapped-rows"])
def test_broken_row_is_a_chain_error_and_a_data_error(collected_root, capsys, change, message):
    """A row that does not fit its episode is a ``ChainError``; rows swapped
    with each other still fit, and only the manifest's sha256 tells. Either
    way ``select`` refuses the file with exit 2 and names it."""
    root, overrides = collected_root
    path = max((root / "episodes").glob("*.jsonl"), key=lambda p: len(p.read_text()))
    text = path.read_text()
    header, rows = _split(text)
    assert len(rows) >= 3
    change(rows, 1)
    _write(path, header, rows)
    try:
        if message:
            with pytest.raises(ChainError, match=message) as exc:
                read_episode_file(path)
            assert exc.value.episode == path.stem and exc.value.position == 1
        capsys.readouterr()
        assert main([*overrides, "select"]) == 2
        assert f"{path}: contents differ from the sha256" in capsys.readouterr().err
    finally:
        path.write_text(text)


def test_header_rejected_on_version_mismatch(tmp_path):
    episode = _solved_episode()
    path = tmp_path / "ep.jsonl"
    write_episode_file(path, episode)
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    header["catalog_version"] = 99
    path.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
    with pytest.raises(ValueError, match="catalog"):
        read_episode_file(path)
