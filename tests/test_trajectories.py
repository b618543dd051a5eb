import json

import numpy as np
import pytest

from branchlab.bnb import Budget, solve
from branchlab.cli import main
from branchlab.instances import InstanceFamilySpec, generate_instance
from branchlab.observation import state_digest
from branchlab.rules import MostInfeasiblePolicy
from branchlab.trajectories import (
    ChainError,
    observations_path,
    read_episode_file,
    validate_chain,
    write_episode_file,
)

from .conftest import make_instance

_ARRAYS = ("var_features", "cons_features", "edge_row", "edge_col", "edge_val")


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
        assert a.digest() == b.digest()
        assert a.cand == b.cand and a.action == b.action
        assert a.reward == b.reward and a.done == b.done and a.clock == b.clock
    validate_chain(again)


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
        assert state_digest(a.obs, a.cand) == state_digest(b.obs, b.cand)
    for t in range(len(again.transitions) - 1):
        assert again.transitions[t].next_obs is again.transitions[t + 1].obs
    assert again.transitions[-1].next_obs is None


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


def test_changed_state_value_is_a_chain_error(tmp_path):
    episode, path = _written_episode(tmp_path)
    npz = observations_path(path)
    with np.load(npz) as z:
        arrays = {k: z[k] for k in z.files}
    arrays["var"][2, 0, 0] += 0.5
    np.savez(npz, **arrays)
    with pytest.raises(ChainError, match="transition 2") as exc:
        read_episode_file(path)
    assert exc.value.episode == episode.instance and exc.value.position == 2


def test_next_state_mismatch_is_a_chain_error(tmp_path):
    episode, path = _written_episode(tmp_path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])      # transition 1
    row["next_obs"] = json.loads(lines[1])["obs"]
    lines[2] = json.dumps(row, sort_keys=True)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ChainError, match="transition 1") as exc:
        read_episode_file(path)
    assert exc.value.episode == episode.instance and exc.value.position == 1


def test_next_state_digests_link(tmp_path):
    episode = _solved_episode()
    for t in range(len(episode.transitions) - 1):
        assert episode.transitions[t].next_digest() == episode.transitions[t + 1].digest()
    assert episode.transitions[-1].next_digest() is None


def test_validate_chain_catches_done_misplacement():
    episode = _solved_episode()
    episode.transitions[0].done = True
    with pytest.raises(ChainError, match="done"):
        validate_chain(episode)


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
