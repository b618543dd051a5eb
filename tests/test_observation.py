import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import branchlab
from branchlab.instances import InstanceFamilySpec, generate_instance, serialize_instance
from branchlab.observation import (
    CONS_FEATURES,
    VAR_FEATURES,
    BipartiteObservation,
    extract_observation,
    state_digest,
)
from branchlab.simplex import SimplexSolver, LpStatus

from .conftest import make_instance


def _root_obs(inst, depth=0):
    lp = SimplexSolver(inst).solve()
    assert lp.status is LpStatus.OPTIMAL
    cands = tuple(
        j for j in range(inst.num_int) if 1e-6 < (lp.x[j] % 1.0) < 1 - 1e-6
    )
    return extract_observation(inst, depth, lp, cands), cands


def test_unconstrained_instance_has_no_edges():
    inst = make_instance("m0", [1, 2], np.zeros((0, 2)), [], [0, 0], [1, 1], 2)
    obs, _ = _root_obs(inst)
    assert obs.num_edges == 0
    assert obs.cons_features.shape == (0, CONS_FEATURES)
    assert obs.var_features.shape == (2, VAR_FEATURES)


def test_knapsack_root_features(knapsack):
    obs, cands = _root_obs(knapsack)
    assert cands == (1,)
    assert obs.num_edges == knapsack.nnz == 2
    # the single row is tight at x = (1, 2/3): activity flag set
    assert obs.cons_features[0, 2] == 1.0
    # candidate flag marks exactly x2
    assert obs.var_features[:, 2].tolist() == [0.0, 1.0]
    # fractional parts: x1 integral, x2 = 2/3
    assert obs.var_features[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert obs.var_features[1, 1] == pytest.approx(2.0 / 3.0)
    # edge values are row-normalized coefficients
    norm = np.sqrt(2.0**2 + 3.0**2)
    assert obs.edge_val.tolist() == pytest.approx([2.0 / norm, 3.0 / norm])


def test_extraction_deterministic(knapsack):
    a, ca = _root_obs(knapsack)
    b, cb = _root_obs(knapsack)
    assert np.array_equal(a.var_features, b.var_features)
    assert np.array_equal(a.cons_features, b.cons_features)
    assert state_digest(a, ca) == state_digest(b, cb)


def test_digest_sensitive_to_candidate_flip(knapsack):
    obs, cands = _root_obs(knapsack)
    flipped = np.array(obs.var_features)
    flipped[0, 2] = 1.0 - flipped[0, 2]
    obs2 = BipartiteObservation(
        flipped, obs.cons_features, obs.edge_row, obs.edge_col, obs.edge_val
    )
    assert state_digest(obs2, cands) != state_digest(obs, cands)


def test_digest_sensitive_to_candidate_set(knapsack):
    obs, cands = _root_obs(knapsack)
    assert state_digest(obs, cands) != state_digest(obs, (0,) + cands)


def test_features_finite_and_in_range_fuzzed():
    count = 0
    seed = 0
    while count < 1000:
        seed += 1
        fam = ("multi-knapsack", "set-cover", "item-placement-like")[seed % 3]
        inst = generate_instance(InstanceFamilySpec(fam, n=8 + seed % 5, m=3, seed=seed))
        obs, cands = _root_obs(inst, depth=seed % 7)
        assert np.all(np.isfinite(obs.var_features))
        assert np.all(np.isfinite(obs.cons_features))
        assert np.all(np.isfinite(obs.edge_val))
        assert np.all(obs.var_features >= -1.0 - 1e-12)
        assert np.all(obs.var_features <= 1.0 + 1e-12)
        assert np.all(obs.cons_features >= -1.0 - 1e-12)
        assert np.all(obs.cons_features <= 1.0 + 1e-12)
        assert np.all(np.abs(obs.edge_val) <= 1.0 + 1e-12)
        # edge set is exactly the sparsity pattern of A
        assert obs.num_edges == inst.nnz
        count += 1


def test_digest_stable_across_processes(knapsack):
    """The digest must not depend on hash seeds or process state."""
    # the child sees a minimal environment; point it at the package this
    # process imported so the check also runs from an uninstalled checkout
    package_parent = Path(branchlab.__file__).resolve().parent.parent
    obs, cands = _root_obs(knapsack)
    here = state_digest(obs, cands)
    script = textwrap.dedent(
        f"""
        from branchlab.instances import parse_instance
        from branchlab.simplex import SimplexSolver
        from branchlab.observation import extract_observation, state_digest
        inst = parse_instance({serialize_instance(knapsack)!r})
        lp = SimplexSolver(inst).solve()
        cands = tuple(j for j in range(inst.num_int) if 1e-6 < (lp.x[j] % 1.0) < 1 - 1e-6)
        obs = extract_observation(inst, 0, lp, cands)
        print(state_digest(obs, cands))
        """
    )
    out = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, check=True,
        env={"PYTHONHASHSEED": "31337", "PATH": "/usr/bin:/bin",
             "PYTHONPATH": str(package_parent)},
    )
    assert out.stdout.strip() == here


def test_digest_collision_scan():
    """Distinct recorded states across many roots never collide."""
    seen: dict[str, tuple] = {}
    states = 0
    seed = 0
    while states < 2000:
        seed += 1
        fam = ("multi-knapsack", "set-cover")[seed % 2]
        inst = generate_instance(
            InstanceFamilySpec(fam, n=8 + seed % 7, m=2 + seed % 4, seed=seed)
        )
        obs, cands = _root_obs(inst, depth=seed % 5)
        digest = state_digest(obs, cands)
        key = (
            obs.var_features.tobytes(), obs.cons_features.tobytes(),
            obs.edge_val.tobytes(), tuple(cands),
        )
        if digest in seen:
            assert seen[digest] == key, "digest collision between distinct states"
        seen[digest] = key
        states += 1
    assert len(seen) > 1500


def test_edges_checked_at_construction():
    """An edge index outside its graph is refused where the observation is
    built. Unchecked, a stacked batch wired such an edge to the next graph's
    node, while the same observation alone failed with an IndexError."""
    rng = np.random.default_rng(3)
    var, cons = rng.uniform(-1, 1, (3, VAR_FEATURES)), rng.uniform(-1, 1, (2, CONS_FEATURES))
    row, col, val = np.array([0, 1]), np.array([2, 0]), np.array([0.5, -0.5])
    BipartiteObservation(var, cons, row, col, val)
    BipartiteObservation(var, np.zeros((0, CONS_FEATURES)), row[:0], col[:0], val[:0])
    bad = [
        (var, cons, np.array([0, 2]), col, val),          # constraint 2 of 2
        (var, cons, np.array([0, -1]), col, val),         # negative constraint
        (var, cons, row, np.array([3, 0]), val),          # variable 3 of 3
        (var, cons, row, np.array([0, -1]), val),         # negative variable
        (var, cons, row, col, val[:1]),                   # unequal lengths
        (var, cons, row.reshape(2, 1), col.reshape(2, 1), val.reshape(2, 1)),
        (var, cons, row.astype(float), col, val),         # non-integer indices
        (var[0], cons, row, col, val),                    # 1-D features
        (var, cons[0], row, col, val),
    ]
    for args in bad:
        with pytest.raises(ValueError, match="observation"):
            BipartiteObservation(*args)
