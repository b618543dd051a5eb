import math

import numpy as np
import pytest

from branchlab import gnn
from branchlab.selection import (
    EnvelopeConfig,
    ReturnEntry,
    ReturnSet,
    compute_returns,
    select_top,
    shift_to_positive,
    train_envelope,
)
from branchlab.trajectories import Episode, Transition

from .test_gnn import collect_states, random_observation


def _episode(rewards, name="ep"):
    """Synthetic episode with one fixed observation per decision."""
    rng = np.random.default_rng(hash(name) % 2**32)
    ts = [
        Transition(obs=random_observation(rng), cand=(0, 1), action=0,
                   reward=float(r), clock=float(t))
        for t, r in enumerate(rewards)
    ]
    return Episode(instance=name, transitions=ts)


def test_returns_undiscounted():
    rs = compute_returns([_episode([1, 2, 3])], gamma=1.0)
    assert [e.G for e in rs.entries] == [6.0, 5.0, 3.0]


def test_returns_myopic():
    rs = compute_returns([_episode([1, 2, 3])], gamma=0.0)
    assert [e.G for e in rs.entries] == [1.0, 2.0, 3.0]


def test_returns_half_discount():
    rs = compute_returns([_episode([1, 2, 3])], gamma=0.5)
    assert [e.G for e in rs.entries] == [2.75, 3.5, 3.0]


def test_returns_recursion_exact():
    rng = np.random.default_rng(0)
    for trial in range(20):
        rewards = rng.normal(0, 5, size=int(rng.integers(1, 9)))
        gamma = float(rng.uniform(0, 1))
        rs = compute_returns([_episode(list(rewards), name=f"e{trial}")], gamma)
        g = [e.G for e in rs.entries]
        for t in range(len(rewards) - 1):
            assert g[t] - (rewards[t] + gamma * g[t + 1]) == 0.0
        assert g[-1] == rewards[-1]


def test_constant_envelope_zero_weights_has_zero_loss():
    """With all weights zero and the value bias at g, V is identically g, so
    every residual vanishes and the ridge term is lambda * 0."""
    states = collect_states(count=3)
    params = gnn.init_params(0, zero=True)
    g = 1.25
    params.arrays["val_b"][0] = g
    batch = gnn.Pieces((s[0], s[1], s[2]) for s in states)
    loss = gnn.value_loss(params, batch, np.full(3, g), penalty=1000.0, ridge=1e-4)
    assert loss == 0.0


def test_penalty_one_is_plain_ridge_loss():
    states = collect_states(count=4)
    params = gnn.init_params(2)
    batch = gnn.Pieces((s[0], s[1], s[2]) for s in states)
    returns = np.array([0.3, -1.0, 2.0, 0.9])
    lam = 1e-3
    lk = gnn.value_loss(params, batch, returns, penalty=1.0, ridge=lam)
    values = np.array([gnn.forward_numpy(params, s[0])[1] for s in states])
    ridge = lam * sum(float((params.arrays[n] ** 2).sum()) for n in gnn.WEIGHT_NAMES)
    assert lk == pytest.approx(float(((values - returns) ** 2).sum()) + ridge, rel=1e-12)


def test_two_point_envelope_closed_form():
    """Targets {0, 1} under an all-zero network reduce training to exact
    gradient descent on the scalar value bias; the penalized minimizer is
    K / (K + 1) on the branch below 1."""
    states = collect_states(count=1)
    entries = [
        ReturnEntry(obs=states[0][0], cand=states[0][1], action=states[0][2],
                    G=g, episode="ep", t=t)
        for t, g in enumerate((0.0, 1.0))
    ]
    K = 1000.0
    config = EnvelopeConfig(ridge=0.0, penalty=K, epochs=4000, lr=2e-4, p=15.0, seed=0)
    start = gnn.init_params(0, zero=True)
    params, report = train_envelope(ReturnSet(entries, 1.0), config, start=start)
    fitted = gnn.forward_numpy(params, states[0][0])[1]
    closed_form = K / (K + 1.0)
    assert fitted == pytest.approx(closed_form, abs=1e-3)
    assert fitted >= 1.0 - 5e-3
    # only the scalar bias path can move under this construction
    assert float(np.abs(params.arrays["pol_w"]).max()) == 0.0


def test_envelope_penalty_reduces_violations():
    states = collect_states(count=8)
    rs = ReturnSet(
        [ReturnEntry(s[0], s[1], s[2], G=float(g), episode="e", t=t)
         for t, (s, g) in enumerate(zip(states, np.linspace(-1, 2, 8)))],
        gamma=1.0,
    )
    base = EnvelopeConfig(ridge=1e-4, penalty=1.0, epochs=60, lr=1e-3, seed=3)
    strong = EnvelopeConfig(ridge=1e-4, penalty=1000.0, epochs=60, lr=1e-3, seed=3)
    start = gnn.init_params(3)
    _, weak_report = train_envelope(rs, base, start=start.copy())
    _, strong_report = train_envelope(rs, strong, start=start.copy())
    assert strong_report.violation_fraction <= weak_report.violation_fraction


def test_envelope_reaches_large_negative_returns():
    """Returns of magnitude ~1e5 (the scale of bound-area rewards) are reached
    by the fitted envelope: the fit runs in standardized units, so it does not
    stall near the network's initial outputs of order 1."""
    states = collect_states(count=8)
    G = -1e5 * np.linspace(1.0, 2.0, 8)
    rs = ReturnSet(
        [ReturnEntry(s[0], s[1], s[2], G=float(g), episode="e", t=t)
         for t, (s, g) in enumerate(zip(states, G))],
        gamma=1.0,
    )
    params, report = train_envelope(
        rs, EnvelopeConfig(ridge=1e-4, penalty=1000.0, epochs=200, lr=1e-3, seed=0)
    )
    values = gnn.state_values(params, gnn.Pieces(e.obs for e in rs.entries))
    span = G.max() - G.min()
    assert np.all(values >= G.min() - 0.1 * span)
    assert np.all(values <= G.max() + 0.1 * span)
    assert report.return_mean == pytest.approx(G.mean())


def test_select_cardinality():
    rng = np.random.default_rng(1)
    entries = [
        ReturnEntry(None, (0,), 0, G=float(rng.normal()), episode="e", t=t)
        for t in range(100)
    ]
    values = rng.uniform(0.5, 2.0, 100)
    selected, _ = select_top(entries, values, p=15.0)
    assert len(selected) == 15          # ceil(0.15 * 100)
    selected, _ = select_top(entries, values, p=100.0)
    assert len(selected) == 100


def test_select_cardinality_rounds_up():
    entries = [ReturnEntry(None, (0,), 0, G=float(t), episode="e", t=t) for t in range(7)]
    selected, _ = select_top(entries, np.ones(7), p=15.0)
    assert len(selected) == math.ceil(0.15 * 7) == 2


def test_select_top_matches_sort_oracle():
    G = [5.0, 1.0, 4.0, 2.5, 9.0, 0.5]
    V = [1.0, 1.0, 2.0, 0.5, 3.0, 0.25]
    entries = [ReturnEntry(None, (0,), 0, G=g, episode="e", t=t) for t, g in enumerate(G)]
    gs, vs = shift_to_positive(np.array(G), np.array(V))
    ratios = gs / vs
    oracle = sorted(range(6), key=lambda i: -ratios[i])[:3]
    selected, x = select_top(entries, np.array(V), p=50.0)
    assert sorted(e.t for e in selected) == sorted(oracle)
    for e in selected:
        assert gs[e.t] > x * vs[e.t]


def test_selection_monotone_in_p():
    rng = np.random.default_rng(5)
    entries = [
        ReturnEntry(None, (0,), 0, G=float(rng.normal()), episode="e", t=t)
        for t in range(40)
    ]
    values = rng.normal(size=40)
    previous: set[int] = set()
    for p in (5, 20, 35, 60, 100):
        selected, _ = select_top(entries, values, p=float(p))
        chosen = {e.t for e in selected}
        assert previous <= chosen
        previous = chosen


def test_selection_scale_invariant():
    rng = np.random.default_rng(6)
    for trial in range(30):
        m = int(rng.integers(3, 25))
        G = rng.normal(size=m)
        V = rng.normal(size=m)
        entries = [ReturnEntry(None, (0,), 0, G=float(g), episode="e", t=t)
                   for t, g in enumerate(G)]
        scaled = [ReturnEntry(None, (0,), 0, G=float(g * 7.25), episode="e", t=t)
                  for t, g in enumerate(G)]
        a, _ = select_top(entries, V, p=40.0)
        b, _ = select_top(scaled, V * 7.25, p=40.0)
        assert [e.t for e in a] == [e.t for e in b]


def test_selection_tie_breaks_by_order():
    entries = [ReturnEntry(None, (0,), 0, G=1.0, episode="e", t=t) for t in range(4)]
    selected, _ = select_top(entries, np.ones(4), p=50.0)
    assert [e.t for e in selected] == [0, 1]


def test_empty_set_rejected():
    with pytest.raises(ValueError, match="empty"):
        select_top([], np.zeros(0), p=15.0)
    with pytest.raises(ValueError, match="empty"):
        train_envelope(ReturnSet([], 1.0), EnvelopeConfig())


@pytest.mark.parametrize("field, value", [
    ("lr", math.inf), ("lr", math.nan), ("ridge", math.nan), ("penalty", math.nan),
    ("penalty", math.inf), ("p", math.nan),
])
def test_envelope_config_rejects_non_finite_values(field, value):
    """A non-finite step size never drops below the line search's floor nor
    lowers the loss, so the fit would never end; it fails at construction."""
    with pytest.raises(ValueError, match=field):
        EnvelopeConfig(**{field: value})


def test_shift_to_positive():
    rng = np.random.default_rng(7)
    for _ in range(50):
        m = int(rng.integers(1, 30))
        g = rng.normal(scale=rng.uniform(0.1, 100), size=m)
        v = rng.normal(scale=rng.uniform(0.1, 100), size=m)
        gs, vs = shift_to_positive(g, v)
        assert np.all(gs > 0) and np.all(vs > 0)
    # a return that hits its envelope scores exactly 1 after shifting
    gs, vs = shift_to_positive(np.array([-3.0, 2.0]), np.array([-3.0, 4.0]))
    assert gs[0] / vs[0] == pytest.approx(1.0)
    gs, vs = shift_to_positive(np.zeros(4), np.zeros(4))
    assert np.all(gs == 1.0) and np.all(vs == 1.0)


def test_selection_not_biased_by_return_magnitude():
    """Entries that realize their envelope win regardless of the absolute
    size of their returns (late vs early episode positions)."""
    # two large-magnitude negatives that hit their envelope, against two
    # small-magnitude negatives that fall far short of theirs
    G = np.array([-100.0, -90.0, -1.0, -2.0])
    V = np.array([-100.0, -90.0, 5.0, 4.0])
    entries = [ReturnEntry(None, (0,), 0, G=float(g), episode="e", t=t)
               for t, g in enumerate(G)]
    selected, _ = select_top(entries, V, p=50.0)
    assert sorted(e.t for e in selected) == [0, 1]
