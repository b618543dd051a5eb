import collections
import dataclasses
import math

import numpy as np
import pytest

from branchlab.instances import InstanceFamilySpec, generate_instance, lp_relaxation
from branchlab.simplex import (
    _AT_LOWER,
    _AT_UPPER,
    _BASIC,
    _DUAL_TOL,
    _FREE,
    _PIVOT_TOL,
    BoundOverride,
    LpStatus,
    NumericalInstabilityError,
    SimplexSolver,
    _price,
    _ratio_test,
    _dual_ratio_test,
    _leaving_row,
    _State,
)

from .conftest import make_instance
from .oracles import lp_vertex_optimum, pricing_reference, ratio_test_reference


def test_box_lp():
    # min -x1 - x2 s.t. x1 + x2 <= 1, x in [0,1]^2 -> -1
    inst = make_instance("box", [-1, -1], [[1, 1]], [1], [0, 0], [1, 1], 0)
    sol = SimplexSolver(inst).solve()
    assert sol.status is LpStatus.OPTIMAL
    # oracle: the objective over the 4 box corners intersected with the row
    assert lp_vertex_optimum([-1, -1], [[1, 1]], [1], [0, 0], [1, 1]) == pytest.approx(-1)
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_empty_box_is_infeasible():
    inst = make_instance("ebox", [-1], np.zeros((0, 1)), [], [0], [1], 0)
    sol = SimplexSolver(inst).solve(overrides=(BoundOverride(0, "lower", 2.0),))
    assert sol.status is LpStatus.INFEASIBLE


def test_zero_objective(knapsack):
    zero = make_instance("z", [0, 0], [[2, 3]], [4], [0, 0], [1, 1], 0)
    sol = SimplexSolver(zero).solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == 0.0


def test_solution_invariants(knapsack):
    sol = SimplexSolver(knapsack).solve()
    A = knapsack.dense_matrix()
    assert np.all(A @ sol.x <= knapsack.rhs + 1e-7)
    assert np.all(sol.x >= knapsack.lower - 1e-7)
    assert np.all(sol.x <= knapsack.upper + 1e-7)
    assert sol.objective == pytest.approx(float(knapsack.objective @ sol.x), abs=1e-7)
    assert len(sol.basis) == knapsack.num_cons


def test_probe_children_knapsack(knapsack):
    solver = SimplexSolver(knapsack)
    parent = solver.solve()
    assert parent.x[1] == pytest.approx(2.0 / 3.0)
    down, up = solver.probe_children((), parent, 1)
    # oracle values by vertex enumeration of each one-free-variable child
    down_expected = lp_vertex_optimum([-5, -4], [[2, 3]], [4], [0, 0], [1, 0])
    up_expected = lp_vertex_optimum([-5, -4], [[2, 3]], [4], [0, 1], [1, 1])
    assert down_expected == pytest.approx(-5.0)
    assert up_expected == pytest.approx(-13.0 / 2.0)
    assert down.objective == pytest.approx(down_expected, abs=1e-9)
    assert up.objective == pytest.approx(up_expected, abs=1e-9)
    # weak duality proxy: children cannot beat the parent
    assert down.objective >= parent.objective - 1e-7
    assert up.objective >= parent.objective - 1e-7


def test_probe_integral_variable_rejected(knapsack):
    solver = SimplexSolver(knapsack)
    parent = solver.solve()
    assert parent.x[0] == pytest.approx(1.0)
    with pytest.raises(ValueError, match="integral"):
        solver.probe_children((), parent, 0)


def test_probe_mixed_status_pair():
    # x2 pinned to 0.5 by two rows: both children of branching on it are
    # infeasible while x1's children stay solvable
    inst = make_instance(
        "pin", [-1, 0], [[0, 1], [0, -1], [1, 0]], [0.5, -0.5, 10], [0, 0], [3, 1], 2
    )
    solver = SimplexSolver(inst)
    parent = solver.solve()
    assert parent.x[1] == pytest.approx(0.5)
    down, up = solver.probe_children((), parent, 1)
    assert down.status is LpStatus.INFEASIBLE
    assert up.status is LpStatus.INFEASIBLE


def test_warm_equals_cold():
    rng = np.random.default_rng(5)
    for seed in range(20):
        inst = lp_relaxation(
            generate_instance(InstanceFamilySpec("multi-knapsack", n=8, m=3, seed=seed))
        )
        solver = SimplexSolver(inst)
        base = solver.solve()
        j = int(rng.integers(0, inst.num_vars))
        ov = BoundOverride(j, "upper", float(np.floor(base.x[j] * 2) / 2))
        warm = solver.solve((ov,), warm=base)
        cold = solver.solve((ov,))
        assert warm.status == cold.status
        if warm.status is LpStatus.OPTIMAL:
            assert warm.objective == pytest.approx(cold.objective, abs=1e-8)


def test_iteration_limit_status():
    inst = lp_relaxation(
        generate_instance(InstanceFamilySpec("set-cover", n=30, m=20, seed=2))
    )
    sol = SimplexSolver(inst).solve(iter_limit=1)
    assert sol.status is LpStatus.ITERATION_LIMIT
    assert sol.iterations == 1


def test_unbounded_detected():
    inst = make_instance(
        "unb", [-1], np.zeros((0, 1)), [], [0], [np.inf], 0
    )
    sol = SimplexSolver(inst).solve()
    assert sol.status is LpStatus.UNBOUNDED


def test_free_variable_lp():
    # min x s.t. x >= -3 encoded as -x <= 3, free bounds
    inst = make_instance("fr", [1], [[-1]], [3], [-np.inf], [np.inf], 0)
    sol = SimplexSolver(inst).solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-3.0, abs=1e-9)


def test_degenerate_lp_terminates():
    # classic cycling-prone structure (degenerate vertex at the origin)
    inst = make_instance(
        "beale",
        [-0.75, 150, -0.02, 6],
        [[0.25, -60, -0.04, 9], [0.5, -90, -0.02, 3], [0, 0, 1, 0]],
        [0, 0, 1],
        [0, 0, 0, 0],
        [1e6, 1e6, 1e6, 1e6],
        0,
    )
    sol = SimplexSolver(inst).solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-0.05, abs=1e-9)


def test_nan_override_rejected(knapsack):
    # every bound comparison is False for NaN, so a NaN override would
    # otherwise leave the bound as it was and solve the parent LP
    for side in ("lower", "upper"):
        with pytest.raises(ValueError, match="NaN"):
            BoundOverride(1, side, math.nan)


def test_optimal_basis_holds_only_columns_of_the_lp():
    """An LP whose slack basis violates rows, with a degenerate optimum (rows
    1 and 4 pin x = 0): its optimal basis holds m distinct indices below
    n + m, and a warm start from it is optimal at once."""
    inst = make_instance(
        "degenerate", [-0.32], [[-1.03], [0.03], [-7.31], [1.06]], [0.0, 5.44, 0.96, 0.0],
        [-0.84], [np.inf], 1,
    )
    solver = SimplexSolver(inst)
    sol = solver.solve()
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == 0.0
    assert len(set(sol.basis)) == inst.num_cons
    assert all(0 <= v < inst.num_vars + inst.num_cons for v in sol.basis)
    again = solver.solve(warm=sol)
    assert again.status is LpStatus.OPTIMAL and again.iterations == 0
    assert again.basis == sol.basis


def test_loosening_override_rejected(knapsack):
    solver = SimplexSolver(knapsack)
    with pytest.raises(ValueError, match="loosens"):
        solver.solve((BoundOverride(0, "upper", 5.0),))
    with pytest.raises(ValueError, match="loosens"):
        solver.solve((BoundOverride(0, "lower", -1.0),))


def test_random_lps_match_vertex_enumeration():
    """200 random LPs with n <= 6, m <= 4 against dense vertex enumeration."""
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 7))
        m = int(rng.integers(1, 5))
        A = np.round(rng.normal(0, 2, (m, n)), 3)
        c = np.round(rng.normal(0, 2, n), 3)
        l = np.round(rng.uniform(-3, 0, n), 3)
        u = l + np.round(rng.uniform(0.5, 4, n), 3)
        b = np.round(rng.normal(0.5, 2.5, m), 3)
        inst = make_instance(f"r{checked}", c, A, b, l, u, 0)
        sol = SimplexSolver(inst).solve()
        expected = lp_vertex_optimum(c, A, b, l, u)
        if expected is None:
            assert sol.status is LpStatus.INFEASIBLE
        else:
            assert sol.status is LpStatus.OPTIMAL
            assert abs(sol.objective - expected) < 1e-7
        checked += 1


def _ratio_case(rng):
    """A random ratio-test input: (step, basis, x, lb, ub, own) as numpy values.

    Rooms and steps come from small pools so that exact ties, ties within
    1e-12 and ratios exactly 1e-12 apart are common; steps include entries at
    and just around the pivot tolerance and signed zeros; bounds include
    +-inf on either side; slacks include 0.0, -0.0 and small negatives (a
    basic value just outside its bound).
    """
    m = int(rng.integers(1, 9))
    N = m + int(rng.integers(0, 5))
    basis = rng.permutation(N)[:m].astype(np.int64)
    rooms = [0.0, -1e-9, 0.5, 1.0, 2.0, 3.0, 1.0 + 3e-13, 1.0 - 7e-13,
             1.0 + 1e-12, 1.0 - 1e-12, 2.0 + 1.5e-12]
    near_ties = rng.random() < 0.25      # every ratio within 1e-12 of 1
    if near_ties:
        rooms = [1.0, 1.0 + 1e-12, 1.0 - 1e-12, 1.0 + 3e-13]
    lb = rng.choice([0.0, -1.0, 2.5, -np.inf, np.inf], N, p=[0.3, 0.3, 0.23, 0.15, 0.02])
    x = np.where(np.isfinite(lb), lb, 0.0) + rng.choice(rooms, N)
    ub = x + rng.choice(rooms, N)
    ub[rng.random(N) < 0.15] = np.inf
    ub[rng.random(N) < 0.02] = -np.inf
    for v in range(N):
        u = rng.random()
        if u < 0.1:         # x - lb = -0.0
            lb[v], x[v] = 0.0, -0.0
        elif u < 0.2:       # ub - x = -0.0
            x[v], ub[v] = 0.0, -0.0
    tol = _PIVOT_TOL
    steps = [tol, -tol, np.nextafter(tol, 0), -np.nextafter(tol, 0),
             np.nextafter(tol, 1), -np.nextafter(tol, 1), 0.0, -0.0,
             0.5, -0.5, 1.0, -1.0, 2.0, -2.0, 4.0, -4.0]
    step = rng.choice([1.0, -1.0] if near_ties else steps, m)
    noisy = rng.random(m) < (0.0 if near_ties else 0.2)
    step[noisy] = rng.normal(0, 2, int(noisy.sum()))
    own = np.float64(rng.choice([np.inf, 0.0, 0.5, 1.0, 2.0, 1.0 + 5e-13, 7.0]))
    return step, basis, x, lb, ub, own


def test_ratio_test_matches_numpy_scalar_reference():
    """The plain-float ratio test picks the same row and the same step, to the
    bit, as the numpy-scalar loop it replaced, under both tie rules."""
    rng = np.random.default_rng(4)
    seen = collections.Counter()
    for _ in range(4000):
        step, basis, x, lb, ub, own = _ratio_case(rng)
        picks = {}
        for bland in (False, True):
            want = ratio_test_reference(step, basis, x, lb, ub, own, bland, _PIVOT_TOL)
            got = _ratio_test(
                basis.tolist(), x[basis].tolist(), lb[basis].tolist(),
                ub[basis].tolist(), step.tolist(), float(own), bland,
            )
            assert got[1] == want[1]
            assert got[0] == want[0]
            assert float(got[0]).hex() == float(want[0]).hex()   # -0.0 kept too
            picks[bland] = got[1]
        t, row = got
        seen["unbounded" if math.isinf(t) else "flip" if row < 0 else "pivot"] += 1
        seen["negative zero step"] += t == 0.0 and math.copysign(1.0, t) < 0
        seen["tie rules disagree"] += picks[False] != picks[True]
    assert min(seen[k] for k in (
        "unbounded", "flip", "pivot", "negative zero step", "tie rules disagree"
    )) >= 20, seen


def _pricing_case(rng):
    """A random pricing input: (d, stat). Reduced costs come from a small pool
    so that ties in |d| (including d and -d), signed zeros and values exactly
    at and just around +-_DUAL_TOL are common; a few are NaN or infinite.
    Statuses include basic and free columns."""
    N = int(rng.integers(1, 13))
    tol = _DUAL_TOL
    pool = [0.0, -0.0, tol, -tol, np.nextafter(tol, 0), -np.nextafter(tol, 0),
            np.nextafter(tol, 1), -np.nextafter(tol, 1), 2 * tol, -2 * tol,
            0.5, -0.5, 1.0, -1.0, 3.0, -3.0, np.nan, np.inf, -np.inf]
    p = np.ones(len(pool))
    p[-3:] = 0.1                        # NaN and infinities are rare
    d = rng.choice(pool, N, p=p / p.sum())
    noisy = rng.random(N) < 0.2
    d[noisy] = rng.normal(0, 2, int(noisy.sum()))
    stat = rng.choice(np.array([_AT_LOWER, _AT_UPPER, _BASIC, _FREE], dtype=np.int8), N,
                      p=[0.35, 0.3, 0.2, 0.15])
    return d, stat


def test_pricing_matches_mask_reference():
    """The signed-score pricing picks the same column and direction as the
    boolean-mask rule it replaced, under both Dantzig's and Bland's rule, on
    free and basic columns, ties, signed zeros, values at the tolerance and
    NaN reduced costs."""
    rng = np.random.default_rng(9)
    seen = collections.Counter()
    for _ in range(6000):
        d, stat = _pricing_case(rng)
        free = (stat == _FREE).nonzero()[0].tolist()
        for bland in (False, True):
            want = pricing_reference(d, stat, bland, _DUAL_TOL)
            with np.errstate(invalid="ignore"):     # 0 * inf on a basic column
                got = _price(d, stat, free, bland)
            assert got == want, (d.tolist(), stat.tolist(), bland)
        e, direction = got
        if e < 0:
            seen["none eligible"] += 1
            seen["at tolerance, none eligible"] += bool(np.any(np.abs(d) == _DUAL_TOL))
            continue
        seen["free entered"] += stat[e] == _FREE
        seen["decrease"] += direction < 0
        eligible = (np.isin(stat, (_AT_LOWER, _FREE)) & (d < -_DUAL_TOL)) | (
            np.isin(stat, (_AT_UPPER, _FREE)) & (d > _DUAL_TOL))
        seen["tie in |d|"] += int(np.sum(np.abs(d[eligible]) == abs(d[e]))) > 1
        seen["NaN beside an eligible column"] += bool(np.isnan(d).any())
    assert min(seen[k] for k in (
        "none eligible", "at tolerance, none eligible", "free entered", "decrease",
        "tie in |d|", "NaN beside an eligible column",
    )) >= 20, seen


def test_audit_rejects_a_nan_point():
    """A state whose nonbasic value is NaN passes every feasibility comparison
    (each is False for NaN); the optimality audit rejects it as not finite
    instead of returning an optimal solution with a NaN objective."""
    inst = make_instance("flat", [0.0, 0.0], [[1.0, 1.0]], [4.0], [0.0, 0.0], [1.0, 1.0], 0)
    solver = SimplexSolver(inst)
    lb, ub = solver.lb0.copy(), solver.ub0.copy()
    stat = np.array([_AT_LOWER, _AT_LOWER, _BASIC], dtype=np.int8)
    x = np.array([np.nan, 0.0, 4.0])
    state = _State(lb, ub, np.array([2]), stat, x, np.eye(1))
    with pytest.raises(NumericalInstabilityError, match="not finite"):
        solver._phase_two(state, 100)


def test_warm_children_match_cold_and_vertex_enumeration():
    """Both children of a fractional variable, warm-started from the parent,
    on random LPs with degenerate rows (b = 0), tied costs, general-integer
    boxes, some infinite upper bounds and some free variables: each agrees
    with a cold solve, and with vertex enumeration wherever the child's box
    is finite. Where a second variable is fractional, four more children
    tighten a bound of each at once: both are basic in the parent, so these
    start with two out-of-bound basic variables. Both variables are also
    probed (``probe_children``, the dual simplex): each probed child has the
    status of the same child solved by ``solve`` and its objective within
    1e-9 relative, and is checked against the cold solve and enumeration
    too."""
    rng = np.random.default_rng(11)
    pick = np.random.default_rng(12)        # second variables, apart from the LPs' draws
    frees = np.random.default_rng(13)       # free variables, apart from the LPs' draws
    counts = collections.Counter()
    for k in range(1000):
        n = int(rng.integers(2, 5))
        m = int(rng.integers(1, 5))
        A = np.round(rng.normal(0.5, 2, (m, n)), 2)
        A[rng.random((m, n)) < 0.25] = 0.0
        b = np.round(rng.uniform(-1, 6, m), 2)
        b[rng.random(m) < 0.35] = 0.0
        c = rng.integers(-3, 2, n).astype(float)      # few distinct costs: ties
        lo = rng.integers(0, 2, n).astype(float)
        up = lo + rng.integers(1, 6, n)
        up[rng.random(n) < 0.2] = np.inf
        free = frees.random(n) < 0.08
        lo[free], up[free] = -np.inf, np.inf
        inst = make_instance(f"w{k}", c, A, b, lo, up, n)
        solver = SimplexSolver(inst)
        parent = solver.solve()
        if parent.status is not LpStatus.OPTIMAL:
            continue
        counts["free variable"] += bool(free.any())
        frac = [j for j in range(n) if abs(parent.x[j] - round(parent.x[j])) > 1e-6]
        if not frac:
            continue
        j = frac[int(rng.integers(len(frac)))]
        xj = float(parent.x[j])
        down = BoundOverride(j, "upper", math.floor(xj))
        up_ov = BoundOverride(j, "lower", math.ceil(xj))
        children = [(down,), (up_ov,)]
        probed = {}     # single-override children, solved by probe_children
        others = [v for v in frac if v != j]
        for v in [j] + others[:1]:
            xv = float(parent.x[v])
            pair = solver.probe_children((), parent, v)
            for side, value, child in (("upper", math.floor(xv), pair[0]),
                                       ("lower", math.ceil(xv), pair[1])):
                probed[(BoundOverride(v, side, value),)] = child
        if others:
            j2 = others[int(pick.integers(len(others)))]
            x2 = float(parent.x[j2])
            children += [(a, b2) for a in (down, up_ov) for b2 in (
                BoundOverride(j2, "upper", math.floor(x2)),
                BoundOverride(j2, "lower", math.ceil(x2)))]
        children += [ovs for ovs in probed if ovs not in children]
        for ovs in children:
            warm = solver.solve(ovs, warm=parent)
            cold = solver.solve(ovs)
            assert warm.status is cold.status, (k, ovs)
            counts[warm.status] += 1
            found = [warm]
            if ovs in probed:
                child = probed[ovs]
                assert child.status is warm.status, (k, ovs)
                counts[f"probed {child.status.value}"] += 1
                if child.status is LpStatus.OPTIMAL:
                    assert child.objective == pytest.approx(warm.objective, rel=1e-9, abs=1e-9)
                found.append(child)
            for sol in found:
                if sol.status is LpStatus.OPTIMAL:
                    assert sol.objective == pytest.approx(cold.objective, abs=1e-7)
                    assert np.all(A @ sol.x <= b + 1e-7)
            child_lo, child_up = lo.copy(), up.copy()
            for ov in ovs:
                (child_up if ov.side == "upper" else child_lo)[ov.var] = ov.value
            outside = [v for v in parent.basis if v < n and not
                       child_lo[v] - 1e-7 <= parent.x[v] <= child_up[v] + 1e-7]
            counts["two or more violated at the start"] += len(outside) >= 2
            if np.all(np.isfinite(child_lo)) and np.all(np.isfinite(child_up)):
                expected = lp_vertex_optimum(c, A, b, child_lo, child_up)
                counts["enumerated"] += 1
                counts["probed and enumerated"] += ovs in probed
                for sol in found:
                    if expected is None:
                        assert sol.status is LpStatus.INFEASIBLE, (k, ovs)
                    else:
                        assert sol.status is LpStatus.OPTIMAL, (k, ovs)
                        assert sol.objective == pytest.approx(expected, abs=1e-7)
    assert counts[LpStatus.OPTIMAL] >= 250, counts
    assert counts[LpStatus.INFEASIBLE] >= 150, counts
    assert counts["enumerated"] >= 250, counts
    assert counts["two or more violated at the start"] >= 150, counts
    assert counts["probed optimal"] >= 250, counts
    assert counts["probed infeasible"] >= 150, counts
    assert counts["probed and enumerated"] >= 250, counts
    assert counts["free variable"] >= 50, counts


def _solution_bytes(sol):
    """Every field of a solution, floats as hex, so equal means bit for bit."""
    def hexes(a):
        return None if a is None else [float(v).hex() for v in a]
    return (sol.status, hexes(sol.x), float(sol.objective).hex(), sol.basis,
            sol.iterations, hexes(sol.duals), hexes(sol.reduced_costs),
            sorted(sol.at_upper))


def test_shared_warm_factorization_is_bit_identical():
    """Children warm-started by one solver, which reuses the parent basis's
    inverse from its first warm start, equal children each solved by a fresh
    solver, bit for bit, on random LPs with degenerate rows (b = 0), tied
    costs and infinite bounds on either side. The second and third children
    hit the cache; the third checks that the pivots of the first two left
    the cached inverse untouched. Warm starts from a child's basis, then from
    the parent's again, check that a new basis replaces the entry."""
    rng = np.random.default_rng(23)
    compared = switched = 0
    for k in range(800):
        n = int(rng.integers(2, 6))
        m = int(rng.integers(1, 6))
        A = np.round(rng.normal(0.5, 2, (m, n)), 2)
        A[rng.random((m, n)) < 0.25] = 0.0
        b = np.round(rng.uniform(-1, 6, m), 2)
        b[rng.random(m) < 0.35] = 0.0
        c = rng.integers(-3, 2, n).astype(float)      # few distinct costs: ties
        lo = rng.integers(0, 2, n).astype(float)
        up = lo + rng.integers(1, 6, n)
        up[rng.random(n) < 0.2] = np.inf
        lo[(rng.random(n) < 0.1) & np.isfinite(up)] = -np.inf
        inst = make_instance(f"f{k}", c, A, b, lo, up, n)
        parent = SimplexSolver(inst).solve()
        if parent.status is not LpStatus.OPTIMAL:
            continue
        frac = [j for j in range(n) if abs(parent.x[j] - round(parent.x[j])) > 1e-6]
        if not frac:
            continue
        j = frac[int(rng.integers(len(frac)))]
        xj = float(parent.x[j])
        down = BoundOverride(j, "upper", math.floor(xj))
        up_ov = BoundOverride(j, "lower", math.ceil(xj))
        shared = SimplexSolver(inst)
        children = []
        for ov in (down, up_ov, down):
            hit = shared.solve((ov,), warm=parent)
            fresh = SimplexSolver(inst).solve((ov,), warm=parent)
            assert _solution_bytes(hit) == _solution_bytes(fresh), (k, ov)
            children.append(hit)
        compared += 1
        # a warm start from another basis replaces the cached inverse
        other = next((ch for ch in children if ch.status is LpStatus.OPTIMAL
                      and ch.basis != parent.basis), None)
        if other is None:
            continue
        for warm in (other, other, parent):
            for ov in (down, up_ov):
                got = shared.solve((ov,), warm=warm)
                fresh = SimplexSolver(inst).solve((ov,), warm=warm)
                assert _solution_bytes(got) == _solution_bytes(fresh), (k, ov)
        assert shared._warm_basis == parent.basis
        switched += 1
    assert compared >= 200 and switched >= 100, (compared, switched)


def test_dual_tie_rules():
    """The leaving row is the largest violation beyond FEAS_TOL, ties to the
    lowest row; the entering column the largest |alpha| among ratios within
    1e-12 of the least, ties to the lowest index, and |alpha| must exceed
    the pivot tolerance. Bland's rule takes the lowest variable index for
    both."""
    inf = math.inf
    basis = np.array([7, 5, 9, 4])
    lbb, ubb = np.array([0.0, 0.0, -inf, 0.0]), np.array([1.0, inf, 2.0, 1.0])

    def leaving(xb, bland=False):
        return _leaving_row(basis, np.array(xb), lbb, ubb, bland)

    assert leaving([1.5, -0.5, 2.5, 0.5]) == (0, True)
    assert leaving([1.5, -0.5, 2.5, 0.5], bland=True) == (1, False)
    assert leaving([1.0 + 5e-8, -5e-8, 2.0, 1.0]) == (-1, False)
    assert leaving([0.5, -0.75, 2.75, -0.75]) == (1, False)
    assert leaving([0.5, 0.5, 2.5, -2.0], bland=True) == (3, False)

    L, U, B, F = _AT_LOWER, _AT_UPPER, _BASIC, _FREE
    stat = [L, U, B, L, F, L]
    # leaving to the upper bound, a column at its lower bound needs alpha > 0
    # and one at its upper bound alpha < 0; ratios 1, 1, 1 + 1e-13 and 2
    d = [1.0, -2.0, 0.0, 3.0 * (1.0 + 1e-13), 0.0, 4.0]
    alpha = [1.0, -2.0, 5.0, 3.0, 0.0, 2.0]
    assert _dual_ratio_test(d, alpha, stat, True, False) == 3      # largest |alpha|
    assert _dual_ratio_test(d, alpha, stat, True, True) == 0       # lowest index
    even = [1.0, -1.0, 5.0, 1.0, 0.0, 1.0]                          # ratios 1, 1, 3, 4
    assert _dual_ratio_test([1.0, -1.0, 0.0, 3.0, 0.0, 4.0], even, stat, True, False) == 0
    neg = [-a for a in alpha]
    assert _dual_ratio_test(d, neg, stat, False, False) == 3       # leaving to lower
    assert _dual_ratio_test(d, neg, stat, True, False) == -1       # none eligible
    far = [1.0, -2.0, 0.0, 3.0 * (1.0 + 2e-12), 0.0, 4.0]
    assert _dual_ratio_test(far, alpha, stat, True, False) == 1    # 1 + 2e-12: no tie
    assert _dual_ratio_test(d, alpha[:5] + [8.0], stat, True, False) == 5   # ratio 0.5
    free = alpha[:4] + [2.0 * _PIVOT_TOL, 2.0]
    assert _dual_ratio_test(d, free, stat, True, False) == 4       # free, ratio 0
    tiny = [_PIVOT_TOL, 2.0, 5.0, -3.0, _PIVOT_TOL, -2.0]
    assert _dual_ratio_test(d, tiny, stat, True, False) == -1      # |alpha| too small
    assert _dual_ratio_test([-1e-12] + d[1:], alpha, stat, True, False) == 0   # ratio 0


def test_probe_from_a_start_that_is_not_dual_feasible_raises(knapsack):
    """A probe's dual simplex needs a dual feasible start, as an optimal
    parent's basis is; any other raises instead of falling back."""
    solver = SimplexSolver(knapsack)
    parent = solver.solve()
    slack_start = dataclasses.replace(parent, basis=(2,), at_upper=frozenset())
    with pytest.raises(ValueError, match="not dual feasible"):
        solver.probe_children((), slack_start, 1)
    assert solver.probe_children((), parent, 1)[0].status is LpStatus.OPTIMAL


def test_degenerate_probe_reaches_the_lowest_index_rule(monkeypatch):
    """A dual-degenerate child (every cost but one is 0) on which the
    largest-|alpha| rule cycles through the same 12 entering columns: after
    3(n+m) pivots without a rise in the dual objective the lowest-index rule
    takes over, and the probe proves the child infeasible, as ``solve`` does
    from the same start and cold; the sibling probe agrees with ``solve``
    as well."""
    from branchlab import simplex

    A = [[-3, -3, -3, 1, -1, 2, -3, 3, 1], [-1, 1, 3, 2, -1, -2, 3, -1, 0],
         [1, -1, -1, -3, 1, 0, -1, 3, -3], [-2, 3, 1, 0, 1, 2, -2, 2, -2],
         [0, -1, 3, -1, 3, 3, 3, 2, 1], [-3, 2, 0, -1, 2, 3, -2, -3, 0],
         [1, 0, -2, -1, 2, -3, -3, 3, 2], [1, -1, 0, 0, 3, 2, -1, -2, -3]]
    inst = make_instance("cycling", [-1] + [0] * 8, A, [0, 3, 0, 0, 0, 1, 0, 2],
                         [0] * 9, [2, 5, 4, 5, 4, 7, 6, 6, 7], 9)
    solver = SimplexSolver(inst)
    parent = solver.solve()
    assert parent.x[6] == pytest.approx(2 / 9)
    rules = []
    ratio_test = simplex._dual_ratio_test

    def recording(d, alpha, stat, above, bland):
        rules.append(bland)
        return ratio_test(d, alpha, stat, above, bland)

    monkeypatch.setattr(simplex, "_dual_ratio_test", recording)
    down, up = solver.probe_children((), parent, 6)
    assert any(rules) and not rules[0]
    assert rules.index(True) > 3 * (inst.num_vars + inst.num_cons)
    assert up.status is LpStatus.INFEASIBLE
    for child, ov in ((down, BoundOverride(6, "upper", 0.0)), (up, BoundOverride(6, "lower", 1.0))):
        for ref in (solver.solve((ov,), warm=parent), solver.solve((ov,))):
            assert child.status is ref.status
            assert child.objective == pytest.approx(ref.objective, rel=1e-9, abs=1e-9)
