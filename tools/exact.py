"""Exactness check: run the same probes on a base revision and on the working
tree, and compare their outputs item by item.

    python3 tools/exact.py --base <git rev>

The base revision's committed files are exported with ``git archive`` into a
temporary directory (local, no network, and nothing left in the repository's
git metadata). Each tree runs the probes in its own subprocess, with its own
``src`` and ``bench`` on the path and ``OPENBLAS_NUM_THREADS=1``; both run in
this environment, since BLAS kernels and numpy versions move the low bits, so
results are never compared against stored digests. Probes:

- ``solve-small``, ``solve-wide``: ``solve_result_to_json`` of every
  (instance, policy) pair of the benchmark workload, seeds 1-5;
- ``lp-children``: random LPs whose slack basis is feasible, each child of a
  fractional variable warm-started from its parent and each grandchild from
  its child, so every warm start has exactly one out-of-bound basic variable;
- ``lp-probe-children``: on the same LPs, both ``probe_children``
  children (the dual simplex) of every fractional variable of each root;
- ``lp-siblings``: children of the same LPs warm-started under their
  sibling's bound, and children that tighten two bounds at once;
- ``lp-infeasible-start``: random LPs whose slack basis violates rows, and
  their children;
- ``gcnn``: on one seeded batch of 75 graphs of mixed sizes (three network
  pieces, the last one short, with graphs without constraints at 31 and 32,
  the last of one piece and the first of the next), the hex of every logit,
  every value, both loss heads' losses and gradients, and the
  prenormalisation scales;
- ``run-root``: every file of a seed-11 run root after all seven CLI stages
  at 16/4/8 instances. A manifest is compared without its ``wall_s``, the
  stage's wall time.

An LP item is the hex of every ``LpSolution`` field. Prints one JSON line
with, per probe, the equal and differing item counts, the first differing
item and the first 20 differing items in sorted order, and exits 1 when any
item differs (or exists in one tree only).
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3, 4, 5)
LP_ROOTS = 4000
RUN_ROOT_CONFIG = {
    "run.root": "run", "run.seed": "11",
    "family.name": "multi-knapsack", "family.n": "16", "family.m": "3",
    "family.train_count": "16", "family.valid_count": "4", "family.test_count": "8",
    "collect.max_nodes": "40", "collect.max_clock": "4000",
    "hybrid.db0_mode": "value", "hybrid.db0_value": "1e18", "hybrid.r0": "0.8",
    "select.epochs": "25", "train.epochs": "20", "train.checkpoint_every": "5",
    "eval.max_nodes": "2000", "eval.max_clock": "3000",
}
LISTED = 20     # differing items named per probe
STAGES = ("generate", "collect", "select", "train", "evaluate", "compare", "report")


# ---------------------------------------------------------------------------
# Probes: run inside one tree's subprocess, each returns {item: text}
# ---------------------------------------------------------------------------

def _digest(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


def probe_solves(workload: str) -> dict[str, str]:
    import workloads
    from branchlab import bnb, rules

    items = {}
    for seed in SEEDS:
        work = workloads.WORKLOADS[workload]()
        with tempfile.TemporaryDirectory() as root:
            inputs = work.reference(work.setup(seed, Path(root))[0])
        budget = bnb.Budget(max_nodes=10**7, max_clock=work.horizon)
        for inst, _z, policies in inputs["cases"]:
            for name in policies:
                res = bnb.solve(inst, rules.STANDARD_POLICIES[name](), budget,
                                seed=seed, record_episode=False)
                items[f"s{seed}/{inst.name}/{name}"] = _digest(bnb.solve_result_to_json(res))
    return items


def _solution_hex(sol) -> str:
    def hexes(a):
        return None if a is None else [float(v).hex() for v in a]
    return json.dumps([sol.status.value, hexes(sol.x), float(sol.objective).hex(),
                       list(sol.basis), sol.iterations, hexes(sol.duals),
                       hexes(sol.reduced_costs), sorted(sol.at_upper)])


def _random_lp(rng, feasible_start: bool):
    """A random LP with degenerate rows, tied costs, general-integer boxes and
    infinite bounds on either side. With ``feasible_start`` every row's slack
    is >= 0 with the structurals at their starting bounds."""
    from branchlab.instances import MilpInstance

    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 7))
    A = np.round(rng.normal(0.5, 2, (m, n)), 2)
    A[rng.random((m, n)) < 0.25] = 0.0
    c = rng.integers(-3, 2, n).astype(float)
    lo = rng.integers(0, 2, n).astype(float)
    up = lo + rng.integers(1, 6, n)
    up[rng.random(n) < 0.2] = np.inf
    lo[(rng.random(n) < 0.1) & np.isfinite(up)] = -np.inf
    if feasible_start:
        x0 = np.where(np.isfinite(lo), lo, np.where(np.isfinite(up), up, 0.0))
        slack = np.round(rng.uniform(0, 5, m), 2)
        slack[rng.random(m) < 0.35] = 0.0
        b = A @ x0 + slack
    else:
        b = np.round(rng.uniform(-6, 4, m), 2)
        b[rng.random(m) < 0.2] = 0.0
    rows, cols = np.nonzero(A)
    return MilpInstance(
        name="lp", num_vars=n, num_cons=m, num_int=n, objective=c,
        row_idx=rows.astype(np.int64), col_idx=cols.astype(np.int64), coef=A[rows, cols],
        rhs=b, lower=lo, upper=up,
    )


def probe_lps(kind: str) -> dict[str, str]:
    from branchlab.simplex import BoundOverride, LpStatus, SimplexSolver

    def fractional(sol, n):
        if sol.status is not LpStatus.OPTIMAL:
            return []
        return [j for j in range(n) if abs(sol.x[j] - round(sol.x[j])) > 1e-6]

    def split(j, xj):
        return (BoundOverride(j, "upper", math.floor(xj)),
                BoundOverride(j, "lower", math.ceil(xj)))

    probing = kind == "lp-probe-children"     # lp-children's LPs, its probes alone
    rng = np.random.default_rng({"lp-children": 31, "lp-probe-children": 31,
                                 "lp-siblings": 31, "lp-infeasible-start": 37}[kind])
    items = {}
    for k in range(LP_ROOTS):
        inst = _random_lp(rng, kind != "lp-infeasible-start")
        n, solver = inst.num_vars, SimplexSolver(inst)
        root = solver.solve()
        if kind != "lp-siblings":
            items[f"{k}/root"] = _solution_hex(root)
        frac = fractional(root, n)
        if not frac:
            continue
        if probing:
            for v in frac:
                for side, sol in zip(("down", "up"), solver.probe_children((), root, v)):
                    items[f"{k}/probe{v}/{side}"] = _solution_hex(sol)
        j = frac[int(rng.integers(len(frac)))]
        down, up_ov = split(j, float(root.x[j]))
        children = {side: solver.solve((ov,), warm=root)
                    for side, ov in (("down", down), ("up", up_ov))}
        if kind == "lp-siblings":
            for side, ov, sibling in (("down", down, "up"), ("up", up_ov, "down")):
                if children[sibling].status is LpStatus.OPTIMAL:
                    sol = solver.solve((ov,), warm=children[sibling])
                    items[f"{k}/{side}-from-{sibling}"] = _solution_hex(sol)
            others = [v for v in frac if v != j]
            if others:      # both basic and fractional: two violations at the start
                j2 = others[int(rng.integers(len(others)))]
                for a in split(j, float(root.x[j])):
                    for b in split(j2, float(root.x[j2])):
                        sol = solver.solve((a, b), warm=root)
                        items[f"{k}/{a.side}{j}-{b.side}{j2}"] = _solution_hex(sol)
            continue
        for side, ov in (("down", down), ("up", up_ov)):
            child = children[side]
            items[f"{k}/{side}"] = _solution_hex(child)
            if kind == "lp-infeasible-start":
                continue
            frac2 = fractional(child, n)
            if not frac2:
                continue
            j2 = frac2[int(rng.integers(len(frac2)))]
            for ov2 in split(j2, float(child.x[j2])):
                sol = solver.solve((ov, ov2), warm=child)
                items[f"{k}/{side}/{ov2.side}{j2}"] = _solution_hex(sol)
    return {key: text for key, text in items.items() if ("/probe" in key) == probing}


def probe_gcnn() -> dict[str, str]:
    from branchlab import gnn
    from branchlab.observation import CONS_FEATURES, VAR_FEATURES, BipartiteObservation

    def hexes(a):
        return json.dumps([float(v).hex() for v in np.ravel(a)])

    rng = np.random.default_rng(41)
    batch = []
    for k in range(75):
        n, m = int(rng.integers(4, 17)), 0 if k in (31, 32) else int(rng.integers(1, 7))
        rows, cols = np.nonzero(rng.random((m, n)) < 0.7)
        obs = BipartiteObservation(
            rng.uniform(-1, 1, (n, VAR_FEATURES)), rng.uniform(-1, 1, (m, CONS_FEATURES)),
            rows.astype(np.int64), cols.astype(np.int64), rng.uniform(-1, 1, len(rows)))
        cand = tuple(sorted(rng.choice(n, size=4, replace=False).tolist()))
        batch.append((obs, cand, cand[int(rng.integers(4))]))
    returns = rng.normal(0.0, 1.0, len(batch))
    # A tree whose GCNN stacks its own pieces has ``Pieces``; an older tree
    # takes one stack of the whole batch.
    states = (gnn.Pieces if hasattr(gnn, "Pieces") else gnn.stack_states)(batch)
    params = gnn.init_params(3)
    gnn.prenormalize(params, states)
    items = {f"scale/{name}": hexes(params.arrays[name]) for name in gnn.NORM_NAMES}
    for k, (obs, _c, _a) in enumerate(batch):
        items[f"logits/{k}"] = hexes(gnn.forward_numpy(params, obs)[0])
    items["values"] = hexes(gnn.state_values(params, states))
    for head, kwargs in (("policy", {}),
                         ("value", {"returns": returns, "penalty": 1000.0, "ridge": 1e-4})):
        loss, grads = gnn.grad(params, states, head, **kwargs)
        items[f"{head}/loss"] = hexes(loss)
        items.update({f"{head}/{name}": hexes(grads[name]) for name in gnn.PARAM_NAMES})
    return items


def _file_digest(path: Path) -> str:
    if path.name != "manifest.json":
        return _digest(path.read_bytes())
    manifest = json.loads(path.read_text())
    manifest.pop("wall_s", None)
    return _digest(json.dumps(manifest, sort_keys=True))


def probe_run_root() -> dict[str, str]:
    from branchlab import cli

    args = [a for k, v in RUN_ROOT_CONFIG.items() for a in ("--set", f"{k}={v}")]
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for stage in STAGES:
                code = cli.main(args + [stage])
                if code != 0:
                    return {f"exit/{stage}": str(code)}
            root = Path(RUN_ROOT_CONFIG["run.root"])
            return {str(p.relative_to(root)): _file_digest(p)
                    for p in sorted(root.rglob("*")) if p.is_file()}
        finally:
            os.chdir(cwd)


PROBES = {
    "solve-small": lambda: probe_solves("solve-small"),
    "solve-wide": lambda: probe_solves("solve-wide"),
    "lp-children": lambda: probe_lps("lp-children"),
    "lp-probe-children": lambda: probe_lps("lp-probe-children"),
    "lp-siblings": lambda: probe_lps("lp-siblings"),
    "lp-infeasible-start": lambda: probe_lps("lp-infeasible-start"),
    "gcnn": probe_gcnn,
    "run-root": probe_run_root,
}


def run_probes(tree: Path, out: Path) -> None:
    """Child process: run every probe on ``tree`` and write {probe: items}."""
    sys.path[:0] = [str(tree / "src"), str(tree / "bench")]
    results = {name: probe() for name, probe in PROBES.items()}
    out.write_text(json.dumps(results, sort_keys=True))


# ---------------------------------------------------------------------------
# Parent: export the base, run both trees, compare
# ---------------------------------------------------------------------------

def export(rev: str, dest: Path) -> None:
    tar = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                         check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def compare(base: dict, head: dict) -> dict:
    summary = {}
    for probe in PROBES:
        a, b = base.get(probe, {}), head.get(probe, {})
        keys = a.keys() | b.keys()
        differ = sorted(k for k in keys if a.get(k) != b.get(k))
        summary[probe] = {"equal": len(keys) - len(differ), "differ": len(differ),
                          "first": differ[0] if differ else None,
                          "items": differ[:LISTED]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", help="git revision to compare the working tree against")
    parser.add_argument("--tree", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.tree:
        run_probes(args.tree, args.out)
        return 0
    if not args.base:
        parser.error("--base is required")

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    with tempfile.TemporaryDirectory(prefix="exact-") as tmp:
        tmp = Path(tmp)
        export(args.base, tmp / "base")
        trees = {"base": tmp / "base", "head": REPO}
        procs = {
            name: subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "--tree", str(tree), "--out", str(tmp / f"{name}.json")],
                cwd=tmp, env=env, stdout=subprocess.DEVNULL)
            for name, tree in trees.items()
        }
        codes = {name: proc.wait() for name, proc in procs.items()}
        if any(codes.values()):
            print(json.dumps({"base": args.base, "error": f"probe exit codes {codes}"}))
            return 2
        base, head = (json.loads((tmp / f"{name}.json").read_text()) for name in trees)
    summary = compare(base, head)
    identical = all(p["differ"] == 0 for p in summary.values())
    print(json.dumps({"base": args.base, "identical": identical, "probes": summary},
                     sort_keys=True))
    return 0 if identical else 1


if __name__ == "__main__":
    sys.exit(main())
