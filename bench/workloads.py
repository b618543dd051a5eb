"""The benchmark's three workloads.

Each workload has a ``setup(seed, root)`` that has the program build the
inputs and returns them with the seconds that took, a ``reference(inputs)``
that adds the benchmark's own reference optima (once per run, untimed), a
``run(inputs)`` that performs one round of operations through branchlab's
public API or its CLI entry point, and a ``check(inputs, outcome)`` that tests
the round's outputs and returns its operation counts and end-to-end figures.
``run`` is the only timed part of a round.

``solve-small`` and ``solve-wide`` solve a fixed library of instances; the
seed draws a row and column permutation of every instance and the solve seed.
Difficulty on these families spans two orders of magnitude from instance to
instance (0.01 s to 4.3 s for one n=16 knapsack under three rules), so a
seed-drawn set of the few dozen instances a run can afford moves the total by
20% from seed to seed; a fixed library with seeded permutations measures the
same problems under different LP pivot orders and branching draws, as solver
benchmarks do. ``pipeline`` draws its instances from the seed through the
CLI's ``generate``; its budgets bind on almost every solve, so its work per
round hardly depends on the seed.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
import spans
from branchlab import bnb, cli, instances, rules
from branchlab.config import DEFAULTS
from branchlab.instances import InstanceFamilySpec, MilpInstance

LIBRARY_SEED = 1_000   # generator seed of the first library instance


def permuted(inst: MilpInstance, rng: np.random.Generator) -> MilpInstance:
    """The same problem with its columns and rows in a random order (every
    column of these families is integer, so any column order is valid)."""
    cols = rng.permutation(inst.num_vars)       # new column k is old column cols[k]
    rows = rng.permutation(inst.num_cons)
    new_col = np.argsort(cols)
    new_row = np.argsort(rows)
    r, c = new_row[inst.row_idx], new_col[inst.col_idx]
    order = np.lexsort((c, r))
    out = MilpInstance(
        name=inst.name, num_vars=inst.num_vars, num_cons=inst.num_cons,
        num_int=inst.num_int, objective=inst.objective[cols],
        row_idx=r[order], col_idx=c[order], coef=inst.coef[order],
        rhs=inst.rhs[rows], lower=inst.lower[cols], upper=inst.upper[cols],
    )
    instances.validate_instance(out)
    return out


def placement_bins(inst: MilpInstance) -> int:
    """Bins of an item-placement instance: n = items * bins columns and
    m = 2 * items + bins rows (an assignment pair per item, a capacity per bin)."""
    for bins in range(2, inst.num_vars + 1):
        if inst.num_vars % bins == 0 and 2 * (inst.num_vars // bins) + bins == inst.num_cons:
            return bins
    raise checks.CheckError(f"{inst.name}: not an item-placement shape")


@dataclass(frozen=True)
class Family:
    family: str
    n: int
    m: int
    density: float
    count: int
    policies: tuple[str, ...]
    optimum: str            # "knapsack" | "placement" | "agree"


@dataclass
class Outcome:
    """What one round produced, for the checks. ``op_seconds`` times each
    operation of the round in a fixed order; their sum is the round's timed
    part."""
    op_seconds: list[float]
    results: list = field(default_factory=list)
    extra: dict = field(default_factory=dict)


@dataclass
class Verdict:
    attempted: int
    failed: int
    problems: list[str]
    figures: dict[str, float]


# ---------------------------------------------------------------------------
# Solve workloads
# ---------------------------------------------------------------------------

class SolveWorkload:
    """Every (instance, policy) pair of a library solved to proven optimality."""

    horizon = 1e6      # pseudo-clock budget: far above any solve, so it never binds

    def __init__(self, families: tuple[Family, ...], scale: float = 1.0):
        self.families = tuple(
            Family(f.family, f.n, f.m, f.density, max(1, round(f.count * scale)),
                   f.policies, f.optimum)
            for f in families
        )

    def setup(self, seed: int, root: Path):
        """The library's instances, generated by the program."""
        start = perf_counter()
        library = [
            (f, instances.generate_instance(InstanceFamilySpec(
                f.family, f.n, f.m, f.density, seed=LIBRARY_SEED + i,
                name=f"{f.family}_{i:02d}")))
            for f in self.families for i in range(f.count)
        ]
        return {"seed": seed, "library": library}, perf_counter() - start

    def reference(self, inputs):
        """Every library instance permuted by the seed, with its enumerated
        optimum (None where there is none)."""
        rng = np.random.default_rng([inputs["seed"], 0x7065726D])
        cases = []
        for f, inst in inputs["library"]:
            if f.optimum == "knapsack":
                z_star = checks.knapsack_optimum(inst)
            elif f.optimum == "placement":
                z_star = checks.placement_optimum(inst, placement_bins(inst))
            else:
                z_star = None
            cases.append((permuted(inst, rng), z_star, f.policies))
        return dict(inputs, cases=cases)

    def run(self, inputs) -> Outcome:
        budget = bnb.Budget(max_nodes=10**7, max_clock=self.horizon)
        seed = inputs["seed"]
        results, times = [], []
        for inst, _z, policies in inputs["cases"]:
            for name in policies:
                start = perf_counter()
                try:
                    res = bnb.solve(inst, rules.STANDARD_POLICIES[name](), budget,
                                    seed=seed, record_episode=False)
                except Exception as exc:      # a failed solve is a failed operation
                    res = exc
                times.append(perf_counter() - start)
                results.append((inst, name, res))
        return Outcome(times, results)

    def check(self, inputs, out: Outcome) -> Verdict:
        z_of = {inst.name: z for inst, z, _ in inputs["cases"]}
        problems, failed = [], 0
        solved: dict[str, list[float]] = {}
        for inst, policy, res in out.results:
            if isinstance(res, Exception) or res.status is not bnb.SolveStatus.OPTIMAL:
                failed += 1
                why = repr(res) if isinstance(res, Exception) else res.status.value
                problems.append(f"{inst.name}/{policy}: {why}")
                continue
            solved.setdefault(inst.name, []).append(res.incumbent_value)
        # a library instance without an enumerated optimum takes the value its
        # policies agree on
        for name, values in solved.items():
            if z_of[name] is None:
                try:
                    for v in values[1:]:
                        checks.check_optimum(f"{name} (policies disagree)", v, values[0])
                    z_of[name] = values[0]
                except checks.CheckError as exc:
                    problems.append(str(exc))
        gaps, clock = [], 0
        for inst, policy, res in out.results:
            if isinstance(res, Exception) or res.status is not bnb.SolveStatus.OPTIMAL:
                continue
            z_star = z_of[inst.name]
            label = f"{inst.name}/{policy}"
            clock += res.lp_iterations
            if z_star is None:
                continue
            try:
                checks.check_incumbent(inst, res.incumbent, res.incumbent_value)
                checks.check_optimum(label, res.incumbent_value, z_star)
                checks.check_bounds(label, res.trace.events, z_star)
                checks.check_optimum(f"{label} final bound", res.trace.events[-1][1], z_star)
            except checks.CheckError as exc:
                problems.append(str(exc))
                continue
            gaps.append(checks.gap_integral(res.trace.events, res.trace.horizon, z_star))
        figures = {"pseudo_clock": float(clock),
                   "gap_integral": statistics.fmean(gaps) if gaps else math.nan}
        return Verdict(len(out.results), failed, problems, figures)


SOLVE_SMALL = (
    Family("multi-knapsack", 16, 3, 1.0, 12,
           ("pseudocost", "hybrid-expert", "strong-branching"), "knapsack"),
)
SOLVE_WIDE = (
    Family("set-cover", 40, 80, 0.25, 4, ("strong-branching", "pseudocost"), "agree"),
    Family("item-placement-like", 40, 24, 1.0, 8, ("strong-branching", "pseudocost"), "placement"),
)


# ---------------------------------------------------------------------------
# Pipeline workload
# ---------------------------------------------------------------------------

PIPELINE_CONFIG = {
    "family.name": "multi-knapsack",
    "family.n": "16",
    "family.m": "3",
    "family.train_count": "16",
    "family.valid_count": "4",
    "family.test_count": "60",
    "collect.max_nodes": "40",
    "collect.max_clock": "4000",
    "select.epochs": "4",
    "train.epochs": "20",
    "train.checkpoint_every": "10",
    "eval.max_nodes": "100000",
    "eval.max_clock": "400",
    "eval.workers": "1",
    "eval.baselines": "random",
}
STAGES = ("collect", "select", "train", "evaluate")
# per-layer figures that the checks measure from a pipeline round's artifacts
ARTIFACT_FIGURES = ("evaluation.gcnn_gap_integral", "evaluation.random_gap_integral",
                    "evaluation.reference_mismatch_rows",
                    "cli.artifact_bytes", "trajectories.store_files")


class SolveLog:
    """Keeps every (instance, result) that the CLI's stages solve, by wrapping
    ``solve`` where ``branchlab.cli`` and ``branchlab.evaluation`` look it up.
    A solve that raises is kept as (instance, exception)."""

    def __init__(self):
        from branchlab import evaluation

        self.entries: list = []
        self._patches = spans.Patches()
        for owner in (cli, evaluation):
            if not self._patches.patch(owner, "solve", self._logged):
                self.close()
                raise RuntimeError(f"{owner.__name__} has no solve of its own to log")

    def _logged(self, orig):
        entries = self.entries

        def logged(inst, *args, **kwargs):
            try:
                result = orig(inst, *args, **kwargs)
            except Exception as exc:
                entries.append((inst, exc))
                raise
            entries.append((inst, result))
            return result

        return logged

    def close(self) -> None:
        self._patches.restore()


class PipelineWorkload:
    """generate (set-up) -> collect -> select -> train -> evaluate through
    ``branchlab.cli.main``, each round in a fresh run root."""

    def __init__(self, scale: float = 1.0):
        self.config = dict(PIPELINE_CONFIG)
        for key in ("family.train_count", "family.test_count"):
            self.config[key] = str(max(2, round(int(self.config[key]) * scale)))
        self.rounds = 0

    def _args(self, root: Path, seed: int) -> list[str]:
        pairs = dict(self.config, **{"run.root": str(root), "run.seed": str(seed)})
        return [arg for k, v in pairs.items() for arg in ("--set", f"{k}={v}")]

    def setup(self, seed: int, root: Path):
        """The instances, written by the CLI's ``generate`` stage."""
        template = root / "template"
        shutil.rmtree(template, ignore_errors=True)
        start = perf_counter()
        code = cli.main(self._args(template, seed) + ["generate"])
        seconds = perf_counter() - start
        if code != 0:
            raise RuntimeError(f"generate exited {code}")
        return {"seed": seed, "root": root, "template": template}, seconds

    def reference(self, inputs):
        """The enumerated optimum of every generated instance."""
        z_star = {}
        for path in sorted((inputs["template"] / "instances").glob("*.milp")):
            inst = instances.parse_instance(path.read_text())
            z_star[inst.name] = checks.knapsack_optimum(inst)
        return dict(inputs, z_star=z_star)

    def run(self, inputs) -> Outcome:
        self.rounds += 1
        run_root = inputs["root"] / f"round{self.rounds}"
        shutil.rmtree(run_root, ignore_errors=True)
        shutil.copytree(inputs["template"] / "instances", run_root / "instances")
        args = self._args(run_root, inputs["seed"])
        log = SolveLog()
        codes, times = {}, []
        try:
            for stage in STAGES:
                start = perf_counter()
                try:
                    codes[stage] = cli.main(args + [stage])
                except Exception as exc:      # a stage that raises has failed
                    codes[stage] = repr(exc)
                times.append(perf_counter() - start)
                if codes[stage] != 0:
                    break
        finally:
            log.close()
        out = Outcome(times, log.entries, {"root": run_root, "codes": codes})
        prev = inputs["root"] / f"round{self.rounds - 1}"
        shutil.rmtree(prev, ignore_errors=True)
        return out

    def check(self, inputs, out: Outcome) -> Verdict:
        """The operations are the four stages and every solve they make (each
        test report row is one of these solves). A stage that exits non-zero
        or raises, a stage not reached after it, and a solve that raises have
        failed."""
        root, z_of, codes = out.extra["root"], inputs["z_star"], out.extra["codes"]
        problems = [f"{s}: exit {codes[s]}" for s in STAGES if codes.get(s, 0) != 0]
        failed = sum(1 for s in STAGES if codes.get(s) != 0)
        attempted = len(STAGES) + len(out.results)
        # NaN, which makes the run not correct, until the artifacts are read
        figures = dict.fromkeys(("gap_integral",) + ARTIFACT_FIGURES, math.nan)
        figures["pseudo_clock"] = float(sum(r.lp_iterations for _, r in out.results
                                            if not isinstance(r, Exception)))
        for inst, res in out.results:
            if isinstance(res, Exception):
                failed += 1
                problems.append(f"{inst.name}: solve raised {res!r}")
                continue
            label = f"{inst.name}/{res.status.value}"
            z_star = z_of[inst.name]
            try:
                if res.incumbent is not None:
                    checks.check_incumbent(inst, res.incumbent, res.incumbent_value)
                    if res.incumbent_value < z_star - checks.OPT_TOL * (1 + abs(z_star)):
                        raise checks.CheckError(f"{label}: incumbent below the optimum")
                if res.status is bnb.SolveStatus.OPTIMAL:
                    checks.check_optimum(label, res.incumbent_value, z_star)
                checks.check_bounds(label, res.trace.events, z_star)
            except checks.CheckError as exc:
                problems.append(str(exc))
        if any(codes.get(s) != 0 for s in STAGES):      # artifacts missing
            return Verdict(attempted, failed, problems, figures)

        manifest = json.loads((root / "episodes" / "manifest.json").read_text())
        problems.extend(f"collect: {name} failed" for name in manifest["failed"])
        gamma = float(self.config.get("select.gamma", DEFAULTS["select.gamma"]))
        episodes = {}
        for path in sorted((root / "episodes").glob("*.jsonl")):
            lines = path.read_text().splitlines()
            episodes[json.loads(lines[0])["instance"]] = [json.loads(x)["r"] for x in lines[1:]]
        report = json.loads((root / "selected" / "envelope_report.json").read_text())
        dataset = [json.loads(x) for x in
                   (root / "selected" / "dataset.jsonl").read_text().splitlines() if x]
        try:
            checks.check_returns(episodes, report["columns"], gamma)
            checks.check_selection(dataset, report["columns"], float(report["p"]))
        except checks.CheckError as exc:
            problems.append(str(exc))

        gaps: dict[str, float] = {}
        mismatched = 0
        for path in sorted((root / "reports").glob("eval_*.json")):
            rows = json.loads(path.read_text())["rows"]
            values = []
            for row in rows:
                label = f"{path.name}/{row['instance']}"
                if row["error"] or row["status"] == "error":
                    problems.append(f"{label}: {row['error']}")
                    continue
                z_star = z_of[row["instance"]]
                events = [(float(c), float(z)) for c, z in row["trace"]]
                try:
                    checks.check_report_integral(label, row)
                    checks.check_bounds(label, events, z_star)
                except checks.CheckError as exc:
                    problems.append(str(exc))
                    continue
                reference = row["reward_constant"] / row["horizon"]
                mismatched += abs(reference - z_star) > checks.OPT_TOL * (1 + abs(z_star))
                values.append(checks.gap_integral(events, row["horizon"], z_star))
            gaps[path.stem] = statistics.fmean(values) if values else math.nan
        gcnn = [v for k, v in gaps.items() if k.startswith("eval_gcnn")]
        gcnn_gap = gcnn[0] if len(gcnn) == 1 else math.nan
        random_gap = gaps.get("eval_random", math.nan)
        # the learned policy against random branching on the same instances:
        # the instances' own root gaps, which move the mean of either by 10-20%
        # from seed to seed, cancel in the ratio
        figures["gap_integral"] = gcnn_gap / random_gap if random_gap else math.nan
        figures["evaluation.gcnn_gap_integral"] = gcnn_gap
        figures["evaluation.random_gap_integral"] = random_gap
        figures["evaluation.reference_mismatch_rows"] = float(mismatched)
        figures["cli.artifact_bytes"] = float(
            sum(p.stat().st_size for p in root.rglob("*") if p.is_file()))
        figures["trajectories.store_files"] = float(
            sum(1 for _ in (root / "episodes" / "observations").iterdir()))
        return Verdict(attempted, failed, problems, figures)


WORKLOADS = {
    "pipeline": lambda scale=1.0: PipelineWorkload(scale),
    "solve-small": lambda scale=1.0: SolveWorkload(SOLVE_SMALL, scale),
    "solve-wide": lambda scale=1.0: SolveWorkload(SOLVE_WIDE, scale),
}
