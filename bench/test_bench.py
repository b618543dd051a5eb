"""Tests of the benchmark itself: a tiny size of every workload passes its
checks, and every check rejects a corrupted answer.

    PYTHONPATH=src python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks      # noqa: E402
import run         # noqa: E402
import workloads   # noqa: E402
from branchlab import cli  # noqa: E402
from branchlab.instances import InstanceFamilySpec, generate_instance  # noqa: E402

TINY = 0.2


def set_up(workload, seed, root):
    inputs, seconds = workload.setup(seed, root)
    assert seconds > 0
    return workload.reference(inputs)


def brute_force(inst) -> float:
    A = checks.dense(inst)
    best = np.inf
    for bits in itertools.product((0.0, 1.0), repeat=inst.num_vars):
        x = np.array(bits)
        if np.all(A @ x <= inst.rhs + 1e-9):
            best = min(best, float(inst.objective @ x))
    return best


def test_enumerated_optima_match_plain_enumeration():
    knap = generate_instance(InstanceFamilySpec("multi-knapsack", 10, 3, 1.0, seed=3, name="k"))
    assert checks.knapsack_optimum(knap) == pytest.approx(brute_force(knap), abs=1e-9)
    place = generate_instance(InstanceFamilySpec("item-placement-like", 12, 3, 1.0, seed=4, name="p"))
    bins = workloads.placement_bins(place)
    assert bins == 3
    assert checks.placement_optimum(place, bins) == pytest.approx(brute_force(place), abs=1e-9)


def test_permutation_keeps_the_optimum():
    inst = generate_instance(InstanceFamilySpec("multi-knapsack", 12, 3, 1.0, seed=9, name="k"))
    perm = workloads.permuted(inst, np.random.default_rng(5))
    assert not np.array_equal(perm.objective, inst.objective)
    assert checks.knapsack_optimum(perm) == checks.knapsack_optimum(inst)


@pytest.fixture(scope="module", params=["solve-small", "solve-wide"])
def solved(request, tmp_path_factory):
    workload = workloads.WORKLOADS[request.param](TINY)
    inputs = set_up(workload, 7, tmp_path_factory.mktemp(request.param))
    return workload, inputs, workload.run(inputs)


def test_tiny_solve_workload_passes(solved):
    workload, inputs, out = solved
    verdict = workload.check(inputs, out)
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.attempted == len(out.results) > 0
    assert verdict.figures["pseudo_clock"] > 0
    assert verdict.figures["gap_integral"] > 0


def test_solve_check_rejects_optimum_off_by_one(solved):
    workload, inputs, out = solved
    bad = copy.deepcopy(out)
    _inst, _policy, res = bad.results[0]
    res.incumbent_value += 1.0
    assert workload.check(inputs, bad).problems


def test_incumbent_check_rejects_infeasible_point(solved):
    _workload, _inputs, out = solved
    inst, _policy, res = out.results[0]
    A = checks.dense(inst)
    # every item packed breaks a knapsack; nothing chosen breaks a cover
    infeasible = [x for x in (np.ones(inst.num_vars), np.zeros(inst.num_vars))
                  if np.any(A @ x > inst.rhs)]
    assert infeasible
    for x in infeasible:
        with pytest.raises(checks.CheckError, match="A x <= b"):
            checks.check_incumbent(inst, x, float(inst.objective @ x))
    with pytest.raises(checks.CheckError):
        checks.check_incumbent(inst, res.incumbent + 0.5, res.incumbent_value)


def test_bound_checks_reject_bad_traces():
    z = -10.0
    checks.check_bounds("ok", [(1.0, -12.0), (5.0, -11.0), (9.0, -10.0)], z)
    with pytest.raises(checks.CheckError, match="above the optimum"):
        checks.check_bounds("high", [(1.0, -12.0), (5.0, -9.0)], z)
    with pytest.raises(checks.CheckError, match="decreased"):
        checks.check_bounds("down", [(1.0, -11.0), (5.0, -12.0)], z)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    workload = workloads.WORKLOADS["pipeline"](TINY)
    inputs = set_up(workload, 3, tmp_path_factory.mktemp("pipeline"))
    out = workload.run(inputs)
    root = out.extra["root"]
    report = json.loads((root / "selected" / "envelope_report.json").read_text())
    dataset = [json.loads(x) for x in
               (root / "selected" / "dataset.jsonl").read_text().splitlines() if x]
    return workload, inputs, out, report, dataset


def test_tiny_pipeline_passes(pipeline):
    workload, inputs, out, _report, _dataset = pipeline
    verdict = workload.check(inputs, out)
    assert verdict.problems == []
    assert verdict.failed == 0
    assert verdict.figures["gap_integral"] > 0
    assert verdict.figures["evaluation.random_gap_integral"] > 0


def test_selection_check_rejects_one_swapped_entry(pipeline):
    _workload, _inputs, _out, report, dataset = pipeline
    columns, p = report["columns"], report["p"]
    checks.check_selection(dataset, columns, p)
    chosen = {(r["episode"], r["t"]) for r in dataset}
    outsider = next(c for c in columns if (c["episode"], c["t"]) not in chosen)
    swapped = [dict(r) for r in dataset]
    swapped[0].update(episode=outsider["episode"], t=outsider["t"])
    with pytest.raises(checks.CheckError):
        checks.check_selection(swapped, columns, p)


def test_returns_check_rejects_non_chaining_return(pipeline):
    _workload, _inputs, out, report, _dataset = pipeline
    root = out.extra["root"]
    episodes = {}
    for path in sorted((root / "episodes").glob("*.jsonl")):
        lines = path.read_text().splitlines()
        episodes[json.loads(lines[0])["instance"]] = [json.loads(x)["r"] for x in lines[1:]]
    columns = report["columns"]
    checks.check_returns(episodes, columns, 1.0)
    checks.check_returns(dict(episodes, root_solved=[]), columns, 1.0)
    with pytest.raises(checks.CheckError):
        checks.check_returns(dict(episodes, extra=[1.0]), columns, 1.0)
    broken = [dict(c) for c in columns]
    broken[len(broken) // 2]["G"] += 1.0
    with pytest.raises(checks.CheckError):
        checks.check_returns(episodes, broken, 1.0)


def test_report_integral_check_rejects_altered_integral(pipeline):
    _workload, _inputs, out, _report, _dataset = pipeline
    path = next((out.extra["root"] / "reports").glob("eval_random.json"))
    row = json.loads(path.read_text())["rows"][0]
    checks.check_report_integral("row", row)
    bad = dict(row, dual_integral=row["dual_integral"] * 1.01 + 1.0)
    with pytest.raises(checks.CheckError):
        checks.check_report_integral("row", bad)


def test_pipeline_check_rejects_optimum_off_by_one(pipeline):
    workload, inputs, out, _report, _dataset = pipeline
    shifted = dict(inputs, z_star={k: v - 1.0 for k, v in inputs["z_star"].items()})
    assert workload.check(shifted, out).problems


def test_pipeline_counts_a_collect_solve_that_raises(tmp_path, monkeypatch):
    workload = workloads.WORKLOADS["pipeline"](TINY)
    # one failure in ten train instances is within collect's 10% allowance
    workload.config.update({"family.train_count": "10", "family.test_count": "2"})
    inputs = set_up(workload, 5, tmp_path)
    real, calls = cli.solve, []

    def first_raises(inst, *args, **kwargs):
        calls.append(inst.name)
        if len(calls) == 1:
            raise RuntimeError("injected fault")
        return real(inst, *args, **kwargs)

    monkeypatch.setattr(cli, "solve", first_raises)
    out = workload.run(inputs)
    assert out.extra["codes"]["collect"] == 0
    verdict = workload.check(inputs, out)
    assert verdict.failed == 1
    assert any("injected fault" in p for p in verdict.problems)
    assert any(f"collect: {calls[0]} failed" == p for p in verdict.problems)


def test_failing_stage_is_reported(monkeypatch):
    def broken(cfg):
        raise RuntimeError("injected fault")

    monkeypatch.setattr(cli, "cmd_train", broken)
    result = run.measure(workloads.WORKLOADS["pipeline"](TINY), "pipeline", 3, 0.1, False)
    assert result["correct"] is False
    assert result["failed"] == 2          # train, and evaluate not reached
    assert result["metrics"]["gap_integral"]["value"] is None
    assert result["metrics"]["round_s"]["value"] > 0


@pytest.mark.parametrize("trace", [False, True])
def test_measure_reports_every_declared_metric(trace):
    result = run.measure(workloads.WORKLOADS["solve-small"](TINY), "solve-small", 2, 0.1, trace)
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in declared["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names
    assert result["correct"] is True
    assert result["failed"] == 0
    key = "simplex.iterations" if trace else "pseudo_clock"
    assert result["metrics"][key]["value"] > 0


def test_command_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_runs", "_traces", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "pipeline", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tracer_self_time_and_missing_names():
    import spans
    from branchlab import bnb, rules

    original = bnb.solve
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert bnb.solve is not original
        tracer.patch(spans._find("branchlab.no_such_module"), "solve", "x")
        tracer.patch(spans._find("branchlab.bnb:NoSuchClass"), "solve", "x")
        inst = generate_instance(InstanceFamilySpec("multi-knapsack", 10, 3, 1.0, seed=2, name="k"))
        bnb.solve(inst, rules.STANDARD_POLICIES["strong-branching"](), bnb.Budget(max_nodes=10**6))
    finally:
        tracer.restore()
    assert bnb.solve is original
    calls, incl, own = tracer.phase_stats(0, len(tracer.spans))
    assert calls["bnb.solve"] == 1 and calls["simplex.probe"] > 0
    children = sum(e - s for _n, s, e, parent in tracer.spans if parent == 0)
    assert own["bnb.solve"] == pytest.approx(incl["bnb.solve"] - children)
