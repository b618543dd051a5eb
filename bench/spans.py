"""Spans around the calls into each layer of branchlab, and the per-layer
metrics computed from them.

The tracer replaces a public function with a timing wrapper at the name its
callers look it up by: a module attribute for a function imported by name
(``branchlab.cli.train_envelope``), a class attribute for a method
(``SimplexSolver.solve``). Spans (name, start, end, parent) are kept in
memory and written out when the run ends. A span's self time is its duration
minus the durations of its child spans. Names that a later version of the
program no longer has are skipped, and their metrics read 0.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

_MISSING = object()


class Patches:
    """Functions replaced by wrappers at the name their callers look them up
    by, and the originals to put back."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def patch(self, owner, attr: str, wrap) -> bool:
        """Replace ``owner.attr`` by ``wrap(original)`` where the attribute is
        defined on owner itself; skip a missing owner or one without such an
        attribute of its own, and say whether it was replaced."""
        orig = _MISSING if owner is None else vars(owner).get(attr, _MISSING)
        if orig is _MISSING:
            return False
        setattr(owner, attr, wrap(orig))
        self._undo.append((owner, attr, orig))
        return True

    def restore(self) -> None:
        """Put the originals back, the last replaced first."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index or -1]
        self.counters: dict[str, float] = defaultdict(float)
        self.phases: list[tuple[str, int, int, dict]] = []
        self._stack: list[int] = []
        self._patches = Patches()
        self._phase_start: tuple[str, int] | None = None

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, name, on_result=None):
        spans, stack = self.spans, self._stack
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            idx = len(spans)
            spans.append([label, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if on_result is not None:
                on_result(tracer.counters, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, on_result=None) -> None:
        """Time ``owner.attr`` as spans called ``name`` (see ``Patches.patch``)."""
        self._patches.patch(owner, attr, lambda fn: self._wrap(fn, name, on_result))

    def restore(self) -> None:
        self._patches.restore()

    # -- phases ----------------------------------------------------------------

    def begin(self, kind: str) -> None:
        self.counters = defaultdict(float)
        self._phase_start = (kind, len(self.spans))

    def end(self) -> None:
        kind, start = self._phase_start
        self.phases.append((kind, start, len(self.spans), dict(self.counters)))
        self._phase_start = None

    def write(self, path: Path) -> None:
        """Spans as [name, start, end, parent], times in seconds from the
        first span, plus the phase boundaries and counters."""
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as out:
            json.dump(
                {
                    "phases": [
                        {"kind": k, "first_span": a, "end_span": b, "counters": c}
                        for k, a, b, c in self.phases
                    ],
                    "spans": [[n, round(s - t0, 9), round(e - t0, 9), p]
                              for n, s, e, p in self.spans],
                },
                out,
            )

    # -- summaries --------------------------------------------------------------

    def phase_stats(self, start: int, end: int):
        """Per span name: calls, inclusive seconds and self seconds."""
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        child: dict[int, float] = defaultdict(float)
        for i in range(start, end):
            name, s, e, parent = self.spans[i]
            calls[name] += 1
            incl[name] += e - s
            if parent >= 0:
                child[parent] += e - s
        own: dict[str, float] = defaultdict(float)
        for i in range(start, end):
            name, s, e, _ = self.spans[i]
            own[name] += (e - s) - child[i]
        return calls, incl, own


def _arg(args, kwargs, pos: int, key: str, default=None):
    if key in kwargs:
        return kwargs[key]
    return args[pos] if len(args) > pos else default


def _count_iterations(counters, args, kwargs, sol):
    counters["simplex.iterations"] += sol.iterations


def _count_nodes(counters, args, kwargs, result):
    counters["bnb.nodes"] += result.nodes_processed


def _count_passes(counters, args, kwargs, result):
    counters["selection.envelope_passes"] += result[1].epochs


def _count_test_rows(counters, args, kwargs, report):
    counters["evaluation.rows"] += len(report.rows)


def _count_checkpoint_rows(counters, args, kwargs, result):
    counters["evaluation.rows"] += sum(len(e.report.rows) for e in result[1] if e.report)


def _find(path: str):
    """The module, class or attribute at a dotted path under branchlab, or
    None when this version of the program has no such name."""
    module, _, rest = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ModuleNotFoundError:
        return None
    for part in filter(None, rest.split(".")):
        obj = getattr(obj, part, None)
    return obj


def install(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics time, where its
    callers look it up."""
    def p(owner: str, attr: str, name, on_result=None):
        tracer.patch(_find(owner), attr, name, on_result)

    p("branchlab.simplex:SimplexSolver", "solve",
      lambda a, k: "simplex.cold" if _arg(a, k, 2, "warm") is None else "simplex.warm",
      _count_iterations)
    p("branchlab.simplex:SimplexSolver", "probe_children", "simplex.probe")

    for owner in ("branchlab", "branchlab.bnb", "branchlab.cli", "branchlab.evaluation"):
        p(owner, "solve", "bnb.solve", _count_nodes)

    policies = {*(_find("branchlab.rules:STANDARD_POLICIES") or {}).values(),
                _find("branchlab.gnn:GcnnPolicy")}
    for cls in policies - {None}:
        tracer.patch(cls, "select", "rules.select")
        tracer.patch(cls, "reset", "rules.reset")

    p("branchlab.bnb", "extract_observation", "observation.extract")
    p("branchlab.trajectories", "state_digest", "observation.digest")

    p("branchlab.trajectories:ObservationStore", "put", "trajectories.put")
    p("branchlab.trajectories:ObservationStore", "get", "trajectories.get")
    p("branchlab.cli", "write_episode_file", "trajectories.episode_write")
    p("branchlab.cli", "read_episode_file", "trajectories.episode_read")

    p("branchlab.gnn", "predict_branch", "gnn.predict")
    grad_name = lambda a, k: f"gnn.grad_{_arg(a, k, 2, 'head')}"   # noqa: E731
    for owner in ("branchlab.gnn", "branchlab.selection"):
        p(owner, "grad", grad_name)
        p(owner, "prenormalize", "gnn.prenormalize")
    for owner, attr in (("branchlab.gnn", "policy_loss"), ("branchlab.evaluation", "policy_loss"),
                        ("branchlab.selection", "value_loss")):
        p(owner, attr, "gnn.loss_eval")
    for owner, attr in (("branchlab.gnn", "save_checkpoint"), ("branchlab.cli", "load_checkpoint"),
                        ("branchlab.evaluation", "load_checkpoint")):
        p(owner, attr, "gnn.checkpoint_io")

    p("branchlab.autodiff", "backward", "autodiff.backward")

    p("branchlab.cli", "compute_returns", "selection.returns")
    p("branchlab.cli", "train_envelope", "selection.envelope", _count_passes)
    p("branchlab.cli", "select_top", "selection.select_top")

    p("branchlab.cli", "select_best_checkpoint", "evaluation.checkpoint_select",
      _count_checkpoint_rows)
    p("branchlab.cli", "evaluate_policy", "evaluation.test_eval", _count_test_rows)

    for owner in ("branchlab.instances", "branchlab.cli"):
        p(owner, "generate_instance", "instances.generate")
    for owner in ("branchlab.cli", "branchlab.evaluation"):
        p(owner, "parse_instance", "instances.parse")

    for stage in ("collect", "select", "train", "evaluate"):
        p("branchlab.cli", f"cmd_{stage}", f"cli.{stage}")


def _round_metrics(calls, incl, own, counters) -> dict[str, float]:
    lp_s = incl["simplex.cold"] + incl["simplex.warm"]
    iterations = counters.get("simplex.iterations", 0.0)
    nodes = counters.get("bnb.nodes", 0.0)
    m = {
        "simplex.cold_calls": calls["simplex.cold"],
        "simplex.cold_s": incl["simplex.cold"],
        "simplex.warm_calls": calls["simplex.warm"],
        "simplex.warm_s": incl["simplex.warm"],
        "simplex.probe_calls": calls["simplex.probe"],
        "simplex.iterations": iterations,
        "simplex.us_per_iteration": 1e6 * lp_s / iterations if iterations else 0.0,
        "bnb.solves": calls["bnb.solve"],
        "bnb.nodes": nodes,
        "bnb.self_s": own["bnb.solve"],
        "bnb.us_per_node": 1e6 * own["bnb.solve"] / nodes if nodes else 0.0,
        "rules.select_calls": calls["rules.select"],
        "rules.select_self_s": own["rules.select"],
        "rules.reset_s": incl["rules.reset"],
        "observation.extract_calls": calls["observation.extract"],
        "observation.extract_s": incl["observation.extract"],
        "observation.digest_calls": calls["observation.digest"],
        "observation.digest_s": incl["observation.digest"],
        "trajectories.put_calls": calls["trajectories.put"],
        "trajectories.put_s": incl["trajectories.put"],
        "trajectories.get_calls": calls["trajectories.get"],
        "trajectories.get_s": incl["trajectories.get"],
        "trajectories.episode_write_s": incl["trajectories.episode_write"],
        "trajectories.episode_read_s": incl["trajectories.episode_read"],
        "gnn.predict_calls": calls["gnn.predict"],
        "gnn.predict_s": incl["gnn.predict"],
        "gnn.grad_policy_calls": calls["gnn.grad_policy"],
        "gnn.grad_policy_s": incl["gnn.grad_policy"],
        "gnn.grad_value_calls": calls["gnn.grad_value"],
        "gnn.grad_value_s": incl["gnn.grad_value"],
        "gnn.loss_eval_s": incl["gnn.loss_eval"],
        "gnn.prenormalize_s": incl["gnn.prenormalize"],
        "gnn.checkpoint_io_s": incl["gnn.checkpoint_io"],
        "autodiff.backward_calls": calls["autodiff.backward"],
        "autodiff.backward_s": incl["autodiff.backward"],
        "selection.returns_s": incl["selection.returns"],
        "selection.envelope_s": incl["selection.envelope"],
        "selection.envelope_passes": counters.get("selection.envelope_passes", 0.0),
        "selection.select_top_s": incl["selection.select_top"],
        "evaluation.rows": counters.get("evaluation.rows", 0.0),
        "evaluation.checkpoint_select_s": incl["evaluation.checkpoint_select"],
        "evaluation.test_eval_s": incl["evaluation.test_eval"],
        "instances.parse_calls": calls["instances.parse"],
        "instances.parse_s": incl["instances.parse"],
    }
    for stage in ("collect", "select", "train", "evaluate"):
        m[f"cli.{stage}.self_s"] = own[f"cli.{stage}"]
        m[f"cli.{stage}_s"] = incl[f"cli.{stage}"]
    return m


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Median over the traced rounds of each per-round metric, and
    ``instances.generate_s`` as the median over the traced set-ups."""
    rounds = [_round_metrics(*tracer.phase_stats(a, b), c)
              for kind, a, b, c in tracer.phases if kind == "round"]
    out = {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}
    setups = [tracer.phase_stats(a, b)[1]["instances.generate"]
              for kind, a, b, _ in tracer.phases if kind == "setup"]
    out["instances.generate_s"] = statistics.median(setups)
    return out
