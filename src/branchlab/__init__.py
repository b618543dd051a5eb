"""Learning-to-branch toolkit for mixed-integer linear programs.

Pipeline: synthetic instance generation, branch and bound with pluggable
branching policies, hybrid expert data collection, upper-envelope data
selection, bipartite graph-network imitation, and dual-integral evaluation.

The names below load their module on first use, so ``import branchlab``
does not load numpy: ``branchlab.cli`` must set the BLAS thread variables
before numpy starts its thread pool.
"""

import importlib

_EXPORTS = {
    "Budget": "bnb",
    "DualTrace": "bnb",
    "SolveResult": "bnb",
    "SolveStatus": "bnb",
    "cumulative_reward": "bnb",
    "dual_integral": "bnb",
    "solve": "bnb",
    "InstanceFamilySpec": "instances",
    "MilpInstance": "instances",
    "generate_instance": "instances",
    "lp_relaxation": "instances",
    "parse_instance": "instances",
    "serialize_instance": "instances",
    "BoundOverride": "simplex",
    "LpSolution": "simplex",
    "LpStatus": "simplex",
    "SimplexSolver": "simplex",
}

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
