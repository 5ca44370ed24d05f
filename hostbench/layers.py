"""The twelve layers profiler self time is bucketed into, by module
path (self time by construction: ``cProfile``'s ``tottime`` excludes
callees, so no source edits are needed to split a call tree)."""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Dict

from hostbench import ROOT

LAYERS = (
    "common.sizing",
    "core.strategy",
    "core.planner",
    "core.cache",
    "core.operator",
    "mapreduce",
    "dfs",
    "simcluster",
    "indices",
    "workloads",
    "obs",
    "python",
)

_SRC = os.path.join(ROOT, "src", "repro") + os.sep
_PLANNER = {"optimizer", "costmodel", "statistics", "adaptive", "plan", "explain"}
_PACKAGES = {"mapreduce", "dfs", "simcluster", "indices", "workloads", "obs"}


def layer_of(filename: str) -> str:
    """``python`` is everything that is not the engine: builtins, the
    standard library, this benchmark, and ``repro.common`` minus sizing."""
    if not filename.startswith(_SRC):
        return "python"
    package, _, rest = filename[len(_SRC) :].partition(os.sep)
    module = rest.partition(os.sep)[0].removesuffix(".py")
    if package == "common":
        return "common.sizing" if module == "sizing" else "python"
    if package == "core":
        if module in ("strategy", "cache"):
            return f"core.{module}"
        return "core.planner" if module in _PLANNER else "core.operator"
    return package if package in _PACKAGES else "python"


def bucket(profile: cProfile.Profile) -> Dict[str, Dict[str, float]]:
    """layer -> ``{"self_s", "calls"}`` of one profiled call."""
    out = {layer: {"self_s": 0.0, "calls": 0} for layer in LAYERS}
    for (filename, _line, _name), (_cc, calls, self_s, _ct, _callers) in pstats.Stats(
        profile
    ).stats.items():
        slot = out[layer_of(filename)]
        slot["self_s"] += self_s
        slot["calls"] += calls
    return out
