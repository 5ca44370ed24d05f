"""BENCHMARK.json is the single declaration of workload and metric
names, units, directions and bounds; everything else reads it."""

from __future__ import annotations

import json
import os
from typing import Dict

from hostbench import ROOT

#: Units whose metrics are deterministic: two runs of one tree at one
#: seed must repeat them exactly (aa_check.py enforces it).
EXACT_UNITS = {"count", "bytes", "sim_s", "sim_ratio", "count_ratio"}


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def units(spec: dict) -> Dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
