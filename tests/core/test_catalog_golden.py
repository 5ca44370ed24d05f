"""The catalog's JSON form is a contract: files written by ``save`` are
read back by later processes. Pinned after the profiling runs of TPC-H
Q3 and Q9, so a key that is renamed, dropped or reordered -- or a
statistic that moves in the last bit -- fails here. From Python 3.12 on
``sum()`` compensates float rounding, so the sampled ``tj`` means differ
in the last bit between the two goldens."""

import json
import sys
from pathlib import Path

from repro.core.costmodel import Strategy
from repro.core.runner import EFindRunner
from repro.core.statistics import StatisticsCatalog
from repro.dfs.filesystem import DistributedFileSystem
from repro.simcluster.cluster import Cluster
from repro.workloads import tpch

GOLDEN = Path(__file__).with_name("golden") / (
    "catalog_q3_q9.py312.json" if sys.version_info >= (3, 12) else "catalog_q3_q9.py311.json"
)


def profiled_catalog() -> StatisticsCatalog:
    """One runner's catalog after a forced-Baseline (profiling) run of
    Q3 and then of Q9."""
    data = tpch.generate(tpch.TpchConfig(sf=0.0008))
    cluster = Cluster(num_nodes=12, map_slots_per_node=2, reduce_slots_per_node=2)
    dfs = DistributedFileSystem(cluster, block_size=32 * 1024)
    tpch.write_lineitem(dfs, "/lineitem", data)
    indexes = tpch.build_indexes(cluster, data)
    runner = EFindRunner(cluster, dfs)
    for name, make_job in (("q3", tpch.make_q3_job), ("q9", tpch.make_q9_job)):
        job = make_job(f"{name}-profile", "/lineitem", f"/out/{name}", indexes)
        runner.run(job, mode="forced", forced_strategy=Strategy.BASELINE)
    return runner.catalog


def render(catalog: StatisticsCatalog) -> str:
    """``to_dict`` as text, keys in the order it writes them."""
    return json.dumps(catalog.to_dict(), indent=1) + "\n"


def test_profiled_catalog_matches_golden():
    assert render(profiled_catalog()) == GOLDEN.read_text(encoding="utf-8")


def test_golden_round_trips():
    payload = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert StatisticsCatalog.from_dict(payload).to_dict() == payload
