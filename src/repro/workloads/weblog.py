"""LOG workload: web log traces + cloud geo service (Section 5.1).

The paper's LOG data set is a real trace with two redundancy kinds the
generator reproduces:

* *local redundancy*: "an IP often visits multiple URLs in a short
  period of time" -- events come in per-IP sessions;
* *cross-machine redundancy*: "the visits are often served by two or
  more web servers, and recorded in two or more log files. Different
  log files are processed in different Map tasks" -- each session's
  events are striped across several log files.

The application computes the top-k most frequently visited URLs per
geographical region, looking up each event's source IP in a single-node
cloud service (base delay 0.8 ms, plus the experiment's injected extra
delay of 0-5 ms).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.rng import ZipfSampler, make_rng
from repro.core.accessor import IndexAccessor
from repro.core.ejobconf import IndexJobConf
from repro.core.operator import IndexOperator
from repro.dfs.filesystem import DistributedFileSystem
from repro.indices.cloudservice import CloudServiceIndex
from repro.mapreduce.api import IdentityMapper, Reducer


@dataclass(frozen=True)
class LogConfig:
    """Scaled-down stand-in for the paper's 15M-event / 7 GB trace."""

    num_events: int = 30_000
    num_ips: int = 4_000
    num_urls: int = 2_000
    num_regions: int = 30
    num_log_files: int = 4
    session_min: int = 3
    session_max: int = 9
    url_skew: float = 0.8
    seed: int = 2014


def region_of_ip(ip: str, num_regions: int) -> str:
    """The geo service's ground truth (deterministic)."""
    octets = [int(part) for part in ip.split(".")]
    return f"region{(octets[1] * 7 + octets[2]) % num_regions:02d}"


def make_ip(index: int) -> str:
    return f"10.{(index >> 16) & 255}.{(index >> 8) & 255}.{index & 255}"


def generate(dfs: DistributedFileSystem, base_path: str, cfg: LogConfig) -> List[str]:
    """Generate the trace; returns the per-log-file DFS paths."""
    rng = make_rng(cfg.seed, "weblog")
    url_sampler = ZipfSampler(cfg.num_urls, cfg.url_skew, rng)
    files: List[List[Tuple[int, tuple]]] = [[] for _ in range(cfg.num_log_files)]

    event_id = 0
    timestamp = 1_380_000_000  # an epoch in the paper's collection window
    while event_id < cfg.num_events:
        ip = make_ip(rng.randrange(cfg.num_ips))
        session_len = rng.randint(cfg.session_min, cfg.session_max)
        for _ in range(session_len):
            if event_id >= cfg.num_events:
                break
            url = f"/page/{url_sampler.sample():05d}"
            record = (event_id, (ip, timestamp, url))
            # Sessions are striped across log files (several web servers
            # handle one user), creating cross-machine redundancy.
            files[event_id % cfg.num_log_files].append(record)
            event_id += 1
            timestamp += rng.randint(1, 30)

    paths = []
    for i, records in enumerate(files):
        path = f"{base_path}/log-{i:02d}"
        dfs.write(path, records)
        paths.append(path)
    return paths


def build_geo_service(
    cfg: LogConfig, extra_delay: float = 0.0, price_per_lookup: float = 0.0
) -> CloudServiceIndex:
    """The single-node IP -> region cloud service (Java RMI stand-in)."""
    return CloudServiceIndex(
        "geo-service",
        lambda ip: region_of_ip(ip, cfg.num_regions),
        extra_delay=extra_delay,
        price_per_lookup=price_per_lookup,
    )


class GeoLookupOperator(IndexOperator):
    """Head operator: look up the event's source IP, tag with region."""

    def pre_process(self, key, value, index_input):
        ip, timestamp, url = value
        index_input.put(0, ip)
        return key, (timestamp, url)

    def post_process(self, key, value, index_output, collector):
        _timestamp, url = value
        regions = index_output.get(0).get_all()
        region = regions[0] if regions else "region-unknown"
        collector.collect(region, url)


class RegionUrlMapper(IdentityMapper):
    """Pass (region, url) through -- the group-by key is the region."""


class TopKUrlsReducer(Reducer):
    """Per region: the k most visited URLs with their counts."""

    def __init__(self, k: int = 10):
        self.k = k

    def reduce(self, key, values, collector, ctx):
        counts = Counter(values)
        top = top_k_deterministic(counts, self.k)
        collector.collect(key, tuple(top))


def make_topk_job(
    name: str,
    input_paths: List[str],
    output_path: str,
    geo: CloudServiceIndex,
    k: int = 10,
    num_reduce_tasks: int = 12,
) -> IndexJobConf:
    """The LOG application as an EFind-enhanced job."""
    operator = GeoLookupOperator("geo").add_index(IndexAccessor(geo))
    job = IndexJobConf(name)
    job.set_input_paths(*input_paths)
    job.set_output_path(output_path)
    job.add_head_index_operator(operator)
    job.set_mapper(RegionUrlMapper())
    job.set_reducer(TopKUrlsReducer(k), num_reduce_tasks=num_reduce_tasks)
    return job


def reference_topk(
    dfs: DistributedFileSystem, paths: List[str], cfg: LogConfig, k: int = 10
) -> Dict[str, tuple]:
    """Compute the expected answer directly (for verification)."""
    counts: Dict[str, Counter] = {}
    for path in paths:
        for _event_id, (ip, _ts, url) in dfs.read(path):
            region = region_of_ip(ip, cfg.num_regions)
            counts.setdefault(region, Counter())[url] += 1
    return {
        region: tuple(top_k_deterministic(c, k)) for region, c in counts.items()
    }


def top_k_deterministic(counts: Counter, k: int) -> List[Tuple[str, int]]:
    """Top-k with a deterministic tie-break (count desc, then URL)."""
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
