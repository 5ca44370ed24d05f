"""Shared experiment harness for the figure benchmarks.

Every figure in Section 5 compares (a subset of) six solution variants:

* ``Base``      -- the baseline strategy forced everywhere;
* ``Cache``     -- the lookup cache strategy forced everywhere;
* ``Repart``    -- re-partitioning on the most beneficial index, cache
  on the rest ("we choose one of the indices with the most benefits to
  apply re-partitioning", Section 5.2);
* ``Idxloc``    -- same, with the index-locality strategy;
* ``Optimized`` -- static optimization with sufficient statistics (a
  profiling run feeds the catalog, then the optimizer plans up front);
* ``Dynamic``   -- adaptive optimization starting with no statistics.

:func:`run_all_modes` executes them all on fresh runners (so catalogs
do not leak across variants except where the paper's setup implies it)
and verifies every variant produces the same output.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.costmodel import Strategy
from repro.core.ejobconf import IndexJobConf
from repro.core.runner import EFindJobResult, EFindRunner
from repro.dfs.filesystem import DistributedFileSystem
from repro.mapreduce.counters import FEATURE_COUNTERS, feature_totals
from repro.simcluster.cluster import Cluster
from repro.simcluster.timemodel import TimeModel

SIX_MODES = ("Base", "Cache", "Repart", "Idxloc", "Optimized", "Dynamic")


def bench_cluster(
    num_nodes: int = 12,
    map_slots: int = 2,
    reduce_slots: int = 2,
    job_startup: float = 0.5,
    task_startup: float = 0.03,
    network_latency: float = 0.0,
) -> Cluster:
    """The benchmark cluster: the paper's 12 nodes, with fixed overheads
    (job/task startup) scaled down in proportion to the scaled-down
    datasets. The paper's jobs run for hundreds of seconds against a
    3-second job submission; our simulated jobs run for a few seconds,
    so keeping Hadoop's absolute constants would let fixed costs mask
    every data-dependent effect the figures measure."""
    tm = TimeModel(
        job_startup_time=job_startup,
        task_startup_time=task_startup,
        network_latency=network_latency,
    )
    return Cluster(
        num_nodes=num_nodes,
        map_slots_per_node=map_slots,
        reduce_slots_per_node=reduce_slots,
        time_model=tm,
    )


@dataclass
class ExperimentRow:
    """One x-axis point of a figure: variant -> simulated seconds
    (milliseconds per lookup for Figure 12)."""

    label: str
    times: Dict[str, float] = field(default_factory=dict)
    details: Dict[str, EFindJobResult] = field(default_factory=dict)
    counters: Dict[str, Dict[str, Dict[str, float]]] = field(
        default_factory=lambda: {key: {} for key in FEATURE_COUNTERS}
    )
    """Per-feature, per-variant counter totals:
    ``counters[key][mode]`` for every ``FEATURE_COUNTERS`` key (the
    inner dict is empty when the run did not use the feature)."""
    trace_wall: Dict[str, Dict[str, float]] = field(default_factory=dict)
    """Per-variant wall-clock seconds of the untraced (``off``) and
    traced (``on``) executions plus the derived ``overhead`` delta.
    Only populated when a trace directory is set (``--trace``)."""
    trace_paths: Dict[str, Dict[str, str]] = field(default_factory=dict)
    """Per-variant exported artifact paths (``trace`` / ``audit`` /
    ``metrics``), keyed like :attr:`trace_wall`."""
    alerts: Dict[str, List[dict]] = field(default_factory=dict)
    """Per-variant live SLO alert rows from the traced re-run (only
    populated with ``--trace`` + ``--live``; an empty list means the
    live run fired no alerts)."""


def run_all_modes(
    cluster: Cluster,
    dfs: DistributedFileSystem,
    job_factory: Callable[[str], IndexJobConf],
    extra_job_targets: Sequence[str] = ("head0",),
    modes: Sequence[str] = SIX_MODES,
    label: str = "",
    forced_boundary: Optional[str] = None,
    **runner_kwargs,
) -> ExperimentRow:
    """Run the requested variants and return their simulated times.

    ``job_factory`` builds a fresh IndexJobConf per variant (operators
    hold per-run state such as caches, so they must not be shared).

    ``runner_kwargs`` are :class:`EFindRunner` keywords
    (``cache_capacity``, ``fault_plan``, ``batch_size``, ``reuse``,
    ``speculation_factor``, ``route_policy``, ``build``, ...) applied to
    every variant's runners; an unknown one raises ``TypeError``. A
    ``reuse`` session or ``build`` session is shared by all of them, so
    lookup results and index coverage persist across the jobs of one
    experiment. Every feature leaves the variants' outputs identical;
    its counter totals land in ``row.counters`` (see
    ``FEATURE_COUNTERS``).

    When a trace directory is set (``repro.obs.config.set_trace_dir``,
    i.e. ``python -m repro.bench --trace <dir>``), every variant runs
    twice: once untraced (the authoritative, timed execution -- tracing
    off must leave benches byte-identical) and once with an
    :class:`repro.obs.Observability` attached, under the *same* job
    name so injected faults replay identically. The traced re-run's
    simulated time is asserted equal to the untraced run's (the
    observer-effect guarantee), its artifacts are exported under the
    trace directory, and the wall-clock delta lands in
    ``row.trace_wall``.
    """
    from repro.obs.config import get_trace_dir

    row = ExperimentRow(label=label)
    trace_dir = get_trace_dir()
    reuse_store = runner_kwargs.get("reuse")
    build = runner_kwargs.get("build")

    def make_runner(catalog=None, obs=None) -> EFindRunner:
        return EFindRunner(cluster, dfs, catalog=catalog, obs=obs, **runner_kwargs)

    def execute(mode: str, obs=None) -> EFindJobResult:
        """Run one variant on fresh runners (operators and catalogs are
        per-run state, so repeated executions are independent)."""
        job = job_factory(f"{label or 'job'}-{mode.lower()}")
        if mode == "Optimized":
            # Profiling run with the baseline collects "sufficient
            # statistics"; only the optimized run's time is reported.
            profiler = make_runner(obs=obs)
            profiler.run(
                job_factory(f"{label or 'job'}-profile"),
                mode="forced",
                forced_strategy=Strategy.BASELINE,
            )
            return make_runner(profiler.catalog, obs).run(job, mode="static")
        if mode == "Dynamic":
            return make_runner(obs=obs).run(job, mode="dynamic")
        strategy = {
            "Base": Strategy.BASELINE,
            "Cache": Strategy.CACHE,
            "Repart": Strategy.REPART,
            "Idxloc": Strategy.IDXLOC,
        }[mode]
        # Forced runs have no statistics to choose a job boundary
        # from; ``forced_boundary`` supplies the sensible one.
        return make_runner(obs=obs).run(
            job,
            mode="forced",
            forced_strategy=strategy,
            extra_job_targets=list(extra_job_targets),
            boundary_override=forced_boundary,
        )

    for mode in modes:
        # The reuse store and the build catalog are shared, persistent
        # state: a traced re-run must replay against the state the
        # untraced run started from, or its reuse.*/build.* counters
        # (and hence the observer-effect assertion) would diverge.
        pre_snap = reuse_store.snapshot() if reuse_store is not None else None
        build_pre = build.snapshot() if build is not None else None
        started = time.perf_counter()
        result = execute(mode)
        wall_off = time.perf_counter() - started
        row.times[mode] = result.sim_time
        row.details[mode] = result
        for key, feature in FEATURE_COUNTERS.items():
            row.counters[key][mode] = feature_totals(result.counters, feature.group)
        if trace_dir is not None:
            if reuse_store is not None:
                post_snap = reuse_store.snapshot()
                reuse_store.restore(pre_snap)
            if build is not None:
                build_post = build.snapshot()
                build.restore(build_pre)
            _traced_rerun(row, mode, execute, result, wall_off, trace_dir, label)
            if reuse_store is not None:
                # The deterministic replay leaves the store in the same
                # state; restoring the recorded post-state makes that an
                # invariant rather than an assumption.
                reuse_store.restore(post_snap)
            if build is not None:
                build.restore(build_post)
    _same_output(label or "job", row.details)
    return row


def _traced_rerun(
    row: ExperimentRow,
    mode: str,
    execute: Callable,
    untraced: EFindJobResult,
    wall_off: float,
    trace_dir: str,
    label: str,
) -> None:
    """Re-run ``mode`` with an :class:`Observability` attached and
    export its artifacts.

    The untraced result stays authoritative; this run only exists to
    produce the trace. Tracing must not perturb the simulation, so any
    divergence in simulated time or counters is a bug (the
    observer-effect guarantee) and raises here.

    With ``--live`` (``repro.obs.config.set_live_rules``) a
    :class:`repro.obs.live.LiveSession` subscribes to the traced
    re-run's telemetry bus; the bus is as passive as the tracer, so the
    same bit-identity assertions cover it, and the resulting SLO alert
    timeline is exported as ``<base>.alerts.jsonl`` next to the trace.
    """
    from repro.obs import Observability
    from repro.obs.config import get_live_rules

    live_rules = get_live_rules()
    session = None
    if live_rules is not None:
        from repro.obs.live import LiveSession

        session = LiveSession(rules=live_rules)
    obs = Observability(bus=session.bus if session is not None else None)
    started = time.perf_counter()
    traced = execute(mode, obs=obs)
    wall_on = time.perf_counter() - started
    if traced.sim_time != untraced.sim_time:
        raise AssertionError(
            f"{mode}: tracing changed the simulated time "
            f"({traced.sim_time!r} != {untraced.sim_time!r})"
        )
    if traced.counters.to_dict() != untraced.counters.to_dict():
        raise AssertionError(f"{mode}: tracing changed the job counters")
    alerts = None
    if session is not None:
        session.finish()
        alerts = session.alert_rows()
        row.alerts[mode] = alerts
    base = re.sub(r"[^A-Za-z0-9._+-]+", "_", f"{label or 'job'}-{mode.lower()}")
    row.trace_paths[mode] = obs.export(trace_dir, base, alerts=alerts)
    row.trace_wall[mode] = {
        "off": wall_off,
        "on": wall_on,
        "overhead": wall_on - wall_off,
    }


def _same_output(what: str, results: Dict[str, EFindJobResult]) -> None:
    """Raise unless every result in ``results`` produced the first one's
    output (compared sorted, floats within tolerance)."""
    outputs = [(name, sorted(r.output, key=repr)) for name, r in results.items()]
    for name, output in outputs[1:]:
        if not _equivalent(output, outputs[0][1]):
            raise AssertionError(
                f"{what}: {name!r} produced different output than {outputs[0][0]!r}"
            )


def _equivalent(a, b) -> bool:
    """Structural equality with float tolerance (different plans sum
    floating-point aggregates in different orders)."""
    import math

    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(_equivalent(x, y) for x, y in zip(a, b))
    return a == b


def format_counter_table(
    title: str,
    rows: List[ExperimentRow],
    key: str,
    modes: Sequence[str] = SIX_MODES,
) -> str:
    """Render one feature's counter totals (``FEATURE_COUNTERS[key]``):
    one line per (row, mode) that ran, a counter the run never touched
    printing 0."""
    feature = FEATURE_COUNTERS[key]
    present = [m for m in modes if any(m in r.counters[key] for r in rows)]
    widths = [max(8, len(n)) for n in feature.columns]
    header = (
        f"{'config':>12s} | {'mode':>9s} | "
        + " | ".join(f"{n:>{w}s}" for n, w in zip(feature.columns, widths))
    )
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for row in rows:
        for mode in present:
            if mode not in row.counters[key]:
                continue
            totals = row.counters[key][mode]
            cells = " | ".join(
                f"{totals.get(n, 0.0):{w}{feature.cell}}"
                for n, w in zip(feature.columns, widths)
            )
            lines.append(f"{row.label:>12s} | {mode:>9s} | {cells}")
    lines.append("-" * len(header))
    return "\n".join(lines)


def format_table(
    title: str,
    rows: List[ExperimentRow],
    modes: Sequence[str] = SIX_MODES,
    x_label: str = "config",
    digits: int = 2,
) -> str:
    """Render a figure-shaped text table (one row per x point)."""
    present = [m for m in modes if any(m in r.times for r in rows)]
    header = f"{x_label:>18s} | " + " | ".join(f"{m:>9s}" for m in present)
    lines = [title, "-" * len(header), header, "-" * len(header)]
    for row in rows:
        cells = []
        for mode in present:
            if mode in row.times:
                cells.append(f"{row.times[mode]:9.{digits}f}")
            else:
                cells.append(f"{'n/a':>9s}")
        lines.append(f"{row.label:>18s} | " + " | ".join(cells))
    lines.append("-" * len(header))
    return "\n".join(lines)


@dataclass(frozen=True)
class Experiment:
    """One experiment, declared once: ``python -m repro.bench``, the
    baseline suites, EXPERIMENTS.md's paper tables and the
    ``benchmarks/`` wrappers all read it from ``figures.EXPERIMENTS``.

    ``title`` is the baseline files' title and, after ``figure``, the
    table's; ``counters`` are the ``FEATURE_COUNTERS`` keys printed
    under the times; ``digits`` is the precision of a time cell."""

    title: str
    figure: str
    run: Callable[[], List[ExperimentRow]]
    modes: Tuple[str, ...]
    x_label: str
    counters: Tuple[str, ...] = ()
    digits: int = 2

    def render(self, rows: List[ExperimentRow]) -> str:
        title = f"{self.figure}  {self.title}"
        tables = [format_table(title, rows, self.modes, self.x_label, self.digits)]
        for key in self.counters:
            title = f"{self.figure}  {FEATURE_COUNTERS[key].group}.* counter totals"
            tables.append(format_counter_table(title, rows, key, self.modes))
        return "\n\n".join(tables)
