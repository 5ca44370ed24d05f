"""The run protocol: set-up, warm-up, measured passes, verification.

One process measures one workload. Every call into the engine goes
through a :class:`StepTimer`, which times it, records a span around it
when tracing is on, and (for the traced pass only) runs it under
``cProfile``. Verification always happens outside the timed regions.
"""

from __future__ import annotations

import cProfile
import gc
import hashlib
import json
import math
import statistics
import time
from contextlib import contextmanager
from typing import Any, Dict, List

from hostbench.workloads import State, Workload


# ----------------------------------------------------------------------
# Spans recorded by the benchmark itself (spans inside src/repro are a
# later issue): kept in memory, written once at exit.
# ----------------------------------------------------------------------
class Spans:
    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.rows: List[dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        span_id = len(self.rows)
        row = {
            "id": span_id,
            "workload": self.workload,
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.rows.append(row)
        self._stack.append(span_id)
        try:
            yield
        finally:
            self._stack.pop()
            row["end"] = time.perf_counter()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for row in self.rows:
                fh.write(json.dumps(row, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Host-speed calibration
#
# This host's speed drifts by tens of percent over seconds to minutes
# (a fixed pure-Python loop was seen to take anything from 0.7x to 1.4x
# its median), which no amount of repetition inside one run averages
# out. Every timed step is therefore bracketed by a fixed interpreter-
# bound loop, and reported in seconds of a *nominal host* on which one
# loop takes NOMINAL_CALIBRATION_S: the step's wall time divided by the
# local loop time, times the nominal loop time. The engine is
# interpreter-bound like the loop, so the drift cancels (ten-run spread
# of a pass fell from 12% raw to 2.5% normalised); a change to the
# engine moves the step but not the loop. Raw seconds stay in the
# results record.
# ----------------------------------------------------------------------
NOMINAL_CALIBRATION_S = 2.75e-3
_CALIBRATION_CALLS = 3


def _calibration_loop() -> int:
    """Allocation, calls, type tests and dict stores: the interpreter
    work the engine's own hot paths are made of."""
    table = {}
    total = 0
    for i in range(20_000):
        item = (i, float(i), "x")
        if isinstance(item, tuple):
            total += len(item)
        table[i & 1023] = item
    return total


def calibrate() -> float:
    """Mean wall seconds of one calibration loop, now."""
    started = time.perf_counter()
    for _ in range(_CALIBRATION_CALLS):
        _calibration_loop()
    return (time.perf_counter() - started) / _CALIBRATION_CALLS


class StepTimer:
    """The ``timed`` callable handed to a workload: host seconds per
    named step of one set-up or one pass, normalised (``walls``) and as
    the clock read them (``raw``)."""

    def __init__(self, spans: Spans, profile: bool = False):
        self.spans = spans
        self.walls: Dict[str, float] = {}
        self.raw: Dict[str, float] = {}
        self.calibrations: List[float] = []
        self.profiles: Dict[str, cProfile.Profile] = {}
        self._profile = profile

    def __call__(self, name: str, fn, *args, **kwargs):
        before = calibrate()
        with self.spans.span(name):
            if self._profile:
                prof = self.profiles[name] = cProfile.Profile()
                started = time.perf_counter()
                result = prof.runcall(fn, *args, **kwargs)
            else:
                started = time.perf_counter()
                result = fn(*args, **kwargs)
            elapsed = time.perf_counter() - started
        local = (before + calibrate()) / 2
        self.raw[name] = elapsed
        self.walls[name] = elapsed * NOMINAL_CALIBRATION_S / local
        self.calibrations.append(local)
        return result

    @property
    def total(self) -> float:
        return sum(self.walls.values())


# ----------------------------------------------------------------------
# Small statistics (n < 20 passes: nothing above the median is claimed)
# ----------------------------------------------------------------------
def summary(values: List[float]) -> dict:
    q1, _, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    )
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


# ----------------------------------------------------------------------
# Output checking
# ----------------------------------------------------------------------
def equivalent(a, b) -> bool:
    """Structural equality with float tolerance (different plans sum
    floating-point aggregates in different orders)."""
    if isinstance(a, float) and isinstance(b, float):
        return math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-6)
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(equivalent(x, y) for x, y in zip(a, b))
    return a == b


def _rounded(value):
    if isinstance(value, float):
        return float(f"{value:.6g}")
    if isinstance(value, (list, tuple)):
        return [_rounded(item) for item in value]
    return value


def digest(canonical_output: list) -> str:
    """SHA-256 of a canonicalised output: sorted records, floats rounded
    to 6 significant digits."""
    text = json.dumps(_rounded(canonical_output), separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Verifier:
    """Holds a workload's references and the first-seen simulated times;
    judges every job run of every pass."""

    def __init__(self, wl: Workload, st: State):
        self.wl = wl
        self.st = st
        self.references = wl.references(st)
        self.first_output: Dict[str, list] = {}
        self.first_sim: Dict[str, float] = {}
        self.attempted = 0
        self.failures: List[dict] = []
        for name, reference in self.references.items():
            if not reference:
                self.fail("reference", name, "empty reference: the check is vacuous")

    def fail(self, pass_id: str, job: str, reason: str) -> None:
        self.failures.append({"pass": pass_id, "job": job, "reason": reason})

    def check_pass(self, pass_id: str, results: Dict[str, Any]) -> None:
        broken: Dict[str, str] = {}
        for job, result in results.items():
            output = self.wl.canonical(job, result)
            ref_name = self.wl.reference_of(job)
            reference = (
                self.first_output.setdefault(job, output)
                if ref_name is None
                else self.references[ref_name]
            )
            if not equivalent(output, reference):
                broken[job] = "output differs from the reference"
            elif self.first_sim.setdefault(job, result.sim_time) != result.sim_time:
                broken[job] = (
                    f"simulated time {result.sim_time!r} differs from an "
                    f"earlier pass ({self.first_sim[job]!r})"
                )
        for job, reason in self.wl.pass_checks(self.st, results).items():
            broken.setdefault(job, reason)
        self.attempted += len(self.wl.variants)
        for job, reason in broken.items():
            self.fail(pass_id, job, reason)

    def aborted_pass(self, pass_id: str, done: int, error: BaseException) -> None:
        """A run raised: it and the runs the pass never reached failed."""
        self.attempted += len(self.wl.variants)
        for job in self.wl.variants[done:]:
            self.fail(pass_id, job, f"{type(error).__name__}: {error}")

    @property
    def failed(self) -> int:
        return len({(f["pass"], f["job"]) for f in self.failures})

    def digests(self) -> Dict[str, str]:
        out = {name: digest(ref) for name, ref in self.references.items()}
        out.update({job: digest(o) for job, o in self.first_output.items()})
        return out


# ----------------------------------------------------------------------
# The protocol
# ----------------------------------------------------------------------
class Measurement:
    """Everything one workload process measured, before it is turned
    into named metrics."""

    def __init__(self) -> None:
        self.setups: List[Dict[str, float]] = []
        self.passes: List[Dict[str, float]] = []
        """Normalised host seconds per step, one dict per measured pass."""
        self.raw_passes: List[Dict[str, float]] = []
        self.calibrations: List[float] = []
        self.loop_seconds = 0.0
        self.results: Dict[str, Any] = {}
        """Job results of the last measured pass (counters, sim times)."""


def run_setups(wl: Workload, spans: Spans, repeats: int, m: Measurement) -> State:
    """Set up ``repeats`` times on fresh objects; the last one is used."""
    st = None
    for i in range(repeats):
        del st
        gc.collect()
        timer = StepTimer(spans)
        with spans.span(f"setup-{i}"):
            st = wl.setup(timer)
        m.setups.append(timer.walls)
    return st


def one_pass(
    wl: Workload,
    st: State,
    spans: Spans,
    verifier: Verifier,
    pass_id: str,
    scratch: str,
    profile: bool = False,
):
    """Reset, run and verify one pass; returns ``(timer, results)`` or
    None when a run raised."""
    wl.reset(st)
    gc.collect()
    timer = StepTimer(spans, profile=profile)
    try:
        with spans.span(pass_id):
            results = wl.run_pass(st, timer, scratch)
    except Exception as error:  # a failed run is a result, not a crash
        done = sum(1 for job in wl.variants if job in timer.walls)
        verifier.aborted_pass(pass_id, done, error)
        return None
    verifier.check_pass(pass_id, results)
    return timer, results


def measure(
    wl: Workload,
    spans: Spans,
    scratch: str,
    seconds: float,
    min_passes: int,
    setup_repeats: int,
):
    """Set-up, one discarded warm-up pass, then measured passes until
    the next one would overrun ``seconds`` (at least ``min_passes``)."""
    m = Measurement()
    st = run_setups(wl, spans, setup_repeats, m)
    verifier = Verifier(wl, st)
    one_pass(wl, st, spans, verifier, "warmup", scratch)

    started = time.perf_counter()
    attempts = 0
    while True:
        elapsed = time.perf_counter() - started
        if attempts >= min_passes and elapsed + elapsed / attempts > seconds:
            break
        done = one_pass(wl, st, spans, verifier, f"pass-{attempts}", scratch)
        attempts += 1
        if done is not None:
            timer, m.results = done
            m.passes.append(timer.walls)
            m.raw_passes.append(timer.raw)
            m.calibrations.extend(timer.calibrations)
    m.loop_seconds = time.perf_counter() - started
    return m, st, verifier
