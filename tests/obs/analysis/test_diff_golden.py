"""Golden digests of the trace diff's outputs on non-identical pairs.

The self-consistency suites pin that contributors *sum* to the total
and that a self-diff is exactly zero; nothing else pins a single output
value of a non-identical diff. This does: a sha256 over everything
``diff`` emits -- ``to_dict()`` JSON, ``render_artifact`` text (default
and ``top=3``), ``diff_sets`` / ``render`` with one-sided bases -- for
seeded synthetic pairs (the generator of
``tests/property/test_props_diff.py`` plus alert rows) and their
self-pairs, recorded in ``diff_golden.json`` at the commit before the
attribution was rewritten. A refactor of ``obs/analysis`` that moves a
last bit, a key, or a line of text fails here.

Only ``random.Random`` draws that are stable across interpreter
versions are used (no ``shuffle``). One thing is not stable: since
Python 3.12 the builtin ``sum()`` compensates float sums, which moves
last bits of residuals (and with them the count of non-zero
contributors the text reports). So the byte-exact digest is checked
where ``sum()`` is the plain left-to-right sum, and a second digest --
the JSON with floats rounded to the attribution invariant's own 1e-9 --
is checked everywhere.

Regenerate (only at a commit whose output you trust)::

    PYTHONPATH=src:. python tests/obs/analysis/test_diff_golden.py
"""

import hashlib
import json
import os
import random
import sys

from repro.obs.analysis.diff import (
    diff_artifacts,
    diff_sets,
    render,
    render_artifact,
)

from tests.property.test_props_diff import artifact, synth_audit, synth_spans

PAIRS = 300
GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "diff_golden.json")
_RULES = ("wave-straggler", "lookup-latency", "cache-miss-burst")

#: Python 3.12 switched ``sum()`` of floats to compensated summation.
PLAIN_FLOAT_SUM = sys.version_info < (3, 12)


def synth_alerts(rng: random.Random):
    rows = []
    for seq in range(rng.randint(0, 3)):
        fired = rng.uniform(0.0, 1.0)
        cleared = fired + rng.uniform(0.0, 0.5) if rng.random() < 0.7 else None
        rows.append(
            {
                "seq": seq, "rule": rng.choice(_RULES), "severity": "warn",
                "fired_at": fired, "cleared_at": cleared,
                "state": "open" if cleared is None else "cleared",
            }
        )
    return rows


def synth_run(seed: int, base: str = "x"):
    rng = random.Random(seed)
    run = artifact(synth_spans(rng), synth_audit(rng), synth_alerts(rng))
    run.base = base
    return run


def _rounded(value):
    """``value`` with every float rounded to 1e-9 (and -0.0 folded)."""
    if isinstance(value, float):
        return round(value, 9) + 0.0
    if isinstance(value, dict):
        return {k: _rounded(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_rounded(v) for v in value]
    return value


def compute_digests() -> dict:
    exact = hashlib.sha256()
    rounded = hashlib.sha256()
    contributors = 0

    def feed(doc: dict, lines) -> None:
        exact.update(json.dumps(doc, sort_keys=True).encode())
        exact.update("\n".join(lines).encode())
        rounded.update(json.dumps(_rounded(doc), sort_keys=True).encode())

    for i in range(PAIRS):
        old, new = synth_run(1000 + i), synth_run(5000 + i)
        for a, b in ((old, new), (old, old)):
            diff = diff_artifacts(a, b)
            contributors += len(diff.contributors)
            feed(
                diff.to_dict(),
                render_artifact(diff) + render_artifact(diff, top=3),
            )
        # Set level: one-sided bases on either side, every third pair.
        olds, news = [old], [new]
        if i % 3 == 0:
            olds.append(synth_run(9000 + i, base="only-old"))
        elif i % 3 == 1:
            news.append(synth_run(9000 + i, base="only-new"))
        both = diff_sets(olds, news)
        feed(both.to_dict(), render(both) + render(both, top=3))
    return {
        "pairs": PAIRS,
        "contributors": contributors,
        "exact_sha256": exact.hexdigest(),
        "rounded_sha256": rounded.hexdigest(),
    }


def test_diff_outputs_match_the_recorded_digests():
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        golden = json.load(fh)
    got = compute_digests()
    assert got["pairs"] == golden["pairs"]
    assert got["contributors"] == golden["contributors"]
    assert got["rounded_sha256"] == golden["rounded_sha256"]
    if PLAIN_FLOAT_SUM:
        assert got["exact_sha256"] == golden["exact_sha256"]


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(compute_digests(), fh, indent=1, sort_keys=True)
        fh.write("\n")
