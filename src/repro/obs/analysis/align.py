"""Structural alignment of two traced runs by stable identity.

The diff tool (:mod:`repro.obs.analysis.diff`) needs to compare "the
same" piece of work across two runs whose absolute timestamps have
nothing in common. Identity therefore never involves time across runs:
the two span trees (:func:`repro.obs.analysis.loader.build_forest`) are
matched by node ``ident`` only -- job/stage/phase names, wave and task
indices, occurrence ranks (see the identity table there). Time
containment is used only *within* one run, to build its tree.

Job names usually differ between the two runs of a diff (bench job
names embed the variant label, e.g. ``slow-off-cache`` vs
``slow-on-cache``), so after exact-name matching the leftovers are
paired in deterministic (start, name) order. Every level below the job
is keyed by normalized names and indices, which are label-independent.

Everything here sorts its inputs with total, deterministic keys, so
the alignment -- and therefore the attribution built on it -- is
independent of the order spans appear in the artifact files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.analysis.loader import SpanNode, build_forest


@dataclass
class AlignedNode:
    """One identity present in the old run, the new run, or both."""

    level: str
    ident: Tuple
    old: Optional[SpanNode]
    new: Optional[SpanNode]
    children: List["AlignedNode"] = field(default_factory=list)

    @property
    def status(self) -> str:
        if self.old is None:
            return "added"
        if self.new is None:
            return "removed"
        return "matched"

    @property
    def label(self) -> str:
        """Display label; ``old -> new`` when a rename was paired."""
        if self.old is not None and self.new is not None:
            if self.old.label != self.new.label:
                return f"{self.old.label} -> {self.new.label}"
            return self.old.label
        return (self.old or self.new).label


# ----------------------------------------------------------------------
# Cross-run matching
# ----------------------------------------------------------------------
def _pair(
    old_nodes: List[SpanNode],
    new_nodes: List[SpanNode],
    rename_tolerant: bool,
) -> List[AlignedNode]:
    """Match two sibling lists by ident; with ``rename_tolerant``,
    leftovers are additionally paired in (start, label) order (used at
    the job level, where bench variant labels rename every job)."""
    old_by_ident = {n.ident: n for n in old_nodes}
    new_by_ident = {n.ident: n for n in new_nodes}
    matched: List[Tuple[Optional[SpanNode], Optional[SpanNode]]] = []
    leftovers_old = [n for n in old_nodes if n.ident not in new_by_ident]
    leftovers_new = [n for n in new_nodes if n.ident not in old_by_ident]
    for node in old_nodes:
        if node.ident in new_by_ident:
            matched.append((node, new_by_ident[node.ident]))
    if rename_tolerant:
        ordered_old = sorted(leftovers_old, key=lambda n: (n.start, n.label))
        ordered_new = sorted(leftovers_new, key=lambda n: (n.start, n.label))
        for old, new in zip(ordered_old, ordered_new):
            matched.append((old, new))
        leftovers_old = ordered_old[len(ordered_new):]
        leftovers_new = ordered_new[len(ordered_old):]
    for node in leftovers_old:
        matched.append((node, None))
    for node in leftovers_new:
        matched.append((None, node))

    aligned = [
        AlignedNode(
            level=(old or new).level,
            ident=(old or new).ident,
            old=old,
            new=new,
        )
        for old, new in matched
    ]
    # Deterministic output order: by the side that exists, old first.
    aligned.sort(
        key=lambda a: (
            (a.old or a.new).start,
            str(a.ident),
            a.status,
        )
    )
    for node in aligned:
        if node.old is not None and node.new is not None:
            node.children = _pair(node.old.children, node.new.children, False)
        elif node.old is not None:
            node.children = [
                _one_sided(child, removed=True) for child in node.old.children
            ]
        else:
            node.children = [
                _one_sided(child, removed=False) for child in node.new.children
            ]
    return aligned


def _one_sided(node: SpanNode, removed: bool) -> AlignedNode:
    aligned = AlignedNode(
        level=node.level,
        ident=node.ident,
        old=node if removed else None,
        new=None if removed else node,
    )
    aligned.children = [_one_sided(c, removed) for c in node.children]
    return aligned


def align_forests(
    old_spans: List[dict], new_spans: List[dict]
) -> List[AlignedNode]:
    """Aligned job trees for two runs' span lists."""
    return _pair(build_forest(old_spans), build_forest(new_spans), True)


def job_name_map(aligned: List[AlignedNode]) -> Dict[str, str]:
    """old EFind job name -> new, for every matched job pair (used to
    join audit rows and per-job counters across a rename)."""
    return {
        node.old.label: node.new.label
        for node in aligned
        if node.level == "job" and node.old is not None and node.new is not None
    }
