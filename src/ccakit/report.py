"""Rendering of verdicts: JSON reports, DOT drawings, output files.

Every report carries the package version, the task string it answers, the
verdict (kind, witness images, named checks), and search statistics.  A
witness embedded in a verdict is replayed from scratch before anything is
written; a replay failure is an internal inconsistency, never silently
shipped.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

from . import __version__
from .engine import Check, SearchStats, Verdict, VerdictKind, replay_witness
from .errors import InternalInconsistencyError
from .graphs import ColouredGraph

# Qualitative palette; colour ids cycle through it by rank.
PALETTE = [
    "#1b9e77", "#d95f02", "#7570b3", "#e7298a", "#66a61e", "#e6ab02",
    "#a6761d", "#666666", "#1f78b4", "#b2df8a", "#fb9a99", "#cab2d6",
]

_REPLAYABLE = (VerdictKind.NON_CCA, VerdictKind.PAIR_YES)


def verdict_payload(v: Verdict) -> dict:
    images = list(v.witness) if v.witness is not None else []
    return {
        "kind": v.kind.value,
        "witness_images": images,
        "checks": [{"name": c.name, "pass": c.passed, "detail": c.detail}
                   for c in v.checks],
    }


def build_report(task: str, stats: SearchStats, seedless: bool = False,
                 **body) -> dict:
    """The report around ``body``: one ``verdict``, or a census's
    ``verdicts``, one row per group."""
    return {
        "version": __version__,
        "task": task,
        **body,
        "stats": {"nodes": stats.nodes,
                  "millis": 0 if seedless else round(stats.millis, 3)},
    }


def census_row(label: str, order: int, v: Verdict) -> dict:
    return {"group": label, "order": order, "verdict": verdict_payload(v)}


def to_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def slugify(text: str) -> str:
    slug = re.sub(r"[^a-z0-9]+", "-", text.lower()).strip("-")
    return slug or "task"


def confirm_witness(v: Verdict, note: bool = False) -> Verdict:
    """Replay an embedded witness; optionally record the replay as a check.

    Verdicts without witnesses pass trivially.  A witness that fails replay
    raises InternalInconsistencyError: emitting it would publish a claim the
    package can no longer reproduce.
    """
    if v.witness is None or v.kind not in _REPLAYABLE:
        if note:
            v.checks.append(Check("replay-witness", True,
                                  "no witness to replay"))
        return v
    if not replay_witness(v):
        raise InternalInconsistencyError(
            "witness failed replay at emit time")
    if note:
        v.checks.append(Check("replay-witness", True,
                              "witness re-validated from scratch"))
    return v


def render_dot(g: ColouredGraph, name: str) -> str:
    """Undirected DOT text; one colour per inverse-pair class, cycling the
    palette by the class's rank among the colours the graph uses."""
    ranks = {cid: k for k, cid in enumerate(g.colours_used())}
    lines = [f'graph "{name}" {{']
    for v in range(g.vertex_count):
        lines.append(f'  {v} [label="{g.vertex_label(v)}"];')
    for (u, w) in g.edges():
        cid = g.edge_colour(u, w)
        hexcode = PALETTE[ranks[cid] % len(PALETTE)]
        lines.append(
            f'  {u} -- {w} [color="{hexcode}" label="{g.colour_label(cid)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def write_outputs(out_dir: str | Path, slug: str, json_text: str,
                  dot_text: str | None, emit: str) -> list[Path]:
    """Write the requested artifact files; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    if emit in ("json", "both"):
        path = out / f"{slug}.json"
        path.write_text(json_text)
        written.append(path)
    if emit in ("dot", "both"):
        path = out / f"{slug}.dot"
        path.write_text(dot_text)
        written.append(path)
    return written
