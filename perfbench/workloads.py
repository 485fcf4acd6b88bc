"""The benchmark's workloads: ccakit CLI tasks and their pinned verdicts.

Inputs are fixed; the run's seed only orders the tasks within a pass.  Each
task's report is checked against its pinned verdict kind (every row, for a
census), and a witness must be a permutation of the graph's vertices.  Node
counts are not pinned: a faster search may legitimately visit fewer nodes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# Replaced by a fresh directory for each run of the task.
OUT = "{out}"


@dataclass(frozen=True)
class Task:
    argv: tuple[str, ...]
    kind: str = ""
    degree: int = 0  # witness length; 0 when the verdict carries none
    rows: tuple = ()  # census: (group, order, kind, witness length) per row

    def command(self, out_dir: str) -> list[str]:
        return [out_dir if a == OUT else a for a in self.argv]

    @property
    def label(self) -> str:
        return " ".join(self.argv)


# Rows of census --orders 4..18, as ccakit gave them when these pins were set.
CENSUS_ROWS = (
    ("C(4)", 4, "CCA", 0),
    ("C(5)", 5, "CCA", 0),
    ("C(6)", 6, "CCA", 0),
    ("D(3)", 6, "CCA", 0),
    ("C(7)", 7, "CCA", 0),
    ("C(8)", 8, "CCA", 0),
    ("D(4)", 8, "CCA", 0),
    ("Dic(C(4), r^2)", 8, "non-CCA", 8),
    ("Q8", 8, "non-CCA", 8),
    ("C(9)", 9, "CCA", 0),
    ("C(10)", 10, "CCA", 0),
    ("D(5)", 10, "CCA", 0),
    ("C(11)", 11, "CCA", 0),
    ("C(12)", 12, "CCA", 0),
    ("D(6)", 12, "CCA", 0),
    ("Dic(C(6), r^3)", 12, "non-CCA", 12),
    ("C(13)", 13, "CCA", 0),
    ("C(14)", 14, "CCA", 0),
    ("D(7)", 14, "CCA", 0),
    ("C(15)", 15, "CCA", 0),
    ("C(16)", 16, "CCA", 0),
    ("D(8)", 16, "CCA", 0),
    ("Dic(C(8), r^4)", 16, "non-CCA", 16),
    ("Q8 x C(2)", 16, "non-CCA", 16),
    ("C(17)", 17, "CCA", 0),
    ("C(18)", 18, "CCA", 0),
    ("C(3) x D(3)", 18, "non-CCA", 18),
    ("D(9)", 18, "CCA", 0),
)


def census_task(lo: int, hi: int) -> Task:
    if not 4 <= lo <= hi <= 18:
        raise ValueError("census verdicts are pinned for orders 4..18 only")
    rows = tuple(r for r in CENSUS_ROWS if lo <= r[1] <= hi)
    return Task(("census", "--orders", f"{lo}..{hi}"), rows=rows)


def witness_tasks(n_thm31: int, n_prop33: int, n_harness: int
                  ) -> tuple[Task, ...]:
    return (
        Task(("witness-thm31", "--n", str(n_thm31), "--out", OUT,
              "--emit", "both"), "non-CCA", 2 * n_thm31 ** 2),
        Task(("witness-prop33", "--n", str(n_prop33)), "non-CCA",
             4 * n_prop33 ** 2),
        Task(("harness-4-10", "--n", str(n_harness)), "hypotheses-ok"),
    )


WORKLOADS: dict[str, tuple[Task, ...]] = {
    # ~1,200 small Cayley graphs: many tiny searches, affinity sweeps and
    # canonical-subset minima.
    "census": (census_task(4, 18),),
    # |G|^2 closure tables through knn_actors; the search does almost no work.
    "witness": witness_tasks(9, 9, 7),
    # a few graphs with huge colour-preserving groups: large searches and
    # generator reconstruction.
    "big-aut": (
        Task(("check-group", "Dic(C(12), r^6)"), "non-CCA", 24),
        Task(("check-group", "C(4) x C(4)"), "CCA"),
        Task(("pair", "Q8 x C(2)", "Q8 x C(2)"), "pair-yes", 16),
    ),
}


def _witness_error(verdict: dict, degree: int) -> str | None:
    images = verdict.get("witness_images")
    if not isinstance(images, list):
        return "witness_images missing"
    if degree == 0:
        return None if not images else f"unexpected witness of {len(images)}"
    if sorted(images) != list(range(degree)):
        return f"witness is not a permutation of {degree} vertices"
    if images == list(range(degree)):
        return "witness is the identity"
    return None


def check_report(task: Task, text: str, out_dir: Path
                 ) -> tuple[str | None, int]:
    """Compare one task's stdout report with its pins.

    Returns (error or None, the report's stats.nodes).
    """
    try:
        report = json.loads(text)
        nodes = report["stats"]["nodes"]
    except (ValueError, KeyError, TypeError):
        return "unparsable JSON report", 0
    if task.rows:
        got = [(r["group"], r["order"], r["verdict"]["kind"])
               for r in report.get("verdicts", [])]
        want = [row[:3] for row in task.rows]
        if got != want:
            return f"census rows {got} differ from {want}", nodes
        for row, (group, _, _, degree) in zip(report["verdicts"], task.rows):
            err = _witness_error(row["verdict"], degree)
            if err:
                return f"{group}: {err}", nodes
    else:
        kind = report.get("verdict", {}).get("kind")
        if kind != task.kind:
            return f"verdict {kind!r}, pinned {task.kind!r}", nodes
        err = _witness_error(report["verdict"], task.degree)
        if err:
            return err, nodes
    if OUT in task.argv:
        files = sorted(p.name for p in out_dir.iterdir())
        json_files = [f for f in files if f.endswith(".json")]
        dot_files = [f for f in files if f.endswith(".dot")]
        if len(json_files) != 1 or len(dot_files) != 1:
            return f"--out wrote {files}, wanted one .json and one .dot", nodes
        if (out_dir / json_files[0]).read_text() != text:
            return "written JSON differs from the printed report", nodes
        if not (out_dir / dot_files[0]).read_text().startswith("graph "):
            return "written DOT file is not a graph", nodes
    return None, nodes
