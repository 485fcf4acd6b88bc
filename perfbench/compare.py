"""Compare the benchmark runs of a parent commit with those of a change.

    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the run records run.py wrote (see its --results).  For
every workload and end-to-end metric this prints both sides' medians and
quartiles, the change's median as a ratio of the parent's, the metric's
bound from BENCHMARK.json and a verdict:

- better: the change wins at least 9 of every 10 pairs of runs (ties count
  for neither side) and the medians differ by more than the parent's
  interquartile range;
- worse: the same, with the change losing;
- unresolved: anything else.

A last column says whether the change's median is worse than the parent's
by more than the bound.  Runs pair up in seed order, so two sets made with
the same seeds pair seed by seed.  Sets made with different kernel backends
or CCA_MAX_ORDER settings are refused (exit 2).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from measure import quartiles

HERE = Path(__file__).resolve().parent
WIN_SHARE = 0.9


def load(directory: Path) -> list[dict]:
    """Untraced run records, in seed order."""
    records = [json.loads(p.read_text())
               for p in sorted(directory.glob("*.json"))]
    return sorted((r for r in records if r["trace"] == 0),
                  key=lambda r: r["seed"])


def settings(records: list[dict]) -> set[tuple]:
    return {(r["env"]["backend"], r["env"]["cca_max_order"])
            for r in records}


def judge(parent: list[float], change: list[float], lower_is_better: bool,
          bound: float) -> dict:
    sign = 1 if lower_is_better else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) > 0)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    gap = c_med - p_med
    resolved = bool(pairs) and abs(gap) > p_q3 - p_q1
    if resolved and wins >= WIN_SHARE * len(pairs) and sign * gap < 0:
        verdict = "better"
    elif resolved and losses >= WIN_SHARE * len(pairs) and sign * gap > 0:
        verdict = "worse"
    else:
        verdict = "unresolved"
    return {"parent": (p_q1, p_med, p_q3), "change": (c_q1, c_med, c_q3),
            "pairs": len(pairs), "wins": wins, "losses": losses,
            "ratio": c_med / p_med if p_med else float("nan"),
            "verdict": verdict,
            "beyond_bound": sign * gap > bound * abs(p_med)}


def compare(parent: list[dict], change: list[dict], spec: dict) -> list[dict]:
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        p_runs = [r for r in parent if r["workload"] == workload]
        c_runs = [r for r in change if r["workload"] == workload]
        if not p_runs or not c_runs:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            row = judge([r["metrics"][name] for r in p_runs],
                        [r["metrics"][name] for r in c_runs],
                        metric["better"] == "lower", metric["bound"])
            row.update(workload=workload, metric=name, unit=metric["unit"],
                       bound=metric["bound"])
            rows.append(row)
    return rows


def _fmt(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent, change = (load(Path(d)) for d in argv)
    if not parent or not change:
        print("compare: a side has no untraced run records", file=sys.stderr)
        return 2
    seen = settings(parent) | settings(change)
    if len(seen) > 1:
        print("compare: refused, runs differ in (kernel backend, "
              f"CCA_MAX_ORDER): {sorted(seen, key=str)}", file=sys.stderr)
        return 2
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    print("median [q1, q3] per side; ratio = change median / parent median")
    for row in compare(parent, change, spec):
        print(f"{row['workload']:<8} {row['metric']:<12} "
              f"parent {_fmt(row['parent'])} {row['unit']}  "
              f"change {_fmt(row['change'])} {row['unit']}  "
              f"ratio {row['ratio']:.4f} of parent {row['parent'][1]:.5g} "
              f"{row['unit']}  bound {row['bound']}  "
              f"won {row['wins']}, lost {row['losses']} of {row['pairs']}  "
              f"{row['verdict']}"
              f"{'  WORSE THAN BOUND' if row['beyond_bound'] else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
