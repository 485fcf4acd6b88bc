"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

import pytest

import compare
import run
from compare import judge
from measure import run_child, tail
from spans import PER_LAYER, layer_metrics, self_times, subsets_computed
from speed import REFERENCE_CHUNK_S, Probe, Samples
from workloads import (WORKLOADS, Task, census_task, check_report,
                       witness_tasks)

ROOT = Path(__file__).resolve().parent.parent


# ---- statistics -------------------------------------------------------------

def test_tail_is_highest_percentile_with_ten_beyond():
    values = [float(x) for x in range(1, 26)]
    random.Random(0).shuffle(values)
    t = tail(values)
    assert (t.value, t.percentile, t.samples, t.beyond) == (15.0, 60.0, 25, 10)


def test_tail_of_eleven_samples_is_the_minimum():
    t = tail([float(x) for x in range(11)])
    assert (t.value, t.beyond) == (0.0, 10)


def test_tail_of_ten_or_fewer_samples_is_the_maximum():
    t = tail([3.0, 1.0, 2.0])
    assert (t.value, t.percentile, t.samples, t.beyond) == (3.0, 100.0, 3, 0)


# ---- spans ------------------------------------------------------------------

def test_self_time_subtracts_nested_children_once():
    spans = [
        ("cli", 0.0, 10.0, -1),
        ("engine.is_cca_group", 1.0, 4.0, 0),
        ("kernels.search", 2.0, 3.0, 1),  # grandchild of cli
        ("engine.is_affine", 5.0, 9.0, 0),
        ("engine.is_affine", 6.0, 7.0, 3),  # recursion into the same name
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("a", 0.0, 10.0, -1), ("b", 1.0, 5.0, 0), ("c", 3.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_layer_metrics_sum_tasks_and_form_ratios():
    dump = {"spans": [["cli", 0.0, 2.0, -1], ["kernels.search", 0.5, 1.5, 0]],
            "counters": {"kernels.search.nodes": 40,
                         "kernels.search.found": 10,
                         "groups.generates.calls": 4,
                         "groups.generates.true": 1}}
    m = layer_metrics([dump, dump])
    assert m["cli.self_s"] == 2.0
    assert m["kernels.search.self_s"] == 2.0
    assert m["kernels.search.calls"] == 2
    assert m["kernels.search.nodes"] == 80
    assert m["kernels.search.found_per_node"] == 0.25
    assert m["groups.generates.true_ratio"] == 0.25
    assert m["engine.is_cca_group.examined_ratio"] == 0.0
    assert set(m) == {name for name, _ in PER_LAYER}


def test_subsets_computed_matches_the_enumeration_order():
    k = 5
    walk = [list(c) for size in range(1, k + 1)
            for c in combinations(range(k), size)]
    for pos, combo in enumerate(walk, start=1):
        assert subsets_computed(k, combo) == pos
    assert subsets_computed(k, None) == len(walk)


# ---- core speed -------------------------------------------------------------

# a chunk every 0.1 s from t = 0: at reference speed until t = 1, then at
# half speed (chunks take twice the CPU time)
SAMPLES = Samples([(k / 10, REFERENCE_CHUNK_S * (1 if k < 10 else 2))
                   for k in range(20)])


def test_speed_is_the_reference_chunk_over_the_mean_chunk():
    assert SAMPLES.speed(0.0, 1.0) == pytest.approx(1.0)
    assert SAMPLES.speed(1.0, 2.0) == pytest.approx(0.5)
    assert SAMPLES.speed(0.5, 1.5) == pytest.approx(2 / 3)


def test_time_at_reference_leaves_out_the_probe_and_scales():
    own = 10 * REFERENCE_CHUNK_S
    assert SAMPLES.at_reference(0.0, 1.0) == pytest.approx(1.0 - own)
    assert SAMPLES.at_reference(1.0, 2.0) == \
        pytest.approx((1.0 - 2 * own) * 0.5)


def test_a_short_interval_takes_the_nearest_chunks():
    # no chunk starts in it: the five from 0.9 to 1.3, around its middle,
    # count
    assert SAMPLES.speed(1.04, 1.06) == pytest.approx(5 / 9)
    assert SAMPLES.at_reference(1.04, 1.06) == pytest.approx(0.02 * 5 / 9)
    # near an end the five last chunks count
    assert SAMPLES.speed(5.0, 6.0) == pytest.approx(0.5)


def test_speed_needs_a_few_chunks():
    with pytest.raises(ValueError):
        Samples([(0.0, REFERENCE_CHUNK_S)]).speed(0.0, 1.0)


def test_probe_records_chunks_and_stops(tmp_path):
    with Probe(tmp_path / "speed.txt") as probe:
        time.sleep(0.5)
        samples = probe.stop()
    assert probe.proc.returncode is not None
    assert len(samples) >= 5
    assert all(cpu > 0 for cpu in samples.cpu)
    assert samples.starts == sorted(samples.starts)


# ---- compare rule -----------------------------------------------------------

PARENT = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.1, 10.0, 10.2]


def test_compare_calls_a_clear_speedup_better():
    row = judge(PARENT, [x * 0.8 for x in PARENT], True, 0.1)
    assert (row["verdict"], row["wins"], row["beyond_bound"]) == \
        ("better", 10, False)
    assert row["ratio"] == pytest.approx(0.8)


def test_compare_calls_a_clear_slowdown_worse_and_beyond_bound():
    row = judge(PARENT, [x * 1.2 for x in PARENT], True, 0.1)
    assert (row["verdict"], row["losses"], row["beyond_bound"]) == \
        ("worse", 10, True)


def test_compare_leaves_the_same_code_unresolved():
    change = PARENT[5:] + PARENT[:5]
    assert judge(PARENT, change, True, 0.1)["verdict"] == "unresolved"


def test_compare_needs_nine_of_ten_wins():
    change = [x * 0.8 for x in PARENT]
    change[0] = change[1] = 20.0  # two lost pairs
    assert judge(PARENT, change, True, 0.1)["verdict"] == "unresolved"


def test_compare_needs_a_gap_wider_than_the_parent_spread():
    noisy = [5.0, 15.0, 6.0, 14.0, 7.0, 13.0, 8.0, 12.0, 9.0, 11.0]
    change = [x - 0.5 for x in noisy]  # wins every pair, gap inside the IQR
    row = judge(noisy, change, True, 0.1)
    assert (row["wins"], row["verdict"]) == (10, "unresolved")


def test_compare_respects_higher_is_better():
    row = judge(PARENT, [x * 1.2 for x in PARENT], False, 0.1)
    assert row["verdict"] == "better"


def _record(directory, seed, backend, wall_s):
    directory.mkdir(exist_ok=True)
    metrics = {"wall_s": wall_s, "wall_s_tail": wall_s, "setup_s": 0.1,
               "peak_rss_mb": 20.0}
    rec = {"workload": "census", "seed": seed, "trace": 0,
           "env": {"backend": backend, "cca_max_order": None},
           "metrics": metrics}
    (directory / f"census-{seed}.json").write_text(json.dumps(rec))


def test_compare_refuses_sets_with_different_backends(tmp_path, capsys):
    for seed in (1, 2):
        _record(tmp_path / "parent", seed, "pure", 5.0)
        _record(tmp_path / "change", seed, "compiled", 1.0)
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 2
    assert "refused" in capsys.readouterr().err


def test_compare_prints_every_metric_with_its_base(tmp_path, capsys):
    for seed in range(10):
        _record(tmp_path / "parent", seed, "pure", 5.0 + seed / 100)
        _record(tmp_path / "change", seed, "pure", 4.0 + seed / 100)
    assert compare.main([str(tmp_path / "parent"),
                         str(tmp_path / "change")]) == 0
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith("census")]
    assert [ln.split()[1] for ln in lines] == \
        ["wall_s", "wall_s_tail", "setup_s", "peak_rss_mb"]
    assert lines[0].endswith("better")
    assert "of parent 5.045 s" in lines[0]


# ---- the benchmark description ----------------------------------------------

def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


# ---- processes --------------------------------------------------------------

def test_run_child_kills_a_task_at_its_timeout(tmp_path):
    start = time.perf_counter()
    res = run_child([sys.executable, "-c", "import time; time.sleep(30)"],
                    {}, 0.5, tmp_path / "out", tmp_path / "err")
    assert res.timed_out
    assert res.exit_code != 0
    assert time.perf_counter() - start < 10


SMOKE = {
    "census": (census_task(4, 8),),
    "witness": witness_tasks(3, 3, 3),
    "big-aut": (Task(("check-group", "Q8"), "non-CCA", 8),),
}

# a counter each reduced workload must move in its traced pass
SMOKE_COUNTERS = {
    "census": "engine.is_cca_group.subsets_computed",
    "witness": "groups.closure.products_computed",
    "big-aut": "kernels.search.nodes",
}


@pytest.fixture
def bench(tmp_path):
    return run.Bench(ROOT, tmp_path, time.perf_counter())


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_reduced_workload_passes_plain_and_traced(bench, workload):
    tasks = SMOKE[workload]
    rng = random.Random(1)
    plain = bench.run_pass(tasks, rng, traced=False)
    traced = bench.run_pass(tasks, rng, traced=True)
    assert plain.errors == [] and traced.errors == []
    assert plain.attempted == traced.attempted == len(tasks)
    assert plain.wall_s > 0 and plain.peak_rss_mb > 0
    assert len(traced.dumps) == len(tasks)
    assert all(d["missing"] == [] for d in traced.dumps)
    metrics = layer_metrics(traced.dumps)
    assert metrics[SMOKE_COUNTERS[workload]] > 0
    assert metrics["cli.self_s"] > 0


def test_cross_check_fails_a_task_whose_node_counts_differ(bench,
                                                          monkeypatch):
    def off_by_one(task, text, out_dir):
        err, nodes = check_report(task, text, out_dir)
        return err, nodes + 1

    monkeypatch.setattr(run, "check_report", off_by_one)
    tasks = (Task(("check-group", "Q8"), "non-CCA", 8),)
    assert bench.run_pass(tasks, random.Random(1), traced=False).errors == []
    res = bench.run_pass(tasks, random.Random(1), traced=True)
    assert len(res.errors) == 1 and "stats.nodes" in res.errors[0]


def test_a_wrong_pinned_verdict_is_a_failed_task(bench):
    wrong = (Task(("check-group", "Q8"), "CCA"),)
    res = bench.run_pass(wrong, random.Random(1), traced=False)
    assert res.attempted == 1
    assert len(res.errors) == 1 and "pinned 'CCA'" in res.errors[0]


def test_a_census_row_that_differs_is_a_failed_task(bench):
    task = census_task(4, 8)
    rows = list(task.rows)
    rows[0] = ("C(4)", 4, "non-CCA", 4)
    res = bench.run_pass((Task(task.argv, rows=tuple(rows)),),
                         random.Random(1), traced=False)
    assert len(res.errors) == 1 and "census rows" in res.errors[0]


def test_setup_runs_are_timed(bench):
    runs = bench.setup_runs(2)
    assert len(runs) == 2 and all(end > start for start, end in runs)


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
