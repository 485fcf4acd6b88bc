"""ccakit benchmark: real CLI tasks, timed from outside, verdicts checked.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload census --seed 1 --seconds 35 --trace 0

One client runs the workload's tasks one after another, each as its own
``python3 -m ccakit.cli`` process, and starts the next task only when the
last one has ended (a closed loop, no parallel tasks).  A pass is one run of
every task of the workload, in an order drawn from ``--seed``; passes repeat
for about ``--seconds``.

The benchmark pins itself and its children to one CPU, where a probe
(speed.py) measures the core's speed while the tasks run; every reported
time is scaled to a reference core speed, so that the speed changes of a
shared host do not show as changes of the program.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
passes with traced ones (see spans.py) and reports the per-layer metrics;
end-to-end numbers never come from a traced pass.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The full record of the run, with every sample and the environment, goes to
``--results`` (default ``.perfbench/results``) for compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median, median_low

from measure import run_child, tail
from spans import PER_LAYER, layer_metrics
from speed import MIN_CHUNKS, Probe, Samples, pin_to_one_cpu
from workloads import WORKLOADS, Task, check_report

HERE = Path(__file__).resolve().parent

END_TO_END = [("wall_s", "s"), ("wall_s_tail", "s"), ("setup_s", "s"),
              ("peak_rss_mb", "MB")]

SETUP_REPEATS = 21
TASK_TIMEOUT_S = 60.0
# No task starts later than this after the run began, so that a hang is
# cut short and the run still ends within three minutes.
RUN_LIMIT_S = 150.0

_PROBE = ("import json, sys, ccakit.cli, ccakit.kernels; "
          "print(json.dumps({'file': ccakit.__file__, "
          "'backend': ccakit.kernels.BACKEND, "
          "'python': sys.version.split()[0]}))")


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


@dataclass
class PassResult:
    # (spawn, reaped) time.perf_counter() pairs, one per task
    intervals: list[tuple[float, float]] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    dumps: list[dict] = field(default_factory=list)  # traced passes only

    @property
    def wall_s(self) -> float:
        """The pass's wall time as measured: the sum of its tasks'."""
        return sum(end - start for start, end in self.intervals)

    def at_reference(self, samples: Samples) -> float:
        """The pass's time on the reference core (see speed.py)."""
        return sum(samples.at_reference(start, end)
                   for start, end in self.intervals)


class Bench:
    """Runs ccakit children for one benchmark run inside ``work``."""

    def __init__(self, root: Path, work: Path, started: float):
        self.root = root
        self.work = work
        self.deadline = started + RUN_LIMIT_S
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.nproc = len(os.sched_getaffinity(0))  # before any pinning
        self._count = 0

    def _child(self, cmd: list[str]):
        self._count += 1
        base = self.work / f"child{self._count}"
        out, err = base.with_suffix(".out"), base.with_suffix(".err")
        left = self.deadline - time.perf_counter()
        run = run_child(cmd, self.env, min(TASK_TIMEOUT_S, left), out, err)
        text = out.read_text()
        stderr = err.read_text().strip()
        out.unlink()
        err.unlink()
        return run, text, stderr

    def probe(self) -> dict:
        """Where ccakit is imported from, its kernel backend, Python."""
        run, text, stderr = self._child([sys.executable, "-c", _PROBE])
        if run.exit_code != 0:
            raise SetupError(f"cannot import ccakit from src/: {stderr}")
        info = json.loads(text)
        src = (self.root / "src").resolve()
        if src not in Path(info["file"]).resolve().parents:
            raise SetupError(f"ccakit resolves to {info['file']}, not {src}")
        return info

    def environment(self) -> dict:
        info = self.probe()
        sha, dirty = _git_state(self.root)
        return {"git_sha": sha, "git_dirty": dirty, "python": info["python"],
                "backend": info["backend"],
                "nproc": self.nproc,
                "cca_max_order": os.environ.get("CCA_MAX_ORDER")}

    def setup_runs(self, repeats: int) -> list[tuple[float, float]]:
        """Fresh interpreters importing ccakit.cli and building its parser.

        ``--help`` does exactly that and nothing else.  A first, untimed
        invocation compiles the bytecode caches, which users have warm.
        Returns the (spawn, reaped) times of the timed ones.
        """
        cmd = [sys.executable, "-m", "ccakit.cli", "--help"]
        runs = []
        for k in range(repeats + 1):
            run, _, stderr = self._child(cmd)
            if run.exit_code != 0:
                raise SetupError(f"ccakit --help failed: {stderr}")
            if k:
                runs.append((run.start, run.end))
        return runs

    def run_pass(self, tasks: tuple[Task, ...], rng: random.Random,
                 traced: bool) -> PassResult:
        order = list(tasks)
        rng.shuffle(order)
        res = PassResult()
        for task in order:
            res.attempted += 1
            out_dir = Path(tempfile.mkdtemp(dir=self.work))
            try:
                err = self._run_task(task, out_dir, traced, res)
            finally:
                shutil.rmtree(out_dir)
            if err:
                res.errors.append(f"{task.label}: {err}")
        return res

    def _run_task(self, task: Task, out_dir: Path, traced: bool,
                  res: PassResult) -> str | None:
        argv = task.command(str(out_dir))
        spans_path = out_dir.with_suffix(".spans")
        if traced:
            cmd = [sys.executable, str(HERE / "spans.py"), str(spans_path),
                   "--", *argv]
        else:
            cmd = [sys.executable, "-m", "ccakit.cli", *argv]
        run, text, stderr = self._child(cmd)
        res.intervals.append((run.start, run.end))
        res.peak_rss_mb = max(res.peak_rss_mb, run.maxrss_mb)
        dump = None
        if traced and spans_path.exists():
            dump = json.loads(spans_path.read_text())
            spans_path.unlink()
            res.dumps.append(dump)
        if run.timed_out:
            return f"timed out after {run.wall_s:.1f} s"
        if run.exit_code != 0:
            return f"exit code {run.exit_code}: {stderr[-300:]}"
        err, nodes = check_report(task, text, out_dir)
        if err or not traced:
            return err
        if dump is None:
            return "traced child wrote no spans"
        traced_nodes = dump["counters"].get("kernels.search.nodes", 0)
        if traced_nodes != nodes:
            return (f"kernels.search counted {traced_nodes} nodes, "
                    f"report stats.nodes says {nodes}")
        return None

    def passes(self, tasks, rng, seconds: float, traced_too: bool):
        """Passes for ``seconds``; with ``traced_too`` each plain pass is
        followed by a traced one.

        A pass starts only if one more, at the median length so far, still
        ends within ``seconds``, so a run lasts about as long whatever the
        workload.  There is always at least one.
        """
        plain, traced, lengths = [], [], []
        start = time.perf_counter()
        while not lengths or (
                time.perf_counter() - start + median(lengths) <= seconds
                and time.perf_counter() + median(lengths) < self.deadline):
            t0 = time.perf_counter()
            plain.append(self.run_pass(tasks, rng, traced=False))
            if traced_too:
                traced.append(self.run_pass(tasks, rng, traced=True))
            lengths.append(time.perf_counter() - t0)
        return plain, traced


def _git_state(root: Path) -> tuple[str | None, bool | None]:
    """HEAD and whether the tree differs from it; None outside a git repo."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              env=env, capture_output=True, text=True,
                              timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def end_to_end(plain: list[PassResult], setup: list[tuple[float, float]],
               samples: Samples) -> tuple[dict, dict]:
    walls = [p.at_reference(samples) for p in plain]
    setups = [samples.at_reference(*run) for run in setup]
    t = tail(walls)
    metrics = {"wall_s": median(walls), "wall_s_tail": t.value,
               "setup_s": median(setups),
               "peak_rss_mb": median([p.peak_rss_mb for p in plain])}
    raw = [p.wall_s for p in plain]
    detail = {"tail_percentile": t.percentile, "tail_samples": t.samples,
              "tail_beyond": t.beyond, "setup_samples": setups,
              "raw_wall_s": median(raw), "raw_wall_s_tail": tail(raw).value,
              "raw_setup_s": median([end - start for start, end in setup])}
    return metrics, detail


def per_layer(plain: list[PassResult], traced: list[PassResult],
              samples: Samples) -> dict:
    by_pass = [layer_metrics(p.dumps) for p in traced]
    metrics = {name: median_low([m[name] for m in by_pass])
               for name, _ in PER_LAYER}
    metrics["trace.overhead_s"] = (
        median([p.at_reference(samples) for p in traced])
        - median([p.at_reference(samples) for p in plain]))
    return metrics


def core_speed(passes: list[PassResult], samples: Samples) -> dict:
    """How fast the core ran during the tasks, and the probe's share."""
    intervals = [iv for p in passes for iv in p.intervals]
    speeds = [samples.speed(*iv) for iv in intervals]
    busy = sum(end - start for start, end in intervals)
    own = sum(samples.probe_cpu(*iv) for iv in intervals)
    return {"median": median(speeds), "min": min(speeds),
            "max": max(speeds), "probe_share": own / busy}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ccakit CLI benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--results", metavar="DIR",
                    help="where the run record goes "
                         "(default .perfbench/results)")
    args = ap.parse_args(argv)

    started = time.perf_counter()
    root = Path.cwd()
    if not (root / "src" / "ccakit" / "cli.py").is_file():
        print("perfbench: run from a checkout of ccakit: no src/ccakit here",
              file=sys.stderr)
        return 2
    work = root / ".perfbench" / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    tasks = WORKLOADS[args.workload]
    rng = random.Random(args.seed)
    bench = Bench(root, work, started)
    cpu = pin_to_one_cpu()
    try:
        with Probe(work / "speed.txt") as probe:
            env = dict(bench.environment(), cpu=cpu)
            setup = [] if args.trace else bench.setup_runs(SETUP_REPEATS)
            plain, traced = bench.passes(tasks, rng, args.seconds,
                                         traced_too=bool(args.trace))
            samples = probe.stop()
        if len(samples) < MIN_CHUNKS:
            raise SetupError(f"the speed probe recorded {len(samples)} "
                             "chunks")
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    runs = plain + traced
    attempted = sum(p.attempted for p in runs)
    errors = [e for p in runs for e in p.errors]
    missing = sorted({name for p in traced for dump in p.dumps
                      for name in dump["missing"]})
    if args.trace:
        metrics, units = per_layer(plain, traced, samples), PER_LAYER
        detail = {}
    else:
        metrics, detail = end_to_end(plain, setup, samples)
        units = END_TO_END
    speed = core_speed(runs, samples)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "env": env,
        "tasks": [t.label for t in tasks],
        "plain_pass_s": [p.at_reference(samples) for p in plain],
        "plain_pass_raw_s": [p.wall_s for p in plain],
        "plain_pass_rss_mb": [p.peak_rss_mb for p in plain],
        "traced_pass_s": [p.at_reference(samples) for p in traced],
        "traced_pass_raw_s": [p.wall_s for p in traced],
        "core_speed": speed,
        "attempted": attempted, "failed": len(errors),
        "error_rate": len(errors) / attempted, "errors": errors,
        "untraced_targets": missing, "metrics": metrics, "detail": detail,
    }
    results = Path(args.results) if args.results else \
        root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    (results / f"{args.workload}-t{args.trace}-s{args.seed}-{stamp}-"
               f"{os.getpid()}.json").write_text(json.dumps(record, indent=1))

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{len(plain)} plain and {len(traced)} traced passes, backend "
          f"{env['backend']}, python {env['python']}, nproc {env['nproc']}")
    print(f"core speed during the tasks: median {speed['median']:.3f} of "
          f"the reference core (range {speed['min']:.3f} to "
          f"{speed['max']:.3f}); the probe took {speed['probe_share']:.1%} "
          "of the core")
    for err in errors:
        print(f"FAILED {err}")
    if missing:
        print(f"not in the package, so not traced: {', '.join(missing)}")
    for name, unit in units:
        print(f"{name:<52} {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"{'error_rate':<52} {len(errors) / attempted:.6g} ratio "
              f"({len(errors)} of {attempted} tasks)")
        print(f"wall_s_tail is p{detail['tail_percentile']:.4g} of "
              f"{detail['tail_samples']} passes, "
              f"{detail['tail_beyond']} beyond it")
        print(f"as measured, before scaling to the reference core: wall_s "
              f"{detail['raw_wall_s']:.6g} s, wall_s_tail "
              f"{detail['raw_wall_s_tail']:.6g} s, setup_s "
              f"{detail['raw_setup_s']:.6g} s")
    print(json.dumps({
        "correct": not errors, "attempted": attempted,
        "failed": len(errors),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
