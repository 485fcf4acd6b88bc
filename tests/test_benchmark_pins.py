"""The benchmark's pinned verdicts hold in process.

Every task the benchmark (``perfbench/``) runs is run here through
``cli.main``, and its report must pass the benchmark's own ``check_report``:
a change that breaks a pinned census row or witness fails here, before a
benchmark run.  Every function the benchmark's tracer wraps must still
exist, since a missing one would quietly read 0 there.  ``perfbench/`` is
only imported, never changed.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from ccakit.cli import main

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  _PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
spans = _load("spans")
WRAPPED = [(mod, attr) for _, mod, attr, _ in spans.TARGETS] + \
    [(mod, attr) for _, mod, attr in spans.COUNTED]


@pytest.mark.parametrize("module, attr", WRAPPED,
                         ids=[f"{m}.{a}" for m, a in WRAPPED])
def test_traced_function_exists(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    assert callable(owner)
TASKS = [(name, task) for name, tasks in workloads.WORKLOADS.items()
         for task in tasks]


@pytest.mark.parametrize("name, task", TASKS,
                         ids=[f"{name}: {task.label}" for name, task in TASKS])
def test_benchmark_task_meets_its_pins(capsys, tmp_path, name, task):
    out_dir = tmp_path / "out"
    assert main(task.command(str(out_dir))) == 0
    error, _ = workloads.check_report(task, capsys.readouterr().out, out_dir)
    assert error is None
