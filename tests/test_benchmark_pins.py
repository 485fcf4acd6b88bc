"""The benchmark's pinned verdicts hold in process.

Every task the benchmark (``perfbench/``) runs is run here through
``cli.main``, and its report must pass the benchmark's own ``check_report``:
a change that breaks a pinned census row or witness fails here, before a
benchmark run.  ``perfbench/workloads.py`` is only imported, never changed.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from ccakit.cli import main

_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", _PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses looks the module up
    spec.loader.exec_module(module)
    return module


workloads = _load_workloads()
TASKS = [(name, task) for name, tasks in workloads.WORKLOADS.items()
         for task in tasks]


@pytest.mark.parametrize("name, task", TASKS,
                         ids=[f"{name}: {task.label}" for name, task in TASKS])
def test_benchmark_task_meets_its_pins(capsys, tmp_path, name, task):
    out_dir = tmp_path / "out"
    assert main(task.command(str(out_dir))) == 0
    error, _ = workloads.check_report(task, capsys.readouterr().out, out_dir)
    assert error is None
