"""Every unit of the benchmark's workloads passes its own check.

The benchmark (perfbench/) counts a unit whose output fails its pinned
check as a failed call; running each unit once here, at one seed, makes
such a change fail the test suite first."""

import importlib.util
import sys
from pathlib import Path

import pytest

import acbott

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclass looks the module up by name
    spec.loader.exec_module(module)
    return module.WORKLOADS


@pytest.mark.parametrize("name", ["harper-selfdual", "cli-harper", "extraction"])
def test_every_unit_passes_its_check(name, tmp_path):
    units = _workloads()[name](acbott, 1, tmp_path)
    assert units
    for unit in units:
        assert unit.check(unit.call()) is None, unit.label
