import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="session")
def perfbench_workloads():
    """perfbench/workloads.py, which holds the solve anchors (name, variety
    text, grid density, degrees), the systems draws and `load_reference`
    for perfbench/reference; it imports nothing from the package."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
