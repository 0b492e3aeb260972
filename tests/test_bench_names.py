"""The benchmark names program functions from outside the program: its span
wrappers by string, its scripts by import and attribute.  A rename or a
deletion would silently drop a metric, or break only when the benchmark
runs.  Each name must still resolve."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def launch():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # launch.py imports its sibling spans.py
        spec = importlib.util.spec_from_file_location("bench_launch", BENCH / "launch.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("table", ["RANDOMNESS_WRAPPERS", "AGGREGATION_WRAPPERS"])
def test_every_wrapped_name_resolves(launch, table):
    for owner, attr, name in getattr(launch, table):
        # Looked up as ``spans.Recorder.wrap`` does.
        target = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        assert target is not None, f"{name}: {owner!r} has no {attr}"


def _nebula_names():
    """(module, name) for each name a ``bench/`` script imports from a
    ``nebula`` module, or reads as an attribute of one it imported."""
    names = set()
    for path in sorted(BENCH.glob("*.py")):
        nodes = list(ast.walk(ast.parse(path.read_text())))
        modules = {}  # local name -> the nebula module it is bound to
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nebula":
                for alias in node.names:
                    names.add((node.module, alias.name))
                    if node.module == "nebula":
                        modules[alias.asname or alias.name] = f"nebula.{alias.name}"
        for node in nodes:
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id in modules:
                    names.add((modules[node.value.id], node.attr))
    return names


def test_every_nebula_name_bench_reads_resolves():
    names = _nebula_names()
    assert len(names) > 40  # the scan found the scripts' names
    missing = []
    for module, name in sorted(names):
        # Resolved as ``from module import name`` resolves it.
        if not hasattr(importlib.import_module(module), name):
            try:
                importlib.import_module(f"{module}.{name}")
            except ModuleNotFoundError:
                missing.append(f"{module}.{name}")
    assert missing == []
