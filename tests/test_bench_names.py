"""The benchmark's span wrappers name program functions from outside the
program; a rename would silently drop a metric.  Each must still resolve."""

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
