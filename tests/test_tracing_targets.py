"""The benchmark's span tracer (`perfbench/tracing.py`) wraps addcolor
functions by name. A renamed or removed function only drops its per-layer
metric, with one line on stderr, so this test names the break instead."""

import importlib.util

import pytest

from conftest import ROOT


def traced_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", ROOT / "perfbench" / "tracing.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(mod, fn) for mod, fn, _ in module.TRACED]


@pytest.mark.parametrize("module,function", traced_targets())
def test_traced_function_exists(module, function):
    mod = importlib.import_module(f"addcolor.{module}")
    assert callable(getattr(mod, function, None)), f"addcolor.{module}.{function}"
