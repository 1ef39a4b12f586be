"""The benchmark's span tracer wraps package functions by name: every
(module, attribute path) in `perfbench/tracing.py`'s TARGETS must resolve
to a callable, or a traced benchmark run fails on entry."""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return [(mod, path) for mod, path, _, _ in module.TARGETS]


@pytest.mark.parametrize("module_name,path", _targets())
def test_trace_target_resolves_to_a_callable(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
