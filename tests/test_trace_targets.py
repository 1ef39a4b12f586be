"""The benchmark's span tracer wraps package functions by name: every
(module, attribute path) in `perfbench/tracing.py`'s TARGETS must resolve
to a callable, and its call facts must read only arguments that callable
takes, or a traced benchmark run fails on entry."""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path
from unittest.mock import MagicMock

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up
    spec.loader.exec_module(module)
    return [(mod, path, facts) for mod, path, _, facts in module.TARGETS]


TARGETS = _targets()
_WITH_FACTS = [t for t in TARGETS if t[2] is not None]


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    for part in path.split("."):
        owner = getattr(owner, part)
    return owner


def _mock_arguments(module_name, path) -> dict:
    params = inspect.signature(_resolve(module_name, path)).parameters
    return {name: MagicMock() for name in params}


@pytest.mark.parametrize("module_name,path",
                         [(mod, path) for mod, path, _ in TARGETS])
def test_trace_target_resolves_to_a_callable(module_name, path):
    assert callable(_resolve(module_name, path))


@pytest.mark.parametrize("module_name,path,facts", _WITH_FACTS,
                         ids=[f"{mod}-{path}" for mod, path, _ in _WITH_FACTS])
def test_call_facts_read_the_targets_parameters(module_name, path, facts):
    """The facts read the bound arguments by parameter name, so a renamed
    parameter fails here with a KeyError."""
    facts(_mock_arguments(module_name, path))


def test_each_optional_fact_is_read_on_some_target():
    """A fact read with `.get` (the trainers' `arch`) is None on a target
    without that parameter; None on every target means it was renamed."""
    read = {}
    for module_name, path, facts in _WITH_FACTS:
        for key, value in facts(_mock_arguments(module_name, path)).items():
            read[key] = read.get(key, False) or value is not None
    assert all(read.values()), read
