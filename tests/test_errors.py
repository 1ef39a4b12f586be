"""Every exception type in `errors.py` is raised somewhere in the package,
itself or through a subclass: a type that nothing raises cannot come back
as a second name for one failure."""

import ast
import inspect
from pathlib import Path

import pytest

from nutsearch import errors

SRC = Path(errors.__file__).parent
CLASSES = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
           if cls.__module__ == errors.__name__]


def _raised() -> set[str]:
    """The name of each class a `raise X` or `raise X(...)` in the package
    raises directly."""
    names = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = getattr(node.exc, "func", node.exc)  # X(...) or X
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_errors_defines_the_six_types():
    assert sorted(cls.__name__ for cls in CLASSES) == [
        "ConfigError", "ContractViolation", "InputFileError", "NumericError",
        "NutsearchError", "TrainingDiverged"]


@pytest.mark.parametrize("cls", CLASSES, ids=[c.__name__ for c in CLASSES])
def test_every_error_type_is_raised(cls):
    raised = _raised()
    assert any(sub.__name__ in raised for sub in CLASSES
               if issubclass(sub, cls)), f"nothing raises {cls.__name__}"
