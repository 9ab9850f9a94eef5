"""The names the benchmark's tracer wraps must exist in spinorlab.

``spinorbench/tracing.py`` wraps functions by (module, attribute) and reads
some of their arguments by name.  A refactoring that renames one of them
would otherwise fail only in a traced benchmark run; here it fails the
unit tests.  The tracer module is imported read-only, by file path.
"""

import ast
import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "spinorbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("spinorbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


def _wrapped(attr: str):
    for module_name, name, _, _ in tracing.WRAPPED:
        if name == attr:
            return getattr(importlib.import_module(module_name), name)
    raise AssertionError(f"{attr} has work reported but is not wrapped")


def _argument_names(fn) -> set[str]:
    """The keys a work function reads from its ``args`` mapping, as
    args["name"] or args.get("name")."""
    names = set()
    for node in ast.walk(ast.parse(inspect.getsource(fn))):
        if isinstance(node, ast.Subscript) and getattr(node.value, "id", None) == "args":
            names.add(node.slice.value)
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "get"
            and getattr(node.func.value, "id", None) == "args"
        ):
            names.add(node.args[0].value)
    return names


def test_every_wrapped_name_exists():
    missing = [
        f"{module_name}.{attr}"
        for module_name, attr, _, _ in tracing.WRAPPED
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert missing == []


def test_argument_names_read_by_the_tracer_are_parameters():
    read = {}
    for attr, work in tracing._WORK.items():
        params = inspect.signature(_wrapped(attr)).parameters
        for name in _argument_names(work):
            read[f"{attr}({name})"] = name in params
    assert read, "no argument names found: the parse of tracing._WORK is stale"
    assert all(read.values()), read
