"""The public surface: every name ``klab`` exports is in its module's ``__all__``.

The benchmark's tracer times exactly the functions a module lists in
``__all__``, so a name exported from ``klab`` but missing there would drop
out of the per-layer spans without any error.
"""

import ast
import importlib
import types
from pathlib import Path

import klab


def test_every_public_name_is_in_its_modules_all():
    tree = ast.parse(Path(klab.__file__).read_text(encoding="utf-8"))
    source = {
        alias.asname or alias.name: f"klab.{node.module}"
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    public = {
        name
        for name, value in vars(klab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(source)
    for name, module in source.items():
        assert name in importlib.import_module(module).__all__, (name, module)
