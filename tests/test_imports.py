"""Every name a module of the package imports is read in that module.

No linter ships with the project, so this stdlib ``ast`` scan stands in
for one: an import left behind by deleted code fails here.
"""

import ast
import pathlib

import pytest

import freepoisson

MODULES = sorted(pathlib.Path(freepoisson.__file__).parent.glob("*.py"))


def unused_imports(source):
    """(line, name) of each imported name that no expression reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_unused_imports_are_found():
    source = ("import os\nfrom a import b as c, d\nimport x.y\n"
              "def f():\n    import numpy as np\n    return d, np.pi\n")
    assert unused_imports(source) == [(1, "os"), (2, "c"), (3, "x")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
