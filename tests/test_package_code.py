"""The package holds only code that the package itself runs."""

import ast
from collections import defaultdict
from pathlib import Path

import alphagraph

PACKAGE = Path(alphagraph.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def test_every_module_level_definition_is_used_in_the_package():
    """Code that only tests call belongs in ``tests/helpers.py``: each
    module-level function and class is named, by a ``Name`` or an
    ``Attribute`` node, somewhere in the package outside its own definition
    (imports are ``alias`` nodes and do not count)."""
    defined = []
    used_in = defaultdict(set)   # name -> the top-level statements that use it
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for i, statement in enumerate(tree.body):
            site = (path.stem, i)
            if isinstance(statement, DEFINITIONS):
                defined.append((site, statement.name))
            for node in ast.walk(statement):
                if isinstance(node, ast.Name):
                    used_in[node.id].add(site)
                elif isinstance(node, ast.Attribute):
                    used_in[node.attr].add(site)
    assert defined
    unused = [f"{module}.{name}" for (module, i), name in defined
              if not used_in[name] - {(module, i)}]
    assert not unused, f"defined in alphagraph but used only outside it: {unused}"
