"""The package holds only code that the package itself runs."""

import ast
import re
from collections import defaultdict
from pathlib import Path

import alphagraph

PACKAGE = Path(alphagraph.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFINITIONS = FUNCTIONS + (ast.ClassDef,)


def _unused_definitions():
    """The package's module-level functions and classes that nothing in the
    package names, by a ``Name`` or an ``Attribute`` node, outside their
    own definition, and the methods and properties of its module-level
    classes that no ``Attribute`` node names outside their own definition
    (imports are ``alias`` nodes and do not count). A site is (module,
    statement) for a module-level statement and (module, statement,
    member) for a statement of a class body."""
    defined = []   # (site, dotted name)
    named = defaultdict(set)      # name -> the sites of its Name nodes
    attribute = defaultdict(set)  # name -> the sites of its Attribute nodes
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for i, statement in enumerate(tree.body):
            site = (path.stem, i)
            if isinstance(statement, DEFINITIONS):
                defined.append((site, f"{path.stem}.{statement.name}"))
            members = (list(enumerate(statement.body)) if isinstance(statement, ast.ClassDef)
                       else [(None, statement)])
            for j, member in members:
                member_site = site if j is None else site + (j,)
                if j is not None and isinstance(member, FUNCTIONS):
                    defined.append((member_site,
                                    f"{path.stem}.{statement.name}.{member.name}"))
                for node in ast.walk(member):
                    if isinstance(node, ast.Name):
                        named[node.id].add(member_site)
                    elif isinstance(node, ast.Attribute):
                        attribute[node.attr].add(member_site)
    assert defined
    unused = []
    for site, dotted in defined:
        name = dotted.rsplit(".", 1)[1]
        uses = attribute[name] if len(site) == 3 else named[name] | attribute[name]
        if all(s[:len(site)] == site for s in uses):
            unused.append((site, dotted))
    return unused


def test_every_module_level_definition_is_used_in_the_package():
    """Code that only tests call belongs in ``tests/helpers.py``: each
    module-level function and class is named somewhere in the package
    outside its own definition."""
    unused = [dotted for site, dotted in _unused_definitions() if len(site) == 2]
    assert not unused, f"defined in alphagraph but used only outside it: {unused}"


def test_every_method_and_property_is_used_in_the_package():
    """The same rule for the methods and properties of the package's
    classes, dunders exempt: the language calls those."""
    unused = [dotted for site, dotted in _unused_definitions()
              if len(site) == 3 and not re.search(r"\.__\w+__$", dotted)]
    assert not unused, f"defined in alphagraph but used only outside it: {unused}"
