"""Every top-level function and class in the package has a user: code
elsewhere in the package, a public name of ``ctmt``, or a function the
traced benchmark wraps. A helper whose last caller is gone fails here."""

import ast
from pathlib import Path

import ctmt

from test_perfbench_names import NAMES

SRC = Path(ctmt.__file__).resolve().parent


def _identifiers(node):
    """The names that ``node`` reads, attribute names and imported names included."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name


def test_every_definition_has_a_user():
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    # name -> the top-level statements, as (module, position), that use it
    users: dict[str, set] = {}
    for module, tree in modules.items():
        for k, statement in enumerate(tree.body):
            for name in _identifiers(statement):
                users.setdefault(name, set()).add((module, k))
    traced = {(q.partition(":")[0].removeprefix("ctmt."), q.partition(":")[2].split(".")[0]) for q in NAMES}
    unused = [
        f"{module}.{statement.name}"
        for module, tree in modules.items()
        for k, statement in enumerate(tree.body)
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef))
        and not users.get(statement.name, set()) - {(module, k)}
        and statement.name not in ctmt.__all__
        and (module, statement.name) not in traced
        and not (statement.name.startswith("__") and statement.name.endswith("__"))
    ]
    assert unused == []
