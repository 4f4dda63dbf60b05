"""Every function and class of ``src/netfolio`` is reached: a module of the
package other than ``__init__`` names it, or README's ``## Library`` section
does. Code that only the tests call belongs in the tests."""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
NAME_FIELD = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def unreached() -> list[str]:
    library = (ROOT / "README.md").read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    named, defined = set(re.findall(r"\w+", library.split("\n## ", 1)[0])), []
    for path in sorted((ROOT / "src" / "netfolio").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((path.stem, node.name))
            elif path.stem != "__init__" and type(node) in NAME_FIELD:
                named.add(getattr(node, NAME_FIELD[type(node)]))
    return [f"{module}.{name}" for module, name in defined
            if name not in named and not (name.startswith("__") and name.endswith("__"))]


def test_every_definition_is_reached():
    assert unreached() == []
