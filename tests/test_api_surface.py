"""Every public top-level function or class in src/radns is used by the program.

A public name that only the tests call is API kept alive for the tests: its
closed form belongs in the tests as an oracle.  The check is static: each
module is parsed with ast, and a name counts as used when some `Name` or
`Attribute` node in src/radns refers to it outside its own definition.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radns"


def unreferenced_public_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.glob("*.py"))}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append(node)
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                own = {id(inner) for inner in ast.walk(node)}
                if all(id(use) in own for use in uses.get(node.name, [])):
                    unused.append(f"{module}.{node.name}")
    return unused


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_public_names() == []
