"""Every public top-level function or class in src/radns is used by the program,
and every defaulted parameter of a top-level function is passed by some call.

A public name that only the tests call is API kept alive for the tests: its
closed form belongs in the tests as an oracle.  A default that no call in
src/radns overrides is a knob only the tests turn: its one value belongs in
the code as a constant.  The checks are static: each module is parsed with
ast, a name counts as used when some `Name` or `Attribute` node in src/radns
refers to it outside its own definition, and a parameter counts as passed
when some call of the function's name gives it by position or keyword (or
through `*args` / `**kwargs`).
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "radns"

#: defaults that `perfbench/tracing.probe_defaults` reads off the signature
READ_BY_THE_BENCHMARK = {"semigroup.kernel_probe.refine_rtol",
                         "semigroup.kernel_probe.max_nodes"}


def src_trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def unreferenced_public_names() -> list[str]:
    trees = src_trees()
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


def passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether the call gives parameter `name` (at `position`, if positional)."""
    if any(keyword.arg in (name, None) for keyword in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(a, ast.Starred) for a in call.args))


def unpassed_defaults() -> list[str]:
    trees = src_trees()
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first_default = len(positional) - len(args.defaults)
            defaulted = [(arg.arg, i) for i, arg in enumerate(positional) if i >= first_default]
            defaulted += [(arg.arg, None) for arg, default
                          in zip(args.kwonlyargs, args.kw_defaults) if default is not None]
            for name, position in defaulted:
                if not any(passes(call, name, position) for call in calls.get(node.name, [])):
                    unpassed.append(f"{module}.{node.name}.{name}")
    return unpassed


def test_every_public_name_has_a_caller_in_src():
    assert unreferenced_public_names() == []


def test_every_default_is_overridden_in_src():
    assert sorted(unpassed_defaults()) == sorted(READ_BY_THE_BENCHMARK)
