"""Every name a module of the package imports is used in that module.

A leftover import is a name the code no longer needs, and it hides which
module depends on which. The scan parses each module of src/demandcast and
counts a name as used where it appears as a name in the code (an attribute
chain counts its first name) or inside a string annotation.
"""

import ast
from pathlib import Path

PACKAGE = sorted((Path(__file__).resolve().parents[1] / "src" / "demandcast").glob("*.py"))


def imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of each import, at any depth; __future__ imports are directives."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            out += [((alias.asname or alias.name).split(".")[0], node.lineno) for alias in node.names]
    return out


def annotations(tree: ast.Module) -> list[ast.expr]:
    """The annotation expressions of every argument, return value and annotated assignment."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
            out += [arg.annotation for arg in every if arg is not None and arg.annotation]
            out += [node.returns] if node.returns else []
        elif isinstance(node, ast.AnnAssign):
            out.append(node.annotation)
    return out


def used(tree: ast.Module) -> set[str]:
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                parsed = ast.parse(node.value, mode="eval")
                names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def test_string_annotations_count_as_uses():
    tree = ast.parse('from a import B, C\ndef f(x: "list[B]") -> None:\n    pass\n')
    assert [name for name, _ in imported(tree) if name not in used(tree)] == ["C"]


def test_every_import_is_used():
    assert len(PACKAGE) > 10
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text(), str(path))
        names = used(tree)
        unused += [f"{path.name}:{line} {name}" for name, line in imported(tree) if name not in names]
    assert unused == []
