"""Every public name, method and dataclass field of the package is used by the program itself.

The CLI is the product, so a public top-level name, a public method or
property, or a dataclass field in src/demandcast that only tests use is dead
code. The scans parse the package and perfbench/ (the benchmark drives the
CLI and patches layer functions by name) and count a name as used where it
appears as a name or an attribute outside its own definition. Test files do
not count. The benchmark's tracer patches functions by their names, so its
string constants count as uses of top-level names too, and the names that
only they keep alive are pinned: ROADMAP item 15 deletes them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "demandcast").glob("*.py"))
PROGRAM = PACKAGE + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)
TRACER = ROOT / "perfbench" / "tracer.py"
TREES = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}

# the public names that only the tracer's string constants use
PATCHED_ONLY = {"best_split", "es_grid_select"}


def referenced(node: ast.AST) -> str | None:
    """The name node stands for, if it is a name or an attribute."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def program_uses() -> dict[str, list[ast.AST]]:
    """Each name's name and attribute nodes in the program."""
    uses: dict[str, list[ast.AST]] = {}
    for tree in TREES.values():
        for node in ast.walk(tree):
            if (name := referenced(node)) is not None:
                uses.setdefault(name, []).append(node)
    return uses


def unused(definitions, uses: dict[str, list[ast.AST]]) -> list[tuple[Path, ast.AST]]:
    """The (path, definition) pairs whose name no use outside the definition itself has."""
    found = []
    for path, definition in definitions:
        own = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in own for node in uses.get(definition.name, [])):
            found.append((path, definition))
    return found


def test_every_public_name_is_used_outside_tests():
    public = [
        (path, node)
        for path in PACKAGE
        for node in TREES[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    patched = {
        node.value
        for node in ast.walk(TREES[TRACER])
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    dead = unused(public, program_uses())
    assert [f"{path.name}:{d.lineno} {d.name}" for path, d in dead if d.name not in patched] == []
    assert {d.name for _, d in dead} == PATCHED_ONLY


def test_every_public_method_is_used_by_the_program():
    """Methods and properties of every class, classmethods included."""
    methods = [
        (path, node)
        for path in PACKAGE
        for cls in TREES[path].body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]
    assert len(methods) > 10
    assert [f"{path.name}:{d.lineno} {d.name}" for path, d in unused(methods, program_uses())] == []


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if referenced(target) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """A field that nothing reads is state the program carries for no one.

    A read is an attribute load anywhere in the package, the class's own
    methods included; the field's declaration and constructor keywords are
    not reads, and neither is a read in a test.
    """
    read = {
        node.attr
        for path in PACKAGE
        for node in ast.walk(TREES[path])
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (path, cls, stmt)
        for path in PACKAGE
        for cls in TREES[path].body
        if isinstance(cls, ast.ClassDef) and is_dataclass(cls)
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
    ]
    assert len(fields) > 30
    unread = [
        f"{path.name}:{stmt.lineno} {cls.name}.{stmt.target.id}"
        for path, cls, stmt in fields
        if stmt.target.id not in read
    ]
    assert unread == []
