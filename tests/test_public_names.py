"""Every public function and class of the package is used by the program itself.

The CLI is the product, so a public top-level name in src/demandcast that
only tests call is dead code. The scan parses the package and perfbench/
(the benchmark drives the CLI and patches layer functions by name) and
counts a name as used where it appears as a name, an attribute or a string
constant (the benchmark's tracer patches functions by their names) outside
its own definition. Test files do not count.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "demandcast").glob("*.py"))
PROGRAM = PACKAGE + sorted(
    path for path in (ROOT / "perfbench").glob("*.py") if not path.name.startswith("test_")
)


def referenced(node: ast.AST) -> str | None:
    """The name node stands for, if it is a name, an attribute or a string constant."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def test_every_public_name_is_used_outside_tests():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in PROGRAM}
    uses: dict[str, list[ast.AST]] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if (name := referenced(node)) is not None:
                uses.setdefault(name, []).append(node)
    public = [
        (path, node)
        for path in PACKAGE
        for node in trees[path].body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    ]
    assert len(public) > 50
    unused = []
    for path, definition in public:
        own = {id(node) for node in ast.walk(definition)}
        if not any(id(node) not in own for node in uses.get(definition.name, [])):
            unused.append(f"{path.name}:{definition.lineno} {definition.name}")
    assert unused == []


def is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if referenced(target) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """A field that nothing reads is state the program carries for no one.

    A read is an attribute load anywhere in the package or the tests, the
    class's own methods included; the field's declaration and constructor
    keywords are not reads.
    """
    files = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in files}
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (path, cls, stmt)
        for path in PACKAGE
        for cls in trees[path].body
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
