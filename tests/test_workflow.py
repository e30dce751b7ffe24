"""The numpy-floor job's comment in .github/workflows/tests.yml names the
tests that check each numpy behaviour the program relies on; every test
module, class and function it names must exist under tests/, so a rename
cannot leave the comment pointing at nothing."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"
MODULE = re.compile(r"\btests/(\w+)\.py\b")
NAME = re.compile(r"\b(Test[A-Z]\w*|test_\w+)")


def floor_comment() -> str:
    """The comment lines that open the numpy-floor job, without their '#'."""
    lines = WORKFLOW.read_text().splitlines()
    start = lines.index("  numpy-floor:") + 1
    comment = []
    for line in lines[start:]:
        if not line.lstrip().startswith("#"):
            break
        comment.append(line.lstrip()[1:].strip())
    return " ".join(comment)


def test_names_in_the_numpy_floor_comment_exist():
    comment = floor_comment()
    modules = set(MODULE.findall(comment))
    names = set(NAME.findall(MODULE.sub("", comment)))
    # the scan finds what the comment names, so an empty match cannot pass
    assert {"test_preprocess", "test_ingest", "test_gbt"} <= modules
    assert {"TestSmoothMemory", "TestGroups", "test_multi_product_panel_matches_scalar_oracle_exactly"} <= names
    defined = set()
    for path in (ROOT / "tests").glob("test_*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined.add(node.name)
    present = {path.stem for path in (ROOT / "tests").glob("*.py")}
    assert sorted(modules - present) == []
    assert sorted(names - defined) == []
