"""No code of the package, and no oracle, calls the builtin sum().

From Python 3.12 on, sum() of floats compensates rounding, so it is not the
left-to-right addition the package's exact array sums and the scalar
oracles in tests/oracles.py agree on: a bit-exact test written with it
passes on 3.11 and fails on 3.12. The scan parses each file and fails on
any use of the name sum, called or passed; a count is written as len() of
a list and a float sum as explicit additions (oracles._seq_sum). Method
calls such as ndarray.sum() are attributes, not the name, and pass.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted((ROOT / "src" / "demandcast").glob("*.py")) + [ROOT / "tests" / "oracles.py"]


def sum_uses(source: str) -> list[int]:
    """Lines on which the name sum is read."""
    tree = ast.parse(source)
    return sorted(
        node.lineno for node in ast.walk(tree)
        if isinstance(node, ast.Name) and node.id == "sum" and isinstance(node.ctx, ast.Load)
    )


def test_scan_finds_calls_and_references_but_not_methods():
    source = "a = sum(x)\nb = x.sum()\nc = list(map(sum, rows))\nd = np.sum(x)\n"
    assert sum_uses(source) == [1, 3]


def test_no_builtin_sum():
    assert len(SCANNED) > 10
    found = [f"{path.relative_to(ROOT)}:{line}" for path in SCANNED for line in sum_uses(path.read_text())]
    assert found == []
