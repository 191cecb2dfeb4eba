"""Every public function and class of hbgowers has a reader outside the tests:
a call, an attribute read or an import in src/, scripts/ or perfbench/*.py,
other than inside its own definition."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# brute-force oracles, read by the tests alone
ORACLES = {
    "ramanujan_sum_direct",  # the exponential sum, against arith.ramanujan_sum
    "gowers_cyclic_bruteforce",  # the literal expectation, against gowers.gowers_cyclic
    "count_numerators",  # enumeration mod p, against cube.count_numerators_exact
    "numerator_count_bound",  # the paper's per-prime bound count_numerators is held to
}


def _reads(tree: ast.Module) -> set[str]:
    out = set()
    for stmt in tree.body:
        names = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                names.update(alias.name for alias in node.names)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            names.discard(stmt.name)
        out |= names
    return out


def test_every_public_name_has_a_reader():
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(p for p in (ROOT / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    reads = set().union(*(_reads(ast.parse(p.read_text())) for p in sources))
    unread = [f"{path.stem}.{node.name}"
              for path in sorted((ROOT / "src" / "hbgowers").glob("*.py"))
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_")
              and node.name not in reads | ORACLES]
    assert not unread, f"public names with no reader outside the tests: {unread}"
