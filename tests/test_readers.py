"""Every public function and class of hbgowers, and every private module-level
function, class and constant, has a reader outside the tests: a call, an
attribute read or an import in src/, scripts/ or perfbench/*.py, other than
inside its own definition."""

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


def _defined(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement defines that must have a reader: every
    function and class, and private constants (public ones are regression
    fixtures such as WW_SIGNS_BAND, read by the tests alone)."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)
            and t.id.startswith("_") and not t.id.endswith("__")]


def _unread(private: bool) -> list[str]:
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "scripts").glob("*.py"),
               *(p for p in (ROOT / "perfbench").glob("*.py")
                 if not p.name.startswith("test_"))]
    reads = set().union(*(_reads(ast.parse(p.read_text())) for p in sources))
    return [f"{path.stem}.{name}"
            for path in sorted((ROOT / "src" / "hbgowers").glob("*.py"))
            for stmt in ast.parse(path.read_text()).body
            for name in _defined(stmt)
            if name.startswith("_") == private and name not in reads | ORACLES]


def test_every_public_name_has_a_reader():
    unread = _unread(private=False)
    assert not unread, f"public names with no reader outside the tests: {unread}"


def test_every_private_name_has_a_reader():
    unread = _unread(private=True)
    assert not unread, f"private names with no reader outside the tests: {unread}"
