"""No dead module-level names: each function, class or variable that a
module of ``repro`` defines at its top level is read somewhere in the
repo's code, outside its own definition.

A read is a name loaded, an attribute, a name imported with ``from``, or
a string equal to the name (``getattr``, ``monkeypatch.setattr``). The
check goes by name alone, so a name read for another object also counts:
it finds names that are certainly dead, not all of them."""
import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
READERS = ("src", "jobs", "perfbench", "tests")


def reads(node: ast.AST) -> Counter[str]:
    out: Counter[str] = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.ImportFrom):
            out.update(a.name for a in n.names)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            out[n.value] += 1
    return out


def definitions(tree: ast.Module) -> list[tuple[str, ast.AST]]:
    """The module-level names that ``tree`` defines, each with its node."""
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((stmt.name, stmt))
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            out += [(t.id, stmt) for t in targets if isinstance(t, ast.Name)]
    return [(name, node) for name, node in out if not name.startswith("__")]


def dead_names() -> list[str]:
    trees = {
        path: ast.parse(path.read_text(), str(path))
        for top in READERS
        for path in sorted((ROOT / top).rglob("*.py"))
    }
    read = sum((reads(tree) for tree in trees.values()), Counter())
    dead = []
    for path, tree in trees.items():
        if (ROOT / "src" / "repro") not in path.parents:
            continue
        for name, node in definitions(tree):
            if read[name] == reads(node)[name]:
                dead.append(f"{path.relative_to(ROOT / 'src')}:{name}")
    return dead


def test_every_module_level_name_is_read():
    assert dead_names() == []
