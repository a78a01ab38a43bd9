"""Every public name of fimlab is used by the package, its scripts, the
benchmark or the acceptance gate; a name that only unit tests reach does not
belong in src/."""

import ast
from pathlib import Path

import fimlab

ROOT = Path(__file__).resolve().parents[1]
USERS = sorted(
    [*(ROOT / "src" / "fimlab").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
     *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
     ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py"]
)


def _uses(tree: ast.Module) -> list[tuple[set[str], set[str]]]:
    """(names it defines, identifiers it reads or writes) per top-level statement.

    Identifiers are names and attribute names; the __all__ list is left out.
    """
    out = []
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            defines = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defines = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            defines = set()
        if "__all__" in defines:
            continue
        idents = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                idents.add(node.id)
            elif isinstance(node, ast.Attribute):
                idents.add(node.attr)
        out.append((defines, idents))
    return out


FILES = [(path.resolve(), _uses(ast.parse(path.read_text(), str(path)))) for path in USERS]


def test_every_public_name_has_a_user_outside_the_unit_tests():
    unused = []
    for module in (getattr(fimlab, name) for name in fimlab.__all__):
        own = Path(module.__file__).resolve()
        for name in module.__all__:
            # a name's own definition does not count as a use of it
            if not any(name in idents and not (path == own and name in defines)
                       for path, uses in FILES for defines, idents in uses):
                unused.append(f"{module.__name__}.{name}")
    assert not unused, f"public names that only unit tests use: {unused}"
