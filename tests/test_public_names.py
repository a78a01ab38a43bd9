"""Every public name of fimlab, and every public method and property of a
public class, is used by the package, its scripts, the benchmark or the
acceptance gate; a name that only unit tests reach does not belong in src/.
So is every setting: each parameter with a default of a public function,
class or method is passed by some call there."""

import ast
import inspect
from pathlib import Path

import fimlab

ROOT = Path(__file__).resolve().parents[1]
USERS = sorted(
    [*(ROOT / "src" / "fimlab").glob("*.py"), *(ROOT / "scripts").glob("*.py"),
     *(p for p in (ROOT / "perfbench").glob("*.py") if not p.name.startswith("test_")),
     ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "helpers.py"]
)


def _idents(nodes) -> set[str]:
    """Names and attribute names read or written anywhere in the nodes."""
    idents = set()
    for node in (sub for top in nodes for sub in ast.walk(top)):
        if isinstance(node, ast.Name):
            idents.add(node.id)
        elif isinstance(node, ast.Attribute):
            idents.add(node.attr)
    return idents


def _uses(tree: ast.Module) -> list[tuple[set[str], set[str]]]:
    """(names it defines, identifiers it reads or writes) per top-level statement,
    and per method of a top-level class, which defines "Class.method" and Class.

    The __all__ list is left out.
    """
    out = []
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            methods = [m for m in stmt.body if isinstance(m, ast.FunctionDef)]
            out += [({stmt.name, f"{stmt.name}.{m.name}"}, _idents([m])) for m in methods]
            rest = [n for n in stmt.body if n not in methods]
            out.append(({stmt.name}, _idents([*stmt.bases, *stmt.keywords, *stmt.decorator_list, *rest])))
            continue
        if isinstance(stmt, ast.FunctionDef):
            defines = {stmt.name}
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            defines = {t.id for t in targets if isinstance(t, ast.Name)}
        else:
            defines = set()
        if "__all__" not in defines:
            out.append((defines, _idents([stmt])))
    return out


TREES = {path.resolve(): ast.parse(path.read_text(), str(path)) for path in USERS}
FILES = [(path, _uses(tree)) for path, tree in TREES.items()]
CALLS = [node for tree in TREES.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]


def _public_names(module):
    """(name as used, name as defined) for each name in the module's __all__ and
    each public method and property that a class there defines itself."""
    for name in module.__all__:
        yield name, name
        obj = getattr(module, name)
        if inspect.isclass(obj) and obj.__module__ == module.__name__:
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and (
                        inspect.isfunction(member) or isinstance(member, (property, staticmethod, classmethod))):
                    yield attr, f"{name}.{attr}"


def test_every_public_name_has_a_user_outside_the_unit_tests():
    unused = []
    for module in (getattr(fimlab, name) for name in fimlab.__all__):
        own = Path(module.__file__).resolve()
        for used_as, defined_as in _public_names(module):
            # a name's own definition does not count as a use of it
            if not any(used_as in idents and not (path == own and defined_as in defines)
                       for path, uses in FILES for defines, idents in uses):
                unused.append(f"{module.__name__}.{defined_as}")
    assert not unused, f"public names that only unit tests use: {unused}"


def _signatures(module):
    """(name as called, name as defined, parameters) for each public function and
    class of the module (a class's are its constructor's; an exception's are the
    builtin's, and are left out) and each public method that a class there
    defines itself (without self)."""
    for name in module.__all__:
        obj = getattr(module, name)
        if getattr(obj, "__module__", None) != module.__name__ or not callable(obj):
            continue
        if not (inspect.isclass(obj) and issubclass(obj, BaseException)):
            yield name, name, list(inspect.signature(obj).parameters.values())
        if inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    yield attr, f"{name}.{attr}", list(inspect.signature(member).parameters.values())[1:]


def _passes(call: ast.Call, params, name: str) -> bool:
    """Whether the call passes parameter `name`: by keyword, through ** or by position."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    positional = [p.name for p in params if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
    return name in positional and (len(call.args) > positional.index(name)
                                   or any(isinstance(arg, ast.Starred) for arg in call.args))


def _called_as(call: ast.Call) -> str | None:
    func = call.func
    return func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None


def test_every_setting_is_passed_by_a_user_outside_the_unit_tests():
    unset = []
    for module in (getattr(fimlab, name) for name in fimlab.__all__):
        for used_as, defined_as, params in _signatures(module):
            calls = [call for call in CALLS if _called_as(call) == used_as]
            for p in params:
                if p.default is not p.empty and not any(_passes(call, params, p.name) for call in calls):
                    unset.append(f"{module.__name__}.{defined_as}({p.name})")
    assert not unset, f"settings that only unit tests set: {unset}"
