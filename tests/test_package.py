"""Package surface: every public top-level function and class of `src/mmtm`
has a caller in the package, outside its own body, or in perfbench, and
every public method and property of its classes is read there outside its
own class. Code that only tests reach belongs under `tests/`."""

import ast
from pathlib import Path

import mmtm

PACKAGE = Path(mmtm.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

# Reference implementations that tests compare against; no command needs them.
ALLOWED = {
    "tree_from_postorder": "inverts post-order labels; the traversal round-trip "
                           "tests (c01) check every post-order label against it",
    "param_count": "closed-form parameter count; tests check the arena size "
                   "of init_params against it",
}


def public_definitions() -> dict[str, Path]:
    return {node.name: path for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def public_methods() -> dict[tuple[str, str], Path]:
    """(class, name) of every public method and property of a package class."""
    return {(node.name, item.name): path for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.parse(path.read_text(encoding="utf-8")).body
            if isinstance(node, ast.ClassDef) for item in node.body
            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")}


def references() -> set[tuple[str, Path, str, bool]]:
    """(name, file, top-level definition it sits in or "", whether it is an
    attribute) for every name and attribute read in the package and in
    perfbench's non-test modules."""
    files = sorted(PACKAGE.glob("*.py")) + [
        p for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]
    out = set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", "")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    out.add((node.id, path, owner, False))
                elif isinstance(node, ast.Attribute):
                    out.add((node.attr, path, owner, True))
    return out


def test_every_public_name_has_a_caller_outside_tests():
    refs = references()
    unused = {name for name, path in public_definitions().items()
              if not any(n == name and (p, owner) != (path, name)
                         for n, p, owner, _ in refs)}
    assert unused == set(ALLOWED)


def test_every_public_method_is_read_outside_its_class():
    """A method or property counts as read wherever an attribute of its name
    is read, on any object. So a name that numpy also uses, such as `size`
    (every array has one), cannot be seen unused this way: `ParamStore.size`
    went by reading the code, not by this test."""
    attributes = {(n, p, owner) for n, p, owner, attr in references() if attr}
    unread = {f"{cls}.{name}" for (cls, name), path in public_methods().items()
              if not any(n == name and (p, owner) != (path, cls)
                         for n, p, owner in attributes)}
    assert unread == set()
