"""Package surface: every public top-level function and class of `src/mmtm`
has a caller in the package, outside its own body, or in perfbench. Code
that only tests reach belongs under `tests/`."""

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


def references() -> set[tuple[str, Path, str]]:
    """(name, file, top-level definition it sits in, or "") for every name
    and attribute read in the package and in perfbench's non-test modules."""
    files = sorted(PACKAGE.glob("*.py")) + [
        p for p in sorted(PERFBENCH.glob("*.py")) if not p.name.startswith("test_")]
    out = set()
    for path in files:
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = getattr(stmt, "name", "")
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    out.add((node.id, path, owner))
                elif isinstance(node, ast.Attribute):
                    out.add((node.attr, path, owner))
    return out


def test_every_public_name_has_a_caller_outside_tests():
    refs = references()
    unused = {name for name, path in public_definitions().items()
              if not any(n == name and (p, owner) != (path, name)
                         for n, p, owner in refs)}
    assert unused == set(ALLOWED)
