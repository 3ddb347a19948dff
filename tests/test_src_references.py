"""``src/quantlab`` holds only what the lab runs: every module-level function
and class defined there is referenced by name, as a ``Name`` or an
``Attribute``, somewhere in ``src/quantlab``, ``perfbench/`` or ``scripts/``
outside its own definition. A string does not count, so neither does an
entry of ``scripts/digest.py``'s ``UNREACHED``. Code that only tests call
belongs beside them, as ``tests/oracles.py`` and ``tests/textbook.py`` do.
Dunder names are exempt.

This is the quick, static half of ``scripts/digest.py --reach``, which runs
the whole digest to find the functions it never calls."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "quantlab"
LAB = (PACKAGE, ROOT / "perfbench", ROOT / "scripts")


def unreferenced(roots=LAB, package=PACKAGE) -> list:
    """``module.name`` of each module-level function or class of ``package``
    that no Name or Attribute under ``roots`` refers to outside its own
    definition, sorted."""
    defined, users = set(), {}  # users: name -> the definitions it is read in
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            for stmt in tree.body:
                owner = None
                if path.parent == package and isinstance(
                        stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    owner = (path.stem, stmt.name)
                    defined.add(owner)
                for node in ast.walk(stmt):
                    if isinstance(node, (ast.Name, ast.Attribute)):
                        name = node.id if isinstance(node, ast.Name) else node.attr
                        users.setdefault(name, set()).add(owner)
    return sorted(f"{module}.{name}" for module, name in defined
                  if not (name.startswith("__") and name.endswith("__"))
                  and not users.get(name, set()) - {(module, name)})


def test_every_src_definition_is_referenced_by_the_lab():
    assert unreferenced() == []


def test_a_test_only_helper_is_caught(tmp_path):
    package = tmp_path / "quantlab"
    package.mkdir()
    (package / "lib.py").write_text(
        "def run():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def oracle(n):\n    return oracle(n - 1) if n else 'oracle'\n\n\n"
        "class Unused:\n    def __init__(self):\n        Unused.x = 1\n")
    (tmp_path / "main.py").write_text("import lib\nlib.run()\n")
    assert unreferenced((tmp_path,), package) == ["lib.Unused", "lib.oracle"]
