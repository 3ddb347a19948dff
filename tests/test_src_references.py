"""``src/quantlab`` holds only what the lab runs: every module-level function
and class defined there is referenced by name, as a ``Name`` or an
``Attribute``, somewhere in ``src/quantlab``, ``perfbench/`` or ``scripts/``
outside its own definition. A string does not count, so neither does an
entry of ``scripts/digest.py``'s ``NEVER_RUN``. Code that only tests call
belongs beside them, as ``tests/oracles.py`` and ``tests/textbook.py`` do.
Dunder names are exempt.

This is the quick, static half of ``scripts/digest.py --reach``, which runs
the whole digest to find the function body lines it never runs. The other
quick half checks that each line ``NEVER_RUN`` lists is still in its
function, so that the list cannot go stale between ``--reach`` runs.

``DIGEST.txt`` is the digest of this tree, and its first line records the
SHA-256 of the files it ran; a check that the hash matches the tree keeps
the file from going stale in the same way."""

import ast
import collections
import importlib.util
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


def load_digest():
    spec = importlib.util.spec_from_file_location("digest", ROOT / "scripts" / "digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    return digest


def test_never_run_lines_are_in_their_functions():
    digest = load_digest()
    held = collections.Counter(digest.body_lines(PACKAGE).values())
    functions = {name for name, _ in held}
    listed = collections.Counter((name, text) for name, text, _ in digest.NEVER_RUN)
    assert [name for name, _ in listed if name not in functions] == []
    assert sorted((listed - held).elements()) == []


def test_body_lines_leave_out_import_time_and_error_lines(tmp_path):
    (tmp_path / "lib.py").write_text(
        "NAMES = [n for n in 'ab']\n\n\n"
        "class Box:\n    size = 2\n\n    def get(self):\n        return self.size\n\n\n"
        "def parse(text):\n    try:\n        return int(text)\n"
        "    except ValueError:\n        text = text.strip()\n"
        "        raise ValueError(\n            text)\n\n\n"
        "def squares(n):\n    return [i * i for i in range(n)]\n")
    lines = load_digest().body_lines(tmp_path)
    assert sorted((line, name, text) for (_, line), (name, text) in lines.items()) == [
        (8, "lib.Box.get", "return self.size"), (12, "lib.parse", "try:"),
        (13, "lib.parse", "return int(text)"),
        (21, "lib.squares", "return [i * i for i in range(n)]")]


def test_digest_file_hash_is_this_tree():
    """Regenerate after editing a hashed file: python scripts/digest.py . > DIGEST.txt"""
    with open(ROOT / "DIGEST.txt") as f:
        first = f.readline().split()
    assert first[:3] == ["#", "sha256", load_digest().source_hash(ROOT)]


def test_source_hash_covers_every_hashed_file(tmp_path):
    digest = load_digest()
    files = ("src/quantlab/a.py", "src/quantlab/b.py", "scripts/digest.py",
             "perfbench/workloads.py")
    for name in files:
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text("x = 1\n")
    before = digest.source_hash(tmp_path, tmp_path)
    hashes = set()
    for name in files:
        (tmp_path / name).write_text("x = 2\n")
        hashes.add(digest.source_hash(tmp_path, tmp_path))
        (tmp_path / name).write_text("x = 1\n")
    (tmp_path / "src/quantlab/c.py").write_text("")
    hashes.add(digest.source_hash(tmp_path, tmp_path))
    assert before not in hashes and len(hashes) == len(files) + 1
