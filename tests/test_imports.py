import ast
from pathlib import Path

import homcoh

PACKAGE = Path(homcoh.__file__).parent


def _unused_imports(source: str) -> set[str]:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names if a.name != "*"}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - used


def test_modules_reference_every_name_they_import():
    # __init__ imports names only to re-export them.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = {p.name: _unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def test_unused_import_scan_catches_a_dead_name():
    source = "from . import bbw, levi\nimport os.path\nfrom .roots import B4 as b4\nlevi.lr_multiply\n"
    assert _unused_imports(source) == {"bbw", "os", "b4"}


def _references(root: ast.AST) -> list[str]:
    return [
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(root)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]


def _unreferenced(definitions: list[ast.AST], trees: list[ast.Module]) -> set[str]:
    everywhere = [name for tree in trees for name in _references(tree)]
    return {d.name for d in definitions if everywhere.count(d.name) == _references(d).count(d.name)}


def _unreferenced_private_definitions(sources: list[str]) -> set[str]:
    """Private module-level functions and classes, and private methods, that
    no code refers to outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    definitions = []
    for tree in trees:
        for node in tree.body:
            nodes = [node] + (node.body if isinstance(node, ast.ClassDef) else [])
            definitions += [d for d in nodes if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    private = [d for d in definitions if d.name.startswith("_") and not d.name.endswith("__")]
    return _unreferenced(private, trees)


def test_package_refers_to_every_private_definition():
    # A private name that only the tests call is dead code: a test of it
    # checks nothing the program does.
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced_private_definitions(sources) == set()


def test_private_definition_scan_catches_dead_code():
    source = (
        "def _used(): return 1\n"
        "def _dead(n): return _dead(n - 1)\n"
        "class _Kept:\n"
        "    def _method(self): return _used()\n"
        "    def __repr__(self): return ''\n"
        "class _Gone: pass\n"
        "_Kept()\n"
    )
    assert _unreferenced_private_definitions([source]) == {"_dead", "_method", "_Gone"}


def _unreferenced_public_definitions(sources: list[str]) -> set[str]:
    """Public module-level functions and classes that no code refers to
    outside their own definition."""
    trees = [ast.parse(source) for source in sources]
    public = [
        d
        for tree in trees
        for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
    ]
    return _unreferenced(public, trees)


# Public definitions that no package module calls, each kept for a reason
# outside the package.  A name that leaves this set must leave the list too.
TEST_ONLY_PUBLIC = {
    # pinned by name in the benchmark's traced layers (bench/spans.py) or
    # its sessions (bench/session.py)
    "omega_to_eps",
    "eps_to_omega",
    "to_gl",
    "from_gl",
    "lr_multiply",
    "assemble_kp_collection",
    # waiting for the K_0 Coxeter certificate (ROADMAP item 15), its caller
    "canonical_weight",
    # test hooks: a fresh default engine, and the Chern class the tests check
    "reset_engine",
    "first_chern",
}


def test_public_definitions_without_a_package_caller_are_listed():
    # __init__ refers to names only to re-export them.
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    assert _unreferenced_public_definitions(sources) == TEST_ONLY_PUBLIC


def test_public_definition_scan_catches_an_orphan():
    source = (
        "def used(): return 1\n"
        "def orphan(): return used()\n"
        "def recursive(n): return recursive(n - 1)\n"
        "class Lonely:\n"
        "    def method(self): return 0\n"
        "def _private(): return 2\n"
        "used()\n"
    )
    assert _unreferenced_public_definitions([source]) == {"orphan", "recursive", "Lonely"}
