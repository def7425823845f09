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
