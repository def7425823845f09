import ast
import os
import subprocess
import sys
from collections import Counter
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


def _unreferenced_public_methods(sources: list[str]) -> set[str]:
    """Public methods, dunders left out, whose name no code mentions outside
    their own body.  By name only: a method that shares its name with
    something else is never reported, dead or not."""
    trees = [ast.parse(source) for source in sources]
    methods = [
        d
        for tree in trees
        for c in tree.body
        if isinstance(c, ast.ClassDef)
        for d in c.body
        if isinstance(d, ast.FunctionDef) and not d.name.startswith("_")
    ]
    return _unreferenced(methods, trees)


def test_package_refers_to_every_public_method():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    assert _unreferenced_public_methods(sources) == set()


def test_public_method_scan_catches_dead_code():
    # size is dead too, but a module-level size hides it.
    source = (
        "class Box:\n"
        "    def used(self): return 1\n"
        "    def dead(self): return self.used()\n"
        "    def loop(self, n): return self.loop(n - 1)\n"
        "    def size(self): return 0\n"
        "    def _hidden(self): return 0\n"
        "    def __len__(self): return 0\n"
        "size = 3\n"
        "Box().used()\n"
    )
    assert _unreferenced_public_methods([source]) == {"dead", "loop"}


def _builds_outside_new(source: str) -> list[int]:
    """The lines of the calls of _build (roots.Interned._build, which makes
    an object past the checks and the table of its class) that sit outside
    the __new__ of a class."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for d in cls.body
        if isinstance(d, ast.FunctionDef) and d.name == "__new__"
        for node in ast.walk(d)
    }
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_build"
        and id(node) not in allowed
    ]


def test_interned_objects_are_built_only_in_their_constructors():
    # One construction path per class: every object goes through its
    # __new__, so it is checked, stored and given what __new__ sets.
    found = {p.name: _builds_outside_new(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_build_scan_catches_a_second_construction_path():
    source = (
        "class Box(Interned):\n"
        "    def __new__(cls, v):\n"
        "        return cls._build(v)\n"
        "    def copy(self):\n"
        "        return Box._build(self.v)\n"
        "def shifted(box, k):\n"
        "    return Box._table.get(k) or Box._build(box.v + k)\n"
    )
    assert _builds_outside_new(source) == [5, 7]


def _placeholder_answers(source: str) -> list[int]:
    """The lines of the Ambiguous calls whose Euler argument is the literal
    0, outside ExtEngine.ext: there the cycle cut answers a pair already on
    the stack, which a call at the top level never meets."""
    tree = ast.parse(source)
    allowed = {
        id(node)
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name == "ExtEngine"
        for d in cls.body
        if isinstance(d, ast.FunctionDef) and d.name == "ext"
        for node in ast.walk(d)
    }
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in allowed:
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "Ambiguous":
            continue
        euler = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "euler"), None)
        if isinstance(euler, ast.Constant) and euler.value == 0:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_placeholder_euler_outside_the_cycle_cut():
    # An Ambiguous answer carries the exact Euler characteristic; a step
    # that cannot answer returns None instead of a placeholder.
    found = {p.name: _placeholder_answers(p.read_text(encoding="utf-8")) for p in sorted(PACKAGE.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_placeholder_scan_catches_a_second_placeholder():
    source = (
        "class ExtEngine:\n"
        "    def ext(self, E, F):\n"
        "        return Ambiguous(0, 'cyclic dependency')\n"
        "    def _chase(self, seq):\n"
        "        return Ambiguous(0, 'column is ambiguous')\n"
        "def chase(engine, E, F):\n"
        "    if E is F:\n"
        "        return ext.Ambiguous(euler=0, reason='no chase')\n"
        "    return Ambiguous(engine.euler(E, F), 'no degenerate chase')\n"
    )
    assert _placeholder_answers(source) == [5, 8]


_WEIGHT_PREDICATES = {"is_dominant", "is_levi_dominant"}
_WEIGHT_MESSAGES = ("dominant", "length", "coordinates")


def _weight_checks(source: str) -> list[int]:
    """The lines that decide for themselves what a weight is: a reference to
    is_dominant or is_levi_dominant, or a raise whose message speaks of
    dominance, of a length or of a number of coordinates."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
        if isinstance(node, (ast.Name, ast.Attribute, ast.alias)) and name in _WEIGHT_PREDICATES:
            lines.append(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            strings = [c.value for c in ast.walk(node.exc) if isinstance(c, ast.Constant) and isinstance(c.value, str)]
            if any(word in text for text in strings for word in _WEIGHT_MESSAGES):
                lines.append(node.lineno)
    return sorted(lines)


def test_only_roots_checks_weights():
    # roots.check_weight, check_dominant and check_levi_dominant are the one
    # check of a weight; a module with a check of its own covers less.
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "roots.py")
    found = {p.name: _weight_checks(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_weight_check_scan_catches_a_second_check():
    source = (
        "from .roots import is_dominant\n"
        "def weyl_dim(datum, mu):\n"
        "    if not roots.is_levi_dominant(pb, mu):\n"
        "        raise DomainError(f'{format_weight(mu)} is not Levi-dominant on {pb}')\n"
        "    if len(mu) != datum.rank:\n"
        "        raise UsageError(f'weight needs {datum.rank} coordinates')\n"
        "    roots.check_dominant(datum, mu)\n"
        "    raise DomainError(f'no branching to B4 from {datum}')\n"
    )
    assert _weight_checks(source) == [1, 3, 4, 6]


def _module_imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """The package modules a module imports (`from . import bundles as B`:
    B -> bundles), and the names it imports from them (`from .bundles import
    Sum`: Sum -> (bundles, Sum))."""
    modules, origins = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level:
            for a in node.names:
                if node.module is None:
                    modules[a.asname or a.name] = a.name
                else:
                    origins[a.asname or a.name] = (node.module, a.name)
    return modules, origins


def _public_references(module: str, root: ast.AST, imports) -> list[tuple[str, str]]:
    """(defining module, name) for each reference under root, in module,
    that can reach a public definition: a bare name read is the module's
    own, or of the module it was imported from, and an attribute counts
    only when read off a module (`bundles.rank`), never off an object
    (`pb.rank`)."""
    modules, origins = imports
    refs = []
    for node in ast.walk(root):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.append(origins.get(node.id, (module, node.id)))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.append((modules[node.value.id], node.attr))
    return refs


def _unreferenced_public_definitions(sources: dict[str, str]) -> set[str]:
    """Public module-level functions and classes, by module name, that no
    code refers to (_public_references) outside their own definition and
    the other definitions so found: a name reached only through test-only
    code is test-only too, so the scan runs to a fixpoint."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    imports = {module: _module_imports(tree) for module, tree in trees.items()}
    everywhere = Counter(ref for m, tree in trees.items() for ref in _public_references(m, tree, imports[m]))
    inside = {
        (m, d.name): Counter(_public_references(m, d, imports[m]))
        for m, tree in trees.items()
        for d in tree.body
        if isinstance(d, (ast.FunctionDef, ast.ClassDef)) and not d.name.startswith("_")
    }
    found: set[tuple[str, str]] = set()
    while True:
        grown = {key for key in inside if everywhere[key] == sum(inside[d][key] for d in found | {key})}
        if grown == found:
            return {name for _, name in found}
        found = grown


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
    # test hook: a fresh default engine (tests/ledger.py)
    "reset_engine",
    # reached only through assemble_kp_collection, the benchmark's session
    "right_dual",
    "kp_blocks",
}


def test_public_definitions_without_a_package_caller_are_listed():
    # __init__ refers to names only to re-export them.
    sources = {p.stem: p.read_text(encoding="utf-8") for p in PACKAGE.glob("*.py") if p.name != "__init__.py"}
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
    assert _unreferenced_public_definitions({"m": source}) == {"orphan", "recursive", "Lonely"}


def test_public_definition_scan_is_not_fooled_by_a_name_collision():
    # The rank of module a is called nowhere: x.rank, shape.rank and
    # other.rank are attributes of objects, Shape.rank is a class
    # attribute, and rank in module b is a local variable.  size is called
    # from b, through the module and through an import.
    sources = {
        "a": "def rank(x): return x.rank\ndef size(x): return 1\nclass Shape:\n    rank = 2\n",
        "b": (
            "from . import a\n"
            "from .a import Shape, size as sz\n"
            "def area(shape, other):\n"
            "    rank = shape.rank\n"
            "    return a.size(rank) + sz(other.rank)\n"
            "area(Shape(), Shape())\n"
        ),
    }
    assert _unreferenced_public_definitions(sources) == {"rank"}
    # A scan that counts every name and attribute sees rank called.
    trees = [ast.parse(source) for source in sources.values()]
    public = [d for tree in trees for d in tree.body if isinstance(d, (ast.FunctionDef, ast.ClassDef))]
    assert _unreferenced(public, trees) == set()


def test_public_definition_scan_follows_chains_of_test_only_code():
    # leaf is called only by middle and middle only by top, which nothing
    # calls: all three are test-only.  shared is also called by used.
    source = (
        "def leaf(): return 1\n"
        "def shared(): return 2\n"
        "def middle(): return leaf() + shared()\n"
        "def top(): return middle()\n"
        "def used(): return shared()\n"
        "used()\n"
    )
    assert _unreferenced_public_definitions({"m": source}) == {"leaf", "middle", "top"}


def test_set_up_imports_neither_dataclasses_nor_typing():
    # The benchmark's set-up in a fresh interpreter without site: the value
    # classes are plain classes and annotations stay strings, so homcoh
    # pulls in none of these modules, nor inspect, which dataclasses loads.
    code = (
        "import sys, homcoh, homcoh.cli\n"
        "from homcoh import bundles, ext\n"
        "bundles.standard_sequences()\n"
        "ext.get_engine()\n"
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
