import ast
import os
import re
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


TESTS = Path(__file__).parent


def _is_environ(node: ast.AST) -> bool:
    return isinstance(node, ast.Attribute) and node.attr == "environ" and isinstance(node.value, ast.Name) and node.value.id == "os"


def _bare_child_environments(source: str) -> list[int]:
    """The lines of the dicts, literals or dict(...) calls, that a call is
    given as env=, directly or through a name, which do not start from
    os.environ: a child interpreter run with one loses the settings of the
    run, PYTHONDONTWRITEBYTECODE among them."""
    tree = ast.parse(source)
    values = [k.value for node in ast.walk(tree) if isinstance(node, ast.Call) for k in node.keywords if k.arg == "env"]
    names = {v.id for v in values if isinstance(v, ast.Name)}
    values += [
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id in names for t in node.targets)
    ]
    bare = []
    for v in values:
        if isinstance(v, ast.Dict):
            starts = bool(v.keys) and v.keys[0] is None and _is_environ(v.values[0])
        elif isinstance(v, ast.Call) and isinstance(v.func, ast.Name) and v.func.id == "dict":
            starts = bool(v.args) and _is_environ(v.args[0])
        else:
            continue
        if not starts:
            bare.append(v.lineno)
    return sorted(bare)


def test_child_interpreters_of_the_tests_keep_the_environment():
    found = {p.name: _bare_child_environments(p.read_text(encoding="utf-8")) for p in sorted(TESTS.glob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_child_environment_scan_catches_a_bare_dict():
    source = (
        "import os, subprocess\n"
        "env = {'PYTHONPATH': 'src'}\n"
        "subprocess.run(['python'], env=env)\n"
        "subprocess.run(['python'], env=dict(PYTHONPATH='src'))\n"
        "subprocess.run(['python'], env={**os.environ, 'PYTHONPATH': 'src'})\n"
        "subprocess.run(['python'], env=dict(os.environ, PYTHONPATH='src'))\n"
        "subprocess.run(['python'], env=child_env())\n"
        "kept = {'PYTHONPATH': 'src'}\n"
    )
    assert _bare_child_environments(source) == [2, 4]


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


def _scopes(tree: ast.Module) -> list[tuple[str, ast.FunctionDef]]:
    """The definitions of a module by name: a module-level function by its
    name, a method as Class.method."""
    scopes = [(d.name, d) for d in tree.body if isinstance(d, ast.FunctionDef)]
    scopes += [
        (f"{c.name}.{d.name}", d)
        for c in tree.body
        if isinstance(c, ast.ClassDef)
        for d in c.body
        if isinstance(d, ast.FunctionDef)
    ]
    return scopes


def _calls_outside(source: str, callee: str, allowed: set[str], owner: str | None = None) -> list[int]:
    """The lines of the calls of callee, by bare name or as an attribute
    (of the name owner only, when owner is given), that sit outside the
    definitions named in allowed (see _scopes)."""
    tree = ast.parse(source)
    inside = {id(node) for name, d in _scopes(tree) if name in allowed for node in ast.walk(d)}
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and (node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)) == callee
        and (owner is None or isinstance(node.func, ast.Name) or getattr(node.func.value, "id", None) == owner)
        and id(node) not in inside
    )


def test_the_package_builds_its_engine_only_in_get_engine():
    # One engine per process: every command, the corpus included, answers
    # on ext.get_engine(), and callers that want a fresh engine build it
    # themselves.
    found = {
        p.name: _calls_outside(
            p.read_text(encoding="utf-8"), "ExtEngine", {"get_engine"} if p.name == "ext.py" else set()
        )
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_engine_scan_catches_a_second_construction_site():
    source = (
        "def get_engine():\n"
        "    return ExtEngine()\n"
        "def run_corpus(engine=None):\n"
        "    return engine or ExtEngine()\n"
        "class Report:\n"
        "    def get_engine(self):\n"
        "        return ext.ExtEngine()\n"
    )
    assert _calls_outside(source, "ExtEngine", {"get_engine"}) == [4, 7]
    assert _calls_outside(source, "ExtEngine", set()) == [2, 4, 7]


# The one package caller of bundles.kclass besides its own recursion: the
# Euler form, which keeps each class in its engine.  KForm.kclass is another
# function of the same name, called as an attribute of the class KForm.
KCLASS_CALLERS = {"bundles.py": {"kclass"}, "ext.py": {"ExtEngine.euler"}}


def test_only_the_euler_form_asks_bundles_for_a_class():
    found = {
        p.name: _calls_outside(
            p.read_text(encoding="utf-8"), "kclass", KCLASS_CALLERS.get(p.name, set()), owner="bundles"
        )
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # and each of them does call it
    for name in KCLASS_CALLERS:
        assert _calls_outside((PACKAGE / name).read_text(encoding="utf-8"), "kclass", set(), owner="bundles"), name


def test_kclass_scan_catches_a_second_caller():
    source = (
        "def kclass(obj):\n"
        "    return kclass(obj.base)\n"
        "class ExtEngine:\n"
        "    def euler(self, E, F):\n"
        "        return bundles.kclass(E), bundles.kclass(F)\n"
        "    def ext(self, E, F):\n"
        "        return KForm.kclass(E, self), bundles.kclass(F)\n"
        "def gram(objs):\n"
        "    return [kclass(x) for x in objs]\n"
    )
    assert _calls_outside(source, "kclass", {"kclass", "ExtEngine.euler"}, owner="bundles") == [7, 9]
    assert _calls_outside(source, "kclass", {"kclass", "ExtEngine.euler"}) == [7, 7, 9]


def _names_inside(source: str, name: str, scopes: set[str]) -> list[int]:
    """The lines that refer to name, bare or as an attribute, inside the definitions named in scopes."""
    return sorted(
        node.lineno
        for scope, d in _scopes(ast.parse(source))
        if scope in scopes
        for node in ast.walk(d)
        if (node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)) == name
    )


# A K-only object is a mutation result known by its class alone: mutate
# builds it, and the two pairings of collection objects refuse it through
# one guard, without a check of their own.
K_ONLY_PAIRINGS = {"_hypothesis", "KForm.chi"}


def test_only_mutate_builds_a_k_only_object_and_one_guard_refuses_it():
    found = {
        p.name: _calls_outside(
            p.read_text(encoding="utf-8"), "KOnly", {"mutate"} if p.name == "mutations.py" else set()
        )
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    source = (PACKAGE / "mutations.py").read_text(encoding="utf-8")
    assert _calls_outside(source, "KOnly", set())
    assert _calls_outside(source, "_refuse_k_only", K_ONLY_PAIRINGS) == []
    for scope in K_ONLY_PAIRINGS:
        assert _calls_outside(source, "_refuse_k_only", K_ONLY_PAIRINGS - {scope}), scope
    assert _names_inside(source, "KOnly", K_ONLY_PAIRINGS) == []


def test_k_only_scan_catches_a_second_builder_and_a_second_check():
    source = (
        "def mutate(col):\n"
        "    return KOnly(col.k)\n"
        "def _hypothesis(a, b):\n"
        "    _refuse_k_only(a, b)\n"
        "    return 0 if isinstance(a, KOnly) else 1\n"
        "class KForm:\n"
        "    def chi(a, b):\n"
        "        return mutations.KOnly(a.kclass)\n"
        "    def kclass(self, obj):\n"
        "        return _refuse_k_only(obj, obj)\n"
    )
    assert _calls_outside(source, "KOnly", {"mutate"}) == [8]
    assert _calls_outside(source, "_refuse_k_only", K_ONLY_PAIRINGS) == [10]
    assert _calls_outside(source, "_refuse_k_only", K_ONLY_PAIRINGS - {"KForm.chi"}) == [10]
    assert _names_inside(source, "KOnly", K_ONLY_PAIRINGS) == [5, 8]


# Where ext builds an ExtResult from a raw tuple of pieces: pieces that are
# already sorted and nonzero.  Every other answer goes through collect.
RAW_RESULT_BUILDERS = {"ExtResult.collect", "ExtResult.invariant_part", "_shift"}


def test_the_package_builds_a_raw_ext_result_only_from_sorted_pieces():
    # One builder: ExtResult.collect sums, sorts and drops zeros, so no
    # answer depends on the order its pieces were found in.
    found = {
        p.name: _calls_outside(
            p.read_text(encoding="utf-8"), "ExtResult", RAW_RESULT_BUILDERS if p.name == "ext.py" else set()
        )
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    # and each of them does build one
    source = (PACKAGE / "ext.py").read_text(encoding="utf-8")
    for scope in RAW_RESULT_BUILDERS:
        assert _calls_outside(source, "ExtResult", RAW_RESULT_BUILDERS - {scope}), scope


def test_raw_result_scan_catches_a_second_builder():
    # A method named collect on another class is not ExtResult.collect.
    source = (
        "class ExtResult:\n"
        "    @staticmethod\n"
        "    def collect(pieces):\n"
        "        return ExtResult(tuple(sorted(pieces)))\n"
        "    def invariant_part(self):\n"
        "        return ExtResult(())\n"
        "    def shifted(self, k):\n"
        "        return ExtResult(self.pieces)\n"
        "def _shift(col, k):\n"
        "    return ExtResult(col.pieces) if k else col\n"
        "def trivial_result():\n"
        "    return ext_mod.ExtResult(())\n"
        "class Other:\n"
        "    def collect(self):\n"
        "        return ExtResult(())\n"
    )
    assert _calls_outside(source, "ExtResult", RAW_RESULT_BUILDERS) == [8, 12, 15]


def _placeholder_answers(source: str) -> list[int]:
    """The lines of the Ambiguous calls whose Euler argument is the literal
    0.  The cycle cut in ExtEngine.ext, which knows no Euler characteristic,
    gives None."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) != "Ambiguous":
            continue
        euler = node.args[0] if node.args else next((k.value for k in node.keywords if k.arg == "euler"), None)
        if isinstance(euler, ast.Constant) and euler.value == 0:
            lines.append(node.lineno)
    return sorted(lines)


def test_no_placeholder_euler_outside_the_cycle_cut():
    # An Ambiguous answer carries the exact Euler characteristic or none; a
    # step that cannot answer returns None instead of a placeholder.
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
    assert _placeholder_answers(source) == [3, 5, 8]


def _undocumented_tables(doc: str, engine) -> set[str]:
    """The names that are a dict attribute of engine other than _memo, or a
    "- name:" bullet of doc, but not both."""
    bullets = {line.split(":")[0][2:] for line in map(str.strip, doc.splitlines()) if re.match(r"- \w+:", line)}
    tables = {name for name, value in vars(engine).items() if isinstance(value, dict) and name != "_memo"}
    return bullets ^ tables


def test_the_engine_docstring_lists_every_kernel_table():
    from homcoh.ext import ExtEngine

    assert _undocumented_tables(ExtEngine.__doc__, ExtEngine()) == set()


def test_table_list_scan_catches_a_stale_bullet():
    from homcoh.ext import ExtEngine

    doc = ExtEngine.__doc__.replace("- _levi_duals:", "- _levi_chis: (pb, w1, w2, d) -> chi;\n    - _levi_duals:")
    assert _undocumented_tables(doc, ExtEngine()) == {"_levi_chis"}
    doc = ExtEngine.__doc__.replace("- _terms:", "  _terms:")
    assert _undocumented_tables(doc, ExtEngine()) == {"_terms"}


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


_CODE_FROM_TEXT = {"exec", "eval", "compile"}


def _code_from_text(source: str, allowed: str | None = None) -> list[int]:
    """The lines that reach exec, eval or compile, as a bare name or read off
    builtins, outside the module-level function named allowed."""
    tree = ast.parse(source)
    inside = {
        id(node)
        for d in tree.body
        if isinstance(d, ast.FunctionDef) and d.name == allowed
        for node in ast.walk(d)
    }
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id in _CODE_FROM_TEXT:
            lines.append(node.lineno)
        elif (
            isinstance(node, ast.Attribute) and node.attr in _CODE_FROM_TEXT
            and isinstance(node.value, ast.Name) and node.value.id in ("builtins", "__builtins__")
        ):
            lines.append(node.lineno)
    return sorted(lines)


def test_only_the_straightener_makes_code_from_text():
    # levi._straightener writes the Brauer-Klimyk loop out per row count and
    # compiles it; no other code runs source text that it builds.
    found = {
        p.name: _code_from_text(p.read_text(encoding="utf-8"), "_straightener" if p.name == "levi.py" else None)
        for p in sorted(PACKAGE.glob("*.py"))
    }
    assert {name: lines for name, lines in found.items() if lines} == {}
    assert _code_from_text((PACKAGE / "levi.py").read_text(encoding="utf-8"))


def test_code_from_text_scan_catches_a_second_exec():
    # re.compile builds a pattern, not code; a method named _straightener
    # is not the module-level function.
    source = (
        "import builtins, re\n"
        "def _straightener(n):\n"
        "    exec(compile('x = 1', 'f', 'exec'), {})\n"
        "def other(text):\n"
        "    return eval(text)\n"
        "run = builtins.exec\n"
        "_TOKEN = re.compile('a')\n"
        "class Box:\n"
        "    def _straightener(self):\n"
        "        exec('y = 2')\n"
    )
    assert _code_from_text(source, "_straightener") == [5, 6, 10]
    assert _code_from_text(source) == [3, 3, 5, 6, 10]


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
