"""Every function, method and class in ``src/repro`` has a shipped caller.

A definition that only tests call is API a change must keep green without
any program using it.  This scan collects every definition of ``src/repro``
(module-level functions and classes, and the methods and nested classes of
classes) and every reference made in shipped code: ``src/repro``,
``examples/``, ``bench/`` (the end-to-end harness, which rebinds functions
by name), ``benchmarks/`` (every row regenerates a table or figure of the
paper) and ``tools/``.  A reference made from ``tests/`` never counts.

A reference is an ``ast.Name`` id, an ``ast.Attribute`` attr, an imported
name or a string constant that is an identifier (``bench/trace.py`` rebinds
by string).  The names are matched, not resolved, so two definitions that
share a name keep each other alive.  A reference inside the definition's
own body does not count, nor does one inside a package ``__init__.py``
(those only re-export).  The scan iterates to a fixpoint: a reference made
from inside a definition without a caller does not count either, so a
helper that only a dead function calls is found with it.  Dunder names are
exempt.  A definition that must stay without a caller goes in ``ALLOWED``
with its reason.

State is held to the same rule: every ``self.<attribute>`` that a method of
a ``src/repro`` class stores must be loaded somewhere in the repository,
tests included (a test that reads state observes it).  An augmented
assignment (``self.count += 1``) is a store, so a counter nothing reads is
found.  Loads are attribute names and the name strings given to
``getattr`` / ``hasattr``, matched, not resolved.  An attribute that must
stay unread goes in ``WRITE_ONLY_ALLOWED`` with its reason.
"""

import ast
import pathlib
from dataclasses import dataclass

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
PACKAGE = ROOT / "src" / "repro"
CALLERS = ("src/repro", "examples", "bench", "benchmarks", "tools")

_WRITES = "§VI write path: ROADMAP item 3 makes it the write path or deletes it"
_FROZEN = ("a golden freezer under tests/golden builds its shapes with it, "
           "and the goldens stay as frozen")

#: ``(module, qualname)`` pairs that stay without a shipped caller.
ALLOWED = {
    ("repro.extensions.writes", "WriteCoordinator"): _WRITES,
    ("repro.extensions.writes", "WriteCoordinator.write_virtual"): _WRITES,
    ("repro.extensions.writes", "WriteCoordinator.is_cache_consistent"):
        _WRITES,
    ("repro.serve.gateway", "ServeCluster.run_collaboration_round"):
        "the only driver of the served §VI round: deleting it orphans the "
        "wire's neighbour-catalogue read path (ROADMAP item 5)",
    # freeze_store.py: the SpreadPlacement shape and get_chunk per chunk.
    ("repro.backend.placement", "SpreadPlacement"): _FROZEN,
    ("repro.backend.object_store", "ErasureCodedStore.get_chunk"): _FROZEN,
    # freeze_reconfig.py: the explicit-placement cases.
    ("repro.backend.placement", "ExplicitPlacement"): _FROZEN,
    # freeze_read_paths.py: the wire exchange's ledger digest.
    ("repro.serve.ledger", "ledger_to_lines"): _FROZEN,
    # freeze_engine.py: the state digest's popularity snapshot.
    ("repro.core.request_monitor", "RequestMonitor.popularity_tracker"):
        _FROZEN,
}

_UNSERVED = ("counted on every health probe for ROADMAP item 2 slice 1, "
             "which serves them on GET /metrics or deletes them")

#: ``(module, class qualname, attribute)`` stores that stay without a load.
WRITE_ONLY_ALLOWED = {
    ("repro.serve.supervisor", "ClusterSupervisor", "probes_total"): _UNSERVED,
    ("repro.serve.supervisor", "ClusterSupervisor", "probe_failures"): _UNSERVED,
}


@dataclass(frozen=True)
class Definition:
    module: str
    qualname: str
    path: pathlib.Path
    first: int
    last: int

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    def holds(self, path: pathlib.Path, line: int) -> bool:
        return path == self.path and self.first <= line <= self.last


def module_name(path: pathlib.Path, package: pathlib.Path) -> str:
    parts = path.relative_to(package.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def definitions(path: pathlib.Path, tree: ast.Module,
                package: pathlib.Path) -> list[Definition]:
    """The module's functions and classes, and the members of its classes
    (functions nested in a function are its locals, not definitions)."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                qualname = prefix + node.name
                first = min([node.lineno]
                            + [decorator.lineno
                               for decorator in node.decorator_list])
                found.append(Definition(module_name(path, package), qualname, path,
                                        first, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    visit(node.body, qualname + ".")

    visit(tree.body, "")
    return found


def references(tree: ast.Module) -> list[tuple[str, int]]:
    """``(name, line)`` of every name, attribute, imported name and
    identifier string in ``tree``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.append((node.id, node.lineno))
        elif isinstance(node, ast.Attribute):
            found.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [(part, node.lineno) for alias in node.names
                      for part in alias.name.split(".")]
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            found.append((node.value, node.lineno))
    return found


def scan(sources: dict[pathlib.Path, str], package: pathlib.Path = PACKAGE,
         allowed=()) -> list[Definition]:
    """The definitions under ``package`` among ``sources`` that nothing in
    ``sources`` refers to from outside every such definition.  The bodies
    of the ``allowed`` ``(module, qualname)`` pairs, which stay, count as
    callers; they are reported like any other definition without one."""
    defined: list[Definition] = []
    refs: dict[str, list[tuple[pathlib.Path, int]]] = {}
    for path, source in sources.items():
        tree = ast.parse(source, filename=str(path))
        if path.is_relative_to(package):
            defined += [definition for definition in definitions(path, tree,
                                                                 package)
                        if not (definition.name.startswith("__")
                                and definition.name.endswith("__"))]
            if path.name == "__init__.py":
                continue
        for name, line in references(tree):
            refs.setdefault(name, []).append((path, line))
    dead: list[Definition] = []
    while True:
        silent = [definition for definition in dead
                  if (definition.module, definition.qualname) not in allowed]
        found = [definition for definition in defined
                 if not any(not definition.holds(path, line)
                            and not any(other.holds(path, line)
                                        for other in silent)
                            for path, line in refs.get(definition.name, ()))]
        if found == dead:
            return dead
        dead = found


def shipped_sources() -> dict[pathlib.Path, str]:
    return {path: path.read_text()
            for directory in CALLERS
            for path in sorted((ROOT / directory).rglob("*.py"))}


def uncalled() -> set[tuple[str, str]]:
    return {(definition.module, definition.qualname)
            for definition in scan(shipped_sources(), allowed=ALLOWED)}


def attribute_stores(path: pathlib.Path, tree: ast.Module,
                     package: pathlib.Path) -> list[tuple[str, str, str]]:
    """``(module, class qualname, attribute)`` of every ``self.<attribute>``
    store in a method of a class of the module."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, ast.ClassDef):
                qualname = prefix + node.name
                for method in node.body:
                    if isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        found.extend(
                            (module_name(path, package), qualname, target.attr)
                            for target in ast.walk(method)
                            if isinstance(target, ast.Attribute)
                            and isinstance(target.ctx, ast.Store)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self")
                visit(node.body, qualname + ".")

    visit(tree.body, "")
    return found


def attribute_loads(tree: ast.Module) -> set[str]:
    """Every attribute name ``tree`` loads or deletes, and every constant
    name given to ``getattr`` or ``hasattr``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant)):
            found.add(node.args[1].value)
    return found


def write_only(sources: dict[pathlib.Path, str],
               package: pathlib.Path = PACKAGE) -> set[tuple[str, str, str]]:
    """The attributes classes under ``package`` store on ``self`` that no
    module of ``sources`` loads (dunders exempt)."""
    stores, loaded = [], set()
    for path, source in sources.items():
        tree = ast.parse(source, filename=str(path))
        loaded |= attribute_loads(tree)
        if path.is_relative_to(package):
            stores += attribute_stores(path, tree, package)
    return {store for store in stores
            if store[2] not in loaded
            and not (store[2].startswith("__") and store[2].endswith("__"))}


def repository_sources() -> dict[pathlib.Path, str]:
    return {**shipped_sources(),
            **{path: path.read_text() for path in sorted((ROOT / "tests").rglob("*.py"))}}


def test_every_stored_attribute_is_loaded_somewhere():
    assert sorted(write_only(repository_sources()) - WRITE_ONLY_ALLOWED.keys()) == []


def test_every_allowed_write_only_attribute_exists_and_is_still_unread():
    assert WRITE_ONLY_ALLOWED.keys() <= write_only(repository_sources())
    assert all(reason for reason in WRITE_ONLY_ALLOWED.values())


def test_what_counts_as_a_store_and_as_a_load(tmp_path):
    package = tmp_path / "pkg"
    sources = {
        package / "mod.py": (
            "class Counter:\n"
            "    def __init__(self):\n"
            "        self.total = 0\n"
            "        self.shown = 0\n"
            "        self.named = 0\n"
            "        self.__dict__ = {}\n"
            "    def tick(self):\n"
            "        self.total += 1\n"
            "    class Inner:\n"
            "        def __init__(self):\n"
            "            self.hidden = 1\n"
            "def outside(other):\n"
            "    other.free = 1\n"
        ),
        tmp_path / "example.py": (
            "def report(counter):\n"
            "    return counter.shown, getattr(counter, 'named')\n"
        ),
    }
    assert write_only(sources, package) == {
        ("pkg.mod", "Counter", "total"), ("pkg.mod", "Counter.Inner", "hidden")}


def test_every_shipped_definition_has_a_shipped_caller():
    assert sorted(uncalled() - ALLOWED.keys()) == []


def test_every_allowed_definition_exists_and_is_still_uncalled():
    assert ALLOWED.keys() <= uncalled()
    assert all(reason for reason in ALLOWED.values())


def test_the_scan_follows_callers_to_a_fixpoint(tmp_path):
    package = tmp_path / "pkg"
    sources = {
        package / "mod.py": (
            "def used():\n"
            "    return helper()\n"
            "def helper():\n"
            "    return 1\n"
            "def dead():\n"
            "    return only_dead()\n"
            "def only_dead():\n"
            "    return only_dead()\n"
            "class Kept:\n"
            "    def __init__(self):\n"
            "        self.value = 0\n"
            "    def rebound(self):\n"
            "        return 0\n"
            "    def unused(self):\n"
            "        return self.rebound\n"
        ),
        package / "__init__.py": "from pkg.mod import dead, unused\n",
        tmp_path / "example.py": (
            "from pkg.mod import used, Kept\n"
            "TABLE = ('rebound',)\n"
        ),
    }
    assert sorted((definition.module, definition.qualname)
                  for definition in scan(sources, package)) == [
        ("pkg.mod", "Kept.unused"), ("pkg.mod", "dead"),
        ("pkg.mod", "only_dead")]


def dead_names(sources, package, allowed=()):
    return sorted(definition.qualname
                  for definition in scan(sources, package, allowed))


@pytest.mark.parametrize("caller", [
    "target()\n",
    "import pkg.mod\npkg.mod.target()\n",
    "from pkg.mod import target as renamed\n",
    "REBOUND = {'target': None}\n",
], ids=["name", "attribute", "import", "identifier-string"])
def test_each_kind_of_reference_is_a_caller(tmp_path, caller):
    package = tmp_path / "pkg"
    sources = {package / "mod.py": "def target():\n    return 1\n",
               tmp_path / "example.py": caller}
    assert dead_names(sources, package) == []


def test_a_string_that_is_no_identifier_is_no_caller(tmp_path):
    package = tmp_path / "pkg"
    sources = {package / "mod.py": "def target():\n    return 1\n",
               tmp_path / "example.py": "HELP = 'call target() first'\n"}
    assert dead_names(sources, package) == ["target"]


def test_dunder_definitions_are_exempt(tmp_path):
    package = tmp_path / "pkg"
    sources = {package / "mod.py": (
        "def __getattr__(name):\n"
        "    raise AttributeError(name)\n"
        "class Shown:\n"
        "    def __repr__(self):\n"
        "        return 'Shown'\n"
        "    def _hidden(self):\n"
        "        return 0\n"
    ), tmp_path / "example.py": "Shown()\n"}
    assert dead_names(sources, package) == ["Shown._hidden"]


def test_an_allowed_body_still_calls(tmp_path):
    package = tmp_path / "pkg"
    sources = {package / "mod.py": (
        "def kept():\n"
        "    return helper()\n"
        "def helper():\n"
        "    return 1\n"
    )}
    assert dead_names(sources, package) == ["helper", "kept"]
    assert dead_names(sources, package, allowed={("pkg.mod", "kept")}) == ["kept"]


def test_a_decorator_belongs_to_the_definition_it_decorates(tmp_path):
    package = tmp_path / "pkg"
    sources = {package / "mod.py": (
        "def register(function):\n"
        "    return function\n"
        "@register\n"
        "def dead():\n"
        "    return 0\n"
    )}
    assert dead_names(sources, package) == ["dead", "register"]


def test_only_module_and_class_members_are_definitions(tmp_path):
    package = tmp_path / "pkg"
    path = package / "sub" / "mod.py"
    tree = ast.parse(
        "def outer():\n"
        "    def inner():\n"
        "        return 0\n"
        "    return inner\n"
        "class Outer:\n"
        "    class Inner:\n"
        "        def method(self):\n"
        "            return 0\n"
    )
    assert [(d.module, d.qualname, d.first, d.last)
            for d in definitions(path, tree, package)] == [
        ("pkg.sub.mod", "outer", 1, 4), ("pkg.sub.mod", "Outer", 5, 8),
        ("pkg.sub.mod", "Outer.Inner", 6, 8),
        ("pkg.sub.mod", "Outer.Inner.method", 7, 8)]
    assert module_name(package / "sub" / "__init__.py", package) == "pkg.sub"


def test_the_callers_are_shipped_code_and_never_tests():
    sources = shipped_sources()
    assert sources
    assert {path.relative_to(ROOT).parts[0] for path in sources} == {
        "src", "examples", "bench", "benchmarks", "tools"}
    assert not any(path.is_relative_to(ROOT / "tests") for path in sources)
