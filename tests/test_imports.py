"""Static checks: no unused import, no uncalled definition, no typing ABC in isinstance.

No linter is a dependency of this project, so these stdlib ``ast`` passes
stand in for one.  A name bound by a module-level ``import`` must be
read somewhere in the module; re-exports from the package
``__init__.py`` are exempt, as is ``from __future__ import ...``.  A
module-level function or class of the library must be referenced by
the library outside its own body; an export from ``__init__.py``
counts, and the script entry point ``cli.main`` is exempt.  So must
each method of such a class, except dunder methods and the
``METHOD_EXCEPTIONS`` that code outside the library calls.  Library code
that only the tests call belongs in ``tests/oracles.py``.  No
``isinstance`` call of the library takes a name imported from ``typing``:
the ``typing`` aliases check through a slower path than the
``collections.abc`` classes they stand for.  Every import of a library
module by another, at module or function level, names a lower layer
(``LAYERS``), so the modules form a stack with no cycle.  No name the
package ``__init__.py`` binds equals a library submodule's stem: such a
name replaces the package attribute of the submodule, so
``import grafclifford.<stem> as m`` would bind it instead of the module.
The reference implementations in ``tests/oracles.py`` read neither
``wedge`` nor ``contracted_wedge`` of the library: the library derives
both from the product, so a reference built on them would check the
product against itself.  No library function takes a parameter named
``structure`` or ``geometry``: a representation carries its structure
maps (``Rep.structure``) and a signature picks its geometry
(``classify.geometry_of``), so passing either next to its source only
admits a mismatched pair.  Likewise no function of a layer above
``graf`` (``FRAME_MODULES``) takes a parameter named ``metric`` or
``met``: those layers multiply in the standard orthonormal frame of
the signature, the product's default, and ``classify``, ``fierz`` and
``bilinear`` do not read ``Metric`` at all.  Every memo of the library is a
``functools.lru_cache`` with a finite integer ``maxsize`` (a literal or
a module-level constant) or a ``functools.cached_property``: no
``OrderedDict`` LRU, no unbounded ``lru_cache`` or ``cache``, and no
``lru_cache(...)(self.<attr>)``, whose cache of bound methods keeps
every instance it has seen alive until a garbage-collection pass.  No
library module imports ``hashlib`` or ``_hashlib``, at module or function
level: importing either loads OpenSSL's libcrypto into every CLI process
(3.7 MiB resident on CPython 3.11, x86-64 Linux), and CPython's built-in
``_sha2``/``_sha256`` give the same digest.  The one allowed import is the last fallback, in an
``except ImportError`` handler, for a build without the built-in module.
Each packed layout has one owner: no library module but ``graf`` names
the blade-pair kernel (``KERNEL_NAMES``), and ``exterior`` and
``matrixrep`` import no ``itemgetter``, so the signed gathers over
z (x) w are laid out in ``fierz`` alone.  No module of the library or
its tests but ``exterior`` names the slots of a form's numerators and
denominator (``FORM_SLOTS``): every other module reads the pair through
``Form.numerators`` and hands one back through ``Form._adopt``, so the
reduction that keeps the pair canonical lives in one place.  The
package ``__all__`` lists exactly the names ``__init__.py`` imports,
plus ``__version__``, each once: a definition deleted from a submodule
leaves no stale export.
"""

import ast
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "grafclifford").glob("*.py"))
CHECKED = SRC + sorted((ROOT / "tests").glob("*.py"))
# (module, name) pairs called from outside the library: [project.scripts]
ENTRY_POINTS = {("cli", "main")}
# (class, method) pairs the library never calls, with the reason each stays.
METHOD_EXCEPTIONS = {
    ("_Parser", "error"): "argparse calls it on a bad invocation",
    ("Form", "num_terms"): "the benchmark's span tracer reads it",
    ("Form", "from_text"): "documented API: the README example parses with it",
}
# Layer of each library module: a module imports only from lower layers.
LAYERS = {
    "errors": 0,
    "linalg": 0,
    "exterior": 1,
    "graf": 2,
    "matrixrep": 3,
    "bilinear": 4,
    "fierz": 5,
    "classify": 6,
    "cli": 7,
    "__init__": 8,
}
# (importing module, imported module) pairs exempt from the order: the
# report provenance reads the package version at call time.
LAYER_EXCEPTIONS = {("cli", "__init__")}
# Library names the oracles must not read: the library derives them from
# the product the oracles check.
ORACLE_FORBIDDEN = {"wedge", "contracted_wedge"}
# Parameters the library derives instead of taking them.  The two pairing
# entry points keep an optional structure that defaults to rep.structure,
# for callers that have solved it already.
DERIVED_PARAMETERS = {"structure", "geometry"}
DERIVED_PARAMETER_EXCEPTIONS = {
    ("bilinear", "admissible_pairings"),
    ("bilinear", "standard_pairing"),
}
# The layers above ``graf`` take no metric; those below the CLI read no
# ``Metric`` (the CLI's report header and its check of the Clifford
# relation read the standard one).
METRIC_PARAMETERS = {"metric", "met"}
FRAME_MODULES = ("matrixrep", "bilinear", "fierz", "classify", "cli")
METRIC_FREE_MODULES = ("bilinear", "fierz", "classify")
# Modules whose import loads OpenSSL.
OPENSSL_MODULES = {"hashlib", "_hashlib"}
# The blade-pair kernel and its one owner; the modules that lay out no gather.
KERNEL_NAMES = {"_DiagKernel", "_kernel", "_kernel_for"}
KERNEL_OWNER = "graf"
GATHER_FREE_MODULES = ("exterior", "matrixrep")
# The slots of a form's numerator-denominator pair and their one owner.
FORM_SLOTS = {"_num", "_den"}
FORM_OWNER = "exterior"


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def _names_read(node: ast.AST) -> set[str]:
    """Names a statement reads, as a name, an attribute or an imported name."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            out.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            out.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            out.update(alias.name for alias in sub.names)
    return out


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """Module-level functions and classes, and their methods, that nothing else reads.

    A definition counts as read when another top-level statement reads
    its name; a method also when another member of its class does.
    Dunder methods, which Python calls, are exempt.
    """
    top: list[tuple[str, ast.AST, set[str]]] = []
    for module, source in sources.items():
        top += [(module, node, _names_read(node)) for node in ast.parse(source).body]
    found = []
    for module, node, _ in top:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        others = [names for _, other, names in top if other is not node]
        if (module, node.name) not in ENTRY_POINTS and not any(node.name in n for n in others):
            found.append(f"{module}.{node.name}")
        if not isinstance(node, ast.ClassDef):
            continue
        members = [(member, _names_read(member)) for member in node.body]
        for method, _ in members:
            if (
                not isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                or method.name.startswith("__") and method.name.endswith("__")
                or (node.name, method.name) in METHOD_EXCEPTIONS
            ):
                continue
            siblings = [names for member, names in members if member is not method]
            if not any(method.name in n for n in others + siblings):
                found.append(f"{module}.{node.name}.{method.name}")
    return found


def typing_isinstance_calls(source: str) -> list[str]:
    """``isinstance`` calls whose class argument reads a name imported from ``typing``."""
    tree = ast.parse(source)
    names, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "typing":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            aliases = [alias for alias in node.names if alias.name == "typing"]
            modules.update(alias.asname or "typing" for alias in aliases)
    found = []
    for node in ast.walk(tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and len(node.args) == 2
        ):
            continue
        for sub in ast.walk(node.args[1]):
            if isinstance(sub, ast.Name) and sub.id in names:
                found.append(f"{sub.id} (line {node.lineno})")
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in modules
            ):
                found.append(f"{sub.value.id}.{sub.attr} (line {node.lineno})")
    return found


def _library_import(node: ast.AST) -> str | None:
    """The library module an import statement names, or None for any other import."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return node.module or "__init__"
        if node.level == 0 and node.module and node.module.split(".")[0] == "grafclifford":
            return node.module.partition(".")[2] or "__init__"
    return None


def layering_violations(sources: dict[str, str]) -> list[str]:
    """Imports between library modules, at any depth, that do not name a lower layer."""
    found = []
    for module, source in sources.items():
        if module not in LAYERS:
            found.append(f"{module} has no layer")
            continue
        for node in ast.walk(ast.parse(source)):
            target = _library_import(node)
            if target is None or (module, target) in LAYER_EXCEPTIONS:
                continue
            if target not in LAYERS or LAYERS[target] >= LAYERS[module]:
                found.append(f"{module} -> {target} (line {node.lineno})")
    return found


def library_reads(source: str, names: set[str]) -> list[str]:
    """Imports of ``names`` from the library, and reads of them as attributes."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and _library_import(node) is not None:
            found += [f"{a.name} (line {node.lineno})" for a in node.names if a.name in names]
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f".{node.attr} (line {node.lineno})")
    return found


def exports_shadowing_submodules(init_source: str, stems: set[str]) -> list[str]:
    """Names ``__init__.py`` binds at module level that equal a submodule's stem.

    ``from . import stem`` binds the submodule itself and is not counted.
    """
    found = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.module is not None:
            names = [alias.asname or alias.name for alias in node.names]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        found += [f"{name} (line {node.lineno})" for name in names if name in stems]
    return found


def export_mismatches(init_source: str) -> list[str]:
    """Differences between ``__all__`` and the names ``__init__.py`` imports, plus ``__version__``."""
    imported, listed = {"__version__"}, []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            listed = ast.literal_eval(node.value)
    found = [f"{name} imported, not in __all__" for name in sorted(imported - set(listed))]
    found += [f"{name} in __all__, not imported" for name in sorted(set(listed) - imported)]
    found += [f"{name} listed twice" for name in sorted({n for n in listed if listed.count(n) > 1})]
    return found


def derived_parameters(sources: dict[str, str], names: set[str] = DERIVED_PARAMETERS) -> list[str]:
    """Functions, methods and lambdas that take a parameter named in ``names``."""
    found = []
    for module, source in sources.items():
        for node in ast.walk(ast.parse(source)):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            name = getattr(node, "name", "<lambda>")
            args = node.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            hits = [p for p in params if p in names]
            if hits and (module, name) not in DERIVED_PARAMETER_EXCEPTIONS:
                found.append(f"{module}.{name}({', '.join(hits)}) (line {node.lineno})")
    return found


def unbounded_memos(source: str) -> list[str]:
    """Memos outside the two idioms: ``OrderedDict``, unbounded caches, cached bound methods."""
    tree = ast.parse(source)
    constants = {
        target.id: node.value.value
        for node in tree.body
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)
        for target in node.targets
        if isinstance(target, ast.Name)
    }
    imported, modules = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            imported.update({alias.asname or alias.name: alias.name for alias in node.names})
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or "functools" for alias in node.names if alias.name == "functools")

    def factory(node: ast.AST) -> str | None:
        if isinstance(node, ast.Name):
            return imported.get(node.id)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return node.attr
        return None

    def bounded(call: ast.Call) -> bool:
        size = call.args[0] if call.args else None
        size = next((k.value for k in call.keywords if k.arg == "maxsize"), size)
        if isinstance(size, ast.Name):
            value = constants.get(size.id)
        else:
            value = size.value if isinstance(size, ast.Constant) else None
        return type(value) is int and value > 0

    nodes = list(ast.walk(tree))
    calls = {id(node.func) for node in nodes if isinstance(node, ast.Call)}
    found = []
    for node in nodes:
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if name == "OrderedDict" or (
            isinstance(node, ast.alias) and node.name == "OrderedDict"
        ):
            found.append((node.lineno, "OrderedDict"))
        elif factory(node) == "cache":
            found.append((node.lineno, "unbounded cache"))
        elif factory(node) == "lru_cache" and id(node) not in calls:
            found.append((node.lineno, "lru_cache without maxsize"))
        elif isinstance(node, ast.Call) and factory(node.func) == "lru_cache" and not bounded(node):
            found.append((node.lineno, "unbounded lru_cache"))
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Call)
            and factory(node.func.func) == "lru_cache"
            and any(
                isinstance(arg, ast.Attribute)
                and isinstance(arg.value, ast.Name)
                and arg.value.id == "self"
                for arg in node.args
            )
        ):
            found.append((node.lineno, "lru_cache of a bound method"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def openssl_imports(source: str) -> list[str]:
    """Imports of ``OPENSSL_MODULES`` at any depth, outside an ``except ImportError`` fallback."""
    tree = ast.parse(source)
    fallback = {
        id(sub)
        for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler)
        and isinstance(node.type, ast.Name)
        and node.type.id == "ImportError"
        for sub in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if id(node) not in fallback:
            found += [(node.lineno, n) for n in names if n.split(".")[0] in OPENSSL_MODULES]
    return [f"{name} (line {line})" for line, name in sorted(found)]


def named(source: str, names: set[str]) -> list[str]:
    """Every binding or read of ``names``: a name, an attribute, an import or a definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name in names:
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def layout_owner_violations(sources: dict[str, str]) -> list[str]:
    """Kernel names outside ``KERNEL_OWNER``, and ``itemgetter`` in ``GATHER_FREE_MODULES``."""
    found = []
    for module, source in sources.items():
        banned = set() if module == KERNEL_OWNER else set(KERNEL_NAMES)
        if module in GATHER_FREE_MODULES:
            banned.add("itemgetter")
        found += [f"{module}: {hit}" for hit in named(source, banned)]
    return found


def form_slot_violations(sources: dict[str, str]) -> list[str]:
    """Reads or bindings of ``FORM_SLOTS`` outside ``FORM_OWNER``."""
    found = []
    for module, source in sources.items():
        if module != FORM_OWNER:
            found += [f"{module}: {hit}" for hit in named(source, FORM_SLOTS)]
    return found


def test_the_checker_sees_unused_and_used_names():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(c, system.argv)\n"
    assert unused_imports(source) == ["os (line 1)", "d (line 3)"]


def test_the_dead_code_checker_sees_unreferenced_definitions():
    sources = {
        "__init__": "from .a import exported\n",
        "a": (
            "def exported():\n    return helper()\n"
            "def helper():\n    return 1\n"
            "def recursive(n):\n    return recursive(n - 1)\n"
            "class Unused:\n    pass\n"
            "def method_caller(x):\n    return x.used_as_attribute()\n"
            "def used_as_attribute():\n    pass\n"
            "class Record:\n"
            "    def __init__(self):\n        self.helped()\n"
            "    def helped(self):\n        pass\n"
            "    def dead(self):\n        return self.dead()\n"
            "    def read(self):\n        pass\n"
            "    @property\n    def stale(self):\n        return 1\n"
            "def reader(r):\n    return Record().read()\n"
        ),
        "cli": (
            "from .a import reader\n"
            "def main():\n    pass\n"
            "class _Parser:\n    def error(self, message):\n        pass\n"
            "    def unused(self):\n        pass\n"
            "_Parser()\n"
        ),
    }
    assert unreferenced_definitions(sources) == [
        "a.recursive",
        "a.Unused",
        "a.method_caller",
        "a.Record.dead",
        "a.Record.stale",
        "cli._Parser.unused",
    ]


def test_the_layering_checker_sees_upward_and_sideways_imports():
    sources = {
        "exterior": (
            "from .errors import A\nfrom .linalg import B\n"
            "def f():\n    from .graf import C\n    return C\n"
        ),
        "linalg": "from .errors import D\n",
        "graf": "import json\nfrom grafclifford.matrixrep import E\nfrom .exterior import F\n",
        "fierz": "from .shiny import G\n",
        "cli": "from . import __version__\nfrom .classify import H\n",
        "extra": "from .errors import I\n",
    }
    assert layering_violations(sources) == [
        "exterior -> graf (line 4)",
        "linalg -> errors (line 1)",
        "graf -> matrixrep (line 2)",
        "fierz -> shiny (line 1)",
        "extra has no layer",
    ]


def test_the_isinstance_checker_sees_typing_names():
    source = (
        "import typing\n"
        "import typing as t\n"
        "from typing import Mapping, Sequence as Seq, Callable\n"
        "from collections.abc import Iterable\n"
        "def f(x: Callable):\n"
        "    isinstance(x, Mapping)\n"
        "    isinstance(x, (int, Seq))\n"
        "    isinstance(x, typing.Iterable)\n"
        "    isinstance(x, t.Sized)\n"
        "    isinstance(x, Iterable)\n"
        "    isinstance(x, dict)\n"
    )
    assert typing_isinstance_calls(source) == [
        "Mapping (line 6)",
        "Seq (line 7)",
        "typing.Iterable (line 8)",
        "t.Sized (line 9)",
    ]


def test_the_export_checker_sees_names_that_shadow_a_submodule():
    source = (
        "from . import graf\n"
        "from .classify import classify, census\n"
        "from .fierz import covariant as fierz\n"
        "from .cli import main\n"
        "def exterior():\n    pass\n"
        "linalg = 1\n"
        "__version__ = '0'\n"
    )
    stems = {"graf", "classify", "fierz", "cli", "exterior", "linalg"}
    assert exports_shadowing_submodules(source, stems) == [
        "classify (line 2)",
        "fierz (line 3)",
        "exterior (line 5)",
        "linalg (line 7)",
    ]


def test_the_export_checker_sees_stale_missing_and_repeated_names():
    source = (
        "from __future__ import annotations\n"
        "from .errors import GrafError\n"
        "from .exterior import Form, Metric as M\n"
        "__version__ = '0'\n"
        "__all__ = ['__version__', 'GrafError', 'Form', 'Blade', 'Form']\n"
    )
    assert export_mismatches(source) == [
        "M imported, not in __all__",
        "Blade in __all__, not imported",
        "Form listed twice",
    ]


def test_the_library_read_checker_sees_imports_and_attributes():
    source = (
        "from grafclifford.graf import wedge, graf_product\n"
        "from grafclifford import contracted_wedge as cw\n"
        "from .graf import wedge\n"
        "from mylib import wedge\n"
        "import grafclifford.graf as g\n"
        "g.contracted_wedge(1, 2, 0)\n"
        "def wedge_oracle(f, g):\n    return g.graf_product(f, g)\n"
    )
    assert library_reads(source, ORACLE_FORBIDDEN) == [
        "wedge (line 1)",
        "contracted_wedge (line 2)",
        "wedge (line 3)",
        ".contracted_wedge (line 6)",
    ]


def test_the_parameter_checker_sees_structure_and_geometry_parameters():
    sources = {
        "bilinear": (
            "def admissible_pairings(rep, structure=None):\n    pass\n"
            "def isotropy_sign(pairing, rep, structure):\n    pass\n"
        ),
        "classify": (
            "def prepare(geometry, rep, /, alpha):\n    pass\n"
            "class Census:\n    def run(self, *, structure, **geometry):\n        pass\n"
            "pick = lambda geometry: geometry\n"
            "def derived(rep, geo, st):\n    return rep.structure, st.geometry\n"
            "def standard_pairing(rep, structure=None):\n    pass\n"
        ),
    }
    assert derived_parameters(sources) == [
        "bilinear.isotropy_sign(structure) (line 3)",
        "classify.prepare(geometry) (line 1)",
        "classify.standard_pairing(structure) (line 9)",
        "classify.run(structure, geometry) (line 4)",
        "classify.<lambda>(geometry) (line 6)",
    ]


def test_the_parameter_checker_sees_metric_parameters():
    sources = {
        "fierz": (
            "def check(cov, met):\n    pass\n"
            "def profile(rep, pairing):\n    return rep.metric.diagonal\n"
        ),
        "cli": (
            "def header(signature, *, metric=None):\n    pass\n"
            "product = lambda f, g, metric: (f, g)\n"
            "def rows(metrics, meta):\n    pass\n"
        ),
    }
    assert derived_parameters(sources, METRIC_PARAMETERS) == [
        "fierz.check(met) (line 1)",
        "cli.header(metric) (line 1)",
        "cli.<lambda>(metric) (line 3)",
    ]


def test_the_library_read_checker_sees_metric_reads():
    source = (
        "from .exterior import Form, Metric\n"
        "from grafclifford.exterior import Metric as M\n"
        "import grafclifford.exterior as ext\n"
        "ext.Metric.standard(sig)\n"
        "rep.metric.diagonal\n"
        "Metrics = 1\n"
    )
    assert library_reads(source, {"Metric"}) == [
        "Metric (line 1)",
        "Metric (line 2)",
        ".Metric (line 4)",
    ]


def test_the_memo_checker_sees_unbounded_and_per_instance_caches():
    source = (
        "import functools\n"
        "from collections import OrderedDict\n"
        "from functools import cache as memo, cached_property, lru_cache\n"
        "CAP = 8\n"
        "NONE = None\n"
        "@lru_cache(maxsize=CAP)\ndef a(x):\n    return x\n"
        "@functools.lru_cache(16)\ndef b(x):\n    return x\n"
        "@lru_cache\ndef c(x):\n    return x\n"
        "@functools.lru_cache(maxsize=None)\ndef d(x):\n    return x\n"
        "@memo\ndef e(x):\n    return x\n"
        "@lru_cache(maxsize=NONE)\ndef f(x):\n    return x\n"
        "class K:\n"
        "    def __init__(self):\n"
        "        self.rows = OrderedDict()\n"
        "        self.get = lru_cache(maxsize=CAP)(self.build)\n"
        "    @cached_property\n"
        "    def volume(self):\n        return 1\n"
        "kernel = lru_cache(maxsize=CAP)(K)\n"
    )
    assert unbounded_memos(source) == [
        "OrderedDict (line 2)",
        "lru_cache without maxsize (line 12)",
        "unbounded lru_cache (line 15)",
        "unbounded cache (line 18)",
        "unbounded lru_cache (line 21)",
        "OrderedDict (line 26)",
        "lru_cache of a bound method (line 27)",
    ]


def test_the_openssl_checker_sees_hashlib_imports_outside_a_fallback():
    source = (
        "import hashlib\n"
        "import os, _hashlib as h\n"
        "from hashlib import sha256\n"
        "from .hashlib import x\n"
        "def digest(b):\n"
        "    import hashlib as hl\n"
        "    return hl.sha256(b)\n"
        "try:\n"
        "    from _sha2 import sha256\n"
        "except ImportError:\n"
        "    from hashlib import sha256\n"
        "try:\n"
        "    import hashlib\n"
        "except ValueError:\n"
        "    from hashlib import md5\n"
    )
    assert openssl_imports(source) == [
        "hashlib (line 1)",
        "_hashlib (line 2)",
        "hashlib (line 3)",
        "hashlib (line 6)",
        "hashlib (line 13)",
        "hashlib (line 15)",
    ]


def test_the_layout_checker_sees_kernels_and_gathers_outside_their_owner():
    sources = {
        "graf": (
            "from operator import itemgetter\n"
            "class _DiagKernel:\n    pass\n"
            "_kernel = lru_cache(maxsize=8)(_DiagKernel)\n"
            "def _kernel_for(metric):\n    return _kernel(metric)\n"
        ),
        "exterior": "import operator\ndef _kernel_for(metric):\n    return operator.itemgetter(0)\n",
        "matrixrep": "from operator import itemgetter as take\nkernel = {}\n",
        "classify": (
            "from .graf import _kernel_for as kernel_of\n"
            "from . import graf\n"
            "kern = graf._DiagKernel(3, diag)\n"
            "from operator import itemgetter\n"
        ),
    }
    assert layout_owner_violations(sources) == [
        "exterior: _kernel_for (line 2)",
        "exterior: itemgetter (line 3)",
        "matrixrep: itemgetter (line 1)",
        "classify: _kernel_for (line 1)",
        "classify: _DiagKernel (line 3)",
    ]


def test_the_form_slot_checker_sees_the_pair_outside_its_owner():
    sources = {
        "exterior": (
            "class Form:\n    __slots__ = ('_num', '_den')\n"
            "    def numerators(self):\n        return self._num, self._den\n"
        ),
        "graf": (
            "def product(f, g):\n    num, den = f.numerators()\n"
            "    return f._num, g._den\n"
        ),
        "test_fierz": "import grafclifford.exterior as ext\n_den = 2\nlambda f: ext.Form._num\n",
        "classify": "def f(num_, den):\n    return {'_num': num_}, den\n",
    }
    assert form_slot_violations(sources) == [
        "graf: _den (line 3)",
        "graf: _num (line 3)",
        "test_fierz: _den (line 2)",
        "test_fierz: _num (line 3)",
    ]


def test_only_exterior_names_the_form_slots():
    assert form_slot_violations({path.stem: path.read_text() for path in CHECKED}) == []


def test_each_packed_layout_has_one_owner():
    assert layout_owner_violations({path.stem: path.read_text() for path in SRC}) == []


def test_no_library_module_imports_hashlib():
    found = {}
    for path in SRC:
        hits = openssl_imports(path.read_text())
        if hits:
            found[str(path.relative_to(ROOT))] = hits
    assert found == {}


def test_every_library_memo_is_a_bounded_cache_or_a_cached_property():
    found = {}
    for path in SRC:
        hits = unbounded_memos(path.read_text())
        if hits:
            found[str(path.relative_to(ROOT))] = hits
    assert found == {}


def test_no_library_function_takes_a_structure_or_a_geometry():
    assert derived_parameters({path.stem: path.read_text() for path in SRC}) == []


def test_no_layer_above_graf_takes_a_metric():
    sources = {path.stem: path.read_text() for path in SRC if path.stem in FRAME_MODULES}
    assert set(sources) == set(FRAME_MODULES)
    assert derived_parameters(sources, METRIC_PARAMETERS) == []


def test_classify_fierz_and_bilinear_read_no_metric():
    found = {}
    for path in SRC:
        if path.stem in METRIC_FREE_MODULES:
            hits = library_reads(path.read_text(), {"Metric"})
            if hits:
                found[path.stem] = hits
    assert found == {}


def test_the_oracles_read_no_wedge_of_the_library():
    assert library_reads((ROOT / "tests" / "oracles.py").read_text(), ORACLE_FORBIDDEN) == []


def test_no_package_export_shadows_a_submodule():
    init = ROOT / "src" / "grafclifford" / "__init__.py"
    stems = {path.stem for path in SRC} - {"__init__"}
    assert exports_shadowing_submodules(init.read_text(), stems) == []


def test_the_package_exports_exactly_what_it_imports():
    init = ROOT / "src" / "grafclifford" / "__init__.py"
    assert export_mismatches(init.read_text()) == []


def test_a_dotted_submodule_import_binds_the_module():
    import grafclifford.classify as m

    assert isinstance(m, types.ModuleType)
    assert m.__name__ == "grafclifford.classify"


def test_no_isinstance_takes_a_typing_name():
    found = {}
    for path in SRC:
        hits = typing_isinstance_calls(path.read_text())
        if hits:
            found[str(path.relative_to(ROOT))] = hits
    assert found == {}


def test_no_unused_module_level_imports():
    found = {}
    for path in CHECKED:
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}


def test_library_imports_follow_the_layer_order():
    assert layering_violations({path.stem: path.read_text() for path in SRC}) == []


def test_every_library_definition_is_referenced_in_the_library():
    assert unreferenced_definitions({path.stem: path.read_text() for path in SRC}) == []
