"""Static check: no module-level import goes unused.

No linter is a dependency of this project, so this stdlib ``ast`` pass
stands in for one.  A name bound by a module-level ``import`` must be
read somewhere in the module; re-exports from the package
``__init__.py`` are exempt, as is ``from __future__ import ...``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted((ROOT / "src" / "grafclifford").glob("*.py")) + sorted(
    (ROOT / "tests").glob("*.py")
)


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


def test_the_checker_sees_unused_and_used_names():
    source = "import os\nimport sys as system\nfrom a.b import c, d\nprint(c, system.argv)\n"
    assert unused_imports(source) == ["os (line 1)", "d (line 3)"]


def test_no_unused_module_level_imports():
    found = {}
    for path in CHECKED:
        if path.name == "__init__.py":
            continue
        unused = unused_imports(path.read_text())
        if unused:
            found[str(path.relative_to(ROOT))] = unused
    assert found == {}
