"""Every name a module of the package imports is used in it: a deletion leaves no stale import behind."""

import ast
from pathlib import Path

import pytest

import bridgelines

MODULES = sorted(p for p in Path(bridgelines.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module's imports that no other node of it reads.

    An import line marked `# noqa` (a deliberate re-export) and `from __future__` are skipped.
    """
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa" not in lines[alias.lineno - 1]:
                    bound[(alias.asname or alias.name).split(".")[0]] = alias.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_guard_sees_a_stale_import_and_honours_noqa():
    source = "import math\nfrom .core import DomainError, _avoids\nfrom .core import Kept  # noqa: F401\n_avoids()\n"
    assert _unused_imports(source) == ["line 1: math", "line 2: DomainError"]
