"""Static checks on the package source and on the tests."""

import ast
import re
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "advbound"

# The package __init__ imports names only to re-export them.
MODULES = sorted(p for p in SOURCE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read anywhere in the module."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in read]


def test_modules_are_found():
    assert {p.name for p in MODULES} >= {"adversary.py", "boolfn.py", "cli.py", "solver.py"}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_scan_sees_one():
    source = "from __future__ import annotations\nimport math\nimport os.path\nfrom x import y as z\nos.sep\n"
    assert unused_imports(source) == ["math", "z"]


TESTS = Path(__file__).resolve().parent

#: A warning filter that ignores: tier-1 turns RuntimeWarnings into errors, and
#: an exemption would let an overflow in the program pass unseen again.
IGNORING_FILTER = re.compile(r"""filterwarnings\(\s*["']ignore""")


def ignoring_filters(source: str) -> list[int]:
    """Line numbers of warning filters that ignore something."""
    return [n for n, line in enumerate(source.splitlines(), 1) if IGNORING_FILTER.search(line)]


@pytest.mark.parametrize("path", sorted(TESTS.rglob("*.py")), ids=lambda p: p.name)
def test_no_test_ignores_warnings(path):
    assert ignoring_filters(path.read_text()) == []


def test_ignoring_filter_scan_sees_them():
    word = "ign" + "ore"  # split, so that this file passes its own scan
    source = (
        f'@pytest.mark.filterwarnings("{word}::RuntimeWarning")\n'
        f"warnings.filterwarnings( '{word}')\n"
        '@pytest.mark.filterwarnings("error::RuntimeWarning")\n'
    )
    assert ignoring_filters(source) == [1, 2]
