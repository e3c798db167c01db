"""Static checks on the package source and on the tests."""

import ast
import importlib
import re
from pathlib import Path

import numpy as np
import pytest

import advbound

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


def private_definitions(tree: ast.Module) -> set[str]:
    """Module-level names bound by a def, class or assignment that start with
    one underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def read_names(tree: ast.Module) -> set[str]:
    """Every name the module loads, reads as an attribute, or imports."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module:name`` for each module-level private name no module reads."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(*map(read_names, trees.values()))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in private_definitions(tree)
        if name not in read
    )


def test_no_unread_private_names():
    sources = {p.name: p.read_text() for p in SOURCE.glob("*.py")}
    assert unread_private_names(sources) == []


def test_unread_private_name_scan_sees_them():
    sources = {
        "a.py": "_X = 1\n_y: int = 2\ndef _f():\n    return _X\ndef _g():\n    pass\nclass _C:\n    pass\n",
        "b.py": "from .a import _f\n__all__ = []\n",
    }
    assert unread_private_names(sources) == ["a.py:_C", "a.py:_g", "a.py:_y"]


def public_definitions(tree: ast.Module) -> set[str]:
    """Module-level functions and classes, and the methods of module-level
    classes as ``Class.method``, whose names do not start with an underscore."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        if isinstance(node, ast.ClassDef):
            names.update(
                f"{node.name}.{n.name}"
                for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            )
    return {n for n in names if not n.rsplit(".", 1)[-1].startswith("_")}


#: Names of the public methods of the builtin containers and of arrays.
BUILTIN_METHODS = {
    name for kind in (str, list, tuple, dict, np.ndarray) for name in dir(kind)
    if not name.startswith("_")
}


def dataclass_fields(tree: ast.Module) -> set[str]:
    """The fields of every class the module decorates with ``dataclass``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
            "dataclass" in {n.id for n in ast.walk(d) if isinstance(n, ast.Name)}
            for d in node.decorator_list
        ):
            names.update(
                n.target.id
                for n in node.body
                if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)
            )
    return names


def shadowed_methods(sources: dict[str, str], readers: list[str]) -> list[str]:
    """``module:Class.method`` for each public method whose name is also a
    dataclass field of ``sources`` or ``readers``, or a method of a builtin
    container or an array: a read of that name may be a read of the other."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    shadows = BUILTIN_METHODS.union(
        *map(dataclass_fields, trees.values()),
        *(dataclass_fields(ast.parse(r)) for r in readers),
    )
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if "." in name and name.rsplit(".", 1)[1] in shadows
    )


def unread_public_names(sources: dict[str, str], readers: list[str], listed) -> list[str]:
    """``module:name`` for each public definition that no module of
    ``sources`` but ``__init__.py`` and no source in ``readers`` reads: a
    re-export or a place in ``__all__`` is not a caller.  A shadowed method
    counts as read only when it is in ``listed``."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set().union(
        *(read_names(tree) for module, tree in trees.items() if module != "__init__.py"),
        *(read_names(ast.parse(r)) for r in readers),
    )
    shadowed = set(shadowed_methods(sources, readers))
    return sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in public_definitions(tree)
        if (
            f"{module}:{name}" not in listed
            if f"{module}:{name}" in shadowed
            else name.rsplit(".", 1)[-1] not in read
        )
    )


def misnamed_readers(files: dict[str, str], listed: dict[str, str]) -> list[str]:
    """The entries of ``listed`` whose reader, ``module:function`` or
    ``module:Class.method`` in ``files``, does not read the method's name."""
    bad = []
    for method, reader in listed.items():
        name = method.rsplit(".", 1)[1]
        module, qualname = reader.split(":")
        scope = [ast.parse(files.get(module, ""))]
        for part in qualname.split("."):
            scope = [
                n
                for node in scope
                for n in node.body
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and n.name == part
            ]
        if not any(
            isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr == name
            for node in scope
            for n in ast.walk(node)
        ):
            bad.append(method)
    return bad


PERFBENCH = SOURCE.parent.parent / "perfbench"

#: The public methods whose name is shadowed (``shadowed_methods``), each with
#: a function of the package or the benchmark that reads it.
SHADOWED_READERS = {
    "solver.py:CompositionReport.ok": "cli.py:_cmd_verify_composition",
}


def test_no_unread_public_names():
    sources = {p.name: p.read_text() for p in SOURCE.glob("*.py")}
    readers = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert readers
    assert unread_public_names(sources, readers, SHADOWED_READERS) == []


def test_listed_shadowed_methods_are_shadowed_and_read_by_their_readers():
    sources = {p.name: p.read_text() for p in SOURCE.glob("*.py")}
    bench = {p.name: p.read_text() for p in PERFBENCH.glob("*.py")}
    assert not sources.keys() & bench.keys()
    assert set(SHADOWED_READERS) <= set(shadowed_methods(sources, list(bench.values())))
    assert misnamed_readers(sources | bench, SHADOWED_READERS) == []


def test_unread_public_name_scan_sees_them():
    sources = {
        "a.py": (
            "def f():\n    pass\n"
            "def g():\n    return f()\n"
            "class C:\n    def m(self):\n        pass\n"
            "    def n(self):\n        pass\n    def _p(self):\n        pass\n"
            "class D:\n    pass\n"
            "def _h():\n    pass\n"
        ),
        "b.py": "from .a import g\n",
        "__init__.py": "from .a import C, D\n__all__ = ['C', 'D']\n",
    }
    assert unread_public_names(sources, ["x.n()\n"], {}) == ["a.py:C", "a.py:C.m", "a.py:D"]


def test_shadowed_method_counts_as_read_only_when_listed():
    # R.index is a field, and count a list method: reads of r.index and
    # xs.count do not show that C.index and C.count are read.
    sources = {
        "a.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\nclass R:\n    index: int\n"
            "class C:\n    def index(self):\n        pass\n"
            "    def count(self):\n        pass\n    def m(self):\n        pass\n"
            "def f(r, xs):\n    return r.index, xs.count(1), C().m()\n"
        ),
    }
    readers = ["from a import R, f\n"]
    assert shadowed_methods(sources, readers) == ["a.py:C.count", "a.py:C.index"]
    assert unread_public_names(sources, readers, {}) == ["a.py:C.count", "a.py:C.index"]
    listed = {"a.py:C.index": "a.py:f"}
    assert unread_public_names(sources, readers, listed) == ["a.py:C.count"]
    assert misnamed_readers(sources, listed) == []
    wrong = {"a.py:C.count": "a.py:C.m", "a.py:C.index": "a.py:gone"}
    assert misnamed_readers(sources, wrong) == ["a.py:C.count", "a.py:C.index"]


#: The package modules the benchmark reads from.
PACKAGE_MODULES = ("adversary", "boolfn", "cli", "solver", "specmat")
SUBMODULES = {f"advbound.{m}" for m in PACKAGE_MODULES}


def package_reads(source: str) -> set[tuple[str, str]]:
    """(module, name) for each name that ``source`` imports from a module of
    ``PACKAGE_MODULES`` or reads as an attribute of one it imported.  A star
    import and an attribute store read no name."""
    tree = ast.parse(source)
    aliases, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "advbound":
            aliases.update(
                (a.asname or a.name, a.name) for a in node.names if a.name in PACKAGE_MODULES
            )
        elif isinstance(node, ast.ImportFrom) and node.module in SUBMODULES:
            reads.update((node.module.split(".")[1], a.name) for a in node.names if a.name != "*")
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            reads.add((aliases[node.value.id], node.attr))
    return reads


def missing_package_names(sources: list[str]) -> list[str]:
    """``module.name`` for each name the sources read from the package that
    the package does not have."""
    reads = set().union(*map(package_reads, sources))
    return sorted(
        f"{module}.{name}"
        for module, name in reads
        if not hasattr(importlib.import_module(f"advbound.{module}"), name)
    )


def test_benchmark_reads_only_names_the_package_has():
    readers = [p.read_text() for p in PERFBENCH.glob("*.py")]
    assert readers
    assert missing_package_names(readers) == []


def test_missing_package_name_scan_sees_them():
    source = (
        "from advbound import adversary as adv, solver\n"
        "from advbound.specmat import SymMatrix, gone_class\n"
        "from advbound.boolfn import *\n"
        "adv.mm_value(adv.gone_function())\n"
        "solver.certify(x).gone_field\n"
        "solver.gone_store = 1\n"
        "specmat.gone_unimported\n"
    )
    assert missing_package_names([source]) == ["adversary.gone_function", "specmat.gone_class"]


def test_exported_names_exist():
    assert [name for name in advbound.__all__ if not hasattr(advbound, name)] == []



def callers_of_all(source: str, names: set[str]) -> list[str]:
    """The functions, at any depth, whose bodies read every name of ``names``."""
    return sorted(
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and names <= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    )


def test_one_function_chooses_between_the_norm_solvers():
    # block_norms for dense crossing blocks, edge_norm for sparse ones.
    choosers = {
        path.name: callers_of_all(path.read_text(), {"block_norms", "edge_norm"})
        for path in MODULES
    }
    assert {m: c for m, c in choosers.items() if c} == {"adversary.py": ["_crossing_norms"]}


def test_caller_scan_sees_them():
    source = (
        "def f():\n    return a(b)\n"
        "def g():\n    def h():\n        return a, b\n    return h\n"
        "def k():\n    return a\n"
    )
    assert callers_of_all(source, {"a", "b"}) == ["f", "g", "h"]

#: Randomness in the package: the solve must be deterministic, with no seed
#: to report.
RANDOM = re.compile(r"\bnp\.random\b|\bdefault_rng\b")


def random_uses(source: str) -> list[int]:
    """Line numbers that draw on numpy's random generators."""
    return [n for n, line in enumerate(source.splitlines(), 1) if RANDOM.search(line)]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_draws_random_numbers(path):
    assert random_uses(path.read_text()) == []


def test_random_use_scan_sees_them():
    source = (
        "rng = np.random.default_rng(0)\n"
        "from numpy.random import default_rng\n"
        "x = np.randomize\n"
        "z = 0.3 * np.random.standard_normal(4)\n"
    )
    assert random_uses(source) == [1, 2, 4]


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
