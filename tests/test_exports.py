import ast
import importlib
import pkgutil
import re
import sys
from pathlib import Path

import pytest

import mxemu

MODULES = ["mxemu"] + [f"mxemu.{m.name}" for m in pkgutil.iter_modules(mxemu.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing
    exec(f"from {name} import *", {})


def _private_uses(tree):
    """Underscore names that a module imports from, or reads off, another mxemu module."""
    modules, found = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("mxemu")):
            for alias in node.names:
                if alias.name.startswith("_"):
                    found.append(alias.name)
                if node.module in (None, "mxemu"):  # "from . import formats" binds a module
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("mxemu"):
                    found += [p for p in alias.name.split(".") if p.startswith("_")]
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and node.attr.startswith("_")
                and not node.attr.endswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


@pytest.mark.parametrize("path", sorted(Path(mxemu.__file__).parent.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_uses_another_modules_private_names(path):
    assert _private_uses(ast.parse(path.read_text())) == []


def test_private_use_check_sees_each_form():
    src = ("from .quantizer import _grouped\nfrom mxemu.formats import _tables\n"
           "from . import analysis\nimport mxemu.gemm as g\nanalysis._seq_sum(g._fold)\n")
    assert _private_uses(ast.parse(src)) == ["_grouped", "_tables", "analysis._seq_sum", "g._fold"]


def _dead_names(tree):
    """Names that a module imports and never reads, unless its __all__ lists
    them, and its module-level private functions, classes and constants
    that it never reads."""
    exported, bound = set(), []
    for node in tree.body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        if "__all__" in names:
            exported = set(ast.literal_eval(node.value))
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        bound += [n for n in names if n.startswith("_") and not n.endswith("__")]
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read | exported]


@pytest.mark.parametrize("path", sorted(set(Path(mxemu.__file__).parent.glob("*.py"))
                                        - {Path(mxemu.__file__)}), ids=lambda p: p.name)
def test_no_module_keeps_an_unused_import_or_private_name(path):
    assert _dead_names(ast.parse(path.read_text())) == []


def test_dead_name_check_sees_each_form():
    src = ("from __future__ import annotations\nimport os.path\nimport numpy as np\n"
           "from dataclasses import dataclass, replace\nfrom .quantizer import group_view\n"
           "__all__ = ['group_view']\n_USED = 1\n_UNUSED: int = 2\n"
           "def _helper():\n    from itertools import chain\n    return np.ones(_USED)\n"
           "@dataclass\nclass _Dead:\n    pass\ndef _seq_sum(a):\n    return _helper(a)\n")
    assert _dead_names(ast.parse(src)) == ["_UNUSED", "_Dead", "_seq_sum", "os", "replace",
                                           "chain"]


def _exported(tree):
    """The names of a module's __all__, empty where it has none."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__"
                                                for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _reads(tree):
    """The names a module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def _unused_exports(modules, elsewhere):
    """module.name for each name in the __all__ of a module of modules (file
    name -> tree) that no other module reads, that the module reads nowhere
    but where it defines it, that no tree of elsewhere reads, and that
    __init__.py does not re-export."""
    reads = {name: _reads(tree) for name, tree in modules.items()}
    used = set().union(*map(_reads, elsewhere))
    used |= {alias.asname or alias.name for node in ast.walk(modules["__init__.py"])
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = []
    for name, tree in modules.items():
        other = set().union(*(r for n, r in reads.items() if n != name))
        unused += [f"{name[:-3]}.{e}" for e in _exported(tree)
                   if e not in used | other | reads[name]]
    return unused


def test_every_export_has_a_caller_outside_the_tests():
    src = Path(mxemu.__file__).parent
    modules = {path.name: ast.parse(path.read_text()) for path in src.glob("*.py")}
    bench = Path(__file__).resolve().parents[1] / "mxbench"
    elsewhere = [ast.parse(path.read_text()) for path in bench.glob("*.py")]
    assert _unused_exports(modules, elsewhere) == []


def test_unused_export_check_sees_each_form():
    modules = {name: ast.parse(src) for name, src in {
        "__init__.py": "from .a import exported\n",
        "a.py": ("__all__ = ['exported', 'own', 'imported', 'attribute', 'bench', 'dead']\n"
                 "def own(): pass\ndef dead(): pass\nx = own()\n"),
        "b.py": "from . import a\nfrom .a import imported\nimported(a.attribute)\n",
    }.items()}
    elsewhere = [ast.parse("from mxemu import scaling\nscaling.bench(1)\n")]
    assert _unused_exports(modules, elsewhere) == ["a.dead"]


def _top_level_imports(tree):
    """The top-level names of the modules that a module imports absolutely."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_top_level_import_check_sees_each_form():
    src = ("import os.path\nimport numpy as np\nfrom scipy.linalg import hadamard\n"
           "from . import gemm\n")
    assert _top_level_imports(ast.parse(src)) == {"os", "numpy", "scipy"}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_declared_dependencies_are_the_imported_packages():
    import tomllib

    root = Path(__file__).resolve().parents[1]
    with open(root / "pyproject.toml", "rb") as fh:
        declared = tomllib.load(fh)["project"]["dependencies"]
    imported = set()
    for path in (root / "src" / "mxemu").glob("*.py"):
        imported |= _top_level_imports(ast.parse(path.read_text()))
    third_party = imported - set(sys.stdlib_module_names) - {"mxemu"}
    assert third_party == {re.match(r"[A-Za-z0-9_.-]+", dep)[0] for dep in declared}
