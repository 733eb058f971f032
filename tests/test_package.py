"""Source-level rules for the package: no catch-all handlers, no assert,
no private helper or constant without a reader, no value equality on array
fields, no block budget read and no lone kernel row joined outside
quadrature, no Cauchy kernel formed anywhere but in faber's target sets, and
no scipy.optimize loaded by the command line."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "faberzol")
                 .glob("*.py"))
CATCH_ALL = {"Exception", "BaseException"}


def _violations(path):
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type
            names = caught.elts if isinstance(caught, ast.Tuple) else [caught]
            if caught is None:
                found.append((node.lineno, "bare except"))
            elif any(isinstance(n, ast.Name) and n.id in CATCH_ALL
                     for n in names):
                found.append((node.lineno, "catch-all except"))
        elif isinstance(node, ast.Assert):
            found.append((node.lineno, "assert statement"))
    return found


def _referenced_names(stmt):
    """Every name a statement reads, imports or looks up as an attribute."""
    names = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _defined_names(stmt):
    """The names a top-level statement defines: a function or class, or the
    plain names an assignment binds (`_NAME = ...`)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _dead_private_helpers(paths):
    """Module-level private functions, classes and constants that no other
    top-level statement of the package refers to (a helper's own body does
    not count, so a recursive helper is not its own caller)."""
    defs, uses = [], []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            refs = _referenced_names(stmt)
            defs.extend((path.name, name, stmt)
                        for name in _defined_names(stmt)
                        if name.startswith("_") and not name.startswith("__"))
            uses.append((stmt, refs))
    return sorted((module, name) for module, name, node in defs
                  if not any(name in refs for stmt, refs in uses
                             if stmt is not node))


def _array_dataclasses_with_value_eq(paths):
    """Classes decorated @dataclass that annotate a field with np.ndarray
    but do not pass eq=False: their generated __eq__ compares the arrays
    (ambiguous truth value) and __hash__ hashes them (unhashable)."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            decorators = [d for d in node.decorator_list
                          if "dataclass" in _referenced_names(d)]
            holds_array = any(
                isinstance(stmt, ast.AnnAssign)
                and "ndarray" in _referenced_names(stmt.annotation)
                for stmt in node.body)
            identity_eq = any(
                kw.arg == "eq" and isinstance(kw.value, ast.Constant)
                and kw.value.value is False
                for d in decorators if isinstance(d, ast.Call)
                for kw in d.keywords)
            if decorators and holds_array and not identity_eq:
                found.append((path.name, node.name))
    return sorted(found)


BUDGETS = {"_CHUNK", "_KERNEL_BLOCK"}


def _block_budget_readers(paths):
    """The modules other than quadrature.py that refer to _CHUNK or
    _KERNEL_BLOCK by name (a docstring does not count): node-by-target
    products take their blocks from quadrature._blocks and kernels from
    quadrature._kernel_blocks, the readers of the budgets."""
    return sorted(path.name for path in paths if path.name != "quadrature.py"
                  and BUDGETS & _referenced_names(ast.parse(
                      path.read_text(), filename=str(path))))


def _lone_row_mergers(paths):
    """(module, line) for every slice(...) built from the start or stop of
    another slice in a module other than quadrature.py: joining blocks,
    such as a lone last row to the block before it, is
    quadrature._kernel_blocks's rule alone."""
    found = []
    for path in paths:
        if path.name == "quadrature.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "slice"
                    and {"start", "stop"} & set().union(
                        *map(_referenced_names, node.args))):
                found.append((path.name, node.lineno))
    return sorted(found)


def _nodes_in_scan(tree):
    """The ids of the nodes inside a class _Scan of tree."""
    return {id(node) for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_Scan"
            for node in ast.walk(cls)}


def _kernels_outside_target_sets(path):
    """(line, name) for every place in path (faber.py) that names
    cauchy_kernel outside the class _Scan, other than its import (a
    docstring does not count): faber forms every kernel in its target
    sets."""
    tree = ast.parse(path.read_text(), filename=str(path))
    in_scan = _nodes_in_scan(tree)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = {alias.name for alias in node.names} - {"cauchy_kernel"}
        elif isinstance(node, ast.Name) and id(node) not in in_scan:
            names = {node.id}
        elif isinstance(node, ast.Attribute) and id(node) not in in_scan:
            names = {node.attr}
        else:
            continue
        found.extend((node.lineno, name)
                     for name in sorted(names & {"cauchy_kernel"}))
    return sorted(found)


def _kernel_calls_outside_faber_scan(paths):
    """(module, line) for every call of cauchy_kernel, by name or as an
    attribute, anywhere but inside the class _Scan of faber.py: the target
    sets there are the one place that builds a Cauchy kernel, and their
    parts (faber._parts) the one place that blocks its targets."""
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        in_scan = _nodes_in_scan(tree) if path.name == "faber.py" else set()
        for node in ast.walk(tree):
            func = node.func if isinstance(node, ast.Call) else None
            name = (func.id if isinstance(func, ast.Name) else
                    func.attr if isinstance(func, ast.Attribute) else None)
            if name == "cauchy_kernel" and id(node) not in in_scan:
                found.append((path.name, node.lineno))
    return sorted(found)


def test_sources_are_found():
    assert any(path.name == "__init__.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_catch_all_handlers_or_asserts(path):
    assert _violations(path) == []


def test_every_private_helper_has_a_caller():
    assert _dead_private_helpers(SOURCES) == []


def test_only_quadrature_reads_the_block_budget():
    assert _block_budget_readers(SOURCES) == []


def test_only_quadrature_joins_kernel_blocks():
    assert _lone_row_mergers(SOURCES) == []


def test_faber_forms_kernels_only_in_its_target_sets():
    faber = next(path for path in SOURCES if path.name == "faber.py")
    assert _kernels_outside_target_sets(faber) == []


def test_only_faber_target_sets_call_cauchy_kernel():
    assert _kernel_calls_outside_faber_scan(SOURCES) == []


def test_the_cli_loads_no_scipy_optimize():
    # every command is a fresh process, and importing scipy.optimize costs
    # about a third of its start-up
    code = ("import sys, faberzol.cli; print(sorted(name for name in "
            "sys.modules if name.startswith('scipy.optimize')))")
    env = dict(os.environ, PYTHONPATH=str(SOURCES[0].parents[1]))
    run = subprocess.run([sys.executable, "-c", code], env=env, timeout=120,
                         capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"


def test_array_dataclasses_compare_by_identity():
    assert _array_dataclasses_with_value_eq(SOURCES) == []


def test_an_array_dataclass_with_value_eq_is_reported(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n\n"
        "import numpy as np\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Frozen:\n    a: np.ndarray\n\n\n"
        "@dataclass\n"
        "class Bare:\n    a: np.ndarray | None\n\n\n"
        "@dataclasses.dataclass(eq=True)\n"
        "class Qualified:\n    a: np.ndarray\n\n\n"
        "@dataclass(frozen=True, eq=False)\n"
        "class Identity:\n    a: np.ndarray\n\n\n"
        "@dataclass(frozen=True)\n"
        "class Scalars:\n    a: float\n"
    )
    assert _array_dataclasses_with_value_eq([source]) == [
        ("mod.py", "Bare"), ("mod.py", "Frozen"), ("mod.py", "Qualified")]


def test_a_helper_without_a_caller_is_reported(tmp_path):
    source = tmp_path / "mod.py"
    source.write_text(
        "def _used():\n    return 1\n\n\n"
        "def _dead():\n    return _dead()\n\n\n"
        "class _Shape:\n    pass\n\n\n"
        "_SCALE = 2.0\n"
        "_MARGIN: float = 1e-3\n"
        "_KNOB = _KNOB_DEFAULT = 1\n"
        "__all__ = ['public']\n\n\n"
        "def public():\n    return _used() * _SCALE\n"
    )
    assert _dead_private_helpers([source]) == [
        ("mod.py", "_KNOB"), ("mod.py", "_KNOB_DEFAULT"), ("mod.py", "_MARGIN"),
        ("mod.py", "_Shape"), ("mod.py", "_dead")]


def test_a_module_reading_the_block_budget_is_reported(tmp_path):
    for name, text in {
        "quadrature.py": "_CHUNK = 1 << 19\n",
        "imported.py": "from .quadrature import _CHUNK\n",
        "attribute.py": "from . import quadrature\n\n"
                        "STEP = quadrature._CHUNK // 8\n",
        "documented.py": '"""Blocks of at most _CHUNK entries."""\n',
        "kernel.py": "from .quadrature import _blocks, _KERNEL_BLOCK\n",
        "cap.py": "from . import quadrature\n\n"
                  "CAP = 2 * quadrature._KERNEL_BLOCK\n",
    }.items():
        (tmp_path / name).write_text(text)
    assert _block_budget_readers(sorted(tmp_path.glob("*.py"))) == [
        "attribute.py", "cap.py", "imported.py", "kernel.py"]


def test_a_module_joining_lone_rows_is_reported(tmp_path):
    for name, text in {
        "quadrature.py": "def _join(blocks):\n"
                         "    return slice(blocks[0].start, blocks[1].stop)\n",
        "merged.py": "def _parts(blocks):\n"
                     "    if blocks[-1].stop - blocks[-1].start == 1:\n"
                     "        blocks[-2:] = [slice(blocks[-2].start,\n"
                     "                             blocks[-1].stop)]\n"
                     "    return blocks\n",
        "widened.py": "def _wide(block, n):\n"
                      "    return slice(max(0, block.start - 1), n)\n",
        "plain.py": "def _rows(a, block):\n"
                    "    return a[block.start:block.stop], slice(0, 4)\n",
    }.items():
        (tmp_path / name).write_text(text)
    assert _lone_row_mergers(sorted(tmp_path.glob("*.py"))) == [
        ("merged.py", 3), ("widened.py", 2)]


def test_a_kernel_formed_outside_the_target_sets_is_reported(tmp_path):
    source = tmp_path / "faber.py"
    source.write_text(
        '"""Never through cauchy_kernel."""\n'
        "from . import quadrature\n"
        "from .quadrature import cauchy_kernel\n\n\n"
        "class _Scan:\n"
        "    def across_e(self):\n"
        "        return cauchy_kernel(self.quad_e, self.z)\n\n\n"
        "def _direct(quad, z):\n"
        "    return cauchy_kernel(quad, z)\n\n\n"
        "def _qualified(quad, z):\n"
        "    return quadrature.cauchy_kernel(quad, z)\n\n\n"
        "def _passed(quad, z, build=cauchy_kernel):\n"
        "    return build(quad, z)\n"
    )
    assert _kernels_outside_target_sets(source) == [
        (12, "cauchy_kernel"), (16, "cauchy_kernel"), (19, "cauchy_kernel")]


def test_a_kernel_call_outside_faber_scan_is_reported(tmp_path):
    for name, text in {
        "faber.py": "from . import quadrature\n"
                    "from .quadrature import cauchy_kernel\n\n\n"
                    "class _Scan:\n"
                    "    def across_e(self):\n"
                    "        return cauchy_kernel(self.quad_e, self.z)\n\n\n"
                    "def _direct(quad, z):\n"
                    "    return quadrature.cauchy_kernel(quad, z)\n",
        "quadrature.py": '"""Built by cauchy_kernel(quad, z)."""\n\n\n'
                         "def cauchy_kernel(quad, z):\n"
                         "    return quad, z\n\n\n"
                         "def _kernels(quad, z):\n"
                         "    for block in range(2):\n"
                         "        yield cauchy_kernel(quad, z[block])\n",
        "other.py": "from .quadrature import cauchy_kernel\n\n\n"
                    "class _Scan:\n"
                    "    def across_e(self):\n"
                    "        return cauchy_kernel(self.quad_e, self.z)\n",
    }.items():
        (tmp_path / name).write_text(text)
    assert _kernel_calls_outside_faber_scan(sorted(tmp_path.glob("*.py"))) == [
        ("faber.py", 11), ("other.py", 6), ("quadrature.py", 10)]
