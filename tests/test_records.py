"""Records are plain classes, only the process entry touches the collector,
nothing draws random numbers, and a failed check raises nothing.

The record classes of qact write their `__init__` out instead of having
`dataclasses` generate and exec it when a layer is imported, so no module
of qact may import `dataclasses` or call `exec` or `eval`.  The process
entry, `qact/__main__.py`, is the one module that calls into `gc`.  No
module imports `numpy.random` or calls `default_rng`: every check is exact
over a basis, and a verb that loaded `numpy.random` would pay its import.
The five read-only records refuse assignment and deletion, and still cache
their cached properties.  The exception classes qact defines are the input
errors of `errors.py`, `groups.GroupError` and
`blockdecomp.DecompositionError`, so a check that fails stays a report
section and cannot turn into a raised exception again.
"""

from __future__ import annotations

import ast
import builtins
import subprocess
import sys

import pytest

from qact.algebras import BlockAlgebra
from qact.fixtures import standard_backends
from qact.groups import cyclic_group
from qact.repcat import dual_algebra

import record_golden

SRC = record_golden.ROOT / "src" / "qact"
FIXTURES = record_golden.ROOT / "fixtures"


def _imports(tree) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def _called_names(tree) -> set[str]:
    return {node.func.id for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}


def _modules():
    paths = sorted(SRC.glob("*.py"))
    assert {"__main__.py", "cli.py", "repcat.py"} <= {p.name for p in paths}
    return {p.name: ast.parse(p.read_text()) for p in paths}


def test_no_module_imports_dataclasses_or_runs_generated_code():
    found = [(name, hit) for name, tree in _modules().items()
             for hit in sorted((_imports(tree) & {"dataclasses"})
                               | (_called_names(tree) & {"exec", "eval", "compile"}))]
    assert found == []


def test_no_module_imports_numpy_random_or_calls_default_rng():
    found = []
    for name, tree in _modules().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found += [(name, a.name) for a in node.names if a.name.startswith("numpy.random")]
            elif isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("numpy.random") or (
                        node.module == "numpy" and any(a.name == "random" for a in node.names)):
                    found.append((name, node.module))
            elif isinstance(node, ast.Attribute) and node.attr in ("random", "default_rng"):
                found.append((name, node.attr))
            elif isinstance(node, ast.Name) and node.id == "default_rng":
                found.append((name, node.id))
    assert found == []


def test_only_the_process_entry_touches_the_collector():
    touching = {name for name, tree in _modules().items() if "gc" in _imports(tree)}
    assert touching == {"__main__.py"}


def _exception_classes(trees) -> set[tuple[str, str]]:
    """(module file, class name) of every class defined in the trees,
    nested ones too, that derives from a builtin exception or from another
    such class, its bases read by name."""
    builtin = {name for name, obj in vars(builtins).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)}
    classes = [(name, node) for name, tree in trees.items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    found: set = set()
    while True:
        known = builtin | {cls for _, cls in found}
        more = {(name, node.name) for name, node in classes
                if any((b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)) in known
                       for b in node.bases)}
        if more <= found:
            return found
        found |= more


def test_the_only_exceptions_are_the_input_errors_and_two_library_failures():
    # a failed check is a report section: qact raises only the input errors
    # of errors.py, a group element that does not exist and a decomposition
    # that finds no block structure
    trees = _modules()
    errors = {("errors.py", node.name) for node in trees["errors.py"].body
              if isinstance(node, ast.ClassDef)}
    assert len(errors) >= 6
    assert _exception_classes(trees) == errors | {("groups.py", "GroupError"),
                                                  ("blockdecomp.py", "DecompositionError")}


def test_the_exception_guard_sees_nested_and_derived_classes():
    tree = ast.parse("class A(ValueError):\n    pass\n"
                     "class B(A):\n    pass\n"
                     "def f():\n    class C(errors.B):\n        pass\n"
                     "class D(dict):\n    pass\n")
    assert _exception_classes({"m.py": tree}) == {("m.py", "A"), ("m.py", "B"), ("m.py", "C")}


def test_a_verb_runs_without_loading_dataclasses(tmp_path):
    argv = ["spectral", "--backend", str(FIXTURES / "backends/s3.json"),
            "--input", str(FIXTURES / "actions/s3_translation.json"),
            "--report", str(tmp_path / "r.json")]
    code = ("import sys; from qact.__main__ import run; "
            f"sys.argv[1:] = {argv!r}; assert run() == 0; "
            "print('dataclasses' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=300)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def _read_only_records():
    group = cyclic_group(3)
    s3 = standard_backends()["s3"]
    return {
        "GroupPresentation": (group, "name"),
        "BlockAlgebra": (BlockAlgebra((1, 2)), "blocks"),
        "DualAlgebra": (dual_algebra("group", group), "unit"),
        "Irrep": (s3.irreps["std"], "matrices"),
        "ConjugateSolution": (s3.conjugate_solution("std"), "r"),
    }


@pytest.mark.parametrize("name", ["GroupPresentation", "BlockAlgebra", "DualAlgebra",
                                  "Irrep", "ConjugateSolution"])
def test_read_only_records_refuse_assignment_and_deletion(name):
    record, field = _read_only_records()[name]
    assert type(record).__name__ == name
    before = getattr(record, field)
    for attribute in (field, "new_attribute"):
        with pytest.raises(AttributeError, match="read-only"):
            setattr(record, attribute, None)
        with pytest.raises(AttributeError, match="read-only"):
            delattr(record, attribute)
    assert getattr(record, field) is before and not hasattr(record, "new_attribute")


def test_read_only_records_keep_their_cached_properties():
    algebra = BlockAlgebra((1, 2))
    assert (algebra.n, algebra.dim) == (3, 5)
    assert algebra.n == 3 and vars(algebra)["dim"] == 5  # cached on the instance
    dual = dual_algebra("dual", cyclic_group(3))
    assert dual.left_partners is dual.left_partners
