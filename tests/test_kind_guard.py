"""The kind of a backend chooses math in one place.

`repcat` and `cocycles` work from D's structure, the DualAlgebra value
that `repcat.dual_algebra` builds from a kind string, and so do the
module half of `actions` (an equivariant module is its comodule over D)
and the spectral solver of a rebuilt algebra (its coaction is a D-module).
The guard reads their source: no comparison of a kind (a name `kind` or
an attribute `.kind`) with a string literal may appear in `repcat` or
`cocycles` outside `dual_algebra` and the two checks that match a cocycle
with its backend and its action, nor anywhere in the functions and
classes of the module half of `actions`, in `actions._spectral_tuples`
and `actions.algebra_spectral_functor`, or in
`ReconstructedAlgebra.coaction_matrix`.
"""

from __future__ import annotations

import ast

import record_golden

SRC = record_golden.ROOT / "src" / "qact"
GUARDED = ("repcat", "cocycles")
ALLOWED = {"dual_algebra", "_check_cocycle_backend", "_require_matching"}
# the module half of actions; the action half (Action, the spectral
# equations, module_from_algebra) still reads the action's kind
MODULE_HALF = {"EquivariantModule", "_tensor_comodule", "_right_linearity_rows",
               "_equivariant_maps", "module_functor", "_tuple_space", "fullness_check",
               "canonical_module_iso"}
# the spectral solver over D and the algebra side that reaches it through it
SOLVER = {"_spectral_tuples", "algebra_spectral_functor"}


def _is_kind(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "kind"
            or isinstance(node, ast.Attribute) and node.attr == "kind")


def _has_string(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_has_string, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def kind_comparisons(source: str, module: str, within=None) -> list[tuple[str, int, str]]:
    """(module, line, text) of every comparison of a kind with a string
    literal outside the allowed functions; given `within`, a set of names,
    only inside the functions and classes of those names."""
    hits = []

    def visit(node, skipped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in ALLOWED:
                skipped = True
            elif node.name in (within or ()):
                skipped = False
        if isinstance(node, ast.Compare) and not skipped:
            sides = [node.left, *node.comparators]
            if any(map(_is_kind, sides)) and any(map(_has_string, sides)):
                hits.append((module, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, skipped)

    visit(ast.parse(source), within is not None)
    return sorted(hits)


def test_only_dual_algebra_reads_a_kind_string():
    found = [hit for module in GUARDED
             for hit in kind_comparisons((SRC / f"{module}.py").read_text(), module)]
    assert found == []


def test_the_module_half_of_actions_reads_no_kind_string():
    source = (SRC / "actions.py").read_text()
    defined = {node.name for node in ast.parse(source).body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert MODULE_HALF <= defined  # a renamed function would leave the guard
    assert kind_comparisons(source, "actions", MODULE_HALF) == []


def test_the_spectral_solver_of_a_rebuilt_algebra_reads_no_kind_string():
    source = (SRC / "actions.py").read_text()
    defined = {node.name for node in ast.parse(source).body if isinstance(node, ast.FunctionDef)}
    assert SOLVER <= defined
    assert kind_comparisons(source, "actions", SOLVER) == []
    assert kind_comparisons((SRC / "reconstruction.py").read_text(), "reconstruction",
                            {"coaction_matrix"}) == []


def test_the_guard_sees_a_kind_comparison():
    source = ("def f(self, kind, act):\n"
              "    if kind == 'dual' or self.kind in ('group', 'dual'):\n"
              "        return act.kind != 'grading' and kind == act.kind\n"
              "def dual_algebra(kind):\n"
              "    return kind == 'group'\n")
    assert kind_comparisons(source, "m") == [
        ("m", 2, "kind == 'dual'"), ("m", 2, "self.kind in ('group', 'dual')"),
        ("m", 3, "act.kind != 'grading'")]


def test_the_guard_sees_a_kind_comparison_in_the_module_half():
    source = ("def spectral_basis(act):\n"
              "    return act.kind == 'automorphism'\n"
              "class EquivariantModule:\n"
              "    def grades(self):\n"
              "        return self.action.kind == 'grading'\n"
              "def _tuple_space(module):\n"
              "    def rows():\n"
              "        return 'grading' != module.action.kind\n"
              "    return rows\n")
    assert kind_comparisons(source, "m", {"EquivariantModule", "_tuple_space"}) == [
        ("m", 5, "self.action.kind == 'grading'"),
        ("m", 8, "'grading' != module.action.kind")]
