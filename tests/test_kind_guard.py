"""The kind of a backend chooses math in one place.

`repcat` and `cocycles` work from D's structure, the DualAlgebra value
that `repcat.dual_algebra` builds from a kind string.  The guard reads
their source: no comparison of a kind (a name `kind` or an attribute
`.kind`) with a string literal may appear outside `dual_algebra` and the
two checks that match a cocycle with its backend and its action.
"""

from __future__ import annotations

import ast

import record_golden

SRC = record_golden.ROOT / "src" / "qact"
GUARDED = ("repcat", "cocycles")
ALLOWED = {"dual_algebra", "_check_cocycle_backend", "_require_matching"}


def _is_kind(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "kind"
            or isinstance(node, ast.Attribute) and node.attr == "kind")


def _has_string(node) -> bool:
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return any(map(_has_string, node.elts))
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def kind_comparisons(source: str, module: str) -> list[tuple[str, int, str]]:
    """(module, line, text) of every comparison of a kind with a string
    literal outside the allowed functions."""
    hits = []

    def visit(node, allowed):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            allowed = allowed or node.name in ALLOWED
        if isinstance(node, ast.Compare) and not allowed:
            sides = [node.left, *node.comparators]
            if any(map(_is_kind, sides)) and any(map(_has_string, sides)):
                hits.append((module, node.lineno, ast.unparse(node)))
        for child in ast.iter_child_nodes(node):
            visit(child, allowed)

    visit(ast.parse(source), False)
    return sorted(hits)


def test_only_dual_algebra_reads_a_kind_string():
    found = [hit for module in GUARDED
             for hit in kind_comparisons((SRC / f"{module}.py").read_text(), module)]
    assert found == []


def test_the_guard_sees_a_kind_comparison():
    source = ("def f(self, kind, act):\n"
              "    if kind == 'dual' or self.kind in ('group', 'dual'):\n"
              "        return act.kind != 'grading' and kind == act.kind\n"
              "def dual_algebra(kind):\n"
              "    return kind == 'group'\n")
    assert kind_comparisons(source, "m") == [
        ("m", 2, "kind == 'dual'"), ("m", 2, "self.kind in ('group', 'dual')"),
        ("m", 3, "act.kind != 'grading'")]
