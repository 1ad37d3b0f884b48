"""Every threshold of the library is a name of `qact.thresholds`.

The guard reads the source of src/qact: outside the policy module, no
numeric literal 0 < |x| < 1e-3 (a cutoff, floor or tolerance written out)
and no product of a number and `tol` (a pass factor written out) may
appear.  The policy module holds only numbers, each with a docstring that
says whether `--tolerance` moves it, and every one of them is read
somewhere.  `fixtures` is exempt: its numbers are data, not decisions.
"""

from __future__ import annotations

import ast

import record_golden

SRC = record_golden.ROOT / "src" / "qact"
POLICY = "thresholds"
EXEMPT = {"fixtures"}


def _is_number(node) -> bool:
    return (isinstance(node, ast.Constant) and isinstance(node.value, (int, float, complex))
            and not isinstance(node.value, bool))


def _is_string(node) -> bool:
    return isinstance(node, ast.Constant) and isinstance(node.value, str)


def _is_tol(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "tol"
            or isinstance(node, ast.Attribute) and node.attr == "tol")


def bare_thresholds(source: str, module: str) -> list[tuple[str, int, str]]:
    """(module, line, text) of every numeric literal 0 < |x| < 1e-3 and of
    every product of a number and tol in the source of one module."""
    hits = []
    for node in ast.walk(ast.parse(source)):
        if _is_number(node) and 0 < abs(node.value) < 1e-3:
            hits.append((module, node.lineno, repr(node.value)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
            sides = (node.left, node.right)
            if any(map(_is_number, sides)) and any(map(_is_tol, sides)):
                hits.append((module, node.lineno, ast.unparse(node)))
    return sorted(hits)


def test_no_bare_threshold_outside_the_policy():
    found = [hit for path in sorted(SRC.glob("*.py")) if path.stem not in EXEMPT | {POLICY}
             for hit in bare_thresholds(path.read_text(), path.stem)]
    assert found == []


def test_every_policy_name_is_documented_and_read():
    body = ast.parse((SRC / f"{POLICY}.py").read_text()).body
    names = []
    for i, node in enumerate(body[1:], 1):
        if isinstance(node, ast.Expr):
            continue
        # constants only: each a number, followed by its docstring, which
        # says whether --tolerance moves it
        assert isinstance(node, ast.Assign) and _is_number(node.value), ast.unparse(node)
        nxt = body[i + 1] if i + 1 < len(body) else None
        doc = nxt.value.value if isinstance(nxt, ast.Expr) and _is_string(nxt.value) else ""
        assert "Fixed." in doc or "`--tolerance`" in doc, ast.unparse(node)
        names += [t.id for t in node.targets]
    read = set()
    for path in SRC.glob("*.py"):
        if path.stem != POLICY:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
    assert names and [name for name in names if name not in read] == []


def test_the_guard_sees_a_bare_threshold():
    source = ("def f(r, tol, g):\n"
              "    if r < 1e-8 or r > -1e-12:\n"
              "        return r < 100 * tol and r < g.tol * 1e4\n"
              "    return r > 0.5 and r < tol * g.order and r < 2 * g.n\n")
    assert bare_thresholds(source, "m") == [
        ("m", 2, "1e-08"), ("m", 2, "1e-12"), ("m", 3, "100 * tol"), ("m", 3, "g.tol * 10000.0")]
