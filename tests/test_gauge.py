"""Every orthonormal basis the library picks is a gauge: the functor data of
an action is defined only up to the bases of its spectral subspaces and of
the intertwiner spaces Mor(alpha x beta, gamma).

The gauge tests rotate the routines that pick those bases
(`blockdecomp.row_spaces`, `blockdecomp.column_span` and, for group
backends, `repcat.Backend._mor_stack`), first by a sign flip and then by
one seeded unitary on the count axis, and replay the recorded runs of
`record_golden.record` under each rotation.  Every exit code and flag must
be the recorded one and every float within 1e-12 of its record.  The rule
of `record_golden.check` that a recorded zero stays zero does not apply
here: an exact zero may record the bases this LAPACK returns.  The unitary
depends only on the seed and the shape, so a functor file written under a
gauge reads back under the same gauge.

The guard test keeps the choices in those routines: no other code in
src/qact takes singular vectors or eigenvectors, except a named list of
uses whose result does not depend on them.
"""

from __future__ import annotations

import ast

import numpy as np
import pytest

import record_golden
from qact import blockdecomp
from qact.repcat import Backend

SRC = record_golden.ROOT / "src" / "qact"

# runs that read a functor file committed to fixtures/: its phi tensors are
# stored against the intertwiner bases of the LAPACK that wrote it, so they
# fail under another gauge until functor files carry those bases (ROADMAP
# item 1)
COMMITTED_FUNCTOR_RUNS = [record_golden.fixture_key(args) for args in record_golden.FIXTURE_RUNS
                          if any(a.startswith("functors/") for a in args)]


def sign_flip(k: int, dtype) -> np.ndarray:
    return -np.eye(k, dtype=dtype)


def seeded_unitary(seed: int):
    """A gauge of one unitary per size k (orthogonal for real bases)."""
    def gauge(k: int, dtype) -> np.ndarray:
        if k == 0:
            return np.eye(0, dtype=dtype)
        rng = np.random.default_rng([seed, k])
        x = rng.standard_normal((k, k))
        if np.issubdtype(dtype, np.complexfloating):
            x = x + 1j * rng.standard_normal((k, k))
        return np.linalg.qr(x)[0]
    return gauge


GAUGES = {"sign-flip": sign_flip, "seed-1": seeded_unitary(1)}


def patch_seams(mp: pytest.MonkeyPatch, gauge, calls: dict[str, int]) -> None:
    row_spaces, column_span, mor_stack = (blockdecomp.row_spaces, blockdecomp.column_span,
                                          Backend._mor_stack)

    def rows(stacked):
        calls["row_spaces"] += 1
        span, kernel = row_spaces(stacked)
        return gauge(len(span), span.dtype) @ span, gauge(len(kernel), kernel.dtype) @ kernel

    def columns(stack):
        calls["column_span"] += 1
        span = column_span(stack)
        return span @ gauge(span.shape[1], span.dtype)

    def mor(self, umats, vmats, count, name):
        bases = mor_stack(self, umats, vmats, count, name)
        if self.kind == "dual":
            # the bundle format reads its multiplication tensors against the
            # grade-matched matrix units (functors.from_graded): no gauge
            return bases
        calls["_mor_stack"] += 1
        return np.einsum("ij,njab->niab", gauge(count, bases.dtype), bases)

    mp.setattr(blockdecomp, "row_spaces", rows)
    mp.setattr(blockdecomp, "column_span", columns)
    mp.setattr(Backend, "_mor_stack", mor)


@pytest.fixture(scope="module", params=sorted(GAUGES))
def gauged(request):
    """The summaries of every recorded run under one gauge, and the number
    of calls of each rotated routine."""
    calls = dict.fromkeys(("row_spaces", "column_span", "_mor_stack"), 0)
    with pytest.MonkeyPatch.context() as mp:
        patch_seams(mp, GAUGES[request.param], calls)
        return record_golden.record(), calls


def assert_gauge_invariant(key: str, got: dict) -> None:
    want = record_golden._golden()[key]
    assert got["exit"] == want["exit"], (key, got["exit"], want["exit"])
    assert got["flags"] == want["flags"], key
    assert sorted(got["floats"]) == sorted(want["floats"]), key
    for path, old in want["floats"].items():
        new = got["floats"][path]
        assert new == old or abs(new - old) <= record_golden.FLOAT_TOL, (key, path, old, new)


def test_corpus_runs_do_not_depend_on_the_bases(gauged):
    summaries, calls = gauged
    assert sorted(summaries) == sorted(record_golden._golden())
    assert min(calls.values()) > 0, calls
    for key, got in summaries.items():
        if key not in COMMITTED_FUNCTOR_RUNS:
            assert_gauge_invariant(key, got)


@pytest.mark.xfail(strict=True, reason="a functor file stores phi only by the index of its "
                                       "intertwiner in the reader's basis (ROADMAP item 1)")
@pytest.mark.parametrize("key", COMMITTED_FUNCTOR_RUNS, ids=[
    f"{key.split()[0]}-{key.split('/')[-1].removesuffix('.json')}"
    for key in COMMITTED_FUNCTOR_RUNS])
def test_committed_functor_file_under_another_gauge(gauged, key):
    assert_gauge_invariant(key, gauged[0][key])


# -- the guard ----------------------------------------------------------------

# the routines that pick bases
SEAMS = {"blockdecomp.row_spaces", "blockdecomp.column_span", "blockdecomp.eigenprojections",
         "repcat.Backend._mor_stack"}
# uses whose result does not depend on the vectors chosen
GAUGE_FREE = {
    "algebras.adjoints_by_shape",  # the pseudo-inverse of each Gram matrix
    "actions.fullness_check",  # the inverse square root of <Y, Y>
}
# bases still picked outside the seams
LATER_SEAMS = {
    "staralg.StarAlgebraModel.gns_space",  # later seam (ROADMAP item 1): the GNS space
}


def vector_calls(source: str, module: str):
    """(scope, line) of every np.linalg.svd that returns vectors and every
    np.linalg.eigh in the source of one module, the scope named
    module.Class.function."""
    def takes_vectors(call):
        f = call.func
        name = f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)
        if name == "eigh":
            return True
        return name == "svd" and not any(
            k.arg == "compute_uv" and isinstance(k.value, ast.Constant) and k.value.value is False
            for k in call.keywords)

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from visit(child, scope + [child.name])
                continue
            if isinstance(child, ast.Call) and takes_vectors(child):
                yield ".".join(scope), child.lineno
            yield from visit(child, scope)

    yield from visit(ast.parse(source), [module])


def test_bases_are_picked_only_in_the_seams():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in vector_calls(path.read_text(), path.stem)]
    allowed = SEAMS | GAUGE_FREE | LATER_SEAMS
    assert [hit for hit in found if hit[0] not in allowed] == []
    # every listed use is still there, so the lists cannot go stale
    assert {scope for scope, _ in found} == allowed


def test_the_guard_sees_vectors_taken_anywhere():
    source = ("import numpy as np\nfrom numpy.linalg import eigh\n"
              "class A:\n    def f(self, x):\n"
              "        return np.linalg.svd(x), np.linalg.svd(x, compute_uv=False), eigh(x)\n"
              "def g(x):\n    return np.linalg.svd(x, full_matrices=False)[0]\n")
    assert list(vector_calls(source, "m")) == [("m.A.f", 5), ("m.A.f", 5), ("m.g", 7)]
