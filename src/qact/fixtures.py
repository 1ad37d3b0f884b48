"""The shipped example corpus: backends, actions, bundles and cocycles.

Everything here is constructed from closed-form data and doubles as the
test corpus; `write_corpus` serializes it for the command line driver.
"""

from __future__ import annotations

import numpy as np

from .algebras import BlockAlgebra, Correspondence, algebra_as_correspondence
from .actions import Action
from .cocycles import Cocycle, make_cocycle, trivial_cocycle
from .functors import GradedBundle, group_algebra_bundle
from .groups import GroupPresentation, cyclic_group, direct_product, symmetric_group
from .repcat import (
    Backend,
    abelian_product_backend,
    cyclic_backend,
    dual_backend,
    symmetric3_backend,
)


def standard_backends() -> dict[str, Backend]:
    return {
        "s3": symmetric3_backend(),
        "z2": cyclic_backend(2),
        "z3": cyclic_backend(3),
        "z4": cyclic_backend(4),
        "z2z2": abelian_product_backend([2, 2]),
        "dual_s3": dual_backend(symmetric_group(3)),
        "dual_z2": dual_backend(cyclic_group(2)),
        "dual_z3": dual_backend(cyclic_group(3)),
        "dual_z4": dual_backend(cyclic_group(4)),
        "dual_z2z2": dual_backend(direct_product(cyclic_group(2), cyclic_group(2))),
    }


def trivial_action(backend: Backend, algebra: BlockAlgebra, name="trivial") -> Action:
    if backend.kind == "group":
        eye = np.eye(algebra.dim, dtype=complex)
        maps = {x: eye.copy() for x in backend.group.elements}
        return Action("automorphism", algebra, backend.group, maps=maps, name=name)
    comps = {backend.group.elements[backend.group.identity]:
             np.eye(algebra.dim, dtype=complex)}
    for x in backend.group.elements:
        comps.setdefault(x, np.zeros((0, algebra.dim)))
    return Action("grading", algebra, backend.group, components=comps, name=name)


def swap_action(backend: Backend) -> Action:
    """Order-two backend exchanging the two summands of C (+) C."""
    algebra = BlockAlgebra((1, 1))
    e = np.eye(2, dtype=complex)
    swap = np.array([[0, 1], [1, 0]], dtype=complex)
    maps = {backend.group.elements[0]: e, backend.group.elements[1]: swap}
    return Action("automorphism", algebra, backend.group, maps=maps, name="swap-c2")


def translation_action(backend: Backend) -> Action:
    """Left translation on the functions over the backend's own group."""
    g = backend.group
    n = g.order
    algebra = BlockAlgebra((1,) * n)
    maps = {}
    for gi, x in enumerate(g.elements):
        t = np.zeros((n, n), dtype=complex)
        for h in range(n):
            t[g.times(gi, h), h] = 1.0
        maps[x] = t
    return Action("automorphism", algebra, g, maps=maps, name="translation")


def inner_z2_action(backend: Backend) -> Action:
    """Conjugation by diag(1, -1) on the 2x2 matrix algebra."""
    algebra = BlockAlgebra((2,))
    u = np.diag([1.0, -1.0]).astype(complex)
    g = backend.group
    t = np.zeros((4, 4), dtype=complex)
    for q, unit in enumerate(algebra.basis()):
        t[:, q] = algebra.coords(u @ unit @ u.conj().T)
    maps = {g.elements[0]: np.eye(4, dtype=complex), g.elements[1]: t}
    return Action("automorphism", algebra, g, maps=maps, name="inner-m2")


def clock_shift_grading(n: int) -> Action:
    """The cyclic grading of the n x n matrix algebra by diagonal offsets."""
    group = cyclic_group(n)
    algebra = BlockAlgebra((n,))
    comps = {}
    for k in range(n):
        rows = []
        for i in range(n):
            e = np.zeros((n, n), dtype=complex)
            e[i, (i + k) % n] = 1.0
            rows.append(algebra.coords(e))
        comps[str(k)] = np.array(rows)
    return Action("grading", algebra, group, components=comps,
                  name=f"m{n}-clock-shift")


def group_algebra_grading(table_backend: Backend) -> Action:
    """The group algebra graded by its own group, realized in block form
    through the irreducible table of a compact backend for the same group."""
    if table_backend.kind != "group":
        raise ValueError("need a compact backend table to realize the group algebra")
    g = table_backend.group
    blocks = tuple(table_backend.irrep(l).dim for l in table_backend.labels)
    algebra = BlockAlgebra(blocks)
    comps = {}
    for gi, x in enumerate(g.elements):
        mat = np.zeros((algebra.n, algebra.n), dtype=complex)
        off = 0
        for label in table_backend.labels:
            ir = table_backend.irrep(label)
            mat[off:off + ir.dim, off:off + ir.dim] = ir.matrices[gi]
            off += ir.dim
        comps[x] = algebra.coords(mat).reshape(1, -1)
    return Action("grading", algebra, g, components=comps, name="group-algebra")


def m2_pauli_grading() -> Action:
    """Order-two grading of the 2x2 matrices: diagonal and antidiagonal
    parts, a two-dimensional fiber over the two-block fixed algebra."""
    group = cyclic_group(2)
    algebra = BlockAlgebra((2,))
    units = algebra.basis()
    even = np.array([algebra.coords(units[0]), algebra.coords(units[3])])
    odd = np.array([algebra.coords(units[1]), algebra.coords(units[2])])
    return Action("grading", algebra, group,
                  components={"0": even, "1": odd}, name="m2-pauli-grading")


def c3_swap_grading() -> Action:
    """Order-two grading of C^3 with a one-dimensional odd part over the
    two-block fixed algebra: the last two coordinates are exchanged."""
    group = cyclic_group(2)
    algebra = BlockAlgebra((1, 1, 1))
    even = np.array([
        algebra.coords(np.diag([1.0, 0, 0])),
        algebra.coords(np.diag([0, 1.0, 1.0])),
    ])
    odd = np.array([algebra.coords(np.diag([0, 1.0, -1.0]))])
    return Action("grading", algebra, group,
                  components={"0": even, "1": odd}, name="c3-swap-grading")


def action_corpus() -> dict[str, tuple[str, Action]]:
    """Round-trip corpus: name -> (backend name, action)."""
    backends = standard_backends()
    return {
        "trivial_c": ("z2", trivial_action(backends["z2"], BlockAlgebra((1,)))),
        "trivial_c2": ("z2", trivial_action(backends["z2"], BlockAlgebra((1, 1)))),
        "trivial_m2": ("z2", trivial_action(backends["z2"], BlockAlgebra((2,)))),
        "swap_c2": ("z2", swap_action(backends["z2"])),
        "s3_translation": ("s3", translation_action(backends["s3"])),
        "z2z2_translation": ("z2z2", translation_action(backends["z2z2"])),
        "inner_m2": ("z2", inner_z2_action(backends["z2"])),
        "m3_clock_shift": ("dual_z3", clock_shift_grading(3)),
        "z2z2_group_algebra": (
            "dual_z2z2", group_algebra_grading(backends["z2z2"]),
        ),
        "s3_group_algebra": (
            "dual_s3", group_algebra_grading(backends["s3"]),
        ),
        "m2_pauli_grading": ("dual_z2", m2_pauli_grading()),
        "c3_swap_grading": ("dual_z2", c3_swap_grading()),
    }


def clock_shift_bundle(n: int) -> GradedBundle:
    """Fibers are the diagonal-offset subspaces of the n x n matrices over
    the diagonal algebra, with matrix multiplication as the bundle product."""
    group = cyclic_group(n)
    algebra = BlockAlgebra((1,) * n)
    fibers = {}
    mult = {}
    for k in range(n):
        d = n
        left = np.zeros((n, d, d), dtype=complex)
        right = np.zeros((n, d, d), dtype=complex)
        inner = np.zeros((d, d, n, n), dtype=complex)
        for a in range(n):
            # fiber basis vector i is the unit at (i, i+k)
            for i in range(n):
                left[a, i, i] = 1.0 if a == i else 0.0
                right[a, i, i] = 1.0 if a == (i + k) % n else 0.0
        for i in range(n):
            inner[i, i, (i + k) % n, (i + k) % n] = 1.0
        fibers[str(k)] = Correspondence(algebra, d, left, right, inner)
    for k in range(n):
        for l in range(n):
            t = np.zeros((n, n, n), dtype=complex)
            for i in range(n):
                # E_{i,i+k} E_{j,j+l} = delta_{j,i+k} E_{i,i+k+l}
                t[i, i, (i + k) % n] = 1.0
            mult[(str(k), str(l))] = t
    return GradedBundle(group, algebra, fibers, mult)


def zero_odd_bundle() -> GradedBundle:
    """Order-two bundle with vanishing odd fiber (the base algebra alone)."""
    group = cyclic_group(2)
    algebra = BlockAlgebra((1, 1))
    fibers = {
        "0": algebra_as_correspondence(algebra),
        "1": Correspondence(algebra, 0, np.zeros((algebra.dim, 0, 0)),
                            np.zeros((algebra.dim, 0, 0)),
                            np.zeros((0, 0, algebra.n, algebra.n))),
    }
    t = np.zeros((algebra.dim, algebra.dim, algebra.dim), dtype=complex)
    units = algebra.basis()
    for p in range(algebra.dim):
        for q in range(algebra.dim):
            t[:, p, q] = algebra.coords(units[p] @ units[q])
    mult = {("0", "0"): t,
            ("0", "1"): np.zeros((0, algebra.dim, 0), dtype=complex),
            ("1", "0"): np.zeros((0, 0, algebra.dim), dtype=complex),
            ("1", "1"): np.zeros((algebra.dim, 0, 0), dtype=complex)}
    return GradedBundle(group, algebra, fibers, mult)


def m2_plus_c_bundle() -> GradedBundle:
    """The Z_2-grading of M_2 (+) C inside the 3 x 3 matrices: the diagonal
    of M_2 and the C block are even, the off-diagonal of M_2 is odd.  Odd
    times odd misses the C block, so the product into the even fiber is not
    surjective and the adjoint-exchange condition is checked, not skipped."""
    group = cyclic_group(2)
    algebra = BlockAlgebra((1, 1, 1))

    def unit(i, j):
        e = np.zeros((3, 3), dtype=complex)
        e[i, j] = 1.0
        return e

    grades = {"0": [unit(0, 0), unit(1, 1), unit(2, 2)], "1": [unit(0, 1), unit(1, 0)]}

    def coords(grade, mat):
        # every product of basis matrices is 0 or a basis matrix of its grade
        return np.array([np.vdot(e, mat) for e in grades[grade]])

    fibers = {}
    for g, basis in grades.items():
        left = np.array([[coords(g, u @ v) for v in basis] for u in algebra.basis()])
        right = np.array([[coords(g, v @ u) for v in basis] for u in algebra.basis()])
        inner = np.array([[x.conj().T @ y for y in basis] for x in basis])
        fibers[g] = Correspondence(algebra, len(basis), left.transpose(0, 2, 1),
                                   right.transpose(0, 2, 1), inner)
    mult = {}
    for a in grades:
        for b in grades:
            ab = str((int(a) + int(b)) % 2)
            t = np.array([[coords(ab, x @ y) for y in grades[b]] for x in grades[a]])
            mult[(a, b)] = t.transpose(2, 0, 1)
    return GradedBundle(group, algebra, fibers, mult)


def negative_odd_fiber_bundle() -> GradedBundle:
    """m2_plus_c_bundle with the inner product of its odd fiber negated.
    The graded identities still hold, but the odd fiber is no
    correspondence: its inner product is not positive."""
    bundle = m2_plus_c_bundle()
    odd = bundle.fibers["1"]
    bundle.fibers["1"] = Correspondence(odd.algebra, odd.dim, odd.left, odd.right,
                                        -odd.inner_tensor)
    return bundle


def bicharacter_cocycle(orders: list[int]) -> Cocycle:
    """The standard bicharacter on a product of two equal cyclic factors:
    Omega((a1, a2), (b1, b2)) = exp(2 pi i a2 b1 / n)."""
    n = orders[0]
    group = direct_product(cyclic_group(orders[0]), cyclic_group(orders[1]))

    def expo(name):
        return [int(p) for p in name.split("|")]

    size = group.order
    vals = np.zeros((size, size), dtype=complex)
    for i, x in enumerate(group.elements):
        a = expo(x)
        for j, y in enumerate(group.elements):
            b = expo(y)
            vals[i, j] = np.exp(2j * np.pi * a[1] * b[0] / n)
    return make_cocycle("dual", group, vals)


def coboundary_cocycle(group: GroupPresentation, phases: np.ndarray) -> Cocycle:
    """Omega(a, b) = c(a) c(b) / c(ab) for unit-modulus weights c."""
    n = group.order
    vals = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            vals[a, b] = phases[a] * phases[b] / phases[group.mul[a, b]]
    return make_cocycle("dual", group, vals)


def group_backend_bicharacter_cocycle() -> Cocycle:
    """A cocycle on the dual side of the compact Z_2 x Z_2 backend: the
    Fourier transform of the primitive bicharacter, supported on the whole
    group algebra tensor square."""
    group = direct_product(cyclic_group(2), cyclic_group(2))
    n = group.order

    def expo(name):
        return [int(p) for p in name.split("|")]

    # characters chi_c(g) = (-1)^{c . g}; the bicharacter on the character
    # group pulls back to coefficients on the group algebra by Fourier
    vals = np.zeros((n, n), dtype=complex)
    for i, x in enumerate(group.elements):
        a = expo(x)
        for j, y in enumerate(group.elements):
            b = expo(y)
            acc = 0.0 + 0j
            for ci in range(4):
                c = [ci // 2, ci % 2]
                for di in range(4):
                    d = [di // 2, di % 2]
                    beta = (-1) ** (c[1] * d[0])
                    chi1 = (-1) ** (c[0] * a[0] + c[1] * a[1])
                    chi2 = (-1) ** (d[0] * b[0] + d[1] * b[1])
                    acc += beta * chi1 * chi2
            vals[i, j] = acc / (n * n)
    return make_cocycle("group", group, vals)


def write_corpus(outdir) -> list[str]:
    """Serialize the whole corpus under outdir; returns the written names."""
    import pathlib

    from . import serialize
    from .actions import spectral_functor

    out = pathlib.Path(outdir)
    (out / "backends").mkdir(parents=True, exist_ok=True)
    (out / "actions").mkdir(exist_ok=True)
    (out / "functors").mkdir(exist_ok=True)
    (out / "bundles").mkdir(exist_ok=True)
    (out / "cocycles").mkdir(exist_ok=True)
    written = []

    backends = standard_backends()
    for name, backend in backends.items():
        path = out / "backends" / f"{name}.json"
        serialize.dump_json(serialize.backend_to_json(backend), path)
        written.append(str(path))

    for name, (bk, act) in action_corpus().items():
        path = out / "actions" / f"{name}.json"
        data = serialize.action_to_json(act)
        data["backend_ref"] = f"backends/{bk}.json"
        serialize.dump_json(data, path)
        written.append(str(path))

    # spectral functors of two representative actions, as functor files
    for name in ("s3_translation", "swap_c2"):
        bk, act = action_corpus()[name]
        spec = spectral_functor(backends[bk], act)
        path = out / "functors" / f"spectral_{name}.json"
        serialize.dump_json(
            serialize.functor_to_json(spec.functor, backend_ref=f"backends/{bk}.json"),
            path,
        )
        written.append(str(path))

    for name, bundle in (
        ("clock_shift_z3", clock_shift_bundle(3)),
        ("group_algebra_z2", group_algebra_bundle(cyclic_group(2))),
        ("zero_odd", zero_odd_bundle()),
        ("m2_plus_c", m2_plus_c_bundle()),
        ("negative_odd_fiber", negative_odd_fiber_bundle()),
    ):
        path = out / "bundles" / f"{name}.json"
        serialize.dump_json(serialize.bundle_to_json(bundle), path)
        written.append(str(path))

    for name, cocycle in (
        ("bicharacter_z2z2", bicharacter_cocycle([2, 2])),
        ("trivial_z2z2", trivial_cocycle("dual", direct_product(cyclic_group(2), cyclic_group(2)))),
        ("group_bicharacter_z2z2", group_backend_bicharacter_cocycle()),
    ):
        path = out / "cocycles" / f"{name}.json"
        serialize.dump_json(serialize.cocycle_to_json(cocycle), path)
        written.append(str(path))
    return written


if __name__ == "__main__":
    import sys

    target = sys.argv[1] if len(sys.argv) > 1 else "fixtures"
    for name in write_corpus(target):
        print(name)
