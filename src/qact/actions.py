"""Concrete symmetry actions on block algebras and their spectral data.

An action is either a homomorphism from a finite group into the
*-automorphisms of a block algebra (group backend) or a group grading of
the algebra (dual backend).  From an action we extract its fixed-point
algebra, the invariant subspaces attached to each irreducible, and the
functor data they assemble into; the round-trip check certifies that
rebuilding the algebra from that data reproduces the original action.

One builder, `functor_from_subspaces`, turns invariant subspaces into
functor data.  It serves the spectral functor of an action (subspaces of
the acted-on algebra), the functor of an equivariant module (equivariant
maps M -> M (x) H) and the spectral functor of a reconstructed algebra;
`blockdecomp.null_space` and `InSpan` are the shared kernel and projection
helpers.  Only the round trips rebuild an algebra, so only they import
`reconstruction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .algebras import BlockAlgebra, Correspondence, algebra_as_correspondence
from .blockdecomp import SubalgebraBlocks, decompose_star_algebra, null_space
from .errors import ActionError, BackendError
from .functors import TensorFunctorData
from .groups import GroupPresentation
from .repcat import Backend, RANK_TOL
from .staralg import StarAlgebraModel

if TYPE_CHECKING:
    from .reconstruction import ReconstructedAlgebra

# complex entries of tuple products per stack of functor_from_subspaces
CHUNK = 1 << 15


@dataclass
class Action:
    """A finite-group action ("automorphism" kind: one coordinate matrix per
    group element) or a group grading ("grading" kind: one coefficient-row
    array per group element) on a block algebra."""

    kind: str
    algebra: BlockAlgebra
    group: GroupPresentation
    maps: dict[str, np.ndarray] | None = None
    components: dict[str, np.ndarray] | None = None
    name: str = "action"

    def __post_init__(self):
        if self.kind not in ("automorphism", "grading"):
            raise ActionError(f"unknown action kind {self.kind!r}")
        if self.kind == "automorphism" and self.maps is None:
            raise ActionError("automorphism action needs its maps")
        if self.kind == "grading" and self.components is None:
            raise ActionError("grading action needs its components")

    def map_matrix(self, element: str) -> np.ndarray:
        return np.asarray(self.maps[element], dtype=complex)

    def apply(self, element: str, mat: np.ndarray) -> np.ndarray:
        """alpha_g(x) for the automorphism kind."""
        b = self.algebra
        return b.from_coords(self.map_matrix(element) @ b.coords(mat))

    def component_rows(self, element: str) -> np.ndarray:
        rows = np.asarray(self.components.get(element, np.zeros((0, self.algebra.dim))),
                          dtype=complex)
        return rows.reshape(-1, self.algebra.dim)

    def validate(self, tol: float = 1e-9) -> dict:
        b = self.algebra
        g = self.group
        rep: dict = {"kind": self.kind}
        if self.kind == "automorphism":
            units = b.basis()
            worst_hom = worst_mult = worst_star = 0.0
            e = g.elements[g.identity]
            worst_hom = float(np.abs(self.map_matrix(e) - np.eye(b.dim)).max())
            for x in g.elements:
                tx = self.map_matrix(x)
                for y in g.elements:
                    ty = self.map_matrix(y)
                    xy = g.elements[g.times(g.index(x), g.index(y))]
                    worst_hom = max(
                        worst_hom, float(np.abs(tx @ ty - self.map_matrix(xy)).max())
                    )
                for u in units:
                    worst_star = max(worst_star, float(np.abs(
                        self.apply(x, u.conj().T) - self.apply(x, u).conj().T
                    ).max()))
                    for v in units:
                        worst_mult = max(worst_mult, float(np.abs(
                            self.apply(x, u @ v) - self.apply(x, u) @ self.apply(x, v)
                        ).max()))
            rep["homomorphism"] = worst_hom
            rep["multiplicative"] = worst_mult
            rep["star_preserving"] = worst_star
            rep["passed"] = max(worst_hom, worst_mult, worst_star) < 100 * tol
        else:
            stacked = np.vstack([self.component_rows(x) for x in g.elements])
            if stacked.shape[0] != b.dim:
                rep["spanning"] = False
                rep["passed"] = False
                return rep
            sv = np.linalg.svd(stacked, compute_uv=False)
            rep["spanning"] = bool(sv.min() > 1e-8)
            worst_mult = 0.0
            worst_star = 0.0
            for x in g.elements:
                rx = self.component_rows(x)
                xinv = g.elements[g.inv(g.index(x))]
                target_rows = self.component_rows(xinv)
                for row in rx:
                    starred = b.coords(b.from_coords(row).conj().T)
                    worst_star = max(worst_star, _outside_span(starred, target_rows))
                for y in g.elements:
                    ry = self.component_rows(y)
                    xy = g.elements[g.times(g.index(x), g.index(y))]
                    txy = self.component_rows(xy)
                    for r1 in rx:
                        m1 = b.from_coords(r1)
                        for r2 in ry:
                            prod = b.coords(m1 @ b.from_coords(r2))
                            worst_mult = max(worst_mult, _outside_span(prod, txy))
            rep["component_products"] = worst_mult
            rep["component_star"] = worst_star
            rep["passed"] = bool(
                rep["spanning"] and max(worst_mult, worst_star) < 100 * tol
            )
        return rep


def _outside_span(vecs: np.ndarray, rows: np.ndarray) -> float:
    """The largest distance of a vector, or of the columns of a matrix,
    from the span of the rows; vectors of norm below 1e-14 count as 0."""
    vecs = vecs.reshape(len(vecs), -1)
    norms = np.linalg.norm(vecs, axis=0)
    vecs = vecs[:, norms >= 1e-14]
    if vecs.shape[1] == 0:
        return 0.0
    if rows.size == 0:
        return float(norms.max())
    coef, *_ = np.linalg.lstsq(rows.T, vecs, rcond=None)
    return float(np.linalg.norm(rows.T @ coef - vecs, axis=0).max())


def _worst(diff: np.ndarray) -> float:
    return float(np.abs(diff).max(initial=0.0))


def _check_backend(backend: Backend, act: Action) -> None:
    want = "group" if act.kind == "automorphism" else "dual"
    if backend.kind != want:
        raise BackendError(
            f"{act.kind} actions need a {want} backend, got {backend.kind}"
        )
    if backend.group.elements != act.group.elements:
        raise BackendError("action and backend use different groups")


def fixed_point_algebra(backend: Backend, act: Action, seed: int = 0) -> SubalgebraBlocks:
    """The invariant subalgebra, with its block structure and embedding."""
    _check_backend(backend, act)
    b = act.algebra
    if act.kind == "automorphism":
        proj = np.zeros((b.dim, b.dim), dtype=complex)
        for x in act.group.elements:
            proj += act.map_matrix(x)
        proj /= act.group.order
        w, s, _ = np.linalg.svd(proj)
        rank = int(np.sum(s > RANK_TOL))
        mats = [b.from_coords(w[:, k]) for k in range(rank)]
    else:
        e = act.group.elements[act.group.identity]
        mats = [b.from_coords(row) for row in act.component_rows(e)]
    return decompose_star_algebra(mats, b.n, seed=seed)


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, for stacks of matrices along leading
    axes of a or b; every entry is the one product np.kron forms for it,
    so each slice has np.kron's bits."""
    out = a[..., :, None, :, None] * b[..., None, :, None, :]
    return out.reshape(out.shape[:-4] + (a.shape[-2] * b.shape[-2], a.shape[-1] * b.shape[-1]))


class InSpan:
    """Coordinates of vectors in a fixed basis of shape (count, ...), each
    entry flattened being one basis vector.  Projecting a vector that does
    not lie in the span raises ActionError; an empty basis spans only 0."""

    def __init__(self, basis: np.ndarray, label: str):
        self.label = label
        self.entry_ndim = basis.ndim - 1
        self.flat = basis.reshape(basis.shape[0], int(np.prod(basis.shape[1:])))
        self.pinv = np.linalg.pinv(self.flat.T)

    def __call__(self, element) -> np.ndarray:
        """The coordinates of one element shaped like a basis entry, or of
        each element of a stack of them, shape (..., count)."""
        element = np.asarray(element)
        lead = element.shape[:element.ndim - self.entry_ndim]
        return _span_coords(self.pinv, self.flat, element.reshape(lead + (self.flat.shape[1],)),
                            [self.label])


def _span_coords(pinv: np.ndarray, flat: np.ndarray, vecs: np.ndarray,
                 labels: list[str]) -> np.ndarray:
    """Coordinates (..., count) of the vectors (..., size) in the spans of
    the rows of flat, with pinv the pseudo-inverse of flat.T; pinv and flat
    broadcast against the leading axes of vecs, and labels[j] names the
    span along the first of them (one label: a single span).

    Each vector is one matrix-vector product, as pinv @ vector gives it
    alone.  A vector farther than 1e-6 (relative) from its span raises
    ActionError, naming the span.
    """
    coords = (pinv @ vecs[..., None])[..., 0]
    back = (flat.swapaxes(-1, -2) @ coords[..., None])[..., 0]
    resid = np.linalg.norm(back - vecs, axis=-1)
    bad = resid > 1e-6 * np.maximum(1.0, np.linalg.norm(vecs, axis=-1))
    if bad.any():
        label = labels[np.argwhere(bad)[0][0]] if len(labels) > 1 else labels[0]
        raise ActionError(f"element does not lie in the subspace of {label!r}")
    return coords


def _tuple_products(xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """sum_i x_i* y_i for two broadcastable stacks of tuples of matrices
    (..., d, n, n), summed from 0 in order as Python's sum does."""
    terms = xs.conj().swapaxes(-1, -2) @ ys
    return sum(terms[..., i, :, :] for i in range(terms.shape[-3]))


def functor_from_subspaces(backend: Backend, base: BlockAlgebra,
                           bases: dict[str, np.ndarray], ambient, product,
                           pairing, name: str) -> TensorFunctorData:
    """Functor data of a family of invariant subspaces of an ambient algebra.

    bases[label] has shape (multiplicity, irrep dim, ...): basis vector p of
    the subspace of `label` is the tuple of ambient elements
    ambient(bases[label][p, i]).  The trivial label must hold the matrix
    units of `base`, in order, so the base algebra sits inside the ambient
    one on the nose.

    The callbacks act on stacks and give every entry the bits it gets
    alone: ambient maps a stack of basis entries to ambient elements;
    product(xs, ys) gives the coordinates of the products of two
    broadcastable stacks of elements, each shaped like one basis entry's
    component; pairing(xs, ys) gives the base-valued inner products of two
    broadcastable stacks of tuples (..., irrep dim, element) as base
    elements (..., n, n).

    The bimodule actions multiply tuples by the base units; the
    multiplication maps multiply two tuples componentwise, apply each basis
    intertwiner of Mor(alpha x beta, gamma) and read off coordinates in the
    basis of gamma.  Each label's actions and pairings are one stack, and
    the multiplication maps run stacked across all label pairs of one
    shape, about CHUNK product entries at a time: one product call, then
    one einsum and one projection per shape of the target.  Every entry
    keeps the bits of its own product, einsum and matrix-vector
    projection.
    """
    elements = {label: ambient(bases[label]) for label in backend.labels}
    spans = {label: InSpan(bases[label], label) for label in backend.labels}
    units = elements[backend.trivial_label][:, 0]

    def swapped(coords):
        # [k, q, :] -> [k, :, q], C-ordered like the arrays filled per entry
        return np.ascontiguousarray(coords.transpose(0, 2, 1))

    modules: dict[str, Correspondence] = {}
    for label in backend.labels:
        xs = elements[label]
        # [k, q]: unit k times tuple q, and tuple q times unit k
        left = spans[label](product(units[:, None, None], xs[None]))
        right = spans[label](product(xs[None], units[:, None, None]))
        modules[label] = Correspondence(base, len(xs), swapped(left), swapped(right),
                                        pairing(xs[:, None], xs[None]))

    # the fusion triples of each pair of live labels, in label order
    live = [label for label in backend.labels if len(elements[label])]
    fusion: dict = {}
    phi: dict[tuple[str, str, str], list[np.ndarray]] = {}
    for alpha in live:
        for beta in live:
            pair = backend.tensor(backend.atom(alpha), backend.atom(beta))
            for gamma in live:
                basis_t = backend.mor_basis(pair, backend.atom(gamma))
                if basis_t:
                    fusion.setdefault((alpha, beta), []).append((gamma, basis_t))
                    phi[(alpha, beta, gamma)] = [None] * len(basis_t)
    shapes: dict = {}
    for alpha, beta in fusion:
        shapes.setdefault((elements[alpha].shape, elements[beta].shape), []).append((alpha, beta))
    for members in shapes.values():
        # pairs of one shape, about CHUNK product entries at a time
        xs, ys = elements[members[0][0]], elements[members[0][1]]
        step = max(1, CHUNK // (xs.size * ys.shape[0] * ys.shape[1]))
        for lo in range(0, len(members), step):
            part = members[lo:lo + step]
            xs = np.stack([elements[alpha] for alpha, _ in part])
            ys = np.stack([elements[beta] for _, beta in part])
            # prods[n, p, q, i * db + j] = x_i y_j for tuple p of alpha and
            # tuple q of beta, (alpha, beta) = part[n]
            out = product(xs[:, :, None, :, None], ys[:, None, :, None, :])
            prods = out.reshape(out.shape[:3] + (-1,) + out.shape[5:])
            # each intertwiner applied and projected onto gamma, one stack
            # per shape of gamma's elements
            jobs: dict = {}
            for n, (alpha, beta) in enumerate(part):
                for gamma, basis_t in fusion[alpha, beta]:
                    for m, t in enumerate(basis_t):
                        jobs.setdefault(elements[gamma].shape, []).append(
                            (n, t, gamma, phi[(alpha, beta, gamma)], m))
            for items in jobs.values():
                numbers, ts, gammas, _, _ = zip(*items)
                mapped = np.einsum("jcz,jpqz...->jpqc...", np.stack(ts), prods[list(numbers)])
                coords = _span_coords(np.stack([spans[g].pinv for g in gammas])[:, None, None],
                                      np.stack([spans[g].flat for g in gammas])[:, None, None],
                                      mapped.reshape(mapped.shape[:3] + (-1,)), list(gammas))
                for (_, _, _, tensors, m), c in zip(items, coords):
                    tensors[m] = np.ascontiguousarray(c.transpose(2, 0, 1))
    return TensorFunctorData(backend, base, modules, phi, name=name)


def spectral_basis(backend: Backend, act: Action, label: str) -> np.ndarray:
    """Orthonormal basis of the invariant subspace attached to one
    irreducible, shape (multiplicity, irrep dim, dim B)."""
    _check_backend(backend, act)
    b = act.algebra
    if act.kind == "automorphism":
        u = backend.irrep(label).matrices
        d = backend.irrep(label).dim
        maps = np.array([act.map_matrix(x) for x in act.group.elements])
        basis = null_space((_kron(u, maps) - np.eye(d * b.dim)).reshape(-1, d * b.dim))
        return basis.reshape(-1, d, b.dim)
    rows = act.component_rows(label)
    if rows.shape[0] == 0:
        return np.zeros((0, 1, b.dim))
    _, s, vh = np.linalg.svd(rows)
    rank = int(np.sum(s > RANK_TOL))
    return vh[:rank].reshape(rank, 1, b.dim)


@dataclass
class SpectralFunctor:
    """Functor data extracted from an action, with the context needed to
    relate it back to the algebra it came from."""

    functor: TensorFunctorData
    fixed: SubalgebraBlocks
    bases: dict[str, np.ndarray]
    action: Action


def spectral_functor(backend: Backend, act: Action, seed: int = 0) -> SpectralFunctor:
    """Assemble the functor of invariant subspaces of an action.

    Each module carries the bimodule structure over the fixed-point algebra
    and the inner product <X, Y> = sum_i x_i* y_i; the multiplication maps
    are composition of invariant tensors followed by the intertwiner.
    """
    _check_backend(backend, act)
    b = act.algebra
    fixed = fixed_point_algebra(backend, act, seed=seed)
    a = fixed.algebra
    # the trivial component must carry the matrix-unit basis of the fixed
    # algebra, so that it is that algebra on the nose
    units = np.array([[b.coords(unit)] for unit in fixed.unit_images])
    bases = {
        label: units if label == backend.trivial_label
        else spectral_basis(backend, act, label)
        for label in backend.labels
    }

    def pairing(xs, ys):
        return a.from_coords(fixed.restrict(_tuple_products(xs, ys)))

    functor = functor_from_subspaces(backend, a, bases, b.from_coords,
                                     lambda x, y: b.coords(x @ y), pairing,
                                     f"spectral:{act.name}")
    return SpectralFunctor(functor, fixed, bases, act)


# -- round trip ---------------------------------------------------------------


@dataclass
class RoundtripCertificate:
    matrix: np.ndarray
    residuals: dict[str, float]
    dims: tuple[int, int]
    passed: bool


def roundtrip_check(backend: Backend, act: Action, seed: int = 0,
                    tol: float = 1e-9) -> RoundtripCertificate:
    """Rebuild the algebra from the spectral data of an action and certify
    the canonical map back onto the original algebra: linear bijection,
    multiplicative, star-preserving, equivariant, identity on the fixed
    subalgebra."""
    from .reconstruction import build_algebra

    spec = spectral_functor(backend, act, seed=seed)
    alg = build_algebra(spec.functor, tol=tol)
    b = act.algebra

    if alg.dim != b.dim:
        return RoundtripCertificate(
            np.zeros((b.dim, 0)), {"dimension_mismatch": float(abs(alg.dim - b.dim))},
            (b.dim, alg.dim), False,
        )

    # column (i, p) of a label's block is component i of its basis vector p
    phi = np.zeros((b.dim, alg.dim), dtype=complex)
    for label, span in alg.spans.items():
        phi[:, span] = spec.bases[label].transpose(1, 0, 2).reshape(-1, b.dim).T

    residuals: dict[str, float] = {}
    sv = np.linalg.svd(phi, compute_uv=False)
    residuals["invertibility"] = float(sv.min())
    bijective = sv.min() > 1e-8

    # coordinates in B of the images of the basis products, and of the
    # products of the images of the basis
    images = np.tensordot(phi, np.tensordot(phi, b.structure_tensor(), axes=(0, 0)),
                          axes=(0, 1)).transpose(1, 0, 2)
    residuals["multiplicative"] = worst_mult = _worst(alg.model.table @ phi.T - images)
    # row i: the image of the star of basis element i, and the adjoint of
    # the image of basis element i
    stars = alg.model.star(np.eye(alg.dim)) @ phi.T
    residuals["star"] = worst_star = _worst(stars - phi.T.conj()[:, b.star_permutation()])

    worst_unit = float(np.abs(b.from_coords(phi @ alg.model.unit) - b.identity()).max())
    # the matrix units of the fixed algebra are the trivial component's basis
    trivial = alg.spans[backend.trivial_label]
    worst_fixed = _worst(b.from_coords(phi[:, trivial].T) - spec.fixed.unit_images)
    residuals["unit"] = worst_unit
    residuals["fixed_algebra"] = worst_fixed

    worst_eq = 0.0
    if act.kind == "automorphism":
        g = act.group
        for gi in range(g.order):
            # row i: the image of the coaction at g of basis element i, and
            # alpha_{g^-1} applied to the image of basis element i
            coacted = alg.model.prune(alg.coaction_matrix(gi).T) @ phi.T
            moved = (act.map_matrix(g.elements[g.inv(gi)]) @ phi).T
            worst_eq = max(worst_eq, _worst(coacted - moved))
    else:
        for label, span in alg.spans.items():
            worst_eq = max(worst_eq, _outside_span(phi[:, span], act.component_rows(label)))
    residuals["equivariance"] = worst_eq

    passed = bool(
        bijective
        and max(worst_mult, worst_star, worst_unit, worst_fixed, worst_eq) < 1e4 * tol
    )
    return RoundtripCertificate(phi, residuals, (b.dim, alg.dim), passed)


# -- equivariant modules ------------------------------------------------------


@dataclass
class EquivariantModule:
    """A right module over the acted-on algebra with a compatible group
    structure: an invertible map per group element (group kind) or a
    homogeneous grading of the carrier basis (dual kind).  The optional
    frame expresses the carrier basis in algebra coordinates when the
    module is (a sum of copies of) the algebra itself."""

    action: Action
    dim: int
    right: np.ndarray  # (dim B, dim, dim)
    inner: np.ndarray  # (dim, dim, n, n): B-valued
    comodule: dict[str, np.ndarray] | None = None
    grades: tuple[str, ...] | None = None
    frame: np.ndarray | None = None

    def inner_mat(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("p,q,pquv->uv", x.conj(), y, self.inner)

    def validate(self, tol: float = 1e-9) -> dict:
        b = self.action.algebra
        units = b.basis()
        worst = 0.0
        for k, u in enumerate(units):
            for l, v in enumerate(units):
                kl = b.coords(u @ v)
                expect = np.einsum("k,kpq->pq", kl, self.right)
                worst = max(worst, float(np.abs(
                    self.right[l] @ self.right[k] - expect
                ).max()))
        rep = {"module_law": worst}
        if self.action.kind == "automorphism":
            worst_cov = 0.0
            g = self.action.group
            for x in g.elements:
                w = self.comodule[x]
                for k, u in enumerate(units):
                    au = b.coords(self.action.apply(x, u))
                    rhs = np.einsum("k,kpq->pq", au, self.right) @ w
                    worst_cov = max(worst_cov, float(np.abs(
                        w @ self.right[k] - rhs
                    ).max()))
                # inner products twist by the action
                for p in range(self.dim):
                    for q in range(self.dim):
                        lhs = self.inner_mat(w[:, p], w[:, q])
                        rhs = self.action.apply(x, self.inner[p, q])
                        worst_cov = max(worst_cov, float(np.abs(lhs - rhs).max()))
            rep["equivariance"] = worst_cov
        else:
            worst_grade = 0.0
            g = self.action.group
            # grading compatibility: M_mu B_nu inside M_{mu nu}
            for mu_idx, mu in enumerate(self.grades):
                x = np.zeros(self.dim, dtype=complex)
                x[mu_idx] = 1.0
                for nu in g.elements:
                    for row in self.action.component_rows(nu):
                        moved = np.einsum("k,kpq,q->p", row, self.right, x)
                        target = g.elements[g.times(g.index(mu), g.index(nu))]
                        mask = np.array([gr != target for gr in self.grades])
                        worst_grade = max(worst_grade, float(
                            np.abs(moved[mask]).max() if mask.any() else 0.0
                        ))
            rep["equivariance"] = worst_grade
        rep["passed"] = all(v < 100 * tol for v in rep.values() if isinstance(v, float))
        return rep


def module_from_algebra(backend: Backend, act: Action) -> EquivariantModule:
    """The algebra as a module over itself."""
    _check_backend(backend, act)
    b = act.algebra
    regular = algebra_as_correspondence(b)
    right, inner = regular.right, regular.inner_tensor
    if act.kind == "automorphism":
        com = {x: act.map_matrix(x) for x in act.group.elements}
        return EquivariantModule(act, b.dim, right, inner, comodule=com,
                                 frame=np.eye(b.dim, dtype=complex))
    rows = []
    grades = []
    for label in act.group.elements:
        basis = spectral_basis(backend, act, label)
        for p in range(basis.shape[0]):
            rows.append(basis[p, 0])
            grades.append(label)
    # distinct components need not be orthogonal in coordinates (for a
    # nonabelian group algebra they are not), so transport operators with
    # the genuine inverse of the frame
    frame = np.array(rows)
    to_frame = np.linalg.inv(frame.T)
    right_h = np.zeros((b.dim, b.dim, b.dim), dtype=complex)
    for k in range(b.dim):
        right_h[k] = to_frame @ right[k] @ frame.T
    inner_h = np.einsum("pa,qb,abuv->pquv", frame.conj(), frame, inner)
    return EquivariantModule(act, b.dim, right_h, inner_h, grades=tuple(grades),
                             frame=frame)


def module_direct_sum(m1: EquivariantModule, m2: EquivariantModule) -> EquivariantModule:
    act = m1.action
    dim = m1.dim + m2.dim
    b = act.algebra
    right = np.zeros((b.dim, dim, dim), dtype=complex)
    inner = np.zeros((dim, dim, b.n, b.n), dtype=complex)
    right[:, : m1.dim, : m1.dim] = m1.right
    right[:, m1.dim:, m1.dim:] = m2.right
    inner[: m1.dim, : m1.dim] = m1.inner
    inner[m1.dim:, m1.dim:] = m2.inner
    if act.kind == "automorphism":
        com = {
            x: _block_diag(m1.comodule[x], m2.comodule[x])
            for x in act.group.elements
        }
        return EquivariantModule(act, dim, right, inner, comodule=com)
    return EquivariantModule(act, dim, right, inner, grades=m1.grades + m2.grades)


def _block_diag(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def module_tensor_irrep(backend: Backend, module: EquivariantModule,
                        label: str) -> EquivariantModule:
    """M (x) H for the representation space H of one irreducible; carrier
    index order is (module index, representation index)."""
    act = module.action
    rep = backend.atom(label)
    d = rep.dim
    dim = module.dim * d
    b = act.algebra
    right = np.zeros((b.dim, dim, dim), dtype=complex)
    for k in range(b.dim):
        right[k] = np.kron(module.right[k], np.eye(d))
    inner = np.zeros((dim, dim, b.n, b.n), dtype=complex)
    for p in range(module.dim):
        for q in range(module.dim):
            for i in range(d):
                inner[p * d + i, q * d + i] = module.inner[p, q]
    if act.kind == "automorphism":
        com = {}
        for gi, x in enumerate(act.group.elements):
            com[x] = np.kron(module.comodule[x], rep.matrices[gi])
        return EquivariantModule(act, dim, right, inner, comodule=com)
    return EquivariantModule(act, dim, right, inner,
                             grades=_tensor_grades(backend, module, label))


def _tensor_grades(backend: Backend, module: EquivariantModule,
                   label: str) -> tuple[str, ...]:
    """The grades of the carrier basis of M (x) H for a dual backend."""
    g = module.action.group
    gamma = backend.atom(label).grades[0]
    return tuple(g.elements[g.times(g.inv(gamma), g.index(mu))] for mu in module.grades)


# -- functors from module objects ----------------------------------------------


@dataclass
class ModuleFunctor:
    functor: TensorFunctorData
    endomorphisms: SubalgebraBlocks  # blocks of End(M) in the induced Hilbert space
    end_units_module: np.ndarray     # (dim A, dim M, dim M): units as module maps
    bases: dict[str, np.ndarray]     # per label: (mult, d, dim M, dim M) component maps
    module: EquivariantModule


def _right_linearity_rows(module: EquivariantModule, d: int) -> np.ndarray:
    """The equations T R_k = R'_k T of a map T : M -> M (x) H, stacked over
    the basis of B, where R'_k = R_k (x) I_d is the right action on M (x) H
    (module_tensor_irrep); they depend on H only through d = dim H."""
    t = module.dim * d
    # complex as module_tensor_irrep stores it, so the system stays complex
    right2 = _kron(module.right, np.eye(d)).astype(complex)
    # row-major vec: T A -> kron(I, A.T), A T -> kron(A, I)
    rows = _kron(np.eye(t), module.right.transpose(0, 2, 1)) - _kron(right2, np.eye(module.dim))
    return rows.reshape(-1, t * module.dim)


def _equivariant_maps(backend: Backend, module: EquivariantModule, label: str,
                      right_rows: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the right-linear equivariant maps
    M -> M (x) H_label, split into their components M -> M along the
    basis of H_label; shape (count, d, dim M, dim M).

    right_rows are the right-linearity equations for the dimension of
    H_label (_right_linearity_rows); the label adds its equivariance
    equations, one per group element or the grading mask.
    """
    act = module.action
    d = backend.irrep(label).dim
    t = module.dim * d
    if act.kind == "automorphism":
        # W_x T = (W_x (x) U_x) T, the comodule maps of M and M (x) H
        w = np.array([module.comodule[x] for x in act.group.elements])
        w2 = _kron(w, backend.atom(label).matrices)
        rows = _kron(np.eye(t), w.transpose(0, 2, 1)) - _kron(w2, np.eye(module.dim))
    else:
        grades = np.array(_tensor_grades(backend, module, label))
        mask = (grades[:, None] != np.array(module.grades)[None, :]).astype(float)
        rows = np.diag(mask.reshape(-1))
    # rows of M (x) H are indexed (module index, representation index)
    stacked = np.vstack([right_rows, rows.reshape(-1, t * module.dim)])
    basis = null_space(stacked).reshape(-1, module.dim, d, module.dim)
    return basis.transpose(0, 2, 1, 3)


def module_functor(backend: Backend, module: EquivariantModule, seed: int = 0,
                   base: tuple[BlockAlgebra, np.ndarray] | None = None) -> ModuleFunctor:
    """The functor of equivariant module maps M -> M (x) H attached to an
    equivariant module, over the algebra of equivariant endomorphisms.

    `base` optionally fixes the endomorphism algebra: a block algebra
    together with the images of its matrix units as module maps, shape
    (algebra dim, dim M, dim M).  Functors of related modules can then
    share one base algebra instead of each probing its own.  The maps of
    the trivial label, End(M) itself, are solved for only without `base`;
    with it, the given unit images are that label's basis.  The
    right-linearity equations are built once per irrep dimension.
    """
    nb = module.action.algebra.n
    # isometric coordinates for the Hilbert space induced by the inner product
    vecs, sing = StarAlgebraModel.gns_space(module.inner)

    def hilbert(t):
        """A module map M -> M, or each of a stack, as a matrix on the
        induced Hilbert space."""
        return (vecs * sing).conj().T @ _kron(t, np.eye(nb)) @ (vecs / sing)

    right_rows: dict[int, np.ndarray] = {}

    def equivariant_maps(label):
        d = backend.irrep(label).dim
        if d not in right_rows:
            right_rows[d] = _right_linearity_rows(module, d)
        return _equivariant_maps(backend, module, label, right_rows[d])

    triv = backend.trivial_label
    kdim = vecs.shape[1]
    if base is None:
        # maps into M (x) C are maps into M
        end_maps = [t[0] for t in equivariant_maps(triv)]
        end_h = [hilbert(t) for t in end_maps]
        blocks = decompose_star_algebra(end_h, kdim, seed=seed)
        unit_module = np.zeros((blocks.algebra.dim, module.dim, module.dim), dtype=complex)
        stack = np.array([t.reshape(-1) for t in end_h]).T
        for k in range(blocks.algebra.dim):
            coef, *_ = np.linalg.lstsq(stack, blocks.unit_images[k].reshape(-1), rcond=None)
            unit_module[k] = sum(c * t for c, t in zip(coef, end_maps))
    else:
        algebra, unit_module = base
        unit_module = np.asarray(unit_module, dtype=complex)
        images = np.array([hilbert(t) for t in unit_module])
        mults = []
        k = 0
        for d in algebra.blocks:
            mults.append(int(round(np.trace(images[k]).real)))
            k += d * d
        blocks = SubalgebraBlocks(algebra, images, tuple(mults), kdim)
    a = blocks.algebra

    # trivial component: matrix units of the endomorphism algebra themselves
    bases = {
        label: unit_module[:, None] if label == triv else equivariant_maps(label)
        for label in backend.labels
    }

    def pairing(xs, ys):
        # the Hilbert space induced by M (x) H is that of M, once per component
        return a.from_coords(blocks.restrict(_tuple_products(hilbert(xs), hilbert(ys))))

    functor = functor_from_subspaces(backend, a, bases, lambda t: t, np.matmul,
                                     pairing, "module-functor")
    return ModuleFunctor(functor, blocks, unit_module, bases, module)


# -- fullness -----------------------------------------------------------------


@dataclass
class FullnessCertificate:
    passed: bool
    chosen: list  # (label, tuple array (d, dim M))
    gram: np.ndarray | None  # <Y, Y> in B
    lower_constant: float
    residuals: dict[str, float]
    max_rank: int
    full_rank: int


def _tuple_space(backend: Backend, module: EquivariantModule, label: str) -> np.ndarray:
    """Vectors (X_1 ... X_d) in the spectral subspace of M for one
    irreducible; shape (count, d, dim M)."""
    act = module.action
    d = backend.irrep(label).dim
    if act.kind == "automorphism":
        u = backend.irrep(label).matrices
        w = np.array([module.comodule[x] for x in act.group.elements])
        rows = _kron(np.eye(d), w) - _kron(u.transpose(0, 2, 1), np.eye(module.dim))
        return null_space(rows.reshape(-1, d * module.dim)).reshape(-1, d, module.dim)
    g = act.group
    want = g.elements[g.inv(g.index(label))]
    hits = [p for p, gr in enumerate(module.grades) if gr == want]
    out = np.zeros((len(hits), 1, module.dim))
    for t, p in enumerate(hits):
        out[t, 0, p] = 1.0
    return out


def fullness_check(backend: Backend, module: EquivariantModule,
                   tol: float = 1e-9, min_eig: float = 1e-8) -> FullnessCertificate:
    """Search the spectral subspaces of a module for an invariant vector Y
    with invertible self-pairing; success certifies the module generates.

    On success the certificate carries Y's constituents, <Y, Y>, a constant
    c > 0 with <Y, Y> >= c * sum_i <X_i, X_i>, and the residual of the
    isometry x -> Y <Y,Y>^{-1/2} x on the algebra.  On failure it reports
    the maximal rank reached.
    """
    b = module.action.algebra
    chosen: list = []
    rho_blocks: list[np.ndarray] = []

    def y_gram(picks, rhos):
        total = np.zeros((b.n, b.n), dtype=complex)
        for (label, arr), rho in zip(picks, rhos):
            d = arr.shape[0]
            for i in range(d):
                for j in range(d):
                    total += rho[j, i] * module.inner_mat(arr[i], arr[j])
        return total

    all_gram = np.zeros((b.n, b.n), dtype=complex)
    candidates: list = []
    for label in backend.labels:
        space = _tuple_space(backend, module, label)
        rho = backend.irrep(label).rho
        for t in range(space.shape[0]):
            candidates.append((label, space[t]))
            d = space.shape[1]
            for i in range(d):
                for j in range(d):
                    all_gram += rho[j, i] * module.inner_mat(space[t][i], space[t][j])
    full_rank = int(np.linalg.matrix_rank((all_gram + all_gram.conj().T) / 2, tol=1e-8))

    gram = None
    for label, arr in candidates:
        chosen.append((label, arr))
        rho_blocks.append(backend.irrep(label).rho)
        gram = y_gram(chosen, rho_blocks)
        herm = (gram + gram.conj().T) / 2
        if np.linalg.eigvalsh(herm).min() > min_eig:
            break
    else:
        rank = 0
        if gram is not None:
            rank = int(np.linalg.matrix_rank((gram + gram.conj().T) / 2, tol=1e-8))
        return FullnessCertificate(False, chosen, gram, 0.0, {}, rank, full_rank)

    # lower bound <Y,Y> >= c sum <X_i, X_i> with c the smallest eigenvalue of
    # the (block diagonal) matrix of rho pairings
    scalar_blocks = [np.linalg.eigvalsh((r + r.conj().T) / 2).min() for r in rho_blocks]
    c = float(min(scalar_blocks))
    plain = np.zeros((b.n, b.n), dtype=complex)
    for label, arr in chosen:
        for i in range(arr.shape[0]):
            plain += module.inner_mat(arr[i], arr[i])
    bound = gram - c * plain
    bound_violation = -float(np.linalg.eigvalsh((bound + bound.conj().T) / 2).min())

    # isometry of x -> Y <Y,Y>^{-1/2} x: the pairing of images reproduces x* y
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    gram_inv_half = (v / np.sqrt(w)) @ v.conj().T
    worst_iso = 0.0
    for bu in b.basis():
        for bv in b.basis():
            q1 = gram_inv_half @ bu
            q2 = gram_inv_half @ bv
            val = np.zeros((b.n, b.n), dtype=complex)
            for (label, arr), rho in zip(chosen, rho_blocks):
                d = arr.shape[0]
                for i in range(d):
                    for j in range(d):
                        xi = np.einsum("k,kpq,q->p", b.coords(q1), module.right, arr[i])
                        xj = np.einsum("k,kpq,q->p", b.coords(q2), module.right, arr[j])
                        val += rho[j, i] * module.inner_mat(xi, xj)
            worst_iso = max(worst_iso, float(np.abs(val - bu.conj().T @ bv).max()))

    residuals = {
        "lower_bound_violation": max(bound_violation, 0.0),
        "embedding_isometry": worst_iso,
    }
    passed = bound_violation < 1e4 * tol and worst_iso < 1e-6
    return FullnessCertificate(passed, chosen, gram, c, residuals,
                               full_rank, full_rank)


# -- natural isomorphisms ------------------------------------------------------


@dataclass
class NaturalIso:
    maps: dict[str, np.ndarray]
    residuals: dict[str, float]
    passed: bool


def verify_natural_iso(f1: TensorFunctorData, f2: TensorFunctorData,
                       maps: dict[str, np.ndarray], tol: float = 1e-9) -> NaturalIso:
    """Check that a family of per-irreducible maps is a unitary isomorphism
    of functor data: bimodular, inner-product preserving, compatible with
    every multiplication tensor."""
    if f1.backend is not f2.backend:
        raise BackendError("functors live over different backends")
    if f1.algebra.blocks != f2.algebra.blocks:
        raise BackendError("functors live over different base algebras")
    backend = f1.backend
    residuals: dict[str, float] = {}
    worst_bimod = worst_inner = worst_mono = worst_shape = 0.0
    for label in backend.labels:
        m1, m2 = f1.module(label), f2.module(label)
        v = np.asarray(maps.get(label, np.zeros((m2.dim, m1.dim))), dtype=complex)
        if v.shape != (m2.dim, m1.dim):
            worst_shape = float("inf")
            continue
        if m1.dim != m2.dim:
            worst_shape = float("inf")
            continue
        if m1.dim == 0:
            continue
        sv = np.linalg.svd(v, compute_uv=False)
        if sv.size and (sv.min() < 1e-8):
            worst_shape = float("inf")
        for k in range(f1.algebra.dim):
            worst_bimod = max(
                worst_bimod,
                float(np.abs(v @ m1.left[k] - m2.left[k] @ v).max()),
                float(np.abs(v @ m1.right[k] - m2.right[k] @ v).max()),
            )
        lhs = np.einsum("ap,bq,abuv->pquv", v.conj(), v, m2.inner_tensor)
        worst_inner = max(worst_inner, float(np.abs(lhs - m1.inner_tensor).max()))
    for (alpha, beta, gamma), tensors1 in sorted(f1.phi.items()):
        m1a, m1b, m1g = (f1.module(x).dim for x in (alpha, beta, gamma))
        if 0 in (m1a, m1b, m1g):
            continue
        tensors2 = f2.phi_tensors(alpha, beta, gamma)
        va, vb, vg = maps[alpha], maps[beta], maps[gamma]
        for t1, t2 in zip(tensors1, tensors2):
            lhs = np.einsum("ts,spq->tpq", vg, t1)
            rhs = np.einsum("tab,ap,bq->tpq", t2, va, vb)
            worst_mono = max(worst_mono, float(np.abs(lhs - rhs).max()))
    residuals["shapes"] = worst_shape
    residuals["bimodule"] = worst_bimod
    residuals["inner_products"] = worst_inner
    residuals["monoidality"] = worst_mono
    passed = all(v < 1e4 * tol for v in residuals.values())
    return NaturalIso(dict(maps), residuals, passed)


# -- spectral data of a reconstructed algebra -----------------------------------


def algebra_spectral_functor(alg: ReconstructedAlgebra):
    """The functor of invariant subspaces of the coaction carried by a
    reconstructed algebra, over the same base algebra on the nose.

    Returns (functor, bases) with bases[label] of shape
    (multiplicity, irrep dim, algebra dim) in flat coordinates.
    """
    backend = alg.backend
    a = alg.algebra
    dim = alg.dim

    bases: dict[str, np.ndarray] = {}
    for label in backend.labels:
        dl = backend.irrep(label).dim
        if label == backend.trivial_label:
            # pin the trivial component to the matrix units of the base algebra
            bases[label] = np.array([[alg.from_algebra(u)] for u in a.basis()])
        elif backend.kind == "group":
            eye = np.eye(dl * dim)
            mats = backend.irrep(label).matrices
            # the coaction evaluated at g is the automorphism of g^{-1}
            basis = null_space(np.vstack([
                np.kron(mats[gi], alg.coaction_matrix(backend.group.inv(gi))) - eye
                for gi in range(backend.group.order)
            ]))
            bases[label] = basis.reshape(-1, dl, dim)
        elif label in alg.spans:
            span = alg.spans[label]
            bases[label] = np.eye(dim, dtype=complex)[span].reshape(-1, 1, dim)
        else:
            bases[label] = np.zeros((0, 1, dim))

    model = alg.model
    table = model.table.reshape(dim, dim * dim)

    def multiply_rows(xs, ys):
        """model.multiply of two broadcastable stacks of r rows (..., r, dim),
        each with the bits multiply gives its r rows alone."""
        left = (xs @ table).reshape(xs.shape[:-1] + (dim, dim))
        return model.prune((ys[..., None, :] @ left)[..., 0, :])

    def product(xs, ys):
        return multiply_rows(xs[..., None, :], ys[..., None, :])[..., 0, :]

    def pairing(xs, ys):
        # summed term by term, pruned after each addition
        terms = multiply_rows(model.star(xs), ys)
        total = terms[..., 0, :]
        for i in range(1, terms.shape[-2]):
            total = model.prune(total + terms[..., i, :])
        return model.base.from_coords((total[..., None, :] @ model.expect.T)[..., 0, :])

    functor = functor_from_subspaces(backend, a, bases, model.prune, product,
                                     pairing, f"spectral-of:{alg.functor.name}")
    return functor, bases


def functor_roundtrip_check(functor: TensorFunctorData, tol: float = 1e-9):
    """Certify the functor-side round trip: the spectral data of the rebuilt
    algebra is naturally unitarily isomorphic to the input, through the
    canonical map sending X to the invariant vector with components
    (basis vector i) (x) (conjugate basis vector i) (x) X."""
    from .reconstruction import build_algebra

    alg = build_algebra(functor, tol=tol)
    functor2, bases2 = algebra_spectral_functor(alg)
    maps: dict[str, np.ndarray] = {}
    for label in functor.backend.labels:
        m = functor.module(label).dim
        v = np.zeros((functor2.module(label).dim, m), dtype=complex)
        if m:
            span = InSpan(bases2[label], label)
            d = alg.shapes[label][0]
            for p in range(m):
                # component i is the basis element with entry (i, p) of the label
                vec = np.zeros((d, alg.dim), dtype=complex)
                for i in range(d):
                    vec[i, alg.offsets[label] + i * m + p] = 1.0
                v[:, p] = span(vec)
        maps[label] = v
    return verify_natural_iso(functor, functor2, maps, tol)


def canonical_module_iso(backend: Backend, act: Action, tol: float = 1e-9,
                         seed: int = 0):
    """The functor of the algebra as a module over itself, compared with the
    spectral functor of the action through the canonical identification
    X -> (b -> sum_i x_i b (x) basis vector i)."""
    spec = spectral_functor(backend, act, seed=seed)
    mod = module_from_algebra(backend, act)
    b = act.algebra
    units = b.basis()
    to_frame = np.linalg.inv(mod.frame.T) if mod.grades is not None else None

    def left_mult(x: np.ndarray) -> np.ndarray:
        """Left multiplication by x as a map of the module carrier."""
        lmat = np.array([b.coords(x @ u) for u in units]).T
        if to_frame is not None:
            lmat = to_frame @ lmat @ mod.frame.T
        return lmat

    lmaps = np.array([left_mult(unit) for unit in spec.fixed.unit_images])
    mf = module_functor(backend, mod, seed=seed, base=(spec.fixed.algebra, lmaps))
    maps: dict[str, np.ndarray] = {}
    for label in backend.labels:
        span = InSpan(mf.bases[label], label)
        basis = spec.bases[label]
        v = np.zeros((len(mf.bases[label]), len(basis)), dtype=complex)
        for p, vecs in enumerate(basis):
            v[:, p] = span([left_mult(b.from_coords(x)) for x in vecs])
        maps[label] = v
    return spec, mf, verify_natural_iso(spec.functor, mf.functor, maps, tol)
