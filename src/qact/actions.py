"""Concrete symmetry actions on block algebras and their spectral data.

An action is either a homomorphism from a finite group into the
*-automorphisms of a block algebra (group backend) or a group grading of
the algebra (dual backend).  From an action we extract its fixed-point
algebra, the invariant subspaces attached to each irreducible, and the
functor data they assemble into; the round-trip check certifies that
rebuilding the algebra from that data reproduces the original action.

An equivariant module holds its symmetry as its comodule, the images of
the basis of D (qact.repcat.DualAlgebra) on its carrier, for both kinds:
the module half is written once over D, and only the action half
branches on the action's kind.

One builder, `functor_from_subspaces`, turns invariant subspaces into
functor data.  It serves the spectral functor of an action (subspaces of
the acted-on algebra), the functor of an equivariant module (equivariant
maps M -> M (x) H) and the spectral functor of a reconstructed algebra.
The bases of the subspaces come from the routines of `blockdecomp`
(`row_spaces`, `column_span`), reached through that module so that one
patch changes them all; `InSpan` is the shared projection helper.  Only
the round trips rebuild an algebra, so only they import `reconstruction`;
`functors` and `staralg` are reached through their modules, so a verb
that never calls into them (`fullness`) leaves them unrun when the CLI
binds them lazily.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .algebras import BlockAlgebra, Correspondence, algebra_as_correspondence
from . import blockdecomp, functors, staralg
from .blockdecomp import SubalgebraBlocks, decompose_star_algebra
from .errors import ActionError, BackendError
from .groups import GroupPresentation
from .repcat import Backend
from .thresholds import (
    AUDIT_FACTOR,
    COMPOSITE_FACTOR,
    DEFAULT_TOL,
    ISOMETRY_TOL,
    NULL_VECTOR_FLOOR,
    RANK_TOL,
    SPAN_TOL,
)

if TYPE_CHECKING:
    from .reconstruction import ReconstructedAlgebra

# complex entries of tuple products per stack of functor_from_subspaces
CHUNK = 1 << 15


class Action:
    """A finite-group action ("automorphism" kind: one coordinate matrix per
    group element) or a group grading ("grading" kind: one coefficient-row
    array per group element) on a block algebra."""

    def __init__(self, kind: str, algebra: BlockAlgebra, group: GroupPresentation,
                 maps: dict[str, np.ndarray] | None = None,
                 components: dict[str, np.ndarray] | None = None, name: str = "action"):
        self.kind = kind
        self.algebra = algebra
        self.group = group
        self.maps = maps
        self.components = components
        self.name = name
        if self.kind not in ("automorphism", "grading"):
            raise ActionError(f"unknown action kind {self.kind!r}")
        if self.kind == "automorphism" and self.maps is None:
            raise ActionError("automorphism action needs its maps")
        if self.kind == "grading" and self.components is None:
            raise ActionError("grading action needs its components")
        dim = self.algebra.dim
        for x, m in (self.maps or {}).items():
            if np.shape(m) != (dim, dim):
                raise ActionError(f"the map of {x!r} has shape {np.shape(m)}, "
                                  f"not ({dim}, {dim})")

    def map_matrix(self, element: str) -> np.ndarray:
        return np.asarray(self.maps[element], dtype=complex)

    def component_rows(self, element: str) -> np.ndarray:
        rows = np.asarray(self.components.get(element, np.zeros((0, self.algebra.dim))),
                          dtype=complex)
        return rows.reshape(-1, self.algebra.dim)

    def module_maps(self) -> dict[str, np.ndarray]:
        """b <| e_x for each basis element e_x of the backend's dual algebra,
        as coordinate matrices: the inverse automorphism of x (automorphism
        kind), or the projection onto the component of x along the grading
        decomposition (grading kind)."""
        b = self.algebra
        g = self.group
        if self.kind == "automorphism":
            return {x: self.map_matrix(g.elements[g.inv(g.index(x))]) for x in g.elements}
        rows = [self.component_rows(x) for x in g.elements]
        v = np.vstack(rows)  # rows span B; coordinates along the grading
        if v.shape[0] != b.dim:
            raise ActionError("grading components do not span the algebra")
        vinv = np.linalg.inv(v.T)
        # owners[i]: the number of the group element whose component row i spans
        owners = np.repeat(np.arange(g.order), [len(r) for r in rows])
        return {x: v.T @ np.diag((owners == k).astype(float)) @ vinv
                for k, x in enumerate(g.elements)}

    def validate(self, tol: float = DEFAULT_TOL) -> dict:
        """Check that the data is an action: a homomorphism into the
        *-automorphisms, or a spanning grading whose components multiply
        and star into the components they must.  Each group element g is
        one stack: the automorphism of g against every element and its
        images of all matrix units, or every product and star that must
        lie in the component of g, with one least-squares solve each."""
        b = self.algebra
        g = self.group
        rep: dict = {"kind": self.kind}
        if self.kind == "automorphism":
            maps = np.array([self.map_matrix(x) for x in g.elements])
            perm = b.star_permutation()
            products = b.structure_tensor()
            worst_hom = _worst(maps[g.identity] - np.eye(b.dim))
            worst_mult = worst_star = 0.0
            for x, tx in enumerate(maps):
                worst_hom = max(worst_hom, _worst(tx @ maps - maps[g.mul[x]]))
                # images[k] is alpha_x of matrix unit k
                images = b.from_coords(tx.T)
                worst_star = max(worst_star, _worst(
                    images[perm] - images.conj().transpose(0, 2, 1)))
                worst_mult = max(worst_mult, _worst(
                    b.from_coords(products @ tx.T) - images[:, None] @ images[None]))
            rep["homomorphism"] = worst_hom
            rep["multiplicative"] = worst_mult
            rep["star_preserving"] = worst_star
            rep["passed"] = max(worst_hom, worst_mult, worst_star) < COMPOSITE_FACTOR * tol
        else:
            stacked = np.vstack([self.component_rows(x) for x in g.elements])
            if stacked.shape[0] != b.dim:
                rep["spanning"] = False
                rep["passed"] = False
                return rep
            sv = np.linalg.svd(stacked, compute_uv=False)
            rep["spanning"] = bool(sv.min() > RANK_TOL)
            worst_mult = 0.0
            worst_star = 0.0
            mats = [b.from_coords(self.component_rows(x)) for x in g.elements]
            for zi, z in enumerate(g.elements):
                # the stars of the component of z^-1, and the products of
                # the components of x and y for every xy = z
                rows = self.component_rows(z)
                starred = b.coords(mats[g.inv(zi)].conj().transpose(0, 2, 1))
                worst_star = max(worst_star, _outside_span(starred.T, rows))
                prods = [b.coords(mats[xi][:, None] @ mats[g.mul[g.inv(xi), zi]][None])
                         for xi in range(g.order)]
                worst_mult = max(worst_mult, _outside_span(
                    np.concatenate([p.reshape(-1, b.dim) for p in prods]).T, rows))
            rep["component_products"] = worst_mult
            rep["component_star"] = worst_star
            rep["passed"] = bool(
                rep["spanning"] and max(worst_mult, worst_star) < COMPOSITE_FACTOR * tol
            )
        return rep


def _outside_span(vecs: np.ndarray, rows: np.ndarray) -> float:
    """The largest distance of a vector, or of the columns of a matrix,
    from the span of the rows; vectors of norm below NULL_VECTOR_FLOOR count as 0."""
    vecs = vecs.reshape(len(vecs), -1)
    norms = np.linalg.norm(vecs, axis=0)
    vecs = vecs[:, norms >= NULL_VECTOR_FLOOR]
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


def fixed_point_algebra(backend: Backend, act: Action) -> SubalgebraBlocks:
    """The invariant subalgebra, with its block structure and embedding."""
    _check_backend(backend, act)
    b = act.algebra
    if act.kind == "automorphism":
        proj = np.zeros((b.dim, b.dim), dtype=complex)
        for x in act.group.elements:
            proj += act.map_matrix(x)
        proj /= act.group.order
        mats = [b.from_coords(col) for col in blockdecomp.column_span(proj).T]
    else:
        e = act.group.elements[act.group.identity]
        mats = [b.from_coords(row) for row in act.component_rows(e)]
    return decompose_star_algebra(mats, b.n)


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
    alone.  A vector farther than SPAN_TOL (relative) from its span raises
    ActionError, naming the span.
    """
    coords = (pinv @ vecs[..., None])[..., 0]
    back = (flat.swapaxes(-1, -2) @ coords[..., None])[..., 0]
    resid = np.linalg.norm(back - vecs, axis=-1)
    bad = resid > SPAN_TOL * np.maximum(1.0, np.linalg.norm(vecs, axis=-1))
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
                           pairing, name: str) -> functors.TensorFunctorData:
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

    # the fusion triples of each pair of live labels, in label order: the
    # constituents of every alpha x beta come from one decomposition, and
    # only those get an intertwiner basis
    live = [label for label in backend.labels if len(elements[label])]
    pairs = [(alpha, beta) for alpha in live for beta in live]
    words = backend.decompose_words([((alpha, False), (beta, False)) for alpha, beta in pairs])
    fusion: dict = {}
    phi: dict[tuple[str, str, str], list[np.ndarray]] = {}
    for (alpha, beta), parts in zip(pairs, words):
        pair = backend.tensor(backend.atom(alpha), backend.atom(beta))
        occurring = {gamma for gamma, _ in parts}
        for gamma in live:
            if gamma in occurring:
                basis_t = backend.mor_basis(pair, backend.atom(gamma))
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
    return functors.TensorFunctorData(backend, base, modules, phi, name=name)


def _spectral_tuples(backend: Backend, label: str, maps: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the spectral subspace of one irreducible for a
    left D-module structure L(e_x) = maps[x] on C^dim: the null space of
    sum_k pibar(b_k) (x) L(c_k) - eps(e_x) 1, stacked over D's basis e_x,
    for the coproduct Delta(e_x) = sum_k e_(b_k) (x) e_(c_k), the counit eps
    and pibar the irrep read through D's conjugation index; shape (count,
    d, dim).  The rows are one kron per coproduct column, summed in column
    order, and eps is subtracted on the diagonal in place, so a coproduct
    of one column (C[G]) gives kron(u(g), L(g)) - 1 with np.kron's bits."""
    dual = backend.dual
    mats = backend.irrep(label).matrices
    b, c = dual.coproduct
    d, dim = mats.shape[-1], maps.shape[-1]
    rows = _kron(mats[dual.conj[b[:, 0]]], maps[c[:, 0]])
    for k in range(1, b.shape[1]):
        rows += _kron(mats[dual.conj[b[:, k]]], maps[c[:, k]])
    # every (d dim + 1)-th entry of a flattened block is on its diagonal
    flat = rows.reshape(len(rows), -1)
    flat[:, ::d * dim + 1] -= dual.counit[:, None]
    return blockdecomp.row_spaces(flat.reshape(-1, d * dim))[1].reshape(-1, d, dim)


def spectral_basis(backend: Backend, act: Action, label: str) -> np.ndarray:
    """Orthonormal basis of the invariant subspace attached to one
    irreducible, shape (multiplicity, irrep dim, dim B)."""
    _check_backend(backend, act)
    if act.kind == "automorphism":
        maps = np.array([act.map_matrix(x) for x in act.group.elements])
        return _spectral_tuples(backend, label, maps)
    span, _ = blockdecomp.row_spaces(act.component_rows(label))
    return span.reshape(-1, 1, act.algebra.dim)


class SpectralFunctor:
    """Functor data extracted from an action, with the context needed to
    relate it back to the algebra it came from."""

    def __init__(self, functor: functors.TensorFunctorData, fixed: SubalgebraBlocks,
                 bases: dict[str, np.ndarray], action: Action):
        self.functor = functor
        self.fixed = fixed
        self.bases = bases
        self.action = action


def spectral_functor(backend: Backend, act: Action) -> SpectralFunctor:
    """Assemble the functor of invariant subspaces of an action.

    Each module carries the bimodule structure over the fixed-point algebra
    and the inner product <X, Y> = sum_i x_i* y_i; the multiplication maps
    are composition of invariant tensors followed by the intertwiner.
    """
    _check_backend(backend, act)
    b = act.algebra
    fixed = fixed_point_algebra(backend, act)
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


def canonical_map(spec: SpectralFunctor, alg: ReconstructedAlgebra) -> np.ndarray:
    """The canonical map from an algebra rebuilt from functor data with the
    module dimensions of `spec` onto the acted-on algebra, as a coordinate
    matrix (dim B, alg.dim): column (i, p) of a label's block is component
    i of its basis vector p."""
    b = spec.action.algebra
    phi = np.zeros((b.dim, alg.dim), dtype=complex)
    for label, span in alg.spans.items():
        phi[:, span] = spec.bases[label].transpose(1, 0, 2).reshape(-1, b.dim).T
    return phi


def roundtrip_check(backend: Backend, act: Action, tol: float = DEFAULT_TOL) -> dict:
    """Rebuild the algebra from the spectral data of an action and certify
    the canonical map back onto the original algebra: a unital
    *-isomorphism (staralg.verify_algebra_iso), equivariant, and the
    identity on the fixed subalgebra.

    Returns the certificate section of the roundtrip report: `passed`,
    `residuals`, `dims` (of the algebra and of the rebuilt one) and
    `isomorphism`, the canonical map as a coordinate matrix."""
    from .reconstruction import build_algebra

    spec = spectral_functor(backend, act)
    alg = build_algebra(spec.functor, tol=tol)
    b = act.algebra

    if alg.dim != b.dim:
        return {"passed": False,
                "residuals": {"dimension_mismatch": float(abs(alg.dim - b.dim))},
                "dims": [b.dim, alg.dim], "isomorphism": np.zeros((b.dim, 0))}

    phi = canonical_map(spec, alg)
    iso = staralg.verify_algebra_iso(alg.model, staralg.StarAlgebraModel.of_block_algebra(b),
                                     phi, tol)
    residuals = {"invertibility": iso["smallest_singular_value"],
                 "multiplicative": iso["multiplicative"], "star": iso["star"],
                 "unit": iso["unit"]}
    # the matrix units of the fixed algebra are the trivial component's basis
    trivial = alg.spans[backend.trivial_label]
    worst_fixed = _worst(b.from_coords(phi[:, trivial].T) - spec.fixed.unit_images)
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

    passed = bool(iso["passed"] and max(worst_fixed, worst_eq) < AUDIT_FACTOR * tol)
    return {"passed": passed, "residuals": residuals, "dims": [b.dim, alg.dim],
            "isomorphism": phi}


# -- equivariant modules ------------------------------------------------------


class EquivariantModule:
    """A right module over the acted-on algebra with a compatible symmetry,
    its comodule: the images of D's basis on the carrier, an invertible map
    per group element (group kind) or the grade projections of a
    homogeneous carrier basis (dual kind).  The frame expresses the carrier
    basis in algebra coordinates when the module is the algebra itself."""

    def __init__(self, action: Action, dim: int, right: np.ndarray, inner: np.ndarray,
                 comodule: np.ndarray, frame: np.ndarray | None = None):
        self.action = action
        self.dim = dim
        self.right = right  # (dim B, dim, dim)
        self.inner = inner  # (dim, dim, n, n): B-valued
        self.comodule = comodule  # (|G|, dim, dim): the images of D's basis
        self.frame = frame


def module_from_algebra(backend: Backend, act: Action) -> EquivariantModule:
    """The algebra as a module over itself."""
    _check_backend(backend, act)
    b = act.algebra
    regular = algebra_as_correspondence(b)
    right, inner = regular.right, regular.inner_tensor
    if act.kind == "automorphism":
        com = np.array([act.map_matrix(x) for x in act.group.elements])
        return EquivariantModule(act, b.dim, right, inner, com, np.eye(b.dim, dtype=complex))
    bases = [spectral_basis(backend, act, label) for label in act.group.elements]
    grades = np.repeat(np.arange(len(bases)), [len(basis) for basis in bases])
    com = np.array([np.diag(grades == x).astype(complex) for x in range(len(bases))])
    # distinct components need not be orthogonal in coordinates (for a
    # nonabelian group algebra they are not), so transport operators with
    # the genuine inverse of the frame
    frame = np.concatenate([basis[:, 0] for basis in bases])
    right_h = np.linalg.inv(frame.T) @ right @ frame.T
    inner_h = np.einsum("pa,qb,abuv->pquv", frame.conj(), frame, inner)
    return EquivariantModule(act, b.dim, right_h, inner_h, com, frame)


def _tensor_comodule(backend: Backend, comodule: np.ndarray, label: str) -> np.ndarray:
    """The comodule of M (x) H for one irreducible: e_x goes to the sum of
    W(b) (x) pibar(a) over the coproduct pairs (a, b) of x, for pibar the
    irrep read through D's conjugation index; carrier index order (module
    index, representation index)."""
    pibar = backend.irrep(label).matrices[backend.dual.conj]
    d, m = pibar.shape[-1], comodule.shape[-1]
    out = backend._tensor(pibar[None], comodule[None])[0].reshape(-1, d, m, d, m)
    return out.transpose(0, 2, 1, 4, 3).reshape(-1, m * d, m * d)


# -- functors from module objects ----------------------------------------------


class ModuleFunctor:
    def __init__(self, functor: functors.TensorFunctorData, endomorphisms: SubalgebraBlocks,
                 end_units_module: np.ndarray, bases: dict[str, np.ndarray],
                 module: EquivariantModule):
        self.functor = functor
        self.endomorphisms = endomorphisms  # blocks of End(M) in the induced Hilbert space
        self.end_units_module = end_units_module  # (dim A, dim M, dim M): units as module maps
        self.bases = bases  # per label: (mult, d, dim M, dim M) component maps
        self.module = module


def _right_linearity_rows(module: EquivariantModule, d: int) -> np.ndarray:
    """The equations T R_k = R'_k T of a map T : M -> M (x) H, stacked over
    the basis of B, where R'_k = R_k (x) I_d is the right action on M (x) H,
    carrier index order (module index, representation index); they depend
    on H only through d = dim H."""
    t = module.dim * d
    # complex, so the system stays complex for a real right action
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
    H_label (_right_linearity_rows); the label adds T W(x) = W'(x) T over
    D's basis, for the comodules W of M and W' of M (x) H.  Where that
    basis is projections every block is diagonal, and one diagonal of their
    largest moduli has their null space.
    """
    d = backend.irrep(label).dim
    t = module.dim * d
    w = module.comodule
    w2 = _tensor_comodule(backend, w, label)
    if backend.dual.pointwise:
        diagonals = np.einsum("xcc->xc", w)[:, None] - np.einsum("xrr->xr", w2)[:, :, None]
        rows = np.diag(np.abs(diagonals).max(axis=0).reshape(-1))
    else:
        rows = _kron(np.eye(t), w.transpose(0, 2, 1)) - _kron(w2, np.eye(module.dim))
    # rows of M (x) H are indexed (module index, representation index)
    stacked = np.vstack([right_rows, rows.reshape(-1, t * module.dim)])
    basis = blockdecomp.row_spaces(stacked)[1].reshape(-1, module.dim, d, module.dim)
    return basis.transpose(0, 2, 1, 3)


def module_functor(backend: Backend, module: EquivariantModule,
                   base: tuple[BlockAlgebra, np.ndarray] | None = None) -> ModuleFunctor:
    """The functor of equivariant module maps M -> M (x) H attached to an
    equivariant module, over the algebra of equivariant endomorphisms.

    `base` optionally fixes the endomorphism algebra: a block algebra
    together with the images of its matrix units as module maps, shape
    (algebra dim, dim M, dim M).  Functors of related modules can then
    share one base algebra instead of each decomposing its own.  The maps of
    the trivial label, End(M) itself, are solved for only without `base`;
    with it, the given unit images are that label's basis.  The
    right-linearity equations are built once per irrep dimension.
    """
    nb = module.action.algebra.n
    # isometric coordinates for the Hilbert space induced by the inner product
    vecs, sing = staralg.StarAlgebraModel.gns_space(module.inner)

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
        end_maps = equivariant_maps(triv)[:, 0]
        end_h = hilbert(end_maps)
        blocks = decompose_star_algebra(end_h, kdim)
        unit_module = np.zeros((blocks.algebra.dim, module.dim, module.dim), dtype=complex)
        stack = end_h.reshape(len(end_h), -1).T
        for k in range(blocks.algebra.dim):
            coef, *_ = np.linalg.lstsq(stack, blocks.unit_images[k].reshape(-1), rcond=None)
            unit_module[k] = sum(c * t for c, t in zip(coef, end_maps))
    else:
        algebra, unit_module = base
        unit_module = np.asarray(unit_module, dtype=complex)
        images = hilbert(unit_module)
        # the multiplicity of a block is the trace of its first matrix unit
        firsts = np.cumsum((0,) + tuple(d * d for d in algebra.blocks[:-1]))
        mults = np.trace(images[firsts], axis1=1, axis2=2).real.round().astype(int)
        blocks = SubalgebraBlocks(algebra, images, tuple(int(m) for m in mults), kdim)
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


def _tuple_space(backend: Backend, module: EquivariantModule, label: str) -> np.ndarray:
    """Vectors (X_1 ... X_d) in the spectral subspace of M for one
    irreducible, the null space of kron(I_d, W(x)) - kron(pibar(x)^T, I_M)
    stacked over D's basis; shape (count, d, dim M)."""
    d = backend.irrep(label).dim
    if module.dim == 0:
        return np.zeros((0, d, 0), dtype=complex)
    pibar = backend.irrep(label).matrices[backend.dual.conj]
    rows = _kron(np.eye(d), module.comodule) - _kron(pibar.transpose(0, 2, 1), np.eye(module.dim))
    kernel = blockdecomp.row_spaces(rows.reshape(-1, d * module.dim))[1]
    return kernel.reshape(-1, d, module.dim)


def fullness_check(backend: Backend, module: EquivariantModule,
                   tol: float = DEFAULT_TOL) -> dict:
    """Search the spectral subspaces of a module for an invariant vector Y
    with invertible self-pairing; success certifies the module generates.

    The candidates are the basis tuples X of every spectral subspace, label
    by label in backend order; tuple X contributes sum_i <X_i, X_i>.  Y
    gathers the shortest prefix of the candidates whose summed contributions
    have a Hermitian part with smallest eigenvalue above RANK_TOL.

    Returns the certificate section of the fullness report.  On success it
    carries the labels of Y's constituents (`chosen`), <Y, Y> (`gram`), the
    constant c = 1 of <Y, Y> >= c * sum_i <X_i, X_i> (`lower_constant`),
    and the residual of the isometry x -> Y <Y,Y>^{-1/2} x on the algebra.
    On failure `max_rank` is the rank of the sum over all candidates.  With
    rho = 1 the bound is an equality, one sum taken in two orders, so
    `lower_bound_violation` is a rounding check.
    """
    b = module.action.algebra
    chosen: list = []
    pairings: list[np.ndarray] = []
    for label in backend.labels:
        space = _tuple_space(backend, module, label)
        chosen += [(label, x) for x in space]
        pairings.append(np.einsum("tip,tiq,pquv->tuv", space.conj(), space, module.inner))
    # grams[k] is <Y, Y> for Y made of the first k + 1 candidates
    grams = np.cumsum(np.concatenate(pairings), axis=0)
    herm = (grams + grams.conj().swapaxes(-1, -2)) / 2
    max_rank = int(np.linalg.matrix_rank(herm[-1], tol=RANK_TOL)) if len(herm) else 0
    invertible = np.flatnonzero(np.linalg.eigvalsh(herm)[:, 0] > RANK_TOL)
    if not invertible.size:
        return {"passed": False, "chosen": [label for label, _ in chosen],
                "gram": grams[-1] if len(grams) else None, "lower_constant": 0.0,
                "residuals": {}, "max_rank": max_rank}
    count = invertible[0] + 1
    chosen, gram = chosen[:count], grams[count - 1]

    # lower bound <Y,Y> >= 1 * sum <X_i, X_i>, over the components of all
    # chosen tuples at once
    comps = np.concatenate([x for _, x in chosen])
    plain = np.einsum("ip,iq,pquv->uv", comps.conj(), comps, module.inner)
    bound = gram - plain
    bound_violation = -float(np.linalg.eigvalsh((bound + bound.conj().T) / 2).min())

    # isometry of x -> Y <Y,Y>^{-1/2} x: the pairing of images reproduces
    # x* y for every pair of matrix units x, y
    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    gram_inv_half = (v / np.sqrt(w)) @ v.conj().T
    units = b.from_coords(np.eye(b.dim))
    # images[x, a] is component a of Y times <Y,Y>^{-1/2} u_x
    acting = np.tensordot(b.coords(gram_inv_half @ units), module.right, 1)
    images = (acting @ comps.T).swapaxes(1, 2)
    # sum_p conj(images[x, a, p]) inner[p, q] first, then summed over (a, q)
    # against the images of y: vals[y, x] pairs the images of x, y
    left = images.conj().reshape(-1, module.dim) @ module.inner.reshape(module.dim, -1)
    vals = np.tensordot(images.reshape(b.dim, -1),
                        left.reshape(b.dim, -1, b.n * b.n), axes=(1, 1))
    target = units.conj().swapaxes(1, 2)[None] @ units[:, None]
    worst_iso = float(np.abs(vals.reshape(target.shape) - target).max())

    residuals = {
        "lower_bound_violation": max(bound_violation, 0.0),
        "embedding_isometry": worst_iso,
    }
    passed = bound_violation < AUDIT_FACTOR * tol and worst_iso < ISOMETRY_TOL
    return {"passed": passed, "chosen": [label for label, _ in chosen], "gram": gram,
            "lower_constant": 1.0, "residuals": residuals, "max_rank": max_rank}


# -- natural isomorphisms ------------------------------------------------------


def verify_natural_iso(f1: functors.TensorFunctorData, f2: functors.TensorFunctorData,
                       maps: dict[str, np.ndarray], tol: float = DEFAULT_TOL) -> dict:
    """Check that a family of per-irreducible maps is a unitary isomorphism
    of functor data: bimodular, inner-product preserving, compatible with
    every multiplication tensor.  Returns the report section
    {passed, residuals}."""
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
        if sv.size and (sv.min() < RANK_TOL):
            worst_shape = float("inf")
        worst_bimod = max(worst_bimod, _worst(v @ m1.left - m2.left @ v),
                          _worst(v @ m1.right - m2.right @ v))
        lhs = np.einsum("ap,bq,abuv->pquv", v.conj(), v, m2.inner_tensor)
        worst_inner = max(worst_inner, float(np.abs(lhs - m1.inner_tensor).max()))
    for (alpha, beta, gamma), tensors1 in sorted(f1.phi.items()):
        m1a, m1b, m1g = (f1.module(x).dim for x in (alpha, beta, gamma))
        if 0 in (m1a, m1b, m1g):
            continue
        tensors2 = f2.phi_tensors(alpha, beta, gamma)
        va, vb, vg = maps[alpha], maps[beta], maps[gamma]
        lhs = np.einsum("ts,mspq->mtpq", vg, np.array(tensors1))
        rhs = np.einsum("mtab,ap,bq->mtpq", np.array(tensors2), va, vb)
        worst_mono = max(worst_mono, _worst(lhs - rhs))
    residuals["shapes"] = worst_shape
    residuals["bimodule"] = worst_bimod
    residuals["inner_products"] = worst_inner
    residuals["monoidality"] = worst_mono
    return {"passed": all(v < AUDIT_FACTOR * tol for v in residuals.values()),
            "residuals": residuals}


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
    # e_x acts as the coaction at e_x*: g^-1 for C[G], x for C(Gamma)
    coaction = np.array([alg.coaction_matrix(x) for x in backend.dual.star])
    # the trivial component is pinned to the matrix units of the base algebra
    bases = {label: np.array([[alg.from_algebra(u)] for u in a.basis()])
             if label == backend.trivial_label else _spectral_tuples(backend, label, coaction)
             for label in backend.labels}

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


def functor_roundtrip_check(functor: functors.TensorFunctorData, tol: float = DEFAULT_TOL):
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
        if not m:
            maps[label] = np.zeros((functor2.module(label).dim, 0), dtype=complex)
            continue
        d = alg.shapes[label][0]
        # vector p has as component i the basis element with entry (i, p)
        # of the label
        entries = alg.offsets[label] + np.arange(d) * m + np.arange(m)[:, None]
        vecs = np.eye(alg.dim, dtype=complex)[entries]
        maps[label] = np.ascontiguousarray(InSpan(bases2[label], label)(vecs).T)
    return verify_natural_iso(functor, functor2, maps, tol)


def canonical_module_iso(backend: Backend, act: Action, tol: float = DEFAULT_TOL):
    """The functor of the algebra as a module over itself, compared with the
    spectral functor of the action through the canonical identification
    X -> (b -> sum_i x_i b (x) basis vector i).  Returns (spectral functor,
    module functor, the natural_iso_to_spectral section of verify_natural_iso)."""
    spec = spectral_functor(backend, act)
    mod = module_from_algebra(backend, act)
    b = act.algebra
    left = algebra_as_correspondence(b).left

    def left_mult(coords: np.ndarray) -> np.ndarray:
        """Left multiplication by the elements with the given coordinates
        (..., dim B) as maps of the module carrier, in its frame."""
        return np.linalg.inv(mod.frame.T) @ np.tensordot(coords, left, 1) @ mod.frame.T

    lmaps = left_mult(b.coords(spec.fixed.unit_images))
    mf = module_functor(backend, mod, base=(spec.fixed.algebra, lmaps))
    maps = {label: np.ascontiguousarray(
                InSpan(mf.bases[label], label)(left_mult(spec.bases[label])).T)
            for label in backend.labels}
    return spec, mf, verify_natural_iso(spec.functor, mf.functor, maps, tol)
