"""Assembly of the graded *-algebra attached to validated functor data.

The algebra lives on the direct sum, over irreducibles alpha, of
(conjugate space of H_alpha) (x) M_alpha.  The product routes elementary
tensors through the multiplication maps and reprojects onto irreducible
components; the involution pairs each component with its conjugate; the
distinguished component of the trivial irreducible is the base algebra,
and compressing onto it is the conditional expectation.  The operator
norm comes from the left regular representation on the induced Hilbert
space of the expectation.

The algebra is one flat model: an element is a coordinate vector, the
components laid out label by label.  The product table, the star matrix,
the Gram matrix of the expectation and the regular representation
compressed onto its GNS space are built once; product, star, expectation
and norm then act on whole stacks of vectors (multiply_flat, star_flat,
expectation_flat, operator_norm_flat), so the build audit and the round
trip are batched contractions.  Each label component of a result is
pruned at PRUNE_TOL, as GradedElement prunes it, which keeps exact zero
residuals exactly zero.  GradedElement, one array per label, remains the
element view for callers that build elements component by component.
"""

from __future__ import annotations

import numpy as np

from .functors import Realization, TensorFunctorData, validate_functor

PRUNE_TOL = 1e-13
# flat operations work through stacks in chunks of about this many entries
CHUNK_ENTRIES = 1 << 17


class BuildError(ValueError):
    """Functor data failed validation on entry to the build."""


class GradedElement:
    """An element of the reconstructed algebra: one coefficient array of
    shape (irrep dim, module dim) per irreducible label."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[str, np.ndarray] | None = None):
        self.parts = {}
        if parts:
            for label, arr in parts.items():
                arr = np.asarray(arr, dtype=complex)
                if arr.size and np.abs(arr).max() > PRUNE_TOL:
                    self.parts[label] = arr

    def __add__(self, other):
        out = {label: arr.copy() for label, arr in self.parts.items()}
        for label, arr in other.parts.items():
            if label in out:
                out[label] = out[label] + arr
            else:
                out[label] = arr
        return GradedElement(out)

    def scale(self, c: complex):
        return GradedElement({l: c * a for l, a in self.parts.items()})

    def __sub__(self, other):
        return self + other.scale(-1.0)


class ReconstructedAlgebra:
    """The graded *-algebra of a functor as a flat model.

    An element is a flat coordinate vector: component alpha, an array of
    shape (irrep dim, module dim), sits row-major at offsets[alpha].  The
    product table, the star matrix, the Gram matrix of the expectation and
    the compressed regular representation are each built once; the flat
    operations act on stacks (..., dim) of such vectors and prune their
    outputs as GradedElement does.  multiply, star, inner and
    operator_norm on GradedElements are thin wrappers over them.
    """

    def __init__(self, functor: TensorFunctorData, tol: float = 1e-9,
                 validate: bool = True):
        if validate:
            report = validate_functor(functor, tol)
            if not report.passed:
                bad = sorted(k for k, v in report.axioms.items() if not v.passed)
                raise BuildError(f"functor data fails validation at {bad}")
        self.functor = functor
        self.backend = functor.backend
        self.algebra = functor.algebra
        self.tol = tol
        self.real = Realization(functor)

        self.labels = []
        self.shapes: dict[str, tuple[int, int]] = {}
        self.offsets: dict[str, int] = {}
        self.spans: dict[str, slice] = {}
        off = 0
        for label in self.backend.labels:
            d = self.backend.irrep(label).dim
            m = functor.module(label).dim
            if m == 0:
                continue
            self.labels.append(label)
            self.shapes[label] = (d, m)
            self.offsets[label] = off
            self.spans[label] = slice(off, off + d * m)
            off += d * m
        self.dim = off

        self._table = self._build_table()
        self._star = self._build_star_matrix()
        self._gram = None
        self._norm_ops = None

    # -- structure -----------------------------------------------------------

    def _build_table(self) -> np.ndarray:
        """Entry [i, j] is the flat product of basis elements i and j: the
        elementary tensors are routed through F_2 and reprojected onto each
        irreducible component gamma of the word; each gamma component is
        pruned as GradedElement prunes it."""
        table = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
        for a in self.labels:
            oa = self.real.atom_object(a)
            da = self.shapes[a][0]
            for b in self.labels:
                ob = self.real.atom_object(b)
                db = self.shapes[b][0]
                word = self.real.object(oa.atoms + ob.atoms)
                f2 = self.real.f2_tensor(oa, ob)
                for k, (gamma, wk) in enumerate(word.components):
                    if gamma not in self.shapes:
                        continue
                    dg = self.shapes[gamma][0]
                    wt = wk.T.reshape(dg, da, db)
                    block = np.einsum("cij,rpq->ipjqcr", wt, f2[word.slot(k)])
                    table[self.spans[a], self.spans[b], self.spans[gamma]] += block.reshape(
                        block.shape[0] * block.shape[1], block.shape[2] * block.shape[3], -1)
        for span in self.spans.values():
            _prune_components(table[:, :, span])
        table.setflags(write=False)
        return table

    def _build_star_matrix(self) -> np.ndarray:
        """Flat star(x) = S conj(x): component alpha of x goes to the
        conjugate label as cmat conj(x_alpha) partners^T, one block
        kron(cmat, partners) of S per label."""
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for a in self.labels:
            m = self.shapes[a][1]
            sol = self.backend.conjugate_solution(a)
            (target, w), = self.real.atom_object(a, barred=True).components
            partners = self.real.involution_partners(a, np.eye(m), tol=self.tol).T
            cmat = w.T @ sol.r.conj()
            out[self.spans[target], self.spans[a]] += np.kron(cmat, partners)
        out.setflags(write=False)
        return out

    def multiplication_table(self) -> np.ndarray:
        """Entry [i, j] is the flat product of basis elements i and j, with
        each component pruned as multiply prunes it.  Built once; read-only."""
        return self._table

    def star_matrix(self) -> np.ndarray:
        """Flat star(x) = star_matrix() @ conj(x).  Built once; read-only."""
        return self._star

    def coaction_matrix(self, gi: int) -> np.ndarray:
        """The coaction evaluated at group element number gi, on flat
        coordinates: block kron(u_alpha(g)^T, 1) per label."""
        if self.backend.kind != "group":
            raise BuildError("pointwise coaction evaluation needs a group backend")
        out = np.zeros((self.dim, self.dim), dtype=complex)
        for label, span in self.spans.items():
            u = self.backend.irrep(label).matrices[gi]
            out[span, span] = np.kron(u.T, np.eye(self.shapes[label][1]))
        return out

    # -- flat operations on stacks (..., dim) ----------------------------------

    def prune(self, xs: np.ndarray) -> np.ndarray:
        """A copy of xs with every label component whose entries all lie
        within PRUNE_TOL set to zero, as GradedElement drops it."""
        out = np.array(xs, dtype=complex)
        for span in self.spans.values():
            _prune_components(out[..., span])
        return out

    def multiply_flat(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Products of two broadcastable stacks of flat vectors."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=complex),
                                     np.asarray(ys, dtype=complex))
        shape = xs.shape
        xs = xs.reshape(-1, self.dim)
        ys = ys.reshape(-1, self.dim)
        table = self._table.reshape(self.dim, self.dim * self.dim)
        out = np.empty(xs.shape, dtype=complex)
        step = max(1, CHUNK_ENTRIES // (self.dim * self.dim))
        for lo in range(0, len(xs), step):
            # left[s, j, k]: matrix of y -> x_s y
            left = (xs[lo:lo + step] @ table).reshape(-1, self.dim, self.dim)
            out[lo:lo + step] = (ys[lo:lo + step, None, :] @ left)[:, 0]
        return self.prune(out.reshape(shape))

    def star_flat(self, xs: np.ndarray) -> np.ndarray:
        return self.prune(np.conj(xs) @ self._star.T)

    def expectation_flat(self, xs: np.ndarray) -> np.ndarray:
        """Compression onto the trivial component, as base-algebra
        matrices of shape (..., n, n)."""
        e = self.spans[self.backend.trivial_label]
        return self.algebra.from_coords(np.asarray(xs)[..., e])

    def inner_flat(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Algebra-valued inner products E(x* y)."""
        return self.expectation_flat(self.multiply_flat(self.star_flat(xs), ys))

    def operator_norm_flat(self, xs: np.ndarray) -> np.ndarray:
        """Norms of x acting by left multiplication on the Hilbert space
        induced from the expectation (a faithful *-representation, so this
        is the C*-norm), for a stack of flat vectors."""
        ops = self._norm_operators()
        xs = np.asarray(xs, dtype=complex)
        shape = xs.shape[:-1]
        xs = xs.reshape(-1, self.dim)
        r = ops.shape[1]
        out = np.zeros(len(xs))
        if r == 0:
            return out.reshape(shape)
        ops = ops.reshape(self.dim, r * r)
        step = max(1, CHUNK_ENTRIES // (r * r))
        for lo in range(0, len(xs), step):
            t = (xs[lo:lo + step] @ ops).reshape(-1, r, r)
            out[lo:lo + step] = np.linalg.svd(t, compute_uv=False)[:, 0]
        return out.reshape(shape)

    # -- element helpers ----------------------------------------------------

    def zero(self) -> GradedElement:
        return GradedElement({})

    def unit(self) -> GradedElement:
        e = self.backend.trivial_label
        coords = self.algebra.coords(self.algebra.identity())
        return GradedElement({e: coords.reshape(1, -1)})

    def from_algebra(self, mat: np.ndarray) -> GradedElement:
        e = self.backend.trivial_label
        return GradedElement({e: self.algebra.coords(mat).reshape(1, -1)})

    def flatten(self, x: GradedElement) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        for label, arr in x.parts.items():
            vec[self.spans[label]] = arr.reshape(-1)
        return vec

    def unflatten(self, vec: np.ndarray) -> GradedElement:
        return GradedElement({label: np.asarray(vec[span]).reshape(self.shapes[label])
                              for label, span in self.spans.items()})

    def basis(self):
        return [self.unflatten(vec) for vec in np.eye(self.dim, dtype=complex)]

    # -- operations on GradedElements ------------------------------------------

    def multiply(self, x: GradedElement, y: GradedElement) -> GradedElement:
        return self.unflatten(self.multiply_flat(self.flatten(x), self.flatten(y)))

    def star(self, x: GradedElement) -> GradedElement:
        return self.unflatten(self.star_flat(self.flatten(x)))

    def expectation(self, x: GradedElement) -> np.ndarray:
        """Compress onto the trivial component, as a base-algebra element."""
        return self.expectation_flat(self.flatten(x))

    def inner(self, x: GradedElement, y: GradedElement) -> np.ndarray:
        """Algebra-valued inner product E(x* y)."""
        return self.inner_flat(self.flatten(x), self.flatten(y))

    def operator_norm(self, x: GradedElement) -> float:
        return float(self.operator_norm_flat(self.flatten(x)))

    def coaction_at(self, g: str, x: GradedElement) -> GradedElement:
        """Evaluate the coaction at a group element (group-kind backends)."""
        gi = self.backend.group.index(g)
        return self.unflatten(self.coaction_matrix(gi) @ self.flatten(x))

    def grading(self, x: GradedElement) -> dict[str, GradedElement]:
        """The coaction of a dual backend: the component decomposition."""
        if self.backend.kind != "dual":
            raise BuildError("grading form of the coaction needs a dual backend")
        return {label: GradedElement({label: arr}) for label, arr in x.parts.items()}

    def project_word(self, atoms, arr: np.ndarray, components=None) -> GradedElement:
        """Project an element of (conjugate word space) (x) F(word) onto the
        algebra; independent of the decomposition used (components may
        override the cached one to exercise that independence)."""
        obj = self.real.object(tuple(atoms))
        arr = np.asarray(arr, dtype=complex).reshape(obj.rep.dim, obj.dim)
        acc: dict[str, np.ndarray] = {}
        if components is None:
            for k, (gamma, wk) in enumerate(obj.components):
                if gamma not in self.shapes:
                    continue
                piece = wk.T @ arr[:, obj.slot(k)]
                if gamma in acc:
                    acc[gamma] += piece
                else:
                    acc[gamma] = piece
        else:
            for gamma, wk in components:
                if gamma not in self.shapes:
                    continue
                fw = self.real.morphism_matrix(
                    wk.conj().T, obj, self.real.atom_object(gamma)
                )
                piece = wk.T @ (arr @ fw.T)
                if gamma in acc:
                    acc[gamma] += piece
                else:
                    acc[gamma] = piece
        return GradedElement(acc)

    def free_product_word(self, a: str, xa: np.ndarray, b: str, yb: np.ndarray):
        """The elementary product of two components before projection: the
        pair (word, coefficient array) in (conjugate space) (x) F(word)."""
        oa = self.real.atom_object(a)
        ob = self.real.atom_object(b)
        f2 = self.real.f2_tensor(oa, ob)
        arr = np.einsum("ip,jq,tpq->ijt", xa, yb, f2)
        atoms = oa.atoms + ob.atoms
        word = self.real.object(atoms)
        return atoms, arr.reshape(word.rep.dim, word.dim)

    # -- norms ----------------------------------------------------------------

    def gram(self) -> np.ndarray:
        """Algebra-valued Gram matrix of the flat basis under E(x* y): one
        contraction of the stars of the basis with the trivial slice of the
        table, pruned as multiply prunes the product's trivial component."""
        if self._gram is None:
            e = self.spans[self.backend.trivial_label]
            stars = self.star_flat(np.eye(self.dim))
            prods = np.tensordot(stars, self._table[:, :, e], axes=(1, 0))
            _prune_components(prods)
            self._gram = self.algebra.from_coords(prods)
        return self._gram

    def _norm_operators(self) -> np.ndarray:
        """The left-regular operators of the basis compressed onto the GNS
        space of the expectation: ops[i] = V^* (L_i (x) 1) V' with L_i the
        matrix of y -> b_i y, V the kept eigenvectors of the Gram matrix
        scaled by the square roots of their eigenvalues and V' scaled by
        the inverse square roots.  The norm of x is the largest singular
        value of sum_i x_i ops[i]."""
        if self._norm_ops is None:
            g = self.gram()
            n = self.algebra.n
            s = np.transpose(g, (0, 2, 1, 3)).reshape(self.dim * n, self.dim * n)
            s = (s + s.conj().T) / 2
            w, v = np.linalg.eigh(s)
            cutoff = 1e-12 * max(float(w.max()), 1e-300)
            keep = w > cutoff
            v, sq = v[:, keep], np.sqrt(w[keep])
            r = len(sq)
            left = (v * sq).conj().reshape(self.dim, n, r)
            right = (v / sq).reshape(self.dim, n, r)
            ops = np.empty((self.dim, r, r), dtype=complex)
            step = max(1, CHUNK_ENTRIES // max(1, self.dim * n * r))
            for lo in range(0, self.dim, step):
                # moved[i, k, u, q] = (L_i (x) 1) V' at row (k, u), column q
                moved = np.tensordot(self._table[lo:lo + step], right, axes=(1, 0))
                ops[lo:lo + step] = np.tensordot(
                    moved, left, axes=([1, 2], [0, 1])).transpose(0, 2, 1)
            self._norm_ops = ops
        return self._norm_ops

    # -- reporting -------------------------------------------------------------

    def component_dims(self) -> dict[str, list[int]]:
        return {l: [self.shapes[l][0], self.shapes[l][1]] for l in self.labels}


def _prune_components(parts: np.ndarray) -> None:
    """In place: zero every vector along the last axis whose entries all lie
    within PRUNE_TOL."""
    parts[~(np.abs(parts).max(axis=-1) > PRUNE_TOL)] = 0.0


def build_algebra(functor: TensorFunctorData, tol: float = 1e-9,
                  validate: bool = True) -> ReconstructedAlgebra:
    return ReconstructedAlgebra(functor, tol=tol, validate=validate)


def random_element(algebra: ReconstructedAlgebra, rng) -> GradedElement:
    vec = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    return algebra.unflatten(vec)


def build_report(alg: ReconstructedAlgebra, seed: int = 0, samples: int = 100) -> dict:
    """Property audit of a built algebra: associativity, involution laws,
    expectation laws, the C*-identity for the regular norm, and the
    homomorphism property of the word projection.  Each block of samples
    is evaluated as one stack of flat vectors; the random stream is drawn
    in the order of one element at a time."""
    rng = np.random.default_rng(seed)
    tol = alg.tol
    rep: dict = {
        "dimension": alg.dim,
        "component_dims": alg.component_dims(),
        "tolerance": tol,
    }

    def worst(values) -> float:
        return float(np.max(values, initial=0.0))

    draws = rng.standard_normal((samples, 3, 2, alg.dim))
    x, y, z = alg.prune(np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0))
    nx, ny, nz = alg.operator_norm_flat(np.stack([x, y, z]))
    xy = alg.multiply_flat(x, y)
    sx = alg.star_flat(x)
    assoc, invol, anti, cstar = alg.operator_norm_flat(np.stack([
        alg.prune(alg.multiply_flat(xy, z) - alg.multiply_flat(x, alg.multiply_flat(y, z))),
        alg.prune(alg.star_flat(sx) - x),
        alg.prune(alg.star_flat(xy) - alg.multiply_flat(alg.star_flat(y), sx)),
        alg.multiply_flat(sx, x),
    ]))
    worst_assoc = worst(assoc / np.maximum(nx * ny * nz, 1e-30))
    worst_invol = worst(invol / np.maximum(nx, 1e-30))
    worst_anti = worst(anti / np.maximum(nx * ny, 1e-30))
    worst_cstar = worst(abs(cstar - nx**2) / np.maximum(nx**2, 1e-30))
    rep["associativity"] = worst_assoc
    rep["involution"] = worst_invol
    rep["anti_multiplicative"] = worst_anti
    rep["cstar_identity"] = worst_cstar

    # expectation: bimodularity over A, positivity, faithfulness, and the
    # boundedness condition E(x* a* a x) <= |a|^2 E(x* x)
    amat = alg.algebra.project(
        rng.standard_normal((alg.algebra.n, alg.algebra.n))
        + 1j * rng.standard_normal((alg.algebra.n, alg.algebra.n))
    )
    a_el = alg.flatten(alg.from_algebra(amat))
    draws = rng.standard_normal((20, 2, alg.dim))
    x = alg.prune(draws[:, 0] + 1j * draws[:, 1])
    lhs = alg.expectation_flat(alg.multiply_flat(a_el, alg.multiply_flat(x, a_el)))
    rhs = amat @ alg.expectation_flat(x) @ amat
    worst_bimod = worst(np.abs(lhs - rhs).max(axis=(1, 2)))
    ax = alg.multiply_flat(a_el, x)
    bound = alg.algebra.opnorm(amat) ** 2 * alg.inner_flat(x, x) - alg.inner_flat(ax, ax)
    bound = (bound + bound.conj().transpose(0, 2, 1)) / 2
    rep["expectation_bimodular"] = worst_bimod
    rep["expectation_bound_violation"] = worst(-np.linalg.eigvalsh(bound).min(axis=1))

    gram = alg.gram()
    scal = np.einsum("pquu->pq", gram)
    scal = (scal + scal.conj().T) / 2
    eigs = np.linalg.eigvalsh(scal) if alg.dim else np.array([1.0])
    rep["expectation_gram_min_eig"] = float(eigs.min())
    rep["expectation_faithful"] = bool(eigs.min() > tol)

    # the projection onto irreducibles is a homomorphism on word elements
    labels = alg.labels
    words, lefts, rights = [], [], []
    for _ in range(10):
        a = labels[int(rng.integers(len(labels)))]
        b = labels[int(rng.integers(len(labels)))]
        da, ma = alg.shapes[a]
        db, mb = alg.shapes[b]
        xa = rng.standard_normal((da, ma)) + 1j * rng.standard_normal((da, ma))
        yb = rng.standard_normal((db, mb)) + 1j * rng.standard_normal((db, mb))
        atoms, arr = alg.free_product_word(a, xa, b, yb)
        words.append(alg.flatten(alg.project_word(atoms, arr)))
        lefts.append(alg.flatten(GradedElement({a: xa})))
        rights.append(alg.flatten(GradedElement({b: yb})))
    worst_pi = worst(alg.operator_norm_flat(
        alg.prune(np.array(words) - alg.multiply_flat(np.array(lefts), np.array(rights)))))
    rep["word_projection_homomorphism"] = worst_pi

    checks = [
        worst_assoc < 1e4 * tol,
        worst_invol < 1e4 * tol,
        worst_anti < 1e4 * tol,
        worst_cstar < 1e-8,
        worst_bimod < 1e4 * tol,
        rep["expectation_bound_violation"] < 1e4 * tol,
        rep["expectation_faithful"],
        worst_pi < 1e4 * tol,
    ]
    rep["passed"] = bool(all(checks))
    return rep
