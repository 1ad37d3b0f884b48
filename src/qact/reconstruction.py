"""Assembly of the graded *-algebra attached to validated functor data.

The algebra lives on the direct sum, over irreducibles alpha, of
(conjugate space of H_alpha) (x) M_alpha.  The product routes elementary
tensors through the multiplication maps and reprojects onto irreducible
components; the involution pairs each component with its conjugate; the
distinguished component of the trivial irreducible is the base algebra,
and compressing onto it is the conditional expectation.

This module builds that algebra from the functor data as the one flat
model of qact.staralg, alg.model.  An element is a coordinate vector:
component alpha, an array of shape (irrep dim, module dim), sits
row-major at offsets[alpha], and each component is one span of the
model's pruning rule.  Products, stars, the expectation and norms are the
model's; ReconstructedAlgebra adds what only the functor data knows: the
layout of the labels, the coaction, and the projection of tensor words.
"""

from __future__ import annotations

import numpy as np

from .functors import Realization, TensorFunctorData, ValidationReport, validate_functor
from .staralg import StarAlgebraModel


class BuildError(ValueError):
    """Functor data failed validation on entry to the build; `report` is
    the validation report."""

    def __init__(self, message: str, report: ValidationReport | None = None):
        super().__init__(message)
        self.report = report


class ReconstructedAlgebra:
    """The graded *-algebra of a functor: the flat model alg.model plus the
    label layout (labels, shapes, offsets, spans), the coaction and the
    projection of tensor words onto the algebra.

    With `validate`, the functor is validated on the build's own
    Realization, so the word objects and F_2 of the validation serve the
    build; the report is kept as `validation` (None without `validate`).
    """

    def __init__(self, functor: TensorFunctorData, tol: float = 1e-9,
                 validate: bool = True):
        self.real = Realization(functor)
        self.validation = None
        if validate:
            self.validation = validate_functor(functor, tol, real=self.real)
            if not self.validation.passed:
                bad = sorted(k for k, v in self.validation.axioms.items() if not v.passed)
                raise BuildError(f"functor data fails validation at {bad}", self.validation)
        self.functor = functor
        self.backend = functor.backend
        self.algebra = functor.algebra
        self.tol = tol

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

        trivial = self.spans[self.backend.trivial_label]
        unit = np.zeros(self.dim, dtype=complex)
        unit[trivial] = self.algebra.coords(self.algebra.identity())
        self.model = StarAlgebraModel(self._build_table(), self._build_star_matrix(),
                                      unit, self.spans, self.algebra,
                                      np.eye(self.dim)[trivial])

    # -- structure -----------------------------------------------------------

    def _build_table(self) -> np.ndarray:
        """Entry [i, j] is the flat product of basis elements i and j: the
        elementary tensors are routed through F_2 and reprojected onto each
        irreducible component gamma of the word."""
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
        return out

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

    # -- elements ---------------------------------------------------------------

    def component(self, label: str, arr: np.ndarray) -> np.ndarray:
        """The flat vector whose only component is arr, of shape
        shapes[label], at label; pruned as the model prunes."""
        vec = np.zeros(self.dim, dtype=complex)
        vec[self.spans[label]] = np.reshape(arr, -1)
        return self.model.prune(vec)

    def from_algebra(self, mat: np.ndarray) -> np.ndarray:
        """A base-algebra element as a flat vector on the trivial component."""
        return self.component(self.backend.trivial_label, self.algebra.coords(mat))

    def project_word(self, atoms, arr: np.ndarray, components=None) -> np.ndarray:
        """Project an element of (conjugate word space) (x) F(word) onto the
        algebra, as a flat vector; independent of the decomposition used
        (components may override the cached one to exercise that
        independence)."""
        obj = self.real.object(tuple(atoms))
        arr = np.asarray(arr, dtype=complex).reshape(obj.rep.dim, obj.dim)
        vec = np.zeros(self.dim, dtype=complex)
        if components is None:
            for k, (gamma, wk) in enumerate(obj.components):
                if gamma in self.shapes:
                    vec[self.spans[gamma]] += (wk.T @ arr[:, obj.slot(k)]).reshape(-1)
        else:
            for gamma, wk in components:
                if gamma in self.shapes:
                    fw = self.real.morphism_matrix(
                        wk.conj().T, obj, self.real.atom_object(gamma)
                    )
                    vec[self.spans[gamma]] += (wk.T @ (arr @ fw.T)).reshape(-1)
        return self.model.prune(vec)

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

    # -- reporting -------------------------------------------------------------

    def component_dims(self) -> dict[str, list[int]]:
        return {l: [self.shapes[l][0], self.shapes[l][1]] for l in self.labels}


def build_algebra(functor: TensorFunctorData, tol: float = 1e-9,
                  validate: bool = True) -> ReconstructedAlgebra:
    return ReconstructedAlgebra(functor, tol=tol, validate=validate)


def build_report(alg: ReconstructedAlgebra, seed: int = 0, samples: int = 100) -> dict:
    """Property audit of a built algebra: associativity, involution laws,
    expectation laws, the C*-identity for the regular norm, and the
    homomorphism property of the word projection.  Each block of samples
    is evaluated as one stack of flat vectors; the random stream is drawn
    in the order of one element at a time."""
    rng = np.random.default_rng(seed)
    tol = alg.tol
    model = alg.model
    rep: dict = {
        "dimension": alg.dim,
        "component_dims": alg.component_dims(),
        "tolerance": tol,
    }

    def worst(values) -> float:
        return float(np.max(values, initial=0.0))

    draws = rng.standard_normal((samples, 3, 2, alg.dim))
    x, y, z = model.prune(np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0))
    nx, ny, nz = model.operator_norm(np.stack([x, y, z]))
    xy = model.multiply(x, y)
    sx = model.star(x)
    assoc, invol, anti, cstar = model.operator_norm(np.stack([
        model.prune(model.multiply(xy, z) - model.multiply(x, model.multiply(y, z))),
        model.prune(model.star(sx) - x),
        model.prune(model.star(xy) - model.multiply(model.star(y), sx)),
        model.multiply(sx, x),
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
    a_el = alg.from_algebra(amat)
    draws = rng.standard_normal((20, 2, alg.dim))
    x = model.prune(draws[:, 0] + 1j * draws[:, 1])
    lhs = model.expectation(model.multiply(a_el, model.multiply(x, a_el)))
    rhs = amat @ model.expectation(x) @ amat
    worst_bimod = worst(np.abs(lhs - rhs).max(axis=(1, 2)))
    ax = model.multiply(a_el, x)
    bound = alg.algebra.opnorm(amat) ** 2 * model.inner(x, x) - model.inner(ax, ax)
    bound = (bound + bound.conj().transpose(0, 2, 1)) / 2
    rep["expectation_bimodular"] = worst_bimod
    rep["expectation_bound_violation"] = worst(-np.linalg.eigvalsh(bound).min(axis=1))

    gram = model.gram()
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
        words.append(alg.project_word(atoms, arr))
        lefts.append(alg.component(a, xa))
        rights.append(alg.component(b, yb))
    worst_pi = worst(model.operator_norm(
        model.prune(np.array(words) - model.multiply(np.array(lefts), np.array(rights)))))
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
