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
model's pruning rule.  Products, stars and the expectation are the
model's; ReconstructedAlgebra adds what only the functor data knows: the
layout of the labels and the coaction.  The product of two basis elements
is formed once, in the multiplication table; build_report certifies the
model with staralg.audit, exact over the basis, and draws nothing.
build_algebra returns the validation section beside the algebra, or
beside None when the data fails: a failed check raises nothing.
"""

from __future__ import annotations

import numpy as np

from .functors import Realization, TensorFunctorData, validate_functor
from .staralg import StarAlgebraModel, audit
from .thresholds import DEFAULT_TOL


class ReconstructedAlgebra:
    """The graded *-algebra of the functor of a Realization, built on its
    word objects and F_2 without validating the data: the flat model
    alg.model plus the label layout (labels, shapes, offsets, spans) and
    the coaction."""

    def __init__(self, real: Realization, tol: float = DEFAULT_TOL):
        self.real = real
        self.functor = functor = real.functor
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
        """The coaction evaluated at the basis element e_gi of D, on flat
        coordinates: block kron(u_alpha(e_gi)^T, 1) per label."""
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

    # -- reporting -------------------------------------------------------------

    def component_dims(self) -> dict[str, list[int]]:
        return {l: [self.shapes[l][0], self.shapes[l][1]] for l in self.labels}


def build_algebra(functor: TensorFunctorData, tol: float = DEFAULT_TOL):
    """(validation section, algebra): the functor data validated on a
    Realization, and the algebra built on that Realization, so the word
    objects and F_2 of the validation serve the build; the algebra is None
    when the validation fails."""
    real = Realization(functor)
    validation = validate_functor(functor, tol, real=real)
    return validation, ReconstructedAlgebra(real, tol) if validation["passed"] else None


def build_report(alg: ReconstructedAlgebra) -> dict:
    """The build section of the build report: the model's multiplication
    table and staralg.audit of the model over the matrix units of A.  The
    audit's unital residual, which the section has no key for, is gated
    in `passed`."""
    model = alg.model
    rep: dict = {
        "dimension": alg.dim,
        "component_dims": alg.component_dims(),
        "tolerance": alg.tol,
        "multiplication_table": model.table,
    }
    checks = audit(model, model.expect, alg.tol)
    checks.pop("unital")
    rep.update(checks)
    return rep
