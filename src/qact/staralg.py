"""The flat model of a finite-dimensional *-algebra.

An element is a coordinate vector of length dim.  The model is a product
table, a star matrix, a unit, and a conditional expectation E onto a base
BlockAlgebra; a state is an expectation onto C = BlockAlgebra((1,)).
Every operation acts on whole stacks (..., dim) of vectors, so audits are
batched contractions.  Both the algebra rebuilt from functor data
(qact.reconstruction) and the algebra deformed by a cocycle
(qact.cocycles) are instances, and `audit` certifies both over the basis.

Pruning rule: the coordinates are grouped into label spans, and every
span of a product or a star whose entries all lie within PRUNE_TOL is set
to zero, and so is each value E(b_i* b_j) of the Gram matrix whose
entries all lie within PRUNE_TOL.  This keeps exact zero residuals exactly
zero.  A model without spans prunes no product or star.

GNS rule: the C*-norm is the norm of left multiplication on the Hilbert
space induced from the state tr E, the trace of the base algebra after E.
That space is spanned by the eigenvectors of the Gram matrix of
tr E(x* y) whose eigenvalues exceed GNS_CUTOFF times the largest one,
from `blockdecomp.gns_space`, the step that also builds the Hilbert space
induced by a module's inner product (qact.actions).
"""

from __future__ import annotations

import functools

import numpy as np

from . import blockdecomp
from .algebras import BlockAlgebra
from .thresholds import (
    AUDIT_FACTOR,
    CSTAR_TOL,
    DEFAULT_TOL,
    GNS_CUTOFF,
    GNS_SCALE_GUARD,
    PRUNE_TOL,
    RANK_TOL,
    RELATIVE_RESIDUAL_GUARD,
)

# stacked operations work through their inputs in chunks of about this many entries
CHUNK_ENTRIES = 1 << 17


def prune_components(parts: np.ndarray) -> None:
    """In place: zero every vector along the last axis whose entries all lie
    within PRUNE_TOL."""
    parts[~(np.abs(parts).max(axis=-1) > PRUNE_TOL)] = 0.0


class StarAlgebraModel:
    """A *-algebra on coordinate vectors.

    table[i, j] is the product of basis elements i and j; the coordinates of
    x* are star_matrix @ conj(x); E(x) has base coordinates expect @ x.  The
    spans, if any, tile the coordinates in order.  The table is pruned over
    spans on entry and is read-only, as is the star matrix.
    """

    def __init__(self, table: np.ndarray, star: np.ndarray, unit: np.ndarray,
                 spans: dict[str, slice], base: BlockAlgebra, expect: np.ndarray):
        self.dim = len(unit)
        self.spans = spans
        self._starts = np.array([span.start for span in spans.values()], dtype=np.intp)
        self._sizes = np.diff(self._starts, append=self.dim)
        self.table = self.prune(table)
        self.table.setflags(write=False)
        self.star_matrix = np.array(star, dtype=complex)
        self.star_matrix.setflags(write=False)
        self.unit = unit
        self.base = base
        self.expect = expect
        self._gram = None

    @classmethod
    def of_block_algebra(cls, algebra: BlockAlgebra) -> StarAlgebraModel:
        """A block algebra on its matrix-unit basis, with its trace as the
        state."""
        unit = algebra.coords(algebra.identity())
        return cls(algebra.structure_tensor(),
                   np.eye(algebra.dim, dtype=complex)[algebra.star_permutation()],
                   unit, {}, BlockAlgebra((1,)), unit[None, :])

    # -- operations on stacks (..., dim) ---------------------------------------

    def prune(self, xs: np.ndarray) -> np.ndarray:
        """A copy of xs with every span whose entries all lie within
        PRUNE_TOL set to zero."""
        out = np.array(xs, dtype=complex)
        if self.spans:
            peaks = np.maximum.reduceat(np.abs(out), self._starts, axis=-1)
            out[np.repeat(~(peaks > PRUNE_TOL), self._sizes, axis=-1)] = 0.0
        return out

    def multiply(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Products of two broadcastable stacks of vectors."""
        xs, ys = np.broadcast_arrays(np.asarray(xs, dtype=complex),
                                     np.asarray(ys, dtype=complex))
        shape = xs.shape
        xs = xs.reshape(-1, self.dim)
        ys = ys.reshape(-1, self.dim)
        table = self.table.reshape(self.dim, self.dim * self.dim)
        out = np.empty(xs.shape, dtype=complex)
        step = max(1, CHUNK_ENTRIES // (self.dim * self.dim))
        for lo in range(0, len(xs), step):
            # left[s, j, k]: matrix of y -> x_s y
            left = (xs[lo:lo + step] @ table).reshape(-1, self.dim, self.dim)
            out[lo:lo + step] = (ys[lo:lo + step, None, :] @ left)[:, 0]
        return self.prune(out.reshape(shape))

    def star(self, xs: np.ndarray) -> np.ndarray:
        return self.prune(np.conj(xs) @ self.star_matrix.T)

    def expectation(self, xs: np.ndarray) -> np.ndarray:
        """E(x) as base-algebra matrices of shape (..., n, n)."""
        return self.base.from_coords(np.asarray(xs) @ self.expect.T)

    # -- structure -------------------------------------------------------------

    def gram(self) -> np.ndarray:
        """Base-algebra-valued Gram matrix E(b_i* b_j) of the basis: one
        contraction of the stars of the basis with the image of the table
        under E.  Each E(b_i* b_j) is pruned as one component; for an
        expectation that reads one span, that is how multiply prunes the
        span.  Built once."""
        if self._gram is None:
            stars = self.star(np.eye(self.dim))
            values = np.tensordot(stars, self.table @ self.expect.T, axes=(1, 0))
            prune_components(values)
            self._gram = self.base.from_coords(values)
        return self._gram

    def state_gram(self) -> np.ndarray:
        """The Gram matrix tr E(b_i* b_j) of the state tr E, made
        Hermitian."""
        scal = np.einsum("pquu->pq", self.gram())
        return (scal + scal.conj().T) / 2

    @functools.cached_property
    def _gns_operators(self) -> np.ndarray:
        """The left-regular operators of the basis compressed onto the GNS
        space of the state tr E, ops[i] = V^* L_i V' with L_i the matrix of
        y -> b_i y, V the vectors of gns_space of the state's Gram matrix
        scaled by their square roots and V' scaled by the inverse square
        roots: the matrix of L(b_i) in an orthonormal basis of that space.
        The norm of x is the largest singular value of sum_i x_i ops[i]."""
        v, sq = blockdecomp.gns_space(self.state_gram()[:, :, None, None])
        left = (v * sq).conj()
        right = v / sq
        ops = np.empty((self.dim, len(sq), len(sq)), dtype=complex)
        step = max(1, CHUNK_ENTRIES // max(1, self.dim * len(sq)))
        for lo in range(0, self.dim, step):
            # moved[i, k, q] = L_i V' at row k, column q
            moved = np.tensordot(self.table[lo:lo + step], right, axes=(1, 0))
            ops[lo:lo + step] = np.tensordot(moved, left, axes=(1, 0)).transpose(0, 2, 1)
        return ops

    def center_dimension(self) -> int:
        """Dimension of the center: z is central iff z b_j = b_j z for every
        basis element b_j; row (j, k) of the stacked system is coordinate k
        of z b_j - b_j z."""
        comm = self.table - self.table.transpose(1, 0, 2)
        s = np.linalg.svd(comm.transpose(1, 2, 0).reshape(-1, self.dim), compute_uv=False)
        return int(self.dim - np.sum(s > RANK_TOL))


def audit(model: StarAlgebraModel, units: np.ndarray, tol: float = DEFAULT_TOL) -> dict:
    """The basis-exact audit of a model, shared by `build` and `deform`.

    units[k] holds the coordinates of the k-th matrix unit of the algebra A
    over which E is a bimodule map; E fixes A, so the base matrix of a unit
    is its image under E.  Each residual but the C*-identity is the largest
    coefficient over the basis b_i of the model, so by linearity it bounds
    the law on every element:
    - associativity: (b_p b_q) b_r - b_p (b_q b_r), two tensordots of the
      table per chunk of p, pruned by spans;
    - involution b_i** - b_i, anti_multiplicative (b_p b_q)* - b_q* b_p*,
      and unital 1 b_i - b_i and b_i 1 - b_i;
    - cstar_identity: the largest |L(b_i*) - L(b_i)^+| / |L(b_i)|
      (operator norms) on the GNS space of the state tr E.  Then L is a
      *-representation, faithful when E is, so the GNS norm satisfies
      |x* x| = |x|^2;
    - expectation_bimodular: E(u b_i v) - u E(b_i) v over the units u, v;
    - expectation_bound_violation, the positivity of E, from which the
      bound E(x* a* a x) <= |a|^2 E(x* x) for a in A follows, with |a| the
      norm of A, which by the C*-identity is the norm of a in the model:
      with c = (|a|^2 - a* a)^(1/2) in A, the laws above give
      |a|^2 E(x* x) - E(x* a* a x) = E((c x)* (c x)), and E(y* y) =
      sum_ij conj(y_i) y_j E(b_i* b_j) is positive for every y when the
      scalarized Gram matrix S[(i, u), (j, w)] = E(b_i* b_j)[u, w] is,
      since xi^* E(y* y) xi = v^* S v for v = y (x) xi.  The value is the
      most negative eigenvalue of S over the largest, where an eigenvalue
      within GNS_CUTOFF of zero (the null space of the GNS rule) reads 0;
    - expectation_gram_min_eig and expectation_faithful: the smallest
      eigenvalue of the state's Gram matrix tr E(b_i* b_j), a rank
      decision that does not move with tol.
    `passed` gates every value."""
    dim = model.dim
    table = model.table
    basis = np.eye(dim, dtype=complex)
    out: dict = {}

    def worst(values) -> float:
        return float(np.abs(values).max(initial=0.0))

    step = max(1, CHUNK_ENTRIES // max(1, dim ** 3))
    assoc = 0.0
    for lo in range(0, dim, step):
        # [p, q, r, t]: coordinate t of (b_p b_q) b_r and of b_p (b_q b_r)
        left = np.tensordot(table[lo:lo + step], table, axes=(2, 0))
        right = np.tensordot(table, table[lo:lo + step], axes=(2, 1)).transpose(2, 0, 1, 3)
        assoc = max(assoc, worst(model.prune(left - right)))
    out["associativity"] = assoc
    stars = model.star(basis)
    out["involution"] = worst(model.prune(model.star(stars) - basis))
    # [q, p]: b_q* b_p*
    star_products = np.tensordot(np.tensordot(stars, table, axes=(1, 0)), stars, axes=(1, 1))
    out["anti_multiplicative"] = worst(model.prune(
        model.star(table) - model.prune(star_products.transpose(2, 0, 1))))
    out["unital"] = max(worst(model.multiply(model.unit, basis) - basis),
                        worst(model.multiply(basis, model.unit) - basis))

    ops = model._gns_operators
    if ops.size:
        adjoint_gap = np.linalg.norm(np.tensordot(stars, ops, axes=(1, 0))
                                     - ops.conj().transpose(0, 2, 1), 2, axis=(1, 2))
        norms = np.linalg.norm(ops, 2, axis=(1, 2))
        out["cstar_identity"] = float(
            (adjoint_gap / np.maximum(norms, RELATIVE_RESIDUAL_GUARD)).max())
    else:
        out["cstar_identity"] = 0.0

    # [k, i, l]: E(u_k b_i u_l) against u_k E(b_i) u_l
    ua = model.expectation(units)
    lhs = model.expectation(model.multiply(model.multiply(units[:, None, None], basis[:, None]),
                                           units[None, None]))
    rhs = ua[:, None, None] @ model.expectation(basis)[:, None] @ ua[None, None]
    out["expectation_bimodular"] = worst(lhs - rhs)

    gram = model.gram()
    n = model.base.n
    s = np.transpose(gram, (0, 2, 1, 3)).reshape(dim * n, dim * n)
    w = np.linalg.eigvalsh((s + s.conj().T) / 2)
    scale = max(float(w.max()), GNS_SCALE_GUARD)
    out["expectation_bound_violation"] = (
        float(-w.min() / scale) if w.min() < -GNS_CUTOFF * scale else 0.0)
    eigs = np.linalg.eigvalsh(model.state_gram())
    out["expectation_gram_min_eig"] = float(eigs.min())
    out["expectation_faithful"] = bool(eigs.min() > RANK_TOL * max(1.0, float(eigs.max())))
    out["passed"] = bool(
        max(out["associativity"], out["involution"], out["anti_multiplicative"],
            out["unital"], out["expectation_bimodular"],
            out["expectation_bound_violation"]) < AUDIT_FACTOR * tol
        and out["cstar_identity"] < CSTAR_TOL and out["expectation_faithful"])
    return out


def verify_algebra_iso(src: StarAlgebraModel, dst: StarAlgebraModel,
                       phi: np.ndarray, tol: float = DEFAULT_TOL) -> dict:
    """Certify that a linear map of coordinates is a unital *-isomorphism:
    phi(b_i b_j) = phi(b_i) phi(b_j) and phi(b_i*) = phi(b_i)* over all basis
    elements, as contractions.  The products of the images are one
    tensordot with the target's table, and their stars go through the
    target's star matrix; neither is pruned."""
    out: dict = {}
    if src.dim != dst.dim or phi.shape != (dst.dim, src.dim):
        return {"passed": False, "shape": "mismatch"}
    sv = np.linalg.svd(phi, compute_uv=False)
    out["smallest_singular_value"] = float(sv.min()) if sv.size else 0.0
    # [i, j]: the product of the images of basis elements i and j
    products = np.tensordot(phi, np.tensordot(phi, dst.table, axes=(0, 0)),
                            axes=(0, 1)).transpose(1, 0, 2)
    out["multiplicative"] = float(np.abs(src.table @ phi.T - products).max(initial=0.0))
    # row i: the image of the star of basis element i, and the star of its image
    out["star"] = float(np.abs(src.star(np.eye(src.dim)) @ phi.T
                               - phi.T.conj() @ dst.star_matrix.T).max(initial=0.0))
    out["unit"] = float(np.abs(phi @ src.unit - dst.unit).max())
    out["passed"] = bool(
        sv.size and sv.min() > RANK_TOL
        and max(out["multiplicative"], out["star"], out["unit"]) < AUDIT_FACTOR * tol
    )
    return out
