"""The flat model of a finite-dimensional *-algebra.

An element is a coordinate vector of length dim.  The model is a product
table, a star matrix, a unit, and a conditional expectation onto a base
BlockAlgebra; a state is an expectation onto C = BlockAlgebra((1,)).
Every operation acts on whole stacks (..., dim) of vectors, so audits are
batched contractions.  Both the algebra rebuilt from functor data
(qact.reconstruction) and the algebra deformed by a cocycle
(qact.cocycles) are instances.

Pruning rule: the coordinates are grouped into label spans, and every
span of a product or a star whose entries all lie within PRUNE_TOL is set
to zero, and so is each value E(b_i* b_j) of the Gram matrix whose
entries all lie within PRUNE_TOL.  This keeps exact zero residuals exactly
zero.  A model without spans prunes no product or star.

GNS rule (StarAlgebraModel.gns_space): the C*-norm is the norm of left
multiplication on the Hilbert space induced from the expectation.  That
space is spanned by the eigenvectors of the Gram matrix of E(x* y) whose
eigenvalues exceed GNS_CUTOFF times the largest one.  The Hilbert space
induced by a module's inner product (qact.actions) is built by the same
step.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebras import BlockAlgebra
from .thresholds import (
    AUDIT_FACTOR,
    DEFAULT_TOL,
    GNS_CUTOFF,
    GNS_SCALE_GUARD,
    PRUNE_TOL,
    RANK_TOL,
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
    table is pruned over spans on entry and is read-only, as is the star
    matrix.
    """

    def __init__(self, table: np.ndarray, star: np.ndarray, unit: np.ndarray,
                 spans: dict[str, slice], base: BlockAlgebra, expect: np.ndarray):
        self.dim = len(unit)
        self.spans = spans
        self.table = np.array(table, dtype=complex)
        for span in spans.values():
            prune_components(self.table[:, :, span])
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
        for span in self.spans.values():
            prune_components(out[..., span])
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

    def inner(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """Base-algebra-valued inner products E(x* y)."""
        return self.expectation(self.multiply(self.star(xs), ys))

    def operator_norm(self, xs: np.ndarray) -> np.ndarray:
        """C*-norms of a stack of vectors: the norm of left multiplication
        on the Hilbert space induced from the expectation, a faithful
        *-representation."""
        ops = self._gns_operators
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

    @staticmethod
    def gns_space(gram: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The GNS step for a base-algebra-valued Gram matrix gram[i, j] of
        shape (dim, dim, n, n): the eigenvectors, rows indexed by (i, u), of
        the scalarized Gram matrix whose eigenvalues exceed GNS_CUTOFF times
        the largest, and the square roots of those eigenvalues."""
        dim, n = gram.shape[0], gram.shape[2]
        s = np.transpose(gram, (0, 2, 1, 3)).reshape(dim * n, dim * n)
        # a basis picked outside blockdecomp's routines: a later seam (ROADMAP item 1)
        w, v = np.linalg.eigh((s + s.conj().T) / 2)
        keep = w > GNS_CUTOFF * max(float(w.max()), GNS_SCALE_GUARD)
        return v[:, keep], np.sqrt(w[keep])

    @functools.cached_property
    def _gns_operators(self) -> np.ndarray:
        """The left-regular operators of the basis compressed onto the GNS
        space of the expectation, ops[i] = V^* (L_i (x) 1) V' with L_i the
        matrix of y -> b_i y, V the vectors of gns_space(gram()) scaled by
        their square roots and V' scaled by the inverse square roots.  The
        norm of x is the largest singular value of sum_i x_i ops[i]."""
        v, sq = self.gns_space(self.gram())
        n = self.base.n
        r = len(sq)
        left = (v * sq).conj().reshape(self.dim, n, r)
        right = (v / sq).reshape(self.dim, n, r)
        ops = np.empty((self.dim, r, r), dtype=complex)
        step = max(1, CHUNK_ENTRIES // max(1, self.dim * n * r))
        for lo in range(0, self.dim, step):
            # moved[i, k, u, q] = (L_i (x) 1) V' at row (k, u), column q
            moved = np.tensordot(self.table[lo:lo + step], right, axes=(1, 0))
            ops[lo:lo + step] = np.tensordot(
                moved, left, axes=([1, 2], [0, 1])).transpose(0, 2, 1)
        return ops

    def center_dimension(self) -> int:
        """Dimension of the center: z is central iff z b_j = b_j z for every
        basis element b_j; row (j, k) of the stacked system is coordinate k
        of z b_j - b_j z."""
        comm = self.table - self.table.transpose(1, 0, 2)
        s = np.linalg.svd(comm.transpose(1, 2, 0).reshape(-1, self.dim), compute_uv=False)
        return int(self.dim - np.sum(s > RANK_TOL))


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
