"""Block decomposition of *-closed matrix algebras, and the routines that
pick orthonormal bases.

Recovers the matrix-unit structure of a unital *-closed subalgebra S of
M_n(C): the list of block sizes together with images in S of the abstract
matrix units.  No element is drawn at random: the center's self-adjoint
basis splits the unit into the minimal central projections, and each
summand's self-adjoint basis splits its projection down to a minimal one
(Horn-Johnson, Matrix Analysis, 2.5), so the result depends on the
spanning set alone.

Every basis the package picks is a gauge, and each kind is picked by one
routine, reached as an attribute of this module so that one patch changes
every basis of its kind: `row_spaces` (row span and kernel, one SVD),
`column_span` (column span, thin SVD) and `eigenprojections` (eigenspace
projections, which are gauge-free).  `repcat.Backend._mor_stack` picks the
intertwiner bases.
"""

from __future__ import annotations

import numpy as np

from .algebras import BlockAlgebra
from .thresholds import (
    CLUSTER_TOL,
    IDEMPOTENT_TOL,
    RANK_TOL,
    RELATIVE_RANK_TOL,
    TRACE_SLACK,
    UNIT_MEET_FLOOR,
    UNIT_RELATIONS_TOL,
)


class DecompositionError(RuntimeError):
    """The spanning set is not a unital *-algebra: the center or a summand
    does not split as a block algebra, or its matrix units fail their
    relations by UNIT_RELATIONS_TOL or more."""


def row_spaces(stacked: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal rows spanning the row space of a matrix and its kernel,
    shapes (rank, columns) and (nullity, columns), from one SVD: the center
    here, the spectral subspaces, equivariant maps and tuple spaces of
    `actions`.  Singular values up to RANK_TOL count as zero; the columns in
    excess of the rows always lie in the kernel.

    A stack with at least 17/9 (complex) or 11/6 (real) times as many rows
    as columns is first reduced to the square R of its QR factorization
    (mode "r"), and the SVD is taken of R: R has the stack's singular
    values and right singular vectors, and no U is formed.  LAPACK's
    divide-and-conquer SVD (?gesdd) runs that same QR itself on a stack
    that tall, so with one LAPACK the values and vectors are those of the
    thin SVD bit for bit.  A shorter stack takes the thin SVD, where ?gesdd
    runs no QR; a wide one the full SVD, so that every kernel row is formed.
    Another LAPACK build, which may factor differently or cross over
    elsewhere, gives the same spaces up to rounding.
    """
    rows, cols = stacked.shape
    num, den = (17, 9) if np.iscomplexobj(stacked) else (11, 6)
    if rows > cols and rows >= cols * num // den:
        stacked = np.linalg.qr(stacked, mode="r")
    _, s, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < cols)
    rank = int(np.sum(s > RANK_TOL))
    # rows of vh are orthonormal; conjugate so x (not x-bar) solves stacked x = 0
    return vh[:rank], vh[rank:].conj()


def column_span(stack: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the column space of a matrix, shape
    (rows, rank), from its thin SVD: the spans here, the fixed-point algebra
    of `actions`.  The rank counts the singular values above
    RELATIVE_RANK_TOL times the largest (or 1)."""
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    return u[:, :int(np.sum(s > RELATIVE_RANK_TOL * max(float(s.max()), 1.0)))]


def eigenprojections(h: np.ndarray, unit: np.ndarray) -> list[np.ndarray]:
    """The orthogonal projections onto the eigenspaces of a Hermitian matrix
    that meet the range of the projection `unit`, in increasing order of
    eigenvalue.  Eigenvalues closer than CLUSTER_TOL times the largest
    modulus (or 1) to their neighbour count as one; a projection meets
    `unit` when the norm of their product exceeds UNIT_MEET_FLOOR."""
    w, v = np.linalg.eigh(h)
    tol = CLUSTER_TOL * max(1.0, float(np.abs(w).max()))
    order = np.argsort(w)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if w[idx] - w[clusters[-1][-1]] < tol:
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    projections = [v[:, idx] @ v[:, idx].conj().T for idx in map(np.array, clusters)]
    return [p for p in projections if np.linalg.norm(p @ unit) > UNIT_MEET_FLOOR]


def _orthonormal_span(mats: list[np.ndarray], n: int) -> list[np.ndarray]:
    if not mats:
        return []
    span = column_span(np.array([m.reshape(-1) for m in mats]).T)
    return [col.reshape(n, n) for col in span.T]


def _selfadjoint_basis(basis: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Real-orthonormal basis of the self-adjoint part of a *-closed span.

    Works over the reals so every output is a real combination of
    self-adjoint matrices, hence self-adjoint itself; the real dimension of
    the self-adjoint part equals the complex dimension of the span.
    """
    cands = [c for b in basis for c in ((b + b.conj().T) / 2, (b - b.conj().T) / 2j)]
    if not cands:
        return []
    span = column_span(np.array([
        np.concatenate([m.reshape(-1).real, m.reshape(-1).imag]) for m in cands
    ]).T)
    return [(col[:n * n] + 1j * col[n * n:]).reshape(n, n) for col in span.T]


class SubalgebraBlocks:
    """Result: abstract block algebra, images of its matrix units, and the
    multiplicity of each block in the ambient representation."""

    def __init__(self, algebra: BlockAlgebra, unit_images: np.ndarray,
                 multiplicities: tuple[int, ...], ambient_n: int):
        self.algebra = algebra
        self.unit_images = unit_images  # (algebra.dim, n, n), aligned with algebra.basis()
        self.multiplicities = multiplicities
        self.ambient_n = ambient_n

    def restrict(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of an ambient element lying in the subalgebra, or of
        each element of a stack (..., n, n): coordinate k is
        trace(e_k* x) over the multiplicity of the block of e_k."""
        mults = np.repeat(self.multiplicities, [b * b for b in self.algebra.blocks])
        units = self.unit_images.conj().swapaxes(-1, -2)
        return np.trace(units @ mat[..., None, :, :], axis1=-2, axis2=-1) / mults


def decompose_star_algebra(basis: list[np.ndarray], n: int) -> SubalgebraBlocks:
    """Matrix units of the unital *-algebra S spanned by `basis` inside M_n(C).

    Deterministic, with no generic element: the unit is split by the
    eigenprojections of each self-adjoint basis element of the center in
    turn, until there are dim Z(S) parts, the minimal central projections
    (their joint eigenspaces).  Each part p is a summand pSp, isomorphic to
    M_d with multiplicity m, and `_matrix_units` builds its matrix units."""
    basis = _orthonormal_span([np.asarray(b, dtype=complex) for b in basis], n)
    if not basis:
        raise DecompositionError("empty algebra")
    # center: commutes with every basis element
    rows = [np.array([(b @ c - c @ b).reshape(-1) for c in basis]).T for b in basis]
    center = [sum(c * b for c, b in zip(row, basis)) for row in row_spaces(np.vstack(rows))[1]]
    center_sa = _selfadjoint_basis(center, n)
    unit = _unit_of(basis, n)
    # the first split drops the part outside the unit of S (eigenvalue-0
    # directions that belong to no central summand)
    projections = _split(center_sa[0], unit)
    for h in center_sa[1:]:
        if len(projections) == len(center_sa):
            break
        projections = [q for p in projections for q in _split(h, p)]
    if len(projections) != len(center_sa):
        raise DecompositionError(
            f"the center split into {len(projections)} summands, expected {len(center_sa)}")

    summands = []
    for p in projections:
        comp = _orthonormal_span([p @ b @ p for b in basis], n)
        d = int(round(np.sqrt(len(comp))))
        if d * d != len(comp):
            raise DecompositionError("summand dimension is not a square")
        rank = int(round(np.trace(p).real))
        if rank % d:
            raise DecompositionError("summand rank incompatible with block size")
        summands.append((d, rank // d, _matrix_units(comp, p, d, rank // d, n)))
    images = [e for _, _, units in summands for row in units for e in row]
    return SubalgebraBlocks(BlockAlgebra(tuple(d for d, _, _ in summands)), np.array(images),
                            tuple(m for _, m, _ in summands), n)


def _split(h: np.ndarray, p: np.ndarray) -> list[np.ndarray]:
    """The eigenprojections of a Hermitian h that commutes with the
    projection p, cut to p (q p) where they leave it."""
    return [q @ p if np.linalg.norm(q - q @ p) > UNIT_MEET_FLOOR else q
            for q in eigenprojections(h, p)]


def _unit_of(basis: list[np.ndarray], n: int) -> np.ndarray:
    """The unit of the algebra (assumed unital): the projection solving
    u b = b for all basis elements."""
    stack = np.array([b.reshape(-1) for b in basis]).T
    target = np.eye(n).reshape(-1)
    coef, *_ = np.linalg.lstsq(stack, target, rcond=None)
    unit = sum(c * b for c, b in zip(coef, basis))
    if np.linalg.norm(unit @ unit - unit) > IDEMPOTENT_TOL:
        raise DecompositionError("algebra does not contain a unit")
    return unit


def _matrix_units(comp_basis, p, d, mult, n):
    """Matrix units of one simple summand p S p (isomorphic to M_d with
    multiplicity `mult`), from an orthonormal basis of it.

    A minimal projection q comes from splitting p by the compressions q h q
    of the summand's self-adjoint basis, keeping the first eigenprojection,
    until trace q = mult.  Then e_11 = q, and e_1j = sqrt(mult) v_j for an
    orthonormal basis v_j (Hilbert-Schmidt) of the part of the row q S
    orthogonal to q, since the e_1j are orthogonal of norm sqrt(mult);
    e_ij = e_1i* e_1j."""
    if d == 1:
        return [[p]]
    q = p
    for h in _selfadjoint_basis(comp_basis, n):
        if abs(np.trace(q).real - mult) <= TRACE_SLACK:
            break
        q = _split(q @ h @ q, q)[0]
    row = [q @ b for b in comp_basis]
    row = [x - np.vdot(q, x) / mult * q for x in row]
    vs = _orthonormal_span(row, n)
    if len(vs) != d - 1:
        raise DecompositionError("the row of a minimal projection has the wrong dimension")
    first = [q] + [np.sqrt(mult) * v for v in vs]
    units = [first] + [[first[i].conj().T] + [first[i].conj().T @ e for e in first[1:]]
                       for i in range(1, d)]
    if _unit_relations_residual(units, p, d) >= UNIT_RELATIONS_TOL:
        raise DecompositionError("failed to build matrix units for a summand")
    return units


def _unit_relations_residual(units, p, d) -> float:
    """The largest Frobenius residual of e_ij e_kl = delta_jk e_il, e_ij* =
    e_ji and sum_i e_ii = p; all d^4 products are one matrix product."""
    e = np.asarray(units)
    n = e.shape[-1]
    worst = max(float(np.linalg.norm(np.trace(e, axis1=0, axis2=1) - p)),
                float(np.linalg.norm(e.conj().transpose(1, 0, 3, 2) - e, axis=(2, 3)).max()))
    # prods[i, j, a, k, l, c] = (e_ij e_kl)[a, c]
    prods = (e.reshape(-1, n) @ e.transpose(2, 0, 1, 3).reshape(n, -1)).reshape(d, d, n, d, d, n)
    idx = np.arange(d)
    prods[:, idx, :, idx] -= e.transpose(0, 2, 1, 3)  # [j, i, a, l, c] -= e_il[a, c]
    return max(worst, float(np.sqrt((np.abs(prods) ** 2).sum(axis=(2, 5))).max()))
