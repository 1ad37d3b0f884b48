"""Block decomposition of *-closed matrix algebras, and the routines that
pick orthonormal bases.

Recovers the matrix-unit structure of a unital *-closed subalgebra S of
M_n(C): the list of block sizes together with images in S of the abstract
matrix units.  The probe is a random self-adjoint element of the center
(then of each simple summand) with a fixed seed, so results are
deterministic for a given seed.  A one-dimensional algebra, such as the
fixed-point algebra C of an ergodic action, has one matrix unit and draws
no probe, so numpy.random is loaded only where a number is drawn.

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
    PROBE_ATTEMPTS,
    RANK_TOL,
    RELATIVE_RANK_TOL,
    TRACE_SLACK,
    UNIT_MEET_FLOOR,
    UNIT_RELATIONS_TOL,
)


class DecompositionError(RuntimeError):
    """The probe failed to separate the algebra (after retries)."""


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

    def embed(self, coords: np.ndarray) -> np.ndarray:
        return np.einsum("k,kuv->uv", np.asarray(coords, dtype=complex), self.unit_images)

    def restrict(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates of an ambient element lying in the subalgebra, or of
        each element of a stack (..., n, n): coordinate k is
        trace(e_k* x) over the multiplicity of the block of e_k."""
        mults = np.repeat(self.multiplicities, [b * b for b in self.algebra.blocks])
        units = self.unit_images.conj().swapaxes(-1, -2)
        return np.trace(units @ mat[..., None, :, :], axis1=-2, axis2=-1) / mults


def decompose_star_algebra(basis: list[np.ndarray], n: int,
                           seed: int = 0) -> SubalgebraBlocks:
    """Matrix units of the unital *-algebra spanned by `basis` inside M_n(C).

    A one-dimensional algebra C e draws nothing: its one probe is its
    self-adjoint central element with coefficient 1, whose eigenprojection
    onto the unit is the one summand, so `seed` is not read.  A larger
    algebra draws its
    probes from `np.random.default_rng(seed)`: first a central probe, then
    one pair per simple summand of size at least 2, retrying up to
    PROBE_ATTEMPTS times."""
    basis = _orthonormal_span([np.asarray(b, dtype=complex) for b in basis], n)
    if not basis:
        raise DecompositionError("empty algebra")
    # center: commutes with every basis element
    rows = [np.array([(b @ c - c @ b).reshape(-1) for c in basis]).T for b in basis]
    center = [sum(c * b for c, b in zip(row, basis)) for row in row_spaces(np.vstack(rows))[1]]
    center_sa = _selfadjoint_basis(center, n)
    n_blocks = len(center_sa)
    unit = _unit_of(basis, n)

    if len(basis) == 1:
        # C e has one matrix unit: one probe with coefficient 1, no draw
        rng, draws = None, [np.ones(1)]
    else:
        rng = np.random.default_rng(seed)
        draws = (rng.standard_normal(n_blocks) for _ in range(PROBE_ATTEMPTS))
    last_error = "no attempt made"
    for coeffs in draws:
        probe = sum(c * h for c, h in zip(coeffs, center_sa))
        # the part outside the unit of S (eigenvalue-0 directions that do
        # not belong to any central summand) is dropped
        projections = eigenprojections(probe, unit)
        if len(projections) != n_blocks:
            last_error = f"central probe produced {len(projections)} summands, expected {n_blocks}"
            continue
        try:
            return _units_from_projections(basis, projections, n, rng)
        except DecompositionError as err:
            last_error = str(err)
    raise DecompositionError(last_error)


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


def _units_from_projections(basis, projections, n, rng) -> SubalgebraBlocks:
    summands = []
    for p in projections:
        comp = [p @ b @ p for b in basis]
        comp = _orthonormal_span(comp, n)
        d2 = len(comp)
        d = int(round(np.sqrt(d2)))
        if d * d != d2:
            raise DecompositionError("summand dimension is not a square")
        rank = int(round(np.trace(p).real))
        if rank % d:
            raise DecompositionError("summand rank incompatible with block size")
        mult = rank // d
        units = _matrix_units(comp, p, d, mult, n, rng)
        summands.append((d, mult, units))

    blocks = tuple(d for d, _, _ in summands)
    mults = tuple(m for _, m, _ in summands)
    images = [unit for _, _, units in summands for row in units for unit in row]
    return SubalgebraBlocks(BlockAlgebra(blocks), np.array(images), mults, n)


def _matrix_units(comp_basis, p, d, mult, n, rng):
    """Matrix units of one simple summand p S p (isomorphic to M_d)."""
    if d == 1:
        return [[p]]
    for _ in range(PROBE_ATTEMPTS):
        coeffs = rng.standard_normal(len(comp_basis))
        h = sum(c * b for c, b in zip(coeffs, comp_basis))
        # the eigenspaces of h inside p: h is 0 on the rest
        qs = eigenprojections((h + h.conj().T) / 2, p)
        if len(qs) != d:
            continue
        if any(abs(np.trace(q).real - mult) > TRACE_SLACK for q in qs):
            continue
        scoeff = rng.standard_normal(len(comp_basis))
        s = sum(c * b for c, b in zip(scoeff, comp_basis))
        row = [qs[0]]
        ok = True
        for i in range(1, d):
            vmat = qs[0] @ s @ qs[i]
            gram = vmat.conj().T @ vmat
            wg, vg = np.linalg.eigh(gram)
            keep = wg > RELATIVE_RANK_TOL * max(1.0, float(wg.max()))
            if int(np.sum(keep)) != mult:
                ok = False
                break
            inv_sqrt = (vg[:, keep] / np.sqrt(wg[keep])) @ vg[:, keep].conj().T
            row.append(vmat @ inv_sqrt)
        if not ok:
            continue
        # row[i] plays the role of e_{1i} (with row[0] = q_1); e_{ij} = e_{1i}* e_{1j}
        units = [[None] * d for _ in range(d)]
        units[0][0] = qs[0]
        for j in range(1, d):
            units[0][j] = row[j]
            units[j][0] = row[j].conj().T
        for i in range(1, d):
            for j in range(1, d):
                units[i][j] = row[i].conj().T @ row[j]
        resid = _unit_relations_residual(units, p, d)
        if resid < UNIT_RELATIONS_TOL:
            return units
    raise DecompositionError("failed to build matrix units for a summand")


def _unit_relations_residual(units, p, d) -> float:
    worst = float(np.linalg.norm(sum(units[i][i] for i in range(d)) - p))
    for i in range(d):
        for j in range(d):
            worst = max(
                worst, float(np.linalg.norm(units[i][j].conj().T - units[j][i]))
            )
            for k in range(d):
                for l in range(d):
                    prod = units[i][j] @ units[k][l]
                    expect = units[i][l] if j == k else np.zeros_like(prod)
                    worst = max(worst, float(np.linalg.norm(prod - expect)))
    return worst
