"""Block decomposition of *-closed matrix algebras.

Recovers the matrix-unit structure of a unital *-closed subalgebra S of
M_n(C): the list of block sizes together with images in S of the abstract
matrix units.  The probe is a random self-adjoint element of the center
(then of each simple summand) with a fixed seed, so results are
deterministic for a given seed.

`null_space` is the package's one kernel routine: the center here, and the
spectral subspaces, equivariant maps and bimodule maps of `actions`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import BlockAlgebra
from .repcat import RANK_TOL

CLUSTER_TOL = 1e-7


class DecompositionError(RuntimeError):
    """The probe failed to separate the algebra (after retries)."""


def null_space(stacked: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the kernel of a matrix, shape (nullity,
    columns).  Singular values up to RANK_TOL count as zero; the columns in
    excess of the rows always lie in the kernel.

    A stack with at least 17/9 (complex) or 11/6 (real) times as many rows
    as columns is first reduced to the square R of its QR factorization
    (mode "r"), and the SVD is taken of R: R has the stack's singular
    values and right singular vectors, and no U is formed.  LAPACK's
    divide-and-conquer SVD (?gesdd) runs that same QR itself on a stack
    that tall, so with one LAPACK the values and vectors are those of the
    thin SVD bit for bit.  A shorter stack takes the thin SVD, where ?gesdd
    runs no QR.  Another LAPACK build, which may factor differently or
    cross over elsewhere, gives the same null space up to rounding.
    """
    rows, cols = stacked.shape
    num, den = (17, 9) if np.iscomplexobj(stacked) else (11, 6)
    if rows > cols and rows >= cols * num // den:
        stacked = np.linalg.qr(stacked, mode="r")
    _, s, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < cols)
    # rows of vh are orthonormal; conjugate so x (not x-bar) solves stacked x = 0
    return vh[int(np.sum(s > RANK_TOL)):].conj()


def _orthonormal_span(mats: list[np.ndarray], n: int, tol: float = 1e-10) -> list[np.ndarray]:
    if not mats:
        return []
    stack = np.array([m.reshape(-1) for m in mats]).T
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > tol * max(s.max(), 1.0)))
    return [u[:, k].reshape(n, n) for k in range(rank)]


def _selfadjoint_basis(basis: list[np.ndarray], n: int) -> list[np.ndarray]:
    """Real-orthonormal basis of the self-adjoint part of a *-closed span.

    Works over the reals so every output is a real combination of
    self-adjoint matrices, hence self-adjoint itself; the real dimension of
    the self-adjoint part equals the complex dimension of the span.
    """
    cands = []
    for b in basis:
        cands.append((b + b.conj().T) / 2)
        cands.append((b - b.conj().T) / 2j)
    if not cands:
        return []
    stack = np.array([
        np.concatenate([m.reshape(-1).real, m.reshape(-1).imag]) for m in cands
    ]).T
    u, s, _ = np.linalg.svd(stack, full_matrices=False)
    rank = int(np.sum(s > 1e-10 * max(float(s.max()), 1.0)))
    out = []
    for k in range(rank):
        vec = u[:n * n, k] + 1j * u[n * n:, k]
        out.append(vec.reshape(n, n))
    return out


def _cluster(values: np.ndarray, tol: float) -> list[np.ndarray]:
    order = np.argsort(values)
    groups = [[order[0]]]
    for idx in order[1:]:
        if values[idx] - values[groups[-1][-1]] < tol:
            groups[-1].append(idx)
        else:
            groups.append([idx])
    return [np.array(g) for g in groups]


@dataclass
class SubalgebraBlocks:
    """Result: abstract block algebra, images of its matrix units, and the
    multiplicity of each block in the ambient representation."""

    algebra: BlockAlgebra
    unit_images: np.ndarray  # (algebra.dim, n, n), aligned with algebra.basis()
    multiplicities: tuple[int, ...]
    ambient_n: int

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
                           seed: int = 0, attempts: int = 8) -> SubalgebraBlocks:
    """Matrix units of the unital *-algebra spanned by `basis` inside M_n(C)."""
    basis = _orthonormal_span([np.asarray(b, dtype=complex) for b in basis], n)
    if not basis:
        raise DecompositionError("empty algebra")
    # center: commutes with every basis element
    rows = []
    for b in basis:
        block = np.array([(b @ c - c @ b).reshape(-1) for c in basis]).T
        rows.append(block)
    center = [sum(c * b for c, b in zip(row, basis)) for row in null_space(np.vstack(rows))]
    center_sa = _selfadjoint_basis(center, n)
    n_blocks = len(center_sa)

    rng = np.random.default_rng(seed)
    last_error = "no attempt made"
    for _ in range(attempts):
        coeffs = rng.standard_normal(n_blocks)
        probe = sum(c * h for c, h in zip(coeffs, center_sa))
        w, v = np.linalg.eigh(probe)
        clusters = _cluster(w, CLUSTER_TOL * max(1.0, float(np.abs(w).max())))
        projections = [v[:, idx] @ v[:, idx].conj().T for idx in clusters]
        # drop the part outside the unit of S (eigenvalue-0 directions that
        # do not belong to any central summand)
        unit = sum(h * 0 for h in center_sa) + _unit_of(basis, n)
        projections = [p for p in projections if np.linalg.norm(p @ unit) > 1e-8]
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
    if np.linalg.norm(unit @ unit - unit) > 1e-8:
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
    images = []
    for d, _, units in summands:
        for i in range(d):
            for j in range(d):
                images.append(units[i][j])
    return SubalgebraBlocks(BlockAlgebra(blocks), np.array(images), mults, n)


def _matrix_units(comp_basis, p, d, mult, n, rng, tol=1e-7):
    """Matrix units of one simple summand p S p (isomorphic to M_d)."""
    if d == 1:
        return [[p]]
    for _ in range(8):
        coeffs = rng.standard_normal(len(comp_basis))
        h = sum(c * b for c, b in zip(coeffs, comp_basis))
        h = (h + h.conj().T) / 2
        w, v = np.linalg.eigh(h)
        live = np.abs(w) > 1e-8 * max(1.0, float(np.abs(w).max()))
        clusters = _cluster(w[live], CLUSTER_TOL * max(1.0, float(np.abs(w).max())))
        if len(clusters) != d:
            continue
        idx_live = np.where(live)[0]
        qs = [v[:, idx_live[c]] @ v[:, idx_live[c]].conj().T for c in clusters]
        if any(abs(np.trace(q).real - mult) > 0.1 for q in qs):
            continue
        scoeff = rng.standard_normal(len(comp_basis))
        s = sum(c * b for c, b in zip(scoeff, comp_basis))
        row = [qs[0]]
        ok = True
        for i in range(1, d):
            vmat = qs[0] @ s @ qs[i]
            gram = vmat.conj().T @ vmat
            wg, vg = np.linalg.eigh(gram)
            keep = wg > 1e-10 * max(1.0, float(wg.max()))
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
        if resid < tol:
            return units
    raise DecompositionError("failed to build matrix units for a summand")


def _unit_relations_residual(units, p, d) -> float:
    worst = 0.0
    total = sum(units[i][i] for i in range(d))
    worst = max(worst, float(np.linalg.norm(total - p)))
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
