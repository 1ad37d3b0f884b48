"""Coordinate models of finite-dimensional *-algebras.

A model is a product tensor, a conjugate-linear involution matrix, a unit,
and a faithful positive functional; enough to multiply, take adjoints,
compute the C*-norm through the induced representation, locate the center,
and certify *-isomorphisms against oracle algebras.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .algebras import BlockAlgebra
from .blockdecomp import decompose_star_algebra


@dataclass
class StarAlgebraModel:
    dim: int
    product: np.ndarray  # (dim, dim, dim): (xy)_r = product[r, p, q] x_p y_q
    star: np.ndarray  # (dim, dim): coords of x* are star @ conj(x)
    unit: np.ndarray
    functional: np.ndarray  # faithful positive linear functional

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("rpq,p,q->r", self.product, x, y)

    def star_of(self, x: np.ndarray) -> np.ndarray:
        return self.star @ np.conj(x)

    @functools.cached_property
    def _gns(self):
        # g[p, q] = functional(e_p* e_q); e_p* has coordinates star[:, p]
        g = self.star.T @ np.tensordot(self.functional, self.product, axes=(0, 0))
        g = (g + g.conj().T) / 2
        w, v = np.linalg.eigh(g)
        keep = w > 1e-12 * max(float(w.max()), 1e-300)
        return v[:, keep], np.sqrt(w[keep])

    def left_matrix(self, x: np.ndarray) -> np.ndarray:
        return np.einsum("rpq,p->rq", self.product, x)

    def operator_norm(self, x: np.ndarray) -> float:
        v, s = self._gns
        t = (v * s).conj().T @ self.left_matrix(x) @ (v / s)
        return float(np.linalg.norm(t, 2)) if t.size else 0.0

    def center_dimension(self, tol: float = 1e-8) -> int:
        # z central iff zb = bz for every basis element b
        basis = np.eye(self.dim, dtype=complex)
        stacked = np.vstack([np.einsum("rpq,q->rp", self.product, b)
                             - np.einsum("rqp,q->rp", self.product, b)
                             for b in basis])
        s = np.linalg.svd(stacked, compute_uv=False)
        return int(self.dim - np.sum(s > tol))

    def block_structure(self, seed: int = 0) -> tuple[int, ...]:
        """Wedderburn block sizes, recovered from the induced representation."""
        v, s = self._gns
        # left multiplication by basis element p is product[:, p, :]
        mats = (v * s).conj().T @ np.moveaxis(self.product, 1, 0) @ (v / s)
        blocks = decompose_star_algebra(list(mats), v.shape[1], seed=seed)
        return blocks.algebra.blocks


def verify_algebra_iso(src: StarAlgebraModel, dst: StarAlgebraModel,
                       phi: np.ndarray, tol: float = 1e-9) -> dict:
    """Certify that a linear map of coordinates is a unital *-isomorphism."""
    out: dict = {}
    if src.dim != dst.dim or phi.shape != (dst.dim, src.dim):
        return {"passed": False, "shape": "mismatch"}
    sv = np.linalg.svd(phi, compute_uv=False)
    out["smallest_singular_value"] = float(sv.min()) if sv.size else 0.0
    basis = np.eye(src.dim, dtype=complex)
    worst_mult = 0.0
    worst_star = 0.0
    for p in range(src.dim):
        worst_star = max(worst_star, float(np.abs(
            phi @ src.star_of(basis[p]) - dst.star_of(phi @ basis[p])
        ).max()))
        for q in range(src.dim):
            lhs = phi @ src.multiply(basis[p], basis[q])
            rhs = dst.multiply(phi @ basis[p], phi @ basis[q])
            worst_mult = max(worst_mult, float(np.abs(lhs - rhs).max()))
    out["multiplicative"] = worst_mult
    out["star"] = worst_star
    out["unit"] = float(np.abs(phi @ src.unit - dst.unit).max())
    out["passed"] = bool(
        sv.size and sv.min() > 1e-8
        and max(worst_mult, worst_star, out["unit"]) < 1e4 * tol
    )
    return out


def matrix_algebra_model(n: int) -> StarAlgebraModel:
    """M_n(C) on the matrix-unit basis, with the trace functional."""
    algebra = BlockAlgebra((n,))
    product = algebra.structure_tensor().transpose(2, 0, 1).astype(complex)
    star = np.eye(algebra.dim, dtype=complex)[algebra.star_permutation()]
    unit = algebra.coords(algebra.identity())
    functional = unit.copy()  # trace on matrix units
    return StarAlgebraModel(algebra.dim, product, star, unit, functional)
