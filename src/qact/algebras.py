"""Finite-dimensional C*-algebras and correspondences over them.

An algebra is a direct sum of full matrix blocks; its elements are
block-diagonal complex matrices.  A correspondence is a bimodule over
such an algebra with an algebra-valued inner product, stored as dense
coefficient tensors on a chosen basis.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import AlgebraError


GRAM_CUTOFF = 1e-10  # relative eigenvalue cutoff for quotients by null spaces


@dataclass(frozen=True)
class BlockAlgebra:
    """Direct sum of matrix blocks M_{b_1} (+) ... (+) M_{b_k}.

    Elements are (n, n) complex matrices supported on the diagonal blocks,
    n = sum of block sizes.  Coordinates refer to the matrix-unit basis,
    enumerated block by block in row-major order.
    """

    blocks: tuple[int, ...]

    def __post_init__(self):
        if not self.blocks or any(b < 1 for b in self.blocks):
            raise AlgebraError("block sizes must be positive")

    @property
    def n(self) -> int:
        return sum(self.blocks)

    @property
    def dim(self) -> int:
        return sum(b * b for b in self.blocks)

    def offsets(self):
        out = []
        start = 0
        for b in self.blocks:
            out.append(start)
            start += b
        return out

    def basis(self) -> list[np.ndarray]:
        """Matrix units, block by block."""
        units = []
        for off, b in zip(self.offsets(), self.blocks):
            for i in range(b):
                for j in range(b):
                    e = np.zeros((self.n, self.n), dtype=complex)
                    e[off + i, off + j] = 1.0
                    units.append(e)
        return units

    def coords(self, mat: np.ndarray) -> np.ndarray:
        """Coordinates in the matrix-unit basis of an element, or of each
        element of a stack (..., n, n)."""
        rows, cols = _unit_positions(self.blocks)
        return np.asarray(mat, dtype=complex)[..., rows, cols]

    def structure_tensor(self) -> np.ndarray:
        """Coordinates of the products of matrix units: entry [k, l, m] is
        coordinate m of u_k u_l.  Cached per block structure, read-only."""
        return _structure_tensor(self.blocks)

    def star_permutation(self) -> np.ndarray:
        """The involution on coordinates: u_k* = u_perm[k], so coords(x*) is
        conj(coords(x))[perm].  A read-only involutive permutation."""
        return _star_permutation(self.blocks)

    def from_coords(self, vec: np.ndarray) -> np.ndarray:
        """The element, or stack of elements, with the given coordinates."""
        vec = np.asarray(vec)
        rows, cols = _unit_positions(self.blocks)
        mat = np.zeros(vec.shape[:-1] + (self.n, self.n), dtype=complex)
        mat[..., rows, cols] = vec
        return mat

    def project(self, mat: np.ndarray) -> np.ndarray:
        """Zero out off-block entries."""
        return self.from_coords(self.coords(mat))

    def identity(self) -> np.ndarray:
        return np.eye(self.n, dtype=complex)

    def opnorm(self, mat: np.ndarray) -> float:
        if self.n == 0:
            return 0.0
        return float(np.linalg.norm(np.asarray(mat, dtype=complex), 2))

    def is_positive(self, mat: np.ndarray, tol: float = 1e-9) -> bool:
        mat = np.asarray(mat, dtype=complex)
        herm = float(np.linalg.norm(mat - mat.conj().T))
        if herm > tol * max(1.0, np.linalg.norm(mat)):
            return False
        w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
        return bool(w.min() > -tol * max(1.0, abs(w).max()))


@functools.cache
def _unit_positions(blocks: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Row and column of the nonzero entry of each matrix unit."""
    rows, cols = [], []
    start = 0
    for b in blocks:
        i, j = np.divmod(np.arange(b * b), b)
        rows.append(start + i)
        cols.append(start + j)
        start += b
    return np.concatenate(rows), np.concatenate(cols)


@functools.cache
def _star_permutation(blocks: tuple[int, ...]) -> np.ndarray:
    perm = []
    start = 0
    for b in blocks:
        # E_ij* = E_ji inside one block
        i, j = np.divmod(np.arange(b * b), b)
        perm.append(start + j * b + i)
        start += b * b
    out = np.concatenate(perm)
    out.setflags(write=False)
    return out


@functools.cache
def _structure_tensor(blocks: tuple[int, ...]) -> np.ndarray:
    dim = sum(b * b for b in blocks)
    out = np.zeros((dim, dim, dim))
    start = 0
    for b in blocks:
        # E_ij E_jl = E_il inside one block; products across blocks vanish
        i, j, l = np.meshgrid(range(b), range(b), range(b), indexing="ij")
        out[start + i * b + j, start + j * b + l, start + i * b + l] = 1.0
        start += b * b
    out.setflags(write=False)
    return out


class Correspondence:
    """A bimodule over a block algebra with an algebra-valued inner product.

    The carrier is C^dim with a fixed basis.  Actions and the inner product
    are dense tensors over that basis and the matrix-unit basis of A:

    left[k]  : (dim, dim) matrix for the left action of the k-th unit
    right[k] : (dim, dim) matrix for the right action of the k-th unit
    inner[p, q] : (n, n) algebra element <m_p, m_q>, conjugate-linear in p
    """

    def __init__(self, algebra: BlockAlgebra, dim: int,
                 left: np.ndarray, right: np.ndarray, inner: np.ndarray):
        self.algebra = algebra
        self.dim = int(dim)
        self.left = np.asarray(left, dtype=complex).reshape(algebra.dim, dim, dim)
        self.right = np.asarray(right, dtype=complex).reshape(algebra.dim, dim, dim)
        self.inner_tensor = np.asarray(inner, dtype=complex).reshape(
            dim, dim, algebra.n, algebra.n
        )

    def left_mul(self, a: np.ndarray, x: np.ndarray) -> np.ndarray:
        c = self.algebra.coords(a)
        return np.einsum("k,kpq,q->p", c, self.left, x)

    def right_mul(self, x: np.ndarray, a: np.ndarray) -> np.ndarray:
        c = self.algebra.coords(a)
        return np.einsum("k,kpq,q->p", c, self.right, x)

    def inner(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return np.einsum("p,q,pquv->uv", np.conj(x), y, self.inner_tensor)

    def norm(self, x: np.ndarray) -> float:
        gram = self.inner(x, x)
        val = self.algebra.opnorm((gram + gram.conj().T) / 2)
        return float(np.sqrt(max(val, 0.0)))

    def scalar_gram(self) -> np.ndarray:
        """Trace-composed Gram matrix of the basis; positive semidefinite for
        valid data."""
        return np.einsum("pquu->pq", self.inner_tensor)

    def validate(self, tol: float = 1e-9) -> dict:
        """Residuals of the correspondence axioms on the basis."""
        a = self.algebra
        structure = a.structure_tensor()
        units = np.array(a.basis())
        left, right, inner = self.left, self.right, self.inner_tensor
        rep = {}

        def worst(x, axis):
            return float(np.linalg.norm(x, axis=axis).max(initial=0.0))

        # bimodule laws and compatibility; index [k, l] pairs units u_k, u_l
        eye = np.eye(self.dim)
        one = a.coords(a.identity())
        left_uv = np.tensordot(structure, left, axes=(2, 0))
        right_uv = np.tensordot(structure, right, axes=(2, 0))
        worst_act = max(
            worst(np.einsum("k,kpq->pq", one, left) - eye, 0),
            worst(np.einsum("k,kpq->pq", one, right) - eye, 0),
            worst(left[:, None] @ left[None] - left_uv, (2, 3)),
            worst(right[None] @ right[:, None] - right_uv, (2, 3)),
        )
        worst_comm = worst(left[:, None] @ right[None] - right[None] @ left[:, None], (2, 3))
        # inner-product laws on the basis
        worst_star = max(
            worst(np.conj(np.transpose(inner, (1, 0, 3, 2))) - inner, (2, 3)),
            worst(inner - inner * a.project(np.ones((a.n, a.n))).real, (2, 3)),
        )
        # <m_p, m_q u> = <m_p, m_q> u and <u m_p, m_q> = <m_p, u* m_q>
        left_star = np.tensordot(np.array([a.coords(u.conj().T) for u in units]), left,
                                 axes=(1, 0))
        worst_lin = max(
            worst(np.einsum("ksq,psuv->kpquv", right, inner)
                  - np.einsum("pquw,kwv->kpquv", inner, units), (3, 4)),
            worst(np.einsum("ksp,squv->kpquv", left.conj(), inner)
                  - np.einsum("ksq,psuv->kpquv", left_star, inner), (3, 4)),
        )
        gram = self.scalar_gram()
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        gmin = float(eigs.min()) if self.dim else 1.0
        gmax = float(eigs.max()) if self.dim else 1.0
        rep["actions"] = worst_act
        rep["left_right_commute"] = worst_comm
        rep["inner_hermitian"] = worst_star
        rep["inner_module_linear"] = worst_lin
        rep["gram_min_eig"] = gmin
        rep["positive"] = gmin > -tol
        # degeneracy is a rank statement, not a residual: fixed relative floor
        rep["nondegenerate"] = gmin > 1e-10 * max(gmax, 1.0) if self.dim else True
        return rep


def algebra_as_correspondence(algebra: BlockAlgebra) -> Correspondence:
    """A as a correspondence over itself, on the matrix-unit basis."""
    structure = algebra.structure_tensor()
    # left[k, :, q] = coords(u_k u_q), right[k, :, q] = coords(u_q u_k) and
    # inner[p, q] = u_p* u_q
    left = structure.transpose(0, 2, 1)
    right = structure.transpose(1, 2, 0)
    inner = algebra.from_coords(structure[algebra.star_permutation()])
    return Correspondence(algebra, algebra.dim, left, right, inner)


def zero_correspondence(algebra: BlockAlgebra) -> Correspondence:
    return Correspondence(
        algebra, 0,
        np.zeros((algebra.dim, 0, 0)), np.zeros((algebra.dim, 0, 0)),
        np.zeros((0, 0, algebra.n, algebra.n)),
    )


@dataclass
class TensorQuotient:
    """Interior tensor product M (x)_A N, together with the quotient map
    from the algebraic tensor product (row-isometry onto kept directions)."""

    product: Correspondence
    projector: np.ndarray  # (dim_quotient, dim_M * dim_N)


def tensor_semi_inner(m: Correspondence, n: Correspondence) -> np.ndarray:
    """Algebra-valued semi-inner product on the algebraic tensor product,
    <m_p (x) n_q, m_r (x) n_s> = <n_q, <m_p, m_r> n_s>, flattened to
    (dim_M * dim_N, dim_M * dim_N, n, n)."""
    a = m.algebra
    # lmats[p, r] is the left action of <m_p, m_r> on N
    lmats = np.tensordot(a.coords(m.inner_tensor), n.left, axes=(2, 0))
    # full[p, r, s, q, u, v] = <n_q, lmats[p, r] n_s>_{uv}
    full = np.tensordot(lmats, n.inner_tensor, axes=(2, 1))
    full = full.transpose(0, 3, 1, 2, 4, 5)
    return full.reshape(m.dim * n.dim, m.dim * n.dim, a.n, a.n)


def internal_tensor(m: Correspondence, n: Correspondence) -> TensorQuotient:
    """Interior tensor product over A.

    The semi-inner product <x (x) y, x' (x) y'> = <y, <x, x'> y'> is formed on
    the algebraic tensor product, and the null space is removed by eigenvalue
    thresholding of the trace-composed Gram matrix at a relative cutoff.
    """
    if m.algebra.blocks != n.algebra.blocks:
        raise AlgebraError("correspondences live over different algebras")
    a = m.algebra
    dmn = m.dim * n.dim
    if dmn == 0:
        return TensorQuotient(zero_correspondence(a), np.zeros((0, dmn)))
    inner_flat = tensor_semi_inner(m, n)
    gram = np.einsum("pquu->pq", inner_flat)
    gram = (gram + gram.conj().T) / 2
    w, v = np.linalg.eigh(gram)
    cutoff = GRAM_CUTOFF * max(float(w.max()), 0.0)
    keep = w > cutoff
    proj = v[:, keep].conj().T  # (r, dmn); class coordinates of v are proj @ v
    r = proj.shape[0]
    embed = proj.conj().T
    left = np.zeros((a.dim, r, r), dtype=complex)
    right = np.zeros((a.dim, r, r), dtype=complex)
    eye_m = np.eye(m.dim)
    eye_n = np.eye(n.dim)
    for k in range(a.dim):
        lmn = np.einsum("pq,st->psqt", m.left[k], eye_n).reshape(dmn, dmn)
        rmn = np.einsum("pq,st->psqt", eye_m, n.right[k]).reshape(dmn, dmn)
        left[k] = proj @ lmn @ embed
        right[k] = proj @ rmn @ embed
    # representatives of quotient basis vectors are the columns of embed
    inner_q = np.einsum("ap,bq,pquv->abuv", proj, proj.conj(), inner_flat)
    quotient = Correspondence(a, r, left, right, inner_q)
    return TensorQuotient(quotient, proj)


@dataclass
class AdjointBatch:
    """Least-squares adjoints of a stack of maps T_i : M -> N.

    adjoints[i] has shape (dim M, dim N); T_i is adjointable when its
    residual is within tol * max(1, |T_i|)."""

    adjoints: np.ndarray
    residuals: np.ndarray
    adjointable: np.ndarray


def module_linear_residuals(maps: np.ndarray, m: Correspondence,
                            n: Correspondence) -> np.ndarray:
    """How far each map of a stack (count, dim N, dim M) of maps M -> N is
    from being right-A-linear: the largest column norm of
    T right_M(u) - right_N(u) T over the matrix units u."""
    maps = np.asarray(maps, dtype=complex)[:, None]
    diff = maps @ m.right - n.right @ maps  # (count, unit, dim N, dim M)
    return np.linalg.norm(diff, axis=2).max(axis=(1, 2), initial=0.0)


def adjoints_of(maps: np.ndarray, m: Correspondence, n: Correspondence,
                tol: float = 1e-9) -> AdjointBatch:
    """Adjoints of a stack (count, dim N, dim M) of maps M -> N for the
    algebra-valued inner products; the stack of one of adjoints_by_source.

    Solves <T m_p, n_s> = <m_p, T* n_s> for the matrix of T* in least
    squares.  For each column s this is one system against the source's
    coefficient matrix G[(p, u, v), r] = <m_p, m_r>_{uv}, so a single solve
    with every map's columns as right-hand sides serves the whole stack.
    Its singular-value cutoff is the one lstsq applies to the system of one
    map, G repeated once per column of N.
    """
    batch = adjoints_by_source(np.asarray(maps)[None], m, n.inner_tensor[None], tol)
    return AdjointBatch(batch.adjoints[0], batch.residuals[0], batch.adjointable[0])


def adjoints_by_source(maps: np.ndarray, m: Correspondence, targets: np.ndarray,
                       tol: float = 1e-9) -> AdjointBatch:
    """adjoints_of for stacks (stacks, count, dim N, dim M) of maps out of
    one source M, stack k into its own target N_k, whose inner tensor is
    targets[k]; every field of the result gains the leading stack axis.

    Each stack's right-hand sides are one matrix product (BLAS) of its
    maps' conjugates with its target's inner tensor, and all stacks share
    one least-squares solve.  The solve's matrix G and cutoff depend only
    on M and dim N, lstsq finds each right-hand side's solution column on
    its own, and each stack's residual is formed from its own columns.  So
    every stack gets the adjoints and residuals that adjoints_of gives it
    alone.
    """
    maps = np.asarray(maps, dtype=complex)
    stacks, count, dim_n, _ = maps.shape
    scale = np.maximum(1.0, np.linalg.norm(maps, axis=(2, 3)))
    if m.dim == 0 or dim_n == 0:
        zeros = np.zeros((stacks, count))
        return AdjointBatch(np.zeros((stacks, count, m.dim, dim_n), dtype=complex), zeros,
                            zeros <= tol * scale)
    n = m.algebra.n
    nn = n * n
    gram = np.transpose(m.inner_tensor, (0, 2, 3, 1)).reshape(m.dim * nn, m.dim)
    # rhs[(p, u, v), (k, i, s)] = <T_ki m_p, n_s>_{uv}
    #                           = sum_q conj(T_ki[q, p]) <n_q, n_s>_{uv},
    # one matrix product per stack
    rhs = maps.conj().transpose(0, 1, 3, 2).reshape(stacks, count * m.dim, dim_n) \
        @ np.reshape(targets, (stacks, dim_n, dim_n * nn))
    rhs = rhs.reshape(stacks, count, m.dim, dim_n, n, n).transpose(2, 4, 5, 0, 1, 3)
    rhs = rhs.reshape(m.dim * nn, stacks, count * dim_n)
    rcond = np.finfo(float).eps * m.dim * dim_n * nn
    sol, *_ = np.linalg.lstsq(gram, rhs.reshape(m.dim * nn, -1), rcond=rcond)
    sol = sol.reshape(m.dim, stacks, count * dim_n).transpose(1, 0, 2)
    resid = (gram @ sol - rhs.transpose(1, 0, 2)).reshape(stacks, m.dim * nn, count, dim_n)
    residuals = np.sqrt(np.einsum("kris,kris->ki", resid.conj(), resid).real)
    adjoints = sol.reshape(stacks, m.dim, count, dim_n).transpose(0, 2, 1, 3)
    return AdjointBatch(adjoints, residuals, residuals <= tol * scale)

