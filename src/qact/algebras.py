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
from .thresholds import DEFAULT_TOL, RELATIVE_RANK_TOL

# complex right-hand-side entries per stacked product of adjoints_by_shape,
# and complex entries per stack of the largest arrays of
# validate_correspondences: past these sizes a larger stack runs slower, or
# holds more memory than it saves time
SOLVE_CHUNK = 1 << 13
VALIDATE_CHUNK = 1 << 16


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

    @functools.cached_property
    def n(self) -> int:
        return sum(self.blocks)

    @functools.cached_property
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
        return float(np.linalg.norm(np.asarray(mat, dtype=complex), 2))


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


def validate_correspondences(mods: list[Correspondence], tol: float = DEFAULT_TOL) -> list[dict]:
    """The residuals of the correspondence axioms on the basis, for each of
    a list of correspondences over one algebra; those of one dimension are
    checked as one stack, each check one contraction or stacked matrix
    product over the stack."""
    groups: dict = {}
    for k, mod in enumerate(mods):
        groups.setdefault(mod.dim, []).append(k)
    out: list = [None] * len(mods)
    for dim, members in groups.items():
        a = mods[members[0]].algebra
        # the largest arrays hold A.dim * dim^2 * n^2 entries per correspondence
        step = max(1, VALIDATE_CHUNK // max(a.dim * dim * dim * a.n * a.n, 1))
        for lo in range(0, len(members), step):
            part = members[lo:lo + step]
            reps = _validate_stack(a, dim, *(np.stack([getattr(mods[k], f) for k in part])
                                             for f in ("left", "right", "inner_tensor")), tol)
            for k, rep in zip(part, reps):
                out[k] = rep
    return out


def _validate_stack(a: BlockAlgebra, dim: int, left: np.ndarray, right: np.ndarray,
                    inner: np.ndarray, tol: float) -> list[dict]:
    """The residuals of validate_correspondences for a stack of
    correspondences of one dimension, given their stacked tensors."""
    structure = a.structure_tensor()
    units = np.array(a.basis())
    count, k = len(left), a.dim

    def worst(x, axis):
        # per correspondence: the largest norm over the axes `axis`
        norms = np.linalg.norm(x, axis=axis)
        return norms.max(axis=tuple(range(1, norms.ndim)), initial=0.0)

    # bimodule laws and compatibility; index [k, l] pairs units u_k, u_l
    eye = np.eye(dim)
    one = a.coords(a.identity())
    left_uv, right_uv = (
        (structure.reshape(k * k, k) @ x.reshape(count, k, dim * dim)).reshape(
            count, k, k, dim, dim) for x in (left, right))
    worst_act = np.maximum.reduce([
        worst(np.einsum("k,mkpq->mpq", one, left) - eye, 1),
        worst(np.einsum("k,mkpq->mpq", one, right) - eye, 1),
        worst(left[:, :, None] @ left[:, None] - left_uv, (3, 4)),
        worst(right[:, None] @ right[:, :, None] - right_uv, (3, 4)),
    ])
    worst_comm = worst(left[:, :, None] @ right[:, None] - right[:, None] @ left[:, :, None],
                       (3, 4))
    # inner-product laws on the basis
    worst_star = np.maximum(
        worst(np.conj(np.transpose(inner, (0, 2, 1, 4, 3))) - inner, (3, 4)),
        worst(inner - inner * a.project(np.ones((a.n, a.n))).real, (3, 4)),
    )
    # <m_p, m_q u> = <m_p, m_q> u and <u m_p, m_q> = <m_p, u* m_q>, as
    # stacked matrix products; each pair of sides is compared with the
    # second side laid out as the first, [k, q, p, (u, v)] and
    # [k, p, q, (u, v)]
    nn = a.n * a.n
    star_coords = np.array([a.coords(u.conj().T) for u in units])
    left_star = star_coords @ left.reshape(count, k, dim * dim)
    inner_s = inner.transpose(0, 2, 1, 3, 4).reshape(count, dim, dim * nn)  # [s, (p, u, v)]

    def by_q(x):
        # sum_s x[k, s, q] <m_p, m_s>, as [k, q, p, (u, v)]
        return x.reshape(count, k, dim, dim).transpose(0, 1, 3, 2).reshape(
            count, k * dim, dim) @ inner_s

    times_unit = inner.reshape(count, dim * dim * a.n, a.n) \
        @ units.transpose(1, 0, 2).reshape(a.n, k * a.n)  # [(p, q, u), (k, v)]
    lin_right = by_q(right).reshape(count, k, dim, dim, a.n, a.n) - times_unit.reshape(
        count, dim, dim, a.n, k, a.n).transpose(0, 4, 2, 1, 3, 5)
    lin_left = (left.conj().transpose(0, 1, 3, 2).reshape(count, k * dim, dim)
                @ inner.reshape(count, dim, dim * nn)).reshape(count, k, dim, dim, nn) \
        - by_q(left_star).reshape(count, k, dim, dim, nn).transpose(0, 1, 3, 2, 4)
    worst_lin = np.maximum(
        worst(lin_right.reshape(count, k, dim, dim, nn), 4),
        worst(lin_left, 4),
    )
    gram = np.einsum("mpquu->mpq", inner)
    eigs = np.linalg.eigvalsh((gram + gram.conj().transpose(0, 2, 1)) / 2)
    reps = []
    for m in range(count):
        gmin = float(eigs[m].min()) if dim else 1.0
        gmax = float(eigs[m].max()) if dim else 1.0
        reps.append({
            "actions": float(worst_act[m]),
            "left_right_commute": float(worst_comm[m]),
            "inner_hermitian": float(worst_star[m]),
            "inner_module_linear": float(worst_lin[m]),
            "gram_min_eig": gmin,
            "positive": gmin > -tol,
            # degeneracy is a rank statement, not a residual: fixed relative floor
            "nondegenerate": gmin > RELATIVE_RANK_TOL * max(gmax, 1.0) if dim else True,
        })
    return reps


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


def tensor_semi_inners(coords: np.ndarray, lefts: np.ndarray, inners: np.ndarray) -> np.ndarray:
    """The algebra-valued semi-inner products on the algebraic tensor
    products M_k (x) N_k, <m_p (x) n_q, m_r (x) n_s> = <n_q, <m_p, m_r> n_s>,
    for a stack of pairs (M_k, N_k) of one shape, from the matrix-unit
    coordinates (stack, dim M, dim M, A.dim) of the inner tensors of the
    M_k, and the left actions (stack, A.dim, dim N, dim N) and inner
    tensors (stack, dim N, dim N, ...) of the N_k, whose algebra values may
    be (n, n) matrices or coordinates: a view of shape (stack, dim M,
    dim N, dim M, dim N, ...), entry [k, p, q, r, s] for
    <m_p (x) n_q, m_r (x) n_s> in the layout of the inners.  Two stacked
    matrix products, each acting on one pair on its own."""
    count, dm, _, k = coords.shape
    dn, value = lefts.shape[-1], inners.shape[3:]
    # lmats[p, r] is the left action of <m_p, m_r> on N
    lmats = coords.reshape(count, dm * dm, k) @ lefts.reshape(count, k, dn * dn)
    # full[p, r, s, q, ...] = <n_q, lmats[p, r] n_s>
    full = lmats.reshape(count, dm * dm, dn, dn).transpose(0, 1, 3, 2).reshape(
        count, dm * dm * dn, dn) @ np.swapaxes(inners, 1, 2).reshape(count, dn, -1)
    full = full.reshape(count, dm, dm, dn, dn, -1).transpose(0, 1, 4, 2, 3, 5)
    return full.reshape(full.shape[:5] + value)


@dataclass
class AdjointBatch:
    """Least-squares adjoints of a stack of maps T_i : M -> N.

    adjoints[i] has shape (dim M, dim N); T_i is adjointable when its
    residual is within tol * max(1, |T_i|)."""

    adjoints: np.ndarray
    residuals: np.ndarray
    adjointable: np.ndarray


def module_linear_residuals(maps: np.ndarray, m_right: np.ndarray,
                            n_right: np.ndarray) -> np.ndarray:
    """How far each map of a stack (..., count, dim N, dim M) of maps M -> N
    is from being right-A-linear, given the right actions (..., units,
    dim M, dim M) of M and (..., units, dim N, dim N) of N: the largest
    column norm of T right_M(u) - right_N(u) T over the matrix units u.
    Leading axes stack independent problems, one matmul each."""
    maps = np.asarray(maps, dtype=complex)[..., None, :, :]
    m_right, n_right = m_right[..., None, :, :, :], n_right[..., None, :, :, :]
    diff = maps @ m_right - n_right @ maps  # (..., count, unit, dim N, dim M)
    return np.linalg.norm(diff, axis=-2).max(axis=(-2, -1), initial=0.0)


def adjoints_of(maps: np.ndarray, m: Correspondence, n: Correspondence,
                tol: float = DEFAULT_TOL) -> AdjointBatch:
    """Adjoints of a stack (count, dim N, dim M) of maps M -> N for the
    algebra-valued inner products; the stack of one of adjoints_by_shape."""
    batch = adjoints_by_shape([np.asarray(maps)], [m], [0], [n], tol)
    return AdjointBatch(batch.adjoints[0], batch.residuals[0], batch.adjointable[0])


def adjoints_by_shape(maps, sources: list[Correspondence], which,
                      targets: list[Correspondence], tol: float = DEFAULT_TOL) -> AdjointBatch:
    """Adjoints of stacks of maps of one shape (count, dim N, dim M), stack
    k out of the source sources[which[k]] into the target targets[k].
    Every field of the result gains the leading stack axis.  T_i is
    adjointable when its residual is within tol * max(1, |T_i|).

    The adjoint solves <T m_p, n_s> = <m_p, T* n_s> for the matrix of T*,
    column s by column s, against the source's coefficient matrix
    G[(p, k), r] = coordinate k of <m_p, m_r>.  Both sides are elements of
    the algebra, so the system is written in its matrix-unit coordinates;
    entries outside its blocks, zero for valid data, are the concern of
    validate_correspondences.  The solution is G's pseudo-inverse applied to
    the right-hand sides: the minimum-norm least-squares solution, with
    singular values at most eps * dim M * dim N * n^2 times the largest
    dropped, the cutoff lstsq applies to the system of one map on full
    matrices (G repeated once per column of N).  So there is one batched
    SVD over the distinct sources.  The right-hand sides, the solutions and
    the residuals are stacked matrix products (BLAS), SOLVE_CHUNK
    right-hand-side entries at a time, and every product acts on one stack
    on its own: a stack gets the same entries alone as in any larger stack.
    """
    stacks = len(maps)
    count, dim_n, dim_m = np.shape(maps[0]) if stacks else (0, 0, 0)
    adjoints = np.zeros((stacks, count, dim_m, dim_n), dtype=complex)
    residuals = np.zeros((stacks, count))
    scale = np.ones((stacks, count))
    if not (stacks and count and dim_m and dim_n):
        return AdjointBatch(adjoints, residuals, residuals <= tol * scale)
    a = sources[0].algebra
    grams = a.coords(np.array([m.inner_tensor for m in sources])).transpose(0, 1, 3, 2)
    grams = grams.reshape(len(sources), dim_m * a.dim, dim_m)
    u, s, vh = np.linalg.svd(grams, full_matrices=False)
    rcond = np.finfo(float).eps * dim_m * dim_n * a.n * a.n
    inv_s = np.divide(1.0, s, out=np.zeros_like(s), where=s > rcond * s[:, :1])
    # the transposes of G and of its pseudo-inverse: the solve runs on the
    # transposed system, whose residual holds each map's entries together
    pinvs_t = u.conj() @ (inv_s[:, :, None] * vh.conj())
    grams_t = grams.transpose(0, 2, 1).copy()
    which = np.asarray(which)
    step = max(1, SOLVE_CHUNK // (dim_m * a.dim * count * dim_n))
    for lo in range(0, stacks, step):
        part = slice(lo, min(lo + step, stacks))
        t = np.asarray(maps[part], dtype=complex)
        k = len(t)
        scale[part] = np.maximum(1.0, np.linalg.norm(t, axis=(2, 3)))
        # rhs[k, (i, s), (p, l)] = coordinate l of <T_ki m_p, n_s>
        #                        = sum_q conj(T_ki[q, p]) <n_q, n_s>_l
        inner = a.coords(np.array([n.inner_tensor for n in targets[part]]))
        rhs = t.conj().transpose(0, 1, 3, 2).reshape(k, count * dim_m, dim_n) \
            @ inner.reshape(k, dim_n, dim_n * a.dim)
        rhs = rhs.reshape(k, count, dim_m, dim_n, a.dim).transpose(0, 1, 3, 2, 4).reshape(
            k, count * dim_n, dim_m * a.dim)
        w = which[part]
        sol = rhs @ pinvs_t[w]
        resid = (sol @ grams_t[w] - rhs).reshape(k, count, dim_n * dim_m * a.dim)
        residuals[part] = np.sqrt(np.vecdot(resid, resid).real)
        adjoints[part] = sol.reshape(k, count, dim_n, dim_m).transpose(0, 1, 3, 2)
    return AdjointBatch(adjoints, residuals, residuals <= tol * scale)
