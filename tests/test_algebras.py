from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import pytest

from qact.algebras import (
    AlgebraError,
    BlockAlgebra,
    Correspondence,
    adjoints_of,
    algebra_as_correspondence,
    module_linear_residuals,
    tensor_semi_inners,
    validate_correspondences,
    zero_correspondence,
)
from qact.functors import direct_sum
from qact.thresholds import DEFAULT_TOL, RELATIVE_RANK_TOL

TOL = 1e-9

# the result of adjoints_of for one job
AdjointBatch = namedtuple("AdjointBatch", "adjoints residuals adjointable")


def adjoints_of_one(maps, m, n, tol=DEFAULT_TOL):
    """adjoints_of for the one job of a stack (count, dim N, dim M) of maps
    M -> N."""
    return AdjointBatch(*adjoints_of([(0, m, np.asarray(maps), n)], tol)[0])


def opnorm(mat):
    """The operator norm of a matrix, as the norm of a block algebra."""
    return float(np.linalg.norm(np.asarray(mat, dtype=complex), 2))


def left_mul(corr, a, x):
    """a . x for an algebra element a and a carrier vector x."""
    return np.einsum("k,kpq,q->p", corr.algebra.coords(a), corr.left, x)


def right_mul(corr, x, a):
    """x . a for a carrier vector x and an algebra element a."""
    return np.einsum("k,kpq,q->p", corr.algebra.coords(a), corr.right, x)


def module_inner(corr, x, y):
    """<x, y> for two carrier vectors, an algebra element."""
    return np.einsum("p,q,pquv->uv", np.conj(x), y, corr.inner_tensor)


def module_norm(corr, x):
    """The norm |<x, x>|^(1/2) of a carrier vector."""
    gram = module_inner(corr, x, x)
    val = opnorm((gram + gram.conj().T) / 2)
    return float(np.sqrt(max(val, 0.0)))


@dataclass
class TensorQuotient:
    """Interior tensor product M (x)_A N, together with the quotient map
    from the algebraic tensor product (row-isometry onto kept directions)."""

    product: Correspondence
    projector: np.ndarray  # (dim_quotient, dim_M * dim_N)


def tensor_semi_inner(m, n):
    """Algebra-valued semi-inner product on the algebraic tensor product,
    <m_p (x) n_q, m_r (x) n_s> = <n_q, <m_p, m_r> n_s>, flattened to
    (dim_M * dim_N, dim_M * dim_N, n, n); the stack of one of
    tensor_semi_inners."""
    a = m.algebra
    return tensor_semi_inners(a.coords(m.inner_tensor)[None], n.left[None],
                              n.inner_tensor[None])[0].reshape(m.dim * n.dim, m.dim * n.dim,
                                                               a.n, a.n)


def internal_tensor(m, n):
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
    cutoff = RELATIVE_RANK_TOL * max(float(w.max()), 0.0)
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


def is_positive(mat, tol=TOL):
    """Whether a matrix is Hermitian and positive semidefinite, each to
    within tol relative to its size."""
    mat = np.asarray(mat, dtype=complex)
    herm = float(np.linalg.norm(mat - mat.conj().T))
    if herm > tol * max(1.0, np.linalg.norm(mat)):
        return False
    w = np.linalg.eigvalsh((mat + mat.conj().T) / 2)
    return bool(w.min() > -tol * max(1.0, abs(w).max()))


def random_element(algebra, rng):
    mat = rng.standard_normal((algebra.n, algebra.n)) + 1j * rng.standard_normal(
        (algebra.n, algebra.n)
    )
    return algebra.project(mat)


def test_block_algebra_basics():
    a = BlockAlgebra((2, 1))
    assert a.n == 3 and a.dim == 5
    vec = a.coords(a.identity())
    np.testing.assert_allclose(a.from_coords(vec), a.identity())
    # off-block entries are projected away
    full = np.ones((3, 3))
    proj = a.project(full)
    assert proj[0, 2] == 0 and proj[2, 0] == 0 and proj[0, 1] == 1


def test_opnorm_oracle():
    a = BlockAlgebra((2, 2))
    rng = np.random.default_rng(0)
    x = random_element(a, rng)
    # independent oracle: largest singular value
    sv = np.linalg.svd(x, compute_uv=False)
    assert abs(opnorm(x) - sv[0]) < TOL


def test_positivity_check():
    assert is_positive(np.array([[1.0, 0], [0, 0]]))
    assert not is_positive(np.array([[1.0, 0], [0, -0.1]]))
    assert not is_positive(np.array([[0, 1.0], [0, 0]]))


def test_algebra_as_correspondence_valid():
    for blocks in ((1,), (2,), (2, 1)):
        corr = algebra_as_correspondence(BlockAlgebra(blocks))
        rep = validate_correspondences([corr])[0]
        assert rep["actions"] < TOL
        assert rep["left_right_commute"] < TOL
        assert rep["inner_hermitian"] < TOL
        assert rep["inner_module_linear"] < TOL
        assert rep["nondegenerate"]


def test_module_norm_euclidean():
    # A = C with the standard inner product: the norm is the Euclidean norm
    a = BlockAlgebra((1,))
    d = 3
    left = np.zeros((1, d, d), dtype=complex)
    left[0] = np.eye(d)
    inner = np.zeros((d, d, 1, 1), dtype=complex)
    for p in range(d):
        inner[p, p, 0, 0] = 1.0
    corr = Correspondence(a, d, left, left.copy(), inner)
    x = np.array([3.0, 4.0, 0.0])
    assert abs(module_norm(corr, x) - 5.0) < TOL
    assert module_norm(corr, np.zeros(3)) == 0.0


def test_module_norm_matrix_oracle():
    # M = A = M_2(C) with <x, y> = x* y: the module norm is the operator norm
    a = BlockAlgebra((2,))
    corr = algebra_as_correspondence(a)
    rng = np.random.default_rng(1)
    x = random_element(a, rng)
    oracle = np.linalg.svd(x, compute_uv=False)[0]
    assert abs(module_norm(corr, a.coords(x)) - oracle) < TOL


def test_norm_submultiplicative_under_action():
    a = BlockAlgebra((2,))
    corr = algebra_as_correspondence(a)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = a.coords(random_element(a, rng))
        b = random_element(a, rng)
        lhs = module_norm(corr, right_mul(corr, x, b))
        assert lhs <= module_norm(corr, x) * opnorm(b) + TOL


def test_cauchy_schwarz():
    a = BlockAlgebra((2, 1))
    corr = algebra_as_correspondence(a)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = rng.standard_normal(corr.dim) + 1j * rng.standard_normal(corr.dim)
        y = rng.standard_normal(corr.dim) + 1j * rng.standard_normal(corr.dim)
        lhs = module_inner(corr, x, y) @ module_inner(corr, y, x)
        rhs = module_norm(corr, y) ** 2 * module_inner(corr, x, x)
        w = np.linalg.eigvalsh(rhs - lhs)
        assert w.min() > -1e-8 * max(1.0, abs(w).max())


def test_internal_tensor_unit():
    # A (x)_A M is canonically M: a (x) m -> am is an inner-product-preserving
    # bijection on the quotient
    a = BlockAlgebra((2,))
    m = algebra_as_correspondence(a)
    out = internal_tensor(algebra_as_correspondence(a), m)
    assert out.product.dim == m.dim
    units = a.basis()
    phi = np.zeros((m.dim, out.product.dim), dtype=complex)
    embed = out.projector.conj().T
    for col in range(out.product.dim):
        rep = embed[:, col].reshape(a.dim, m.dim)
        for k in range(a.dim):
            for q in range(m.dim):
                phi[:, col] += rep[k, q] * left_mul(m, units[k], np.eye(m.dim)[q])
    assert np.linalg.matrix_rank(phi) == m.dim
    for x in np.eye(out.product.dim):
        for y in np.eye(out.product.dim):
            lhs = module_inner(out.product, x, y)
            rhs = module_inner(m, phi @ x, phi @ y)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_internal_tensor_scalar_case():
    # M = A = C, N = C^2: the product is C^2
    a = BlockAlgebra((1,))
    m = algebra_as_correspondence(a)
    left = np.zeros((1, 2, 2), dtype=complex)
    left[0] = np.eye(2)
    inner = np.zeros((2, 2, 1, 1), dtype=complex)
    inner[0, 0, 0, 0] = inner[1, 1, 0, 0] = 1.0
    n = Correspondence(a, 2, left, left.copy(), inner)
    out = internal_tensor(m, n)
    assert out.product.dim == 2


def test_internal_tensor_degenerate():
    # M supported on block 1, N on block 2: the balanced product collapses
    a = BlockAlgebra((1, 1))
    def one_block(block):
        left = np.zeros((2, 1, 1), dtype=complex)
        left[block] = 1.0
        inner = np.zeros((1, 1, 2, 2), dtype=complex)
        inner[0, 0, block, block] = 1.0
        return Correspondence(a, 1, left, left.copy(), inner)
    m, n = one_block(0), one_block(1)
    assert validate_correspondences([m])[0]["nondegenerate"]
    out = internal_tensor(m, n)
    assert out.product.dim == 0
    assert out.product.dim < m.dim * n.dim


def test_internal_tensor_associative():
    a = BlockAlgebra((2,))
    m = algebra_as_correspondence(a)
    left_assoc = internal_tensor(internal_tensor(m, m).product, m).product
    right_assoc = internal_tensor(m, internal_tensor(m, m).product).product
    assert left_assoc.dim == right_assoc.dim
    # the trace-composed Gram matrices of the two bases
    s1 = np.linalg.eigvalsh(np.einsum("pquu->pq", left_assoc.inner_tensor))
    s2 = np.linalg.eigvalsh(np.einsum("pquu->pq", right_assoc.inner_tensor))
    np.testing.assert_allclose(sorted(s1), sorted(s2), atol=1e-8)


def test_internal_tensor_algebra_mismatch():
    with pytest.raises(AlgebraError):
        internal_tensor(
            algebra_as_correspondence(BlockAlgebra((2,))),
            algebra_as_correspondence(BlockAlgebra((1, 1))),
        )


def test_adjoint_identity():
    a = BlockAlgebra((2, 1))
    m = algebra_as_correspondence(a)
    res = adjoints_of_one(np.eye(m.dim)[None], m, m)
    assert res.adjointable[0]
    np.testing.assert_allclose(res.adjoints[0], np.eye(m.dim), atol=TOL)


def test_adjoint_left_multiplication():
    # left multiplication by a unitary: the adjoint is left multiplication
    # by its inverse, verified on a spanning set
    a = BlockAlgebra((2,))
    m = algebra_as_correspondence(a)
    theta = 0.7
    u = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]], dtype=complex)
    t = np.einsum("k,kpq->pq", a.coords(u), m.left)
    res = adjoints_of_one(t[None], m, m)
    assert res.adjointable[0] and res.residuals[0] < TOL
    expected = np.einsum("k,kpq->pq", a.coords(u.conj().T), m.left)
    np.testing.assert_allclose(res.adjoints[0], expected, atol=1e-8)
    # the defining identity holds on the full basis
    for p in np.eye(m.dim):
        for q in np.eye(m.dim):
            lhs = module_inner(m, t @ p, q)
            rhs = module_inner(m, p, res.adjoints[0] @ q)
            np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_every_module_linear_map_adjointable():
    # over a unital finite-dimensional algebra valid inputs never fail
    a = BlockAlgebra((2, 1))
    m = algebra_as_correspondence(a)
    rng = np.random.default_rng(4)
    for _ in range(5):
        b = random_element(a, rng)
        t = np.einsum("k,kpq->pq", a.coords(b), m.left)
        res = adjoints_of_one(t[None], m, m)
        assert res.adjointable[0]
        res2 = adjoints_of_one(res.adjoints, m, m)
        np.testing.assert_allclose(res2.adjoints[0], t, atol=1e-8)


def test_adjoint_rejects_non_linear_map():
    a = BlockAlgebra((2,))
    m = algebra_as_correspondence(a)
    rng = np.random.default_rng(5)
    t = rng.standard_normal((m.dim, m.dim))  # generic: not right-A-linear
    lin = module_linear_residuals(t[None], m.right, m.right)[0]
    assert lin > 100 * TOL * max(1.0, float(np.linalg.norm(t)))


def test_zero_correspondence():
    a = BlockAlgebra((2,))
    z = zero_correspondence(a)
    assert z.dim == 0
    out = internal_tensor(z, algebra_as_correspondence(a))
    assert out.product.dim == 0


# -- batched kernels against per-map loop references --------------------------


def loop_linear_residual(t, m, n):
    """Right-linearity residual of one map, one unit and basis vector at a time."""
    worst = 0.0
    basis = np.eye(m.dim, dtype=complex)
    for u in m.algebra.basis():
        for p in range(m.dim):
            lhs = t @ right_mul(m, basis[p], u)
            rhs = right_mul(n, t @ basis[p], u)
            worst = max(worst, float(np.linalg.norm(lhs - rhs)))
    return worst


def loop_adjoint(t, m, n):
    """(least-squares adjoint, residual) of one map, from the system of all
    its columns at once: one copy of the coefficient matrix per column."""
    if m.dim == 0 or n.dim == 0:
        return np.zeros((m.dim, n.dim), dtype=complex), 0.0
    nn = m.algebra.n * m.algebra.n
    target = np.einsum("qp,qsuv->psuv", t.conj(), n.inner_tensor)
    mat = np.zeros((m.dim, n.dim, m.algebra.n, m.algebra.n, m.dim, n.dim), dtype=complex)
    for s in range(n.dim):
        mat[:, s, :, :, :, s] = np.transpose(m.inner_tensor, (0, 2, 3, 1))
    mat = mat.reshape(m.dim * n.dim * nn, m.dim * n.dim)
    rhs = target.reshape(-1)
    sol, *_ = np.linalg.lstsq(mat, rhs, rcond=None)
    return sol.reshape(m.dim, n.dim), float(np.linalg.norm(mat @ sol - rhs))


def skewed_copies(algebra, copies, rng):
    """A^copies on a random non-orthogonal basis, and the change of basis."""
    base = direct_sum(algebra, [algebra_as_correspondence(algebra)] * copies)
    d = base.dim
    p = 3 * np.eye(d) + (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / 2
    inv = np.linalg.inv(p)
    inner = np.einsum("rp,sq,rsuv->pquv", p.conj(), p, base.inner_tensor)
    return Correspondence(algebra, d, inv @ base.left @ p, inv @ base.right @ p, inner), p


def linear_maps(algebra, m, pm, n, pn, count, rng):
    """Random right-A-linear maps between skewed copies: blocks of left
    multiplications, conjugated by the changes of basis."""
    one = algebra_as_correspondence(algebra)
    out = []
    for _ in range(count):
        blocks = [[np.einsum("k,kpq->pq", algebra.coords(random_element(algebra, rng)), one.left)
                   for _ in range(m.dim // algebra.dim)] for _ in range(n.dim // algebra.dim)]
        out.append(np.linalg.inv(pn) @ np.block(blocks) @ pm)
    return np.array(out)


def assert_matches_loop(maps, m, n, batch, lin):
    for i, t in enumerate(maps):
        # both sides are rounding noise where they vanish: compare at the map's scale
        scale = max(1.0, float(np.linalg.norm(t)))
        assert abs(lin[i] - loop_linear_residual(t, m, n)) < 1e-12 * scale
        adj, resid = loop_adjoint(t, m, n)
        assert abs(batch.residuals[i] - resid) < 1e-12 * scale
        np.testing.assert_allclose(batch.adjoints[i], adj, atol=1e-10 * scale)


@pytest.mark.parametrize("copies", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_batched_kernels_match_loop_on_random_correspondences(copies):
    a = BlockAlgebra((2, 1))
    rng = np.random.default_rng(sum(copies))
    m, pm = skewed_copies(a, copies[0], rng)
    n, pn = skewed_copies(a, copies[1], rng)
    maps = linear_maps(a, m, pm, n, pn, 4, rng)
    batch = adjoints_of_one(maps, m, n, TOL)
    lin = module_linear_residuals(maps, m.right, n.right)
    assert_matches_loop(maps, m, n, batch, lin)
    assert batch.adjointable.all() and lin.max() < 1e-10
    # the defining identity <T m_p, n_s> = <m_p, T* n_s> on the bases
    for t, adj in zip(maps, batch.adjoints):
        lhs = np.einsum("qp,qsuv->psuv", t.conj(), n.inner_tensor)
        rhs = np.einsum("rs,pruv->psuv", adj, m.inner_tensor)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_batched_kernels_flag_only_the_non_linear_map():
    a = BlockAlgebra((2, 1))
    rng = np.random.default_rng(7)
    m, pm = skewed_copies(a, 1, rng)
    good = linear_maps(a, m, pm, m, pm, 2, rng)
    maps = np.array([good[0], rng.standard_normal((m.dim, m.dim)), good[1]])
    batch = adjoints_of_one(maps, m, m, TOL)
    lin = module_linear_residuals(maps, m.right, m.right)
    assert_matches_loop(maps, m, m, batch, lin)
    assert lin[1] > TOL and lin[0] < TOL and lin[2] < TOL
    assert batch.residuals[1] > TOL
    assert list(batch.adjointable) == [True, False, True]
    # the one-map call agrees with its slot of the batch
    single = adjoints_of_one(maps[:1], m, m)
    np.testing.assert_array_equal(single.adjoints[0], batch.adjoints[0])


def test_batched_kernels_on_zero_dimensional_carriers():
    a = BlockAlgebra((2, 1))
    m = algebra_as_correspondence(a)
    z = zero_correspondence(a)
    for src, tgt in ((m, z), (z, m), (z, z)):
        maps = np.zeros((3, tgt.dim, src.dim), dtype=complex)
        batch = adjoints_of_one(maps, src, tgt, TOL)
        assert batch.adjoints.shape == (3, src.dim, tgt.dim)
        assert batch.adjointable.all()
        np.testing.assert_array_equal(batch.residuals, 0.0)
        np.testing.assert_array_equal(module_linear_residuals(maps, src.right, tgt.right), 0.0)
    assert adjoints_of_one(np.zeros((0, m.dim, m.dim)), m, m, TOL).adjoints.shape == (0, m.dim, m.dim)


def loop_validate(corr, tol=1e-9):
    """Correspondence.validate, one basis pair and unit at a time."""
    a = corr.algebra
    units = a.basis()
    worst_act = worst_comm = worst_star = worst_lin = 0.0
    eye = a.identity()
    for x in np.eye(corr.dim, dtype=complex):
        worst_act = max(worst_act, np.linalg.norm(left_mul(corr, eye, x) - x),
                        np.linalg.norm(right_mul(corr, x, eye) - x))
    for u in units:
        for v in units:
            lu, lv, luv = (np.einsum("k,kpq->pq", a.coords(w), corr.left) for w in (u, v, u @ v))
            ru, rv, ruv = (np.einsum("k,kpq->pq", a.coords(w), corr.right) for w in (u, v, u @ v))
            worst_act = max(worst_act, np.linalg.norm(lu @ lv - luv),
                            np.linalg.norm(rv @ ru - ruv))
            worst_comm = max(worst_comm, np.linalg.norm(lu @ rv - rv @ lu))
    basis = np.eye(corr.dim, dtype=complex)
    for p in range(corr.dim):
        for q in range(corr.dim):
            ip = module_inner(corr, basis[p], basis[q])
            worst_star = max(worst_star,
                             np.linalg.norm(ip.conj().T - module_inner(corr, basis[q], basis[p])),
                             np.linalg.norm(ip - a.project(ip)))
            for u in units:
                lhs = module_inner(corr, basis[p], right_mul(corr, basis[q], u))
                worst_lin = max(worst_lin, np.linalg.norm(lhs - ip @ u))
                lhs2 = module_inner(corr, left_mul(corr, u, basis[p]), basis[q])
                rhs2 = module_inner(corr, basis[p], left_mul(corr, u.conj().T, basis[q]))
                worst_lin = max(worst_lin, np.linalg.norm(lhs2 - rhs2))
    return {"actions": worst_act, "left_right_commute": worst_comm,
            "inner_hermitian": worst_star, "inner_module_linear": worst_lin}


def corpus_modules():
    from qact.actions import spectral_functor
    from qact.fixtures import action_corpus, clock_shift_bundle, standard_backends, zero_odd_bundle

    backends = standard_backends()
    out = []
    for name, (bk, act) in sorted(action_corpus().items()):
        for label, mod in spectral_functor(backends[bk], act).functor.modules.items():
            out.append((f"{name}:{label}", mod))
    for name, bundle in (("clock_shift_z3", clock_shift_bundle(3)), ("zero_odd", zero_odd_bundle())):
        out += [(f"{name}:{g}", fib) for g, fib in bundle.fibers.items()]
    return out


def test_validate_matches_loop_on_corpus_modules():
    rng = np.random.default_rng(8)
    skewed = [(f"skewed{k}", skewed_copies(BlockAlgebra((2, 1)), k, rng)[0]) for k in (1, 2)]
    for name, mod in corpus_modules() + skewed:
        rep = validate_correspondences([mod], TOL)[0]
        for key, val in loop_validate(mod, TOL).items():
            assert abs(rep[key] - val) < 1e-12, (name, key)


def reference_adjoints_by_source(maps, m, targets, tol=TOL):
    """The adjoint solve before the shared solve of adjoints_of: one
    np.linalg.lstsq on the system over full n x n matrices,
    G[(p, u, v), r] = <m_p, m_r>_{uv}, shared by the stacks (stacks, count,
    dim N, dim M) of maps out of M, stack k into the target whose inner
    tensor is targets[k]."""
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


def reference_adjoints_of(maps, m, n, tol=TOL):
    """reference_adjoints_by_source for one stack of maps M -> N."""
    ref = reference_adjoints_by_source(np.asarray(maps)[None], m, n.inner_tensor[None], tol)
    return AdjointBatch(ref.adjoints[0], ref.residuals[0], ref.adjointable[0])


def assert_matches_reference_solve(got, want, bound=1e-12):
    """Equal adjointable flags, adjoints and residuals within bound, and
    every residual the reference finds exactly zero still exactly zero."""
    np.testing.assert_array_equal(got.adjointable, want.adjointable)
    assert np.abs(got.adjoints - want.adjoints).max(initial=0.0) <= bound
    assert np.abs(got.residuals - want.residuals).max(initial=0.0) <= bound
    assert (got.residuals[want.residuals == 0.0] == 0.0).all()


def test_rank_deficient_source_gives_the_minimum_norm_solution():
    # a source whose spanning set repeats a basis vector: its Gram matrix
    # has a zero singular value, and the adjoint is determined only up to
    # that direction; both solves pick the least-squares solution of
    # minimum norm
    a = BlockAlgebra((2, 1))
    rng = np.random.default_rng(12)
    m, pm = skewed_copies(a, 1, rng)
    n, pn = skewed_copies(a, 2, rng)
    idx = list(range(m.dim)) + [0]
    zeros = np.zeros((a.dim, len(idx), len(idx)))
    rep = Correspondence(a, len(idx), zeros, zeros, m.inner_tensor[idx][:, idx])
    maps = linear_maps(a, m, pm, n, pn, 3, rng)[:, :, idx]
    maps[2] = rng.standard_normal(maps[2].shape)  # not adjointable
    got = adjoints_of_one(maps, rep, n, TOL)
    assert list(got.adjointable) == [True, True, False]
    assert_matches_reference_solve(got, reference_adjoints_of(maps, rep, n))
    # the adjoint has no part along the kernel of the spanning map, the
    # difference of the two copies of the first basis vector
    kernel = np.zeros(len(idx))
    kernel[0], kernel[-1] = 1.0, -1.0
    assert np.abs(np.einsum("r,irs->is", kernel, got.adjoints[:2])).max() < 1e-12


def test_shared_solve_gives_each_stack_its_own_adjoints():
    # stacks out of two sources into different targets of one dimension,
    # one of them holding a non-linear map: the shared solve returns, bit
    # for bit, what adjoints_of returns for each stack alone, a stack of one
    a = BlockAlgebra((2, 1))
    rng = np.random.default_rng(11)
    sources = [skewed_copies(a, 1, rng) for _ in range(2)]
    targets = [skewed_copies(a, 2, rng) for _ in range(3)]
    which = [0, 1, 0]
    stacks = [linear_maps(a, *sources[w], n, pn, 3, rng) for w, (n, pn) in zip(which, targets)]
    stacks[1][2] = rng.standard_normal(stacks[1][2].shape)
    batch = adjoints_of([(w, sources[w][0], maps, n)
                         for maps, w, (n, _) in zip(stacks, which, targets)], TOL)
    for (adjoints, residuals, adjointable), maps, w, (n, _) in zip(batch, stacks, which, targets):
        alone = adjoints_of_one(maps, sources[w][0], n, TOL)
        np.testing.assert_array_equal(adjoints, alone.adjoints)
        np.testing.assert_array_equal(residuals, alone.residuals)
        np.testing.assert_array_equal(adjointable, alone.adjointable)
    flags = np.array([adjointable for _, _, adjointable in batch])
    assert not flags[1, 2] and flags.sum() == 8
