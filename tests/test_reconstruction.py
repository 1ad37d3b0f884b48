import numpy as np
import pytest

from qact.fixtures import action_corpus, clock_shift_bundle, standard_backends
from qact.functors import from_graded, group_algebra_bundle
from qact.groups import cyclic_group
from qact.actions import spectral_functor
from qact.algebras import BlockAlgebra
from qact.reconstruction import build_algebra, build_report
from qact.staralg import StarAlgebraModel, verify_algebra_iso
from qact.thresholds import PRUNE_TOL

from test_algebras import left_mul, module_inner, right_mul

TOL = 1e-9


@pytest.fixture(scope="module")
def backends():
    return standard_backends()


@pytest.fixture(scope="module")
def s3_algebra(backends):
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    return build_algebra(functor)


@pytest.fixture(scope="module")
def z3_group_algebra():
    return build_algebra(from_graded(group_algebra_bundle(cyclic_group(3))))


@pytest.fixture(scope="module")
def m3_algebra():
    return build_algebra(from_graded(clock_shift_bundle(3)))


def unit_component(alg, label, i, p):
    d, m = alg.shapes[label]
    arr = np.zeros((d, m), dtype=complex)
    arr[i, p] = 1.0
    return alg.component(label, arr)


def random_element(alg, rng):
    vec = rng.standard_normal(alg.dim) + 1j * rng.standard_normal(alg.dim)
    return alg.model.prune(vec)


def parts(alg, vec):
    """The nonzero label components of a flat vector, as arrays of shape
    shapes[label]."""
    return {label: vec[span].reshape(alg.shapes[label])
            for label, span in alg.spans.items()
            if np.abs(vec[span]).max() > PRUNE_TOL}


def coaction_at(alg, g, x):
    """The coaction of a group-kind algebra evaluated at group element g."""
    return alg.model.prune(alg.coaction_matrix(alg.backend.group.index(g)) @ x)


def project_word(alg, atoms, arr):
    """Project elements of (conjugate word space) (x) F(word), a stack
    (..., word rep dim, word dim), onto the algebra, as flat vectors;
    independent of the decomposition used.  With free_product_word it is
    the reference that the multiplication table is checked against."""
    obj = alg.real.object(tuple(atoms))
    arr = np.asarray(arr, dtype=complex)
    arr = arr.reshape(*arr.shape[:-2], obj.rep.dim, obj.dim)
    vec = np.zeros((*arr.shape[:-2], alg.dim), dtype=complex)
    for k, (gamma, wk) in enumerate(obj.components):
        if gamma in alg.shapes:
            part = wk.T @ arr[..., obj.slot(k)]
            vec[..., alg.spans[gamma]] += part.reshape(*part.shape[:-2], -1)
    return alg.model.prune(vec)


def free_product_word(alg, a, xa, b, yb):
    """The elementary products of two broadcastable stacks of components
    before projection: the pair (word, coefficient arrays) in
    (conjugate space) (x) F(word)."""
    oa = alg.real.atom_object(a)
    ob = alg.real.atom_object(b)
    f2 = alg.real.f2_tensor(oa, ob)
    arr = np.einsum("...ip,...jq,tpq->...ijt", xa, yb, f2)
    atoms = oa.atoms + ob.atoms
    word = alg.real.object(atoms)
    return atoms, arr.reshape(*arr.shape[:-3], word.rep.dim, word.dim)


def projected_basis_products(alg):
    """[i, j]: the projected free product of basis elements i and j, one
    stack per pair of labels."""
    words = np.zeros_like(alg.model.table)
    units = {label: np.eye(d * m).reshape(-1, d, m) for label, (d, m) in alg.shapes.items()}
    for a in alg.labels:
        for b in alg.labels:
            atoms, arr = free_product_word(alg, a, units[a][:, None], b, units[b][None])
            words[alg.spans[a], alg.spans[b]] = project_word(alg, atoms, arr)
    return words


def test_project_word_irreducible_is_identity(s3_algebra):
    alg = s3_algebra
    arr = np.arange(1, 5, dtype=complex).reshape(2, 2)
    out = project_word(alg, (("std", False),), arr)
    np.testing.assert_allclose(parts(alg, out)["std"], arr, atol=TOL)


def test_project_word_dual_single_component(z3_group_algebra):
    alg = z3_group_algebra
    arr = np.array([[2.0 + 1j]])
    out = parts(alg, project_word(alg, (("1", False), ("2", False)), arr))
    assert list(out) == ["0"]
    np.testing.assert_allclose(out["0"], arr, atol=TOL)


def test_project_word_std_squared(s3_algebra):
    alg = s3_algebra
    rng = np.random.default_rng(0)
    word = (("std", False), ("std", False))
    obj = alg.real.object(word)
    arr = rng.standard_normal((4, obj.dim)) + 1j * rng.standard_normal((4, obj.dim))
    out = project_word(alg, word, arr)
    assert sorted(parts(alg, out)) == ["sign", "std", "triv"]


def test_project_word_decomposition_independent(s3_algebra):
    # recompute with a rotated decomposition: components with the same label
    # can be mixed by any unitary, and phases are free
    alg = s3_algebra
    rng = np.random.default_rng(1)
    word = (("std", False), ("std", False))
    obj = alg.real.object(word)
    arr = rng.standard_normal((4, obj.dim)) + 1j * rng.standard_normal((4, obj.dim))
    rotated = [
        (label, np.exp(2j * np.pi * rng.random()) * w)
        for label, w in obj.components
    ]
    # the projection through the rotated components: each is compressed by F(w*)
    vec = np.zeros(alg.dim, dtype=complex)
    for label, w in rotated:
        if label in alg.shapes:
            fw = alg.real.morphism_matrix(w.conj().T, obj, alg.real.atom_object(label))
            vec[alg.spans[label]] += (w.T @ (arr @ fw.T)).reshape(-1)
    out1 = project_word(alg, word, arr)
    out2 = alg.model.prune(vec)
    diff = alg.model.prune(out1 - out2)
    assert alg.model.operator_norm(diff) < 1e-10


def test_project_word_isometry_property(s3_algebra):
    # compressing along an isometry before projecting changes nothing
    alg = s3_algebra
    rng = np.random.default_rng(2)
    word = (("std", False), ("std", False))
    obj = alg.real.object(word)
    label, w = obj.components[0]
    atom = ((label, False),)
    m = alg.shapes[label][1]
    x = rng.standard_normal((alg.shapes[label][0], m))
    # lift the conjugate leg with w-bar and the module leg with F(w)
    fw = alg.real.morphism_matrix(w, alg.real.atom_object(label), obj)
    arr = w.conj() @ x @ fw.T
    out1 = project_word(alg, word, arr)
    out2 = project_word(alg, atom, x)
    assert alg.model.operator_norm(alg.model.prune(out1 - out2)) < 1e-10


def test_project_word_unknown_label_is_error():
    from qact.repcat import BackendError

    bk, act = action_corpus()["swap_c2"]
    alg = build_algebra(spectral_functor(standard_backends()[bk], act).functor, validate=False)
    with pytest.raises(BackendError):
        project_word(alg, (("nope", False),), np.zeros((1, 1)))


def test_multiply_unit_and_algebra_component(s3_algebra):
    alg = s3_algebra
    rng = np.random.default_rng(3)
    amat = alg.algebra.project(rng.standard_normal((6, 6)))
    bmat = alg.algebra.project(rng.standard_normal((6, 6)))
    x = alg.from_algebra(amat)
    y = alg.from_algebra(bmat)
    prod = alg.model.multiply(x, y)
    np.testing.assert_allclose(alg.model.expectation(prod), amat @ bmat, atol=TOL)
    np.testing.assert_allclose(alg.model.multiply(alg.model.unit, x), x, atol=TOL)


def test_group_algebra_multiplication(z3_group_algebra):
    alg = z3_group_algebra
    g = alg.backend.group
    for a in g.elements:
        for b in g.elements:
            ua = unit_component(alg, a, 0, 0)
            ub = unit_component(alg, b, 0, 0)
            prod = parts(alg, alg.model.multiply(ua, ub))
            ab = g.elements[g.times(g.index(a), g.index(b))]
            assert list(prod) == [ab]
            np.testing.assert_allclose(prod[ab], [[1.0]], atol=TOL)


def test_group_algebra_star(z3_group_algebra):
    alg = z3_group_algebra
    g = alg.backend.group
    for a in g.elements:
        out = parts(alg, alg.model.star(unit_component(alg, a, 0, 0)))
        inv = g.elements[g.inv(g.index(a))]
        assert list(out) == [inv]
        np.testing.assert_allclose(out[inv], [[1.0]], atol=TOL)


def test_clock_shift_matches_matrix_algebra(m3_algebra):
    # the rebuilt algebra of the offset bundle is the full 3x3 matrix
    # algebra: basis vector p of the offset-k fiber is the unit at (p, p+k)
    alg = m3_algebra
    model = StarAlgebraModel.of_block_algebra(BlockAlgebra((3,)))
    phi = np.zeros((9, alg.dim), dtype=complex)
    for k in range(3):
        off = alg.offsets[str(k)]
        for p in range(3):
            phi[p * 3 + (p + k) % 3, off + p] = 1.0
    iso = verify_algebra_iso(alg.model, model, phi, tol=TOL)
    assert iso["passed"], iso


def test_expectation_examples(s3_algebra):
    alg = s3_algebra
    rng = np.random.default_rng(4)
    amat = alg.algebra.project(rng.standard_normal((6, 6)))
    np.testing.assert_allclose(alg.model.expectation(alg.from_algebra(amat)), amat, atol=TOL)
    x = unit_component(alg, "std", 0, 1)
    np.testing.assert_allclose(alg.model.expectation(x), 0, atol=TOL)


def test_component_inner_product_formula(s3_algebra):
    # E((xi_i (x) X)* (xi_j (x) Y)) = delta_ij <X, Y> / dim
    alg = s3_algebra
    mod = alg.functor.module("std")
    dq = alg.backend.irrep("std").dim
    for i in range(2):
        for j in range(2):
            for p in range(mod.dim):
                for q in range(mod.dim):
                    x = unit_component(alg, "std", i, p)
                    y = unit_component(alg, "std", j, q)
                    lhs = alg.model.inner(x, y)
                    scalar = (1.0 / dq) if i == j else 0.0
                    rhs = scalar * module_inner(
                        mod, np.eye(mod.dim)[p], np.eye(mod.dim)[q]
                    )
                    np.testing.assert_allclose(lhs, rhs, atol=TOL)


def test_components_mutually_orthogonal(s3_algebra):
    alg = s3_algebra
    x = unit_component(alg, "sign", 0, 0)
    y = unit_component(alg, "std", 1, 0)
    np.testing.assert_allclose(alg.model.inner(x, y), 0, atol=TOL)


def test_coaction_constants_and_law(s3_algebra):
    alg = s3_algebra
    g = alg.backend.group
    rng = np.random.default_rng(5)
    amat = alg.algebra.project(rng.standard_normal((6, 6)))
    a_el = alg.from_algebra(amat)
    for x in g.elements:
        np.testing.assert_allclose(coaction_at(alg, x, a_el), a_el, atol=TOL)
    # matrix-coefficient transformation law on the two-dimensional component
    mats = alg.backend.irrep("std").matrices
    for gi, x in enumerate(g.elements):
        for i in range(2):
            el = unit_component(alg, "std", i, 0)
            out = parts(alg, coaction_at(alg, x, el))
            expect = np.zeros((2, alg.shapes["std"][1]), dtype=complex)
            for j in range(2):
                expect[j, 0] = mats[gi][i, j]
            np.testing.assert_allclose(out["std"], expect, atol=TOL)


def test_coaction_coassociativity_counit_star(s3_algebra):
    alg = s3_algebra
    g = alg.backend.group
    rng = np.random.default_rng(6)
    x = random_element(alg, rng)
    e = g.elements[g.identity]
    model = alg.model
    np.testing.assert_allclose(coaction_at(alg, e, x), x, atol=TOL)
    y = random_element(alg, rng)
    for a in g.elements:
        xa = coaction_at(alg, a, x)
        # homomorphism and star compatibility pointwise
        np.testing.assert_allclose(
            coaction_at(alg, a, model.multiply(x, y)),
            model.multiply(xa, coaction_at(alg, a, y)),
            atol=1e-8,
        )
        np.testing.assert_allclose(
            coaction_at(alg, a, model.star(x)),
            model.star(xa),
            atol=1e-8,
        )
        for b in g.elements:
            ab = g.elements[g.times(g.index(a), g.index(b))]
            np.testing.assert_allclose(
                coaction_at(alg, ab, x),
                coaction_at(alg, b, coaction_at(alg, a, x)),
                atol=1e-8,
            )


def test_coaction_fixed_points_are_algebra(s3_algebra):
    alg = s3_algebra
    g = alg.backend.group
    # solve for all fixed vectors of the coaction; they span the unit component
    rows = []
    for x in g.elements:
        mat = np.zeros((alg.dim, alg.dim), dtype=complex)
        for b_idx, b in enumerate(np.eye(alg.dim)):
            mat[:, b_idx] = coaction_at(alg, x, b)
        rows.append(mat - np.eye(alg.dim))
    null = np.linalg.svd(np.vstack(rows), compute_uv=False)
    fixed_dim = int(np.sum(null < 1e-9))
    assert fixed_dim == alg.algebra.dim


def test_grading_form_of_coaction(z3_group_algebra):
    alg = z3_group_algebra
    # the coaction of a dual backend is the decomposition into components
    x = unit_component(alg, "1", 0, 0)
    graded = parts(alg, x)
    assert list(graded) == ["1"]


def test_regular_norm_examples(z3_group_algebra, m3_algebra):
    alg = z3_group_algebra
    assert abs(alg.model.operator_norm(alg.model.unit) - 1.0) < TOL
    # Fourier oracle on the cyclic group algebra
    rng = np.random.default_rng(7)
    coeff = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    el = sum(c * unit_component(alg, str(k), 0, 0) for k, c in enumerate(coeff))
    omega = np.exp(2j * np.pi / 3)
    oracle = max(
        abs(sum(coeff[k] * omega ** (k * chi) for k in range(3)))
        for chi in range(3)
    )
    assert abs(alg.model.operator_norm(el) - oracle) < 1e-8
    # the clock/shift algebra carries the operator norm of 3x3 matrices
    m = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    el = alg2_element_from_matrix(m3_algebra, m)
    oracle = np.linalg.svd(m, compute_uv=False)[0]
    assert abs(m3_algebra.model.operator_norm(el) - oracle) < 1e-8


def alg2_element_from_matrix(alg, m):
    # the basis vector p of the offset-k component is the unit at (p, p+k)
    vec = np.zeros(alg.dim, dtype=complex)
    for k in range(3):
        arr = np.zeros((1, 3), dtype=complex)
        for p in range(3):
            arr[0, p] = m[p, (p + k) % 3]
        vec += alg.component(str(k), arr)
    return vec


def test_cstar_identity_random(s3_algebra):
    rng = np.random.default_rng(8)
    for _ in range(20):
        model = s3_algebra.model
        x = random_element(s3_algebra, rng)
        n = model.operator_norm(x)
        nn = model.operator_norm(model.multiply(model.star(x), x))
        assert abs(nn - n * n) < 1e-8 * n * n


def test_build_reports(s3_algebra, z3_group_algebra, m3_algebra):
    for alg in (s3_algebra, z3_group_algebra, m3_algebra):
        rep = build_report(alg)
        assert rep["passed"], rep


def test_trivial_functor_builds_to_algebra(backends):
    bk, act = action_corpus()["trivial_m2"]
    functor = spectral_functor(backends[bk], act).functor
    alg = build_algebra(functor)
    assert alg.dim == 4
    assert alg.labels == ["chi0"]


def test_algebra_acts_componentwise(s3_algebra):
    # multiplying by an algebra element only moves the module leg
    alg = s3_algebra
    rng = np.random.default_rng(9)
    amat = alg.algebra.project(rng.standard_normal((6, 6)))
    a_el = alg.from_algebra(amat)
    mod = alg.functor.module("std")
    for i in range(2):
        for p in range(mod.dim):
            x = unit_component(alg, "std", i, p)
            left = parts(alg, alg.model.multiply(a_el, x))
            expect = np.zeros((2, mod.dim), dtype=complex)
            expect[i] = left_mul(mod, amat, np.eye(mod.dim)[p])
            np.testing.assert_allclose(left["std"], expect, atol=TOL)
            right = parts(alg, alg.model.multiply(x, a_el))
            expect[i] = right_mul(mod, np.eye(mod.dim)[p], amat)
            np.testing.assert_allclose(right["std"], expect, atol=TOL)


def test_norm_submultiplicative(s3_algebra):
    rng = np.random.default_rng(10)
    for _ in range(10):
        model = s3_algebra.model
        x = random_element(s3_algebra, rng)
        y = random_element(s3_algebra, rng)
        nxy = model.operator_norm(model.multiply(x, y))
        assert nxy <= model.operator_norm(x) * model.operator_norm(y) + 1e-9


# -- the flat model against the dict-of-arrays model it replaced ---------------


class DictElement:
    """An element of the dict-of-arrays model: one coefficient array of
    shape (irrep dim, module dim) per label, components within PRUNE_TOL
    dropped."""

    __slots__ = ("parts",)

    def __init__(self, parts=None):
        self.parts = {}
        for label, arr in (parts or {}).items():
            arr = np.asarray(arr, dtype=complex)
            if arr.size and np.abs(arr).max() > PRUNE_TOL:
                self.parts[label] = arr

    def __sub__(self, other):
        out = {label: arr.copy() for label, arr in self.parts.items()}
        for label, arr in other.parts.items():
            out[label] = out[label] - arr if label in out else -arr
        return DictElement(out)


def to_dict(alg, vec):
    return DictElement({label: vec[span].reshape(alg.shapes[label])
                        for label, span in alg.spans.items()})


def to_flat(alg, x):
    vec = np.zeros(alg.dim, dtype=complex)
    for label, arr in x.parts.items():
        vec[alg.spans[label]] = arr.reshape(-1)
    return vec


class DictReference:
    """The dict-of-arrays model of the rebuilt algebra that the flat model
    replaced, kept as an independent reference: products by one einsum per
    (a, b, gamma) block, stars per component, the Gram matrix by a basis
    loop and norms through kron(left multiplication, 1) on the GNS space."""

    def __init__(self, alg):
        self.alg = alg
        real = alg.real
        self.product = {}
        for a in alg.labels:
            for b in alg.labels:
                oa, ob = real.atom_object(a), real.atom_object(b)
                word = real.object(oa.atoms + ob.atoms)
                f2 = real.f2_tensor(oa, ob)
                entries = []
                for k, (gamma, wk) in enumerate(word.components):
                    if gamma in alg.shapes:
                        wt = wk.T.reshape(alg.shapes[gamma][0], alg.shapes[a][0],
                                          alg.shapes[b][0])
                        entries.append((gamma, wt, f2[word.slot(k)]))
                self.product[(a, b)] = entries
        self.star_data = {}
        for a in alg.labels:
            (target, w), = real.atom_object(a, barred=True).components
            partners = real.involution_partners(a, np.eye(alg.shapes[a][1]), tol=alg.tol).T
            cmat = w.T @ alg.backend.conjugate_solution(a).r.conj()
            self.star_data[a] = (target, cmat, partners)
        self._gns = None

    def multiply(self, x, y):
        acc = {}
        for a, xa in x.parts.items():
            for b, yb in y.parts.items():
                for gamma, wt, phi in self.product[(a, b)]:
                    piece = np.einsum("cij,rpq,ip,jq->cr", wt, phi, xa, yb)
                    acc[gamma] = acc[gamma] + piece if gamma in acc else piece
        return DictElement(acc)

    def star(self, x):
        acc = {}
        for a, xa in x.parts.items():
            target, cmat, partners = self.star_data[a]
            piece = cmat @ xa.conj() @ partners.T
            acc[target] = acc[target] + piece if target in acc else piece
        return DictElement(acc)

    def expectation(self, x):
        e = self.alg.backend.trivial_label
        if e not in x.parts:
            return np.zeros((self.alg.algebra.n, self.alg.algebra.n), dtype=complex)
        return self.alg.algebra.from_coords(x.parts[e][0])

    def inner(self, x, y):
        return self.expectation(self.multiply(self.star(x), y))

    def gram(self):
        alg = self.alg
        basis = [to_dict(alg, e) for e in np.eye(alg.dim)]
        n = alg.algebra.n
        g = np.zeros((alg.dim, alg.dim, n, n), dtype=complex)
        for i, bi in enumerate(basis):
            for j, bj in enumerate(basis):
                g[i, j] = self.inner(bi, bj)
        return g

    def operator_norm(self, x):
        alg = self.alg
        n = alg.algebra.n
        if self._gns is None:
            s = np.transpose(self.gram(), (0, 2, 1, 3)).reshape(alg.dim * n, alg.dim * n)
            w, v = np.linalg.eigh((s + s.conj().T) / 2)
            keep = w > 1e-12 * max(float(w.max()), 1e-300)
            self._gns = (v[:, keep], np.sqrt(w[keep]))
        v, sq = self._gns
        basis = [to_dict(alg, e) for e in np.eye(alg.dim)]
        lmat = np.array([to_flat(alg, self.multiply(x, b)) for b in basis]).T
        t = (v * sq).conj().T @ np.kron(lmat, np.eye(n)) @ (v / sq)
        return float(np.linalg.norm(t, 2)) if t.size else 0.0


def dict_build_report(alg, seed=0, samples=100):
    """The sampled audit as the dict-based model computed it, one sample at a
    time."""
    ref = DictReference(alg)
    rng = np.random.default_rng(seed)
    tol = alg.tol
    rep = {"dimension": alg.dim, "component_dims": alg.component_dims(), "tolerance": tol}
    worst_assoc = worst_invol = worst_anti = worst_cstar = 0.0
    for _ in range(samples):
        x, y, z = (to_dict(alg, random_element(alg, rng)) for _ in range(3))
        nx, ny, nz = (ref.operator_norm(v) for v in (x, y, z))
        lhs = ref.multiply(ref.multiply(x, y), z)
        rhs = ref.multiply(x, ref.multiply(y, z))
        worst_assoc = max(worst_assoc, ref.operator_norm(lhs - rhs) / max(nx * ny * nz, 1e-30))
        worst_invol = max(worst_invol,
                          ref.operator_norm(ref.star(ref.star(x)) - x) / max(nx, 1e-30))
        worst_anti = max(worst_anti, ref.operator_norm(
            ref.star(ref.multiply(x, y)) - ref.multiply(ref.star(y), ref.star(x))
        ) / max(nx * ny, 1e-30))
        xx = ref.multiply(ref.star(x), x)
        worst_cstar = max(worst_cstar, abs(ref.operator_norm(xx) - nx**2) / max(nx**2, 1e-30))
    rep["associativity"] = worst_assoc
    rep["involution"] = worst_invol
    rep["anti_multiplicative"] = worst_anti
    rep["cstar_identity"] = worst_cstar
    worst_bimod = 0.0
    worst_bound = -np.inf
    n = alg.algebra.n
    amat = alg.algebra.project(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    a_el = to_dict(alg, alg.from_algebra(amat))
    for _ in range(20):
        x = to_dict(alg, random_element(alg, rng))
        lhs = ref.expectation(ref.multiply(a_el, ref.multiply(x, a_el)))
        rhs = amat @ ref.expectation(x) @ amat
        worst_bimod = max(worst_bimod, float(np.abs(lhs - rhs).max()))
        ax = ref.multiply(a_el, x)
        bound = alg.algebra.opnorm(amat) ** 2 * ref.inner(x, x) - ref.inner(ax, ax)
        worst_bound = max(worst_bound,
                          -float(np.linalg.eigvalsh((bound + bound.conj().T) / 2).min()))
    rep["expectation_bimodular"] = worst_bimod
    rep["expectation_bound_violation"] = max(worst_bound, 0.0)
    scal = np.einsum("pquu->pq", ref.gram())
    eigs = np.linalg.eigvalsh((scal + scal.conj().T) / 2)
    rep["expectation_gram_min_eig"] = float(eigs.min())
    rep["expectation_faithful"] = bool(eigs.min() > tol)
    worst_pi = 0.0
    labels = alg.labels
    for _ in range(10):
        a = labels[int(rng.integers(len(labels)))]
        b = labels[int(rng.integers(len(labels)))]
        (da, ma), (db, mb) = alg.shapes[a], alg.shapes[b]
        xa = rng.standard_normal((da, ma)) + 1j * rng.standard_normal((da, ma))
        yb = rng.standard_normal((db, mb)) + 1j * rng.standard_normal((db, mb))
        atoms, arr = free_product_word(alg, a, xa, b, yb)
        diff = to_dict(alg, project_word(alg, atoms, arr)) - ref.multiply(
            DictElement({a: xa}), DictElement({b: yb}))
        worst_pi = max(worst_pi, ref.operator_norm(diff))
    rep["word_projection_homomorphism"] = worst_pi
    rep["passed"] = bool(all([
        worst_assoc < 1e4 * tol, worst_invol < 1e4 * tol, worst_anti < 1e4 * tol,
        worst_cstar < 1e-8, worst_bimod < 1e4 * tol,
        rep["expectation_bound_violation"] < 1e4 * tol, rep["expectation_faithful"],
        worst_pi < 1e4 * tol,
    ]))
    return rep


def conjugated_clock_shift(n, seed=0):
    """The clock-shift grading of M_n transported by a seeded Haar unitary."""
    from qact.actions import Action
    from qact.fixtures import clock_shift_grading

    act = clock_shift_grading(n)
    b = act.algebra
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    u = q * (np.diagonal(r) / np.abs(np.diagonal(r)))
    c = np.array([b.coords(u @ e @ u.conj().T) for e in b.basis()]).T
    comps = {x: act.component_rows(x) @ c.T for x in act.group.elements}
    return Action(act.kind, b, act.group, components=comps, name=act.name)


REFERENCE_NAMES = sorted(action_corpus()) + ["m2_plus_c", "clock4_conjugated"]


def reference_functor(name):
    """A corpus spectral functor, the M_2 + C bundle functor or the spectral
    functor of a conjugated clock-shift grading of M_4."""
    from qact.fixtures import m2_plus_c_bundle
    from qact.repcat import dual_backend

    if name == "m2_plus_c":
        return from_graded(m2_plus_c_bundle())
    if name == "clock4_conjugated":
        return spectral_functor(dual_backend(cyclic_group(4)),
                                conjugated_clock_shift(4)).functor
    bk, act = action_corpus()[name]
    return spectral_functor(standard_backends()[bk], act).functor


@pytest.fixture(scope="module", params=REFERENCE_NAMES)
def flat_and_reference(request):
    alg = build_algebra(reference_functor(request.param), validate=False)
    return alg, DictReference(alg)


def _sample_elements(alg, rng):
    """Basis elements, random elements and random elements supported on a
    single component."""
    out = list(np.eye(alg.dim, dtype=complex))
    out += [random_element(alg, rng) for _ in range(4)]
    for label in alg.labels:
        shape = alg.shapes[label]
        out.append(alg.component(label, rng.standard_normal(shape)
                                 + 1j * rng.standard_normal(shape)))
    return out


def _assert_same_element(alg, got, want, atol):
    got = to_dict(alg, got)
    assert sorted(got.parts) == sorted(want.parts)
    for label, arr in want.parts.items():
        np.testing.assert_allclose(got.parts[label], arr, rtol=0, atol=atol)


def test_flat_products_and_stars_match_dict_model(flat_and_reference):
    alg, ref = flat_and_reference
    model = alg.model
    rng = np.random.default_rng(11)
    elements = _sample_elements(alg, rng)
    for x in elements:
        _assert_same_element(alg, model.star(x), ref.star(to_dict(alg, x)), 1e-13)
        for y in elements:
            scale = max(1.0, float(np.abs(x).max() * np.abs(y).max()))
            _assert_same_element(alg, model.multiply(x, y),
                                 ref.multiply(to_dict(alg, x), to_dict(alg, y)), 1e-13 * scale)


def test_flat_products_prune_the_components_the_dict_model_prunes(flat_and_reference):
    alg, ref = flat_and_reference
    model = alg.model
    xs = np.eye(alg.dim, dtype=complex)
    basis = [to_dict(alg, x) for x in xs]
    for x, xd in zip(xs, basis):
        assert sorted(parts(alg, model.star(x))) == sorted(ref.star(xd).parts)
        for y, yd in zip(xs, basis):
            assert sorted(parts(alg, model.multiply(x, y))) == sorted(ref.multiply(xd, yd).parts)
    stacked = model.multiply(xs[:, None], xs[None, :])
    for i, x in enumerate(xs):
        for j, y in enumerate(xs):
            np.testing.assert_array_equal(stacked[i, j], model.multiply(x, y))


def test_flat_outputs_are_pruned(flat_and_reference):
    # basis elements plus rounding-size noise: the components that only the
    # noise reaches must come out exactly zero, as the dict model drops them
    alg, _ = flat_and_reference
    rng = np.random.default_rng(13)
    noise = 1e-15 * (rng.standard_normal((alg.dim, alg.dim))
                     + 1j * rng.standard_normal((alg.dim, alg.dim)))
    xs = np.eye(alg.dim) + noise
    assert not alg.model.prune(noise).any()
    for out in (alg.model.multiply(xs[:, None], xs[None, :]), alg.model.star(xs)):
        for span in alg.spans.values():
            peak = np.abs(out[..., span]).max(axis=-1)
            assert np.all((peak == 0.0) | (peak > PRUNE_TOL))


def test_flat_norms_and_gram_match_dict_model(flat_and_reference):
    alg, ref = flat_and_reference
    rng = np.random.default_rng(12)
    elements = _sample_elements(alg, rng)
    np.testing.assert_allclose(alg.model.gram(), ref.gram(), rtol=0, atol=1e-13)
    flat = alg.model.operator_norm(np.array(elements))
    for x, got in zip(elements, flat):
        want = ref.operator_norm(to_dict(alg, x))
        assert abs(got - want) <= 1e-12 * max(want, 1.0)
        assert abs(alg.model.operator_norm(x) - got) <= 1e-13 * max(got, 1.0)


def test_flat_build_report_matches_dict_model(flat_and_reference):
    alg, _ = flat_and_reference
    got = reference_build_report(alg, seed=3, samples=30)
    want = dict_build_report(alg, seed=3, samples=30)
    assert got.pop("multiplication_table") is alg.model.table
    assert sorted(got) == sorted(want)
    assert got["passed"] == want["passed"]
    assert got["expectation_faithful"] == want["expectation_faithful"]
    for key, value in want.items():
        if isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12, (key, got[key], value)
            assert value != 0.0 or got[key] == 0.0, key


def reference_build_report(alg, seed=0, samples=100):
    """The sampled audit that staralg.audit replaced in build_report, on the
    flat model: 100 random triples for the algebra laws and the
    C*-identity, 20 random elements and one random element a of A for the
    expectation, and 10 random word pairs, each block as one stack."""
    from qact.thresholds import AUDIT_FACTOR, CSTAR_TOL, RANK_TOL, RELATIVE_RESIDUAL_GUARD

    rng = np.random.default_rng(seed)
    tol = alg.tol
    model = alg.model
    rep = {
        "dimension": alg.dim,
        "component_dims": alg.component_dims(),
        "tolerance": tol,
        "multiplication_table": model.table,
    }

    def worst(values):
        return float(np.max(values, initial=0.0))

    draws = rng.standard_normal((samples, 3, 2, alg.dim))
    x, y, z = model.prune(np.moveaxis(draws[:, :, 0] + 1j * draws[:, :, 1], 1, 0))
    nx, ny, nz = model.operator_norm(np.stack([x, y, z]))
    xy = model.multiply(x, y)
    sx = model.star(x)
    assoc, invol, anti, cstar = model.operator_norm(np.stack([
        model.prune(model.multiply(xy, z) - model.multiply(x, model.multiply(y, z))),
        model.prune(model.star(sx) - x),
        model.prune(model.star(xy) - model.multiply(model.star(y), sx)),
        model.multiply(sx, x),
    ]))
    rep["associativity"] = worst(assoc / np.maximum(nx * ny * nz, RELATIVE_RESIDUAL_GUARD))
    rep["involution"] = worst(invol / np.maximum(nx, RELATIVE_RESIDUAL_GUARD))
    rep["anti_multiplicative"] = worst(anti / np.maximum(nx * ny, RELATIVE_RESIDUAL_GUARD))
    rep["cstar_identity"] = worst(abs(cstar - nx**2) / np.maximum(nx**2, RELATIVE_RESIDUAL_GUARD))

    amat = alg.algebra.project(
        rng.standard_normal((alg.algebra.n, alg.algebra.n))
        + 1j * rng.standard_normal((alg.algebra.n, alg.algebra.n))
    )
    a_el = alg.from_algebra(amat)
    draws = rng.standard_normal((20, 2, alg.dim))
    x = model.prune(draws[:, 0] + 1j * draws[:, 1])
    lhs = model.expectation(model.multiply(a_el, model.multiply(x, a_el)))
    rhs = amat @ model.expectation(x) @ amat
    rep["expectation_bimodular"] = worst(np.abs(lhs - rhs).max(axis=(1, 2)))
    ax = model.multiply(a_el, x)
    bound = alg.algebra.opnorm(amat) ** 2 * model.inner(x, x) - model.inner(ax, ax)
    bound = (bound + bound.conj().transpose(0, 2, 1)) / 2
    rep["expectation_bound_violation"] = worst(-np.linalg.eigvalsh(bound).min(axis=1))

    scal = np.einsum("pquu->pq", model.gram())
    scal = (scal + scal.conj().T) / 2
    eigs = np.linalg.eigvalsh(scal) if alg.dim else np.array([1.0])
    rep["expectation_gram_min_eig"] = float(eigs.min())
    rep["expectation_faithful"] = bool(eigs.min() > RANK_TOL * max(1.0, float(eigs.max())))

    labels = alg.labels
    words, lefts, rights = [], [], []
    for _ in range(10):
        a = labels[int(rng.integers(len(labels)))]
        b = labels[int(rng.integers(len(labels)))]
        da, ma = alg.shapes[a]
        db, mb = alg.shapes[b]
        xa = rng.standard_normal((da, ma)) + 1j * rng.standard_normal((da, ma))
        yb = rng.standard_normal((db, mb)) + 1j * rng.standard_normal((db, mb))
        atoms, arr = free_product_word(alg, a, xa, b, yb)
        words.append(project_word(alg, atoms, arr))
        lefts.append(alg.component(a, xa))
        rights.append(alg.component(b, yb))
    rep["word_projection_homomorphism"] = worst(model.operator_norm(
        model.prune(np.array(words) - model.multiply(np.array(lefts), np.array(rights)))))

    rep["passed"] = bool(all([
        *(rep[key] < AUDIT_FACTOR * tol for key in (
            "associativity", "involution", "anti_multiplicative", "expectation_bimodular",
            "expectation_bound_violation", "word_projection_homomorphism")),
        rep["cstar_identity"] < CSTAR_TOL,
        rep["expectation_faithful"],
    ]))
    return rep


def conjugated_corpus_functors():
    """The spectral functor of each corpus action conjugated by a Haar
    unitary of its algebra at the seeds of the comparison set, by name."""
    import pathlib
    import sys

    import report_diff

    bench = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import conjugated

    backends = standard_backends()
    return {f"{name}_s{seed}": spectral_functor(backends[bk], conjugated(act, seed)).functor
            for name, (bk, act) in sorted(action_corpus().items())
            for seed in report_diff.CONJUGATION_SEEDS}


VERDICT_TOLERANCES = (TOL, 1e-6, 1e-12)


def test_exact_build_audit_gives_the_sampled_verdicts():
    # on every corpus build, the M_2 + C bundle, a conjugated clock-shift
    # grading of M_4 and the conjugated corpus actions at seeds 3-5, the
    # exact audit and the sampled one it replaced agree on every verdict at
    # the default tolerance, 1e-6 and 1e-12; each rebuilt algebra is read
    # at each tolerance
    functors = {name: reference_functor(name) for name in REFERENCE_NAMES}
    functors.update(conjugated_corpus_functors())
    assert len(functors) == len(REFERENCE_NAMES) + 3 * len(action_corpus())
    # a product table whose nonzero entries are moved by noise of 1e-3 is no
    # *-algebra's: both audits fail it
    broken = {f"{name}_perturbed": reference_functor(name)
              for name in ("s3_translation", "m3_clock_shift", "trivial_m2")}
    rng = np.random.default_rng(14)
    verdicts = {}
    for name, functor in {**functors, **broken}.items():
        alg = build_algebra(functor, validate=False)
        if name in broken:
            m = alg.model
            noise = 1e-3 * rng.standard_normal(m.table.shape) * (m.table != 0)
            alg.model = StarAlgebraModel(m.table + noise, m.star_matrix, m.unit, m.spans,
                                         m.base, m.expect)
        for tol in VERDICT_TOLERANCES:
            alg.tol = tol
            got, want = build_report(alg), reference_build_report(alg)
            for key in ("passed", "expectation_faithful"):
                assert got[key] == want[key], (name, tol, key)
            verdicts[name, tol] = got["passed"]
    assert all(verdicts[name, tol] == (name not in broken)
               for name, tol in verdicts)


def test_projected_basis_products_are_the_table():
    # the table forms each product of basis elements once; the projection
    # of their free product, formed apart from it, is the same entry after
    # pruning, exactly, on the inputs of the audit verdict test above
    functors = {name: reference_functor(name) for name in REFERENCE_NAMES}
    functors.update(conjugated_corpus_functors())
    assert len(functors) == 50
    for name, functor in functors.items():
        alg = build_algebra(functor, validate=False)
        diff = alg.model.prune(projected_basis_products(alg) - alg.model.table)
        assert not diff.any(), (name, float(np.abs(diff).max()))


def test_build_report_forms_no_kron(monkeypatch):
    alg = build_algebra(reference_functor("clock4_conjugated"), validate=False)
    calls = []
    kron = np.kron
    monkeypatch.setattr(np, "kron", lambda *a: calls.append(1) or kron(*a))
    assert build_report(alg)["passed"]
    assert calls == []


def test_roundtrip_makes_no_element_products(monkeypatch):
    from qact.actions import roundtrip_check

    calls = []
    multiply = StarAlgebraModel.multiply
    monkeypatch.setattr(StarAlgebraModel, "multiply",
                        lambda self, x, y: calls.append(1) or multiply(self, x, y))
    bk, act = action_corpus()["m3_clock_shift"]
    assert roundtrip_check(standard_backends()[bk], act)["passed"]
    assert calls == []
