import numpy as np
import pytest

from qact.fixtures import (
    action_corpus,
    bicharacter_cocycle,
    coboundary_cocycle,
    group_backend_bicharacter_cocycle,
    standard_backends,
    translation_action,
)
from qact.groups import cyclic_group, direct_product, symmetric_group
from qact.cocycles import (
    CocycleError,
    TwistedBackend,
    check_cocycle,
    cocycle_pair_matrix,
    deform_action,
    deform_functor,
    deformed_table,
    make_cocycle,
    trivial_cocycle,
    twist_element,
)
from qact.actions import roundtrip_check, spectral_functor
from qact.algebras import BlockAlgebra
from qact.blockdecomp import decompose_star_algebra
from qact.functors import validate_functor
from qact.reconstruction import build_algebra
from qact.repcat import dual_backend
from qact.staralg import StarAlgebraModel, verify_algebra_iso
from qact.thresholds import AUDIT_FACTOR

from test_repcat import conjugate_residuals, reference_grades, words_up_to_three

TOL = 1e-9


def block_structure(model):
    """Wedderburn block sizes of a StarAlgebraModel, recovered from the GNS
    representation."""
    ops = model._gns_operators
    blocks = decompose_star_algebra(list(ops), ops.shape[1])
    return blocks.algebra.blocks


@pytest.fixture(scope="module")
def backends():
    return standard_backends()


@pytest.fixture(scope="module")
def z2z2_grading():
    return action_corpus()["z2z2_group_algebra"]


def cross_residual(alg, deformed, phi):
    """Worst disagreement between the rebuilt products and stars of the
    basis, carried over by phi, and the deformed products and stars of the
    images of the basis."""
    images = phi.T  # row i: the image of basis element i
    stars = alg.model.star(np.eye(alg.dim)) @ phi.T - deformed.model.star(images)
    prods = (alg.model.table @ phi.T
             - deformed.model.multiply(images[:, None], images[None, :]))
    return max(float(np.abs(stars).max()), float(np.abs(prods).max()))


def brute_force_cocycle_identity(cocycle):
    # independent oracle: explicit loop over all triples
    g = cocycle.group
    worst = 0.0
    for a in range(g.order):
        for b in range(g.order):
            for c in range(g.order):
                lhs = cocycle.values[a, b] * cocycle.values[g.mul[a, b], c]
                rhs = cocycle.values[b, c] * cocycle.values[a, g.mul[b, c]]
                worst = max(worst, abs(lhs - rhs))
    return worst


def test_trivial_cocycle_all_residuals_zero():
    group = direct_product(cyclic_group(2), cyclic_group(2))
    om = trivial_cocycle("dual", group)
    rep = check_cocycle(om)
    assert rep["unitarity"] == 0 and rep["cocycle_identity"] == 0
    assert rep["counital"] == 0 and rep["passed"]


@pytest.mark.parametrize("n", [2, 3])
def test_bicharacter_is_cocycle(n):
    om = bicharacter_cocycle([n, n])
    assert brute_force_cocycle_identity(om) < 1e-12
    rep = check_cocycle(om)
    assert rep["passed"]


def test_random_phases_fail_with_named_triple():
    group = direct_product(cyclic_group(2), cyclic_group(2))
    rng = np.random.default_rng(0)
    vals = np.exp(2j * np.pi * rng.random((4, 4)))
    om = make_cocycle("dual", group, vals)
    rep = check_cocycle(om)
    assert not rep["passed"]
    assert rep["cocycle_identity"] > 1e-3
    assert rep["worst_triple"] is not None and len(rep["worst_triple"]) == 3


def test_counital_normalization_retains_raw():
    group = cyclic_group(2)
    vals = 1j * np.ones((2, 2))
    om = make_cocycle("dual", group, vals)
    assert np.array_equal(om.raw, vals)
    assert om.values[0, 0] == 1.0


def dual_value(u, label):
    """The value of a dual-kind companion element at one group element."""
    return complex(u.coeffs[u.group.index(label)])


def test_twist_element_dual(backends):
    om = bicharacter_cocycle([2, 2])
    u, rep = twist_element(backends["dual_z2z2"], om)
    assert rep["passed"]
    # two independent evaluations: the contracted form against the diagonal
    g = om.group
    for i, x in enumerate(g.elements):
        assert abs(dual_value(u, x) - om.values[i, g.inv(i)]) < 1e-12
        assert abs(abs(dual_value(u, x)) - 1.0) < 1e-12


def test_twist_element_group_backend(backends):
    om = group_backend_bicharacter_cocycle()
    rep = check_cocycle(om)
    assert rep["passed"]
    u, urep = twist_element(backends["z2z2"], om)
    assert urep["passed"]
    assert urep["conjugation_intertwining"] < TOL
    assert urep["inverse_identity"] < TOL


def test_group_cocycle_coboundary(backends):
    # Omega = (v (x) v) Dhat(v)^{-1} for a diagonal unitary v in the group
    # algebra is always a cocycle
    group = direct_product(cyclic_group(2), cyclic_group(2))
    rng = np.random.default_rng(1)
    n = group.order
    # a unitary group-algebra element has unit-modulus values at every
    # character; pick those and Fourier transform back
    hat = np.exp(2j * np.pi * rng.random(n))

    def expo(name):
        return [int(p) for p in name.split("|")]

    chars = np.array([
        [(-1) ** (k[0] * g[0] + k[1] * g[1]) for g in map(expo, group.elements)]
        for k in map(expo, group.elements)
    ])
    c = chars.T @ hat / n
    cinv = chars.T @ (1.0 / hat) / n
    vals = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for d in range(n):
                # (v (x) v)(Dhat(v^{-1})): coefficient at (a d, b d)
                vals[group.mul[a, d], group.mul[b, d]] += c[a] * c[b] * cinv[d]
    om = make_cocycle("group", group, vals)
    rep = check_cocycle(om)
    assert rep["passed"], rep
    _, urep = twist_element(backends["z2z2"], om)
    assert urep["passed"]


def test_deform_action_pauli_oracle(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = bicharacter_cocycle([2, 2])
    deformed = deform_action(backends[bk], act, om)
    assert deformed.report["passed"]
    assert deformed.model.center_dimension() == 1
    assert block_structure(deformed.model) == (2,)
    # explicit Pauli isomorphism
    g = act.group
    m2 = StarAlgebraModel.of_block_algebra(BlockAlgebra((2,)))
    x_mat = np.array([[0, 1], [1, 0]], dtype=complex)
    z_mat = np.array([[1, 0], [0, -1]], dtype=complex)
    targets = {"0|0": np.eye(2, dtype=complex), "1|0": x_mat,
               "0|1": z_mat, "1|1": x_mat @ z_mat}
    lam = np.array([act.component_rows(x)[0] for x in g.elements]).T
    inv = np.linalg.inv(lam)
    phi = np.zeros((4, 4), dtype=complex)
    for gi, x in enumerate(g.elements):
        phi += np.outer(targets[x].reshape(-1), inv[gi])
    iso = verify_algebra_iso(deformed.model, m2, phi, tol=TOL)
    assert iso["passed"], iso


def test_deform_trivial_is_exact_identity(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = trivial_cocycle("dual", act.group)
    deformed = deform_action(backends[bk], act, om)
    base = StarAlgebraModel.of_block_algebra(act.algebra)
    assert np.array_equal(deformed.model.table, base.table)
    assert np.array_equal(deformed.model.star_matrix, base.star_matrix)


def test_deform_center_collapse(backends, z2z2_grading):
    # the commutative group algebra has a four-dimensional center; the
    # deformed algebra is simple
    bk, act = z2z2_grading
    om = bicharacter_cocycle([2, 2])
    base = deform_action(backends[bk], act, trivial_cocycle("dual", act.group))
    assert base.model.center_dimension() == 4
    deformed = deform_action(backends[bk], act, om)
    assert deformed.model.center_dimension() == 1


def test_deform_then_conjugate_recovers(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = bicharacter_cocycle([2, 2])
    conj = make_cocycle("dual", om.group, om.values.conj())
    d1 = deform_action(backends[bk], act, om)
    # pointwise product of the two cocycles is identically one, so deforming
    # twice composes to the identity; verify on the product tensors
    prod = np.zeros_like(d1.model.table)
    g = act.group
    rd = act.module_maps()
    for a in range(g.order):
        for c in range(g.order):
            w = conj.values[a, c]
            prod += w * np.einsum(
                "pqr,pi,qj->ijr", d1.model.table, rd[g.elements[a]], rd[g.elements[c]]
            )
    np.testing.assert_allclose(prod, StarAlgebraModel.of_block_algebra(act.algebra).table,
                               atol=1e-12)


def test_deformation_preserves_dimension_and_fixed_algebra(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = bicharacter_cocycle([2, 2])
    deformed = deform_action(backends[bk], act, om)
    assert deformed.model.dim == act.algebra.dim
    assert deformed.report["fixed_algebra_blocks"] == [1]
    # the unit component acts unchanged under the deformed product
    e = act.group.elements[act.group.identity]
    unit_row = act.component_rows(e)[0]
    rng = np.random.default_rng(2)
    x = rng.standard_normal(act.algebra.dim)
    lhs = deformed.model.multiply(unit_row, x)
    rhs = np.einsum("pqr,p,q->r", act.algebra.structure_tensor(), unit_row, x)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_coboundary_deformation_is_isomorphic(backends, z2z2_grading):
    # a coboundary deformation is trivialized by rescaling each component
    bk, act = z2z2_grading
    g = act.group
    rng = np.random.default_rng(3)
    phases = np.exp(2j * np.pi * rng.random(g.order))
    phases[g.identity] = 1.0
    om = coboundary_cocycle(g, phases)
    assert check_cocycle(om)["passed"]
    deformed = deform_action(backends[bk], act, om)
    base = deform_action(backends[bk], act, trivial_cocycle("dual", g))
    phi = np.zeros((4, 4), dtype=complex)
    rd = act.module_maps()
    for gi, x in enumerate(g.elements):
        phi += phases[gi] * rd[x]
    iso = verify_algebra_iso(deformed.model, base.model, phi, tol=TOL)
    assert iso["passed"], iso


def test_deformed_involution_laws(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = bicharacter_cocycle([2, 2])
    deformed = deform_action(backends[bk], act, om)
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        y = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        model = deformed.model
        np.testing.assert_allclose(model.star(model.star(x)), x, atol=1e-10)
        np.testing.assert_allclose(
            model.star(model.multiply(x, y)),
            model.multiply(model.star(y), model.star(x)),
            atol=1e-10,
        )


def test_twisted_backend_conjugate_equations(backends):
    om = bicharacter_cocycle([2, 2])
    tw = TwistedBackend(backends["dual_z2z2"], om)
    for label in tw.labels:
        sol = tw.conjugate_solution(label)
        r1, r2 = conjugate_residuals(sol)
        assert max(r1, r2) < 1e-12
    omg = group_backend_bicharacter_cocycle()
    twg = TwistedBackend(backends["z2z2"], omg)
    for label in twg.labels:
        sol = twg.conjugate_solution(label)
        r1, r2 = conjugate_residuals(sol)
        assert max(r1, r2) < 1e-12


def test_twist_matrix_bracketing_independent(backends):
    # the iterated cocycle action is independent of the bracketing
    omg = group_backend_bicharacter_cocycle()
    tw = TwistedBackend(backends["z2z2"], omg)
    a1 = tw.atom(tw.labels[1])
    a2 = tw.atom(tw.labels[2])
    a3 = tw.atom(tw.labels[3])
    word12 = tw.tensor(a1, a2)
    word23 = tw.tensor(a2, a3)
    left = np.kron(tw.twist_matrix(word12), np.eye(a3.dim)) @ cocycle_pair_matrix(
        omg, word12, a3
    )
    right = np.kron(np.eye(a1.dim), tw.twist_matrix(word23)) @ cocycle_pair_matrix(
        omg, a1, word23
    )
    np.testing.assert_allclose(left, right, atol=1e-12)


def test_deform_functor_trivial_unchanged(backends, z2z2_grading):
    bk, act = z2z2_grading
    functor = spectral_functor(backends[bk], act).functor
    om = trivial_cocycle("dual", act.group)
    twisted = deform_functor(functor, om)
    assert validate_functor(twisted).passed
    for key in functor.phi:
        for t1, t2 in zip(functor.phi[key], twisted.phi[key]):
            assert np.array_equal(t1, t2)


def test_deform_functor_scales_graded_tensors(backends, z2z2_grading):
    # with one-dimensional fusion the twist multiplies each structure map by
    # the cocycle value of its pair of grades
    bk, act = z2z2_grading
    functor = spectral_functor(backends[bk], act).functor
    om = bicharacter_cocycle([2, 2])
    twisted = deform_functor(functor, om)
    assert validate_functor(twisted).passed
    alg1 = build_algebra(functor, validate=False)
    alg2 = build_algebra(twisted, validate=False)
    g = act.group
    for a in g.elements:
        for b in g.elements:
            xa = alg1.component(a, np.ones((1, 1)))
            yb = alg1.component(b, np.ones((1, 1)))
            p1 = alg1.model.multiply(xa, yb)
            p2 = alg2.model.multiply(xa, yb)
            ab = alg1.spans[g.elements[g.times(g.index(a), g.index(b))]]
            scale = om.values[g.index(a), g.index(b)]
            np.testing.assert_allclose(
                p2[ab], scale * p1[ab], atol=1e-12
            )


@pytest.mark.parametrize("pair", [
    ("z2z2_group_algebra", "bicharacter"),
    ("z2z2_group_algebra", "coboundary"),
    ("m3_clock_shift", "coboundary"),
])
def test_cross_deformation_consistency(backends, pair):
    # rebuilding through the twisted functor agrees with deforming the
    # algebra directly, through the round-trip identification
    name, which = pair
    bk, act = action_corpus()[name]
    g = act.group
    if which == "bicharacter":
        om = bicharacter_cocycle([2, 2])
    else:
        rng = np.random.default_rng(6)
        phases = np.exp(2j * np.pi * rng.random(g.order))
        phases[g.identity] = 1.0
        om = coboundary_cocycle(g, phases)
    spec = spectral_functor(backends[bk], act)
    twisted = deform_functor(spec.functor, om)
    assert validate_functor(twisted).passed
    alg = build_algebra(twisted, validate=False)
    deformed = deform_action(backends[bk], act, om)
    phi = roundtrip_check(backends[bk], act)["isomorphism"]
    worst = cross_residual(alg, deformed, phi)
    assert worst < TOL


def test_cross_deformation_group_backend(backends):
    # the same consistency over the compact backend, with the convolution
    # cocycle twisting the translation action
    backend = backends["z2z2"]
    act = translation_action(backend)
    om = group_backend_bicharacter_cocycle()
    spec = spectral_functor(backend, act)
    twisted = deform_functor(spec.functor, om)
    assert validate_functor(twisted).passed
    alg = build_algebra(twisted, validate=False)
    deformed = deform_action(backend, act, om)
    phi = roundtrip_check(backend, act)["isomorphism"]
    worst = cross_residual(alg, deformed, phi)
    assert worst < TOL
    assert block_structure(deformed.model) == (2,)


def test_cocycle_kind_mismatch_rejected(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = group_backend_bicharacter_cocycle()
    with pytest.raises(CocycleError):
        deform_action(backends[bk], act, om)


def test_cross_deformation_nonabelian_dual(backends):
    # coboundary twist of the group algebra of a nonabelian group: the
    # twisted-category machinery must handle nonabelian fusion
    bk, act = action_corpus()["s3_group_algebra"]
    g = act.group
    rng = np.random.default_rng(7)
    phases = np.exp(2j * np.pi * rng.random(g.order))
    phases[g.identity] = 1.0
    om = coboundary_cocycle(g, phases)
    assert check_cocycle(om)["passed"]
    spec = spectral_functor(backends[bk], act)
    twisted = deform_functor(spec.functor, om)
    assert validate_functor(twisted).passed
    alg = build_algebra(twisted, validate=False)
    deformed = deform_action(backends[bk], act, om)
    phi = roundtrip_check(backends[bk], act)["isomorphism"]
    worst = cross_residual(alg, deformed, phi)
    assert worst < TOL


def test_non_invertible_cocycle_fails_unitarity():
    group = direct_product(cyclic_group(2), cyclic_group(2))
    vals = np.zeros((4, 4), dtype=complex)
    vals[group.identity, group.identity] = 1.0
    vals[1, 1] = 1.0  # rank-deficient in the regular representation
    om = make_cocycle("group", group, vals)
    rep = check_cocycle(om)
    # L(Omega Omega* - 1) has eigenvalue -1 and norm at most |G|^2 times its
    # largest coefficient, so the residual is at least 1/|G|^2
    assert not rep["passed"]
    assert rep["unitarity"] >= 1 / group.order ** 2


def test_deformed_cstar_identity_and_expectation(backends, z2z2_grading):
    bk, act = z2z2_grading
    om = bicharacter_cocycle([2, 2])
    deformed = deform_action(backends[bk], act, om)
    rng = np.random.default_rng(8)
    for _ in range(20):
        x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        model = deformed.model
        n = model.operator_norm(x)
        nn = model.operator_norm(model.multiply(model.star(x), x))
        assert abs(nn - n * n) < 1e-8 * n * n
    # the expectation is the projection onto the unit component
    e_label = act.group.elements[act.group.identity]
    unit_row = act.component_rows(e_label)[0]
    np.testing.assert_allclose(
        deformed.expectation_matrix @ unit_row, unit_row, atol=1e-12
    )
    other = act.component_rows(act.group.elements[1])[0]
    np.testing.assert_allclose(
        deformed.expectation_matrix @ other, 0, atol=1e-12
    )


# -- the contraction-form audits against the per-basis loops they replaced ------


def reference_deform_audit(backend, act, cocycle, deformed, tol=TOL, seed=0):
    """The deform audit as it was computed one basis element at a time, on
    the deformed model's table, star matrix, unit and state."""
    from qact.actions import fixed_point_algebra

    model = deformed.model
    b = act.algebra
    proj = deformed.expectation_matrix
    trace_vec = model.expect[0]

    def multiply(x, y):
        return np.einsum("pqr,p,q->r", model.table, x, y)

    def star(x):
        return model.star_matrix @ np.conj(x)

    def expect_mat(x, y):
        return b.from_coords(proj @ multiply(star(x), y))

    report = dict(twist_element(backend, cocycle, tol=tol)[1])
    unit = model.unit
    basis = np.eye(b.dim, dtype=complex)
    worst_assoc = worst_inv = worst_anti = worst_unit = 0.0
    for p in range(b.dim):
        worst_inv = max(worst_inv, float(np.abs(star(star(basis[p])) - basis[p]).max()))
        worst_unit = max(
            worst_unit,
            float(np.abs(multiply(unit, basis[p]) - basis[p]).max()),
            float(np.abs(multiply(basis[p], unit) - basis[p]).max()),
        )
        for q in range(b.dim):
            worst_anti = max(worst_anti, float(np.abs(
                star(multiply(basis[p], basis[q]))
                - multiply(star(basis[q]), star(basis[p]))
            ).max()))
            for r in range(b.dim):
                lhs = multiply(multiply(basis[p], basis[q]), basis[r])
                rhs = multiply(basis[p], multiply(basis[q], basis[r]))
                worst_assoc = max(worst_assoc, float(np.abs(lhs - rhs).max()))
    report["associative"] = worst_assoc
    report["involutive"] = worst_inv
    report["anti_multiplicative"] = worst_anti
    report["unital"] = worst_unit

    gram = np.zeros((b.dim, b.dim), dtype=complex)
    for p in range(b.dim):
        sp = star(basis[p])
        for q in range(b.dim):
            gram[p, q] = trace_vec @ multiply(sp, basis[q])
    gram = (gram + gram.conj().T) / 2
    eigs = np.linalg.eigvalsh(gram)
    report["expectation_gram_min_eig"] = float(eigs.min())
    report["expectation_faithful"] = bool(eigs.min() > tol)

    fixed = fixed_point_algebra(backend, act)
    rng = np.random.default_rng(seed)
    worst_bound = 0.0
    for _ in range(10):
        x = rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim)
        acoords = fixed.algebra.coords(
            fixed.algebra.project(rng.standard_normal((fixed.algebra.n, fixed.algebra.n)))
        )
        amat = fixed.embed(acoords)
        ax = multiply(b.coords(amat), x)
        diff = b.opnorm(amat) ** 2 * expect_mat(x, x) - expect_mat(ax, ax)
        worst_bound = max(worst_bound, -float(
            np.linalg.eigvalsh((diff + diff.conj().T) / 2).min()
        ))
    report["expectation_bound_violation"] = max(worst_bound, 0.0)
    report["fixed_algebra_blocks"] = list(fixed.algebra.blocks)
    report["passed"] = bool(
        max(worst_assoc, worst_inv, worst_anti, worst_unit,
            report["expectation_bound_violation"]) < 1e4 * tol
        and report["expectation_faithful"]
    )
    return report


def reference_algebra_iso(src, dst, phi, tol=TOL):
    """verify_algebra_iso one basis pair at a time."""
    out = {}
    sv = np.linalg.svd(phi, compute_uv=False)
    out["smallest_singular_value"] = float(sv.min()) if sv.size else 0.0
    basis = np.eye(src.dim, dtype=complex)
    worst_mult = 0.0
    worst_star = 0.0
    for p in range(src.dim):
        worst_star = max(worst_star, float(np.abs(
            phi @ src.star(basis[p]) - dst.star(phi @ basis[p])
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


def reference_center_dimension(model, tol=1e-8):
    """center_dimension with one commutator system per basis element."""
    basis = np.eye(model.dim, dtype=complex)
    stacked = np.vstack([np.einsum("pqr,q->rp", model.table, b)
                         - np.einsum("qpr,q->rp", model.table, b)
                         for b in basis])
    s = np.linalg.svd(stacked, compute_uv=False)
    return int(model.dim - np.sum(s > tol))


def m3_coboundary():
    """The coboundary cocycle on the clock-shift grading of M_3 that the
    acceptance criterion on the deformation cross-test draws."""
    bk, act = action_corpus()["m3_clock_shift"]
    rng = np.random.default_rng(1)
    phases = np.exp(2j * np.pi * rng.random(3))
    phases[act.group.identity] = 1.0
    return bk, act, coboundary_cocycle(act.group, phases)


def _audit_pair(which):
    corpus = action_corpus()
    if which == "bicharacter":
        bk, act = corpus["z2z2_group_algebra"]
        return bk, act, bicharacter_cocycle([2, 2])
    if which == "group_bicharacter":
        bk, act = corpus["z2z2_translation"]
        return bk, act, group_backend_bicharacter_cocycle()
    if which == "trivial":
        bk, act = corpus["z2z2_group_algebra"]
        return bk, act, trivial_cocycle("dual", act.group)
    return m3_coboundary()


def assert_same_report(got, want):
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        if isinstance(value, bool):
            assert got[key] == value, key
        elif isinstance(value, float):
            assert abs(got[key] - value) <= 1e-12, (key, got[key], value)
            assert value != 0.0 or got[key] == 0.0, (key, "zero moved", got[key])
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("which", ["bicharacter", "group_bicharacter", "trivial",
                                   "m3_coboundary"])
def test_contraction_audits_match_per_basis_loops(backends, which):
    bk, act, om = _audit_pair(which)
    backend = backends[bk]
    deformed = deform_action(backend, act, om)
    assert_same_report(deformed.report,
                       reference_deform_audit(backend, act, om, deformed))
    rebuilt = build_algebra(deform_functor(spectral_functor(backend, act).functor, om),
                            validate=False).model
    phi = roundtrip_check(backend, act)["isomorphism"]
    assert_same_report(verify_algebra_iso(rebuilt, deformed.model, phi),
                       reference_algebra_iso(rebuilt, deformed.model, phi))
    for model in (rebuilt, deformed.model):
        assert model.center_dimension() == reference_center_dimension(model)


def test_cross_test_builds_one_functor_and_one_algebra(monkeypatch, tmp_path):
    # the cross test takes its map from the spectral functor it twists, so
    # it builds that functor and the rebuilt algebra once each
    import pathlib

    import record_golden
    from qact import actions, cli, reconstruction

    built = {"functors": 0, "algebras": 0}
    builder = actions.functor_from_subspaces
    init = reconstruction.ReconstructedAlgebra.__init__

    def count_functor(*args, **kwargs):
        built["functors"] += 1
        return builder(*args, **kwargs)

    def count_algebra(self, *args, **kwargs):
        built["algebras"] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(actions, "functor_from_subspaces", count_functor)
    monkeypatch.setattr(reconstruction.ReconstructedAlgebra, "__init__", count_algebra)
    report = pathlib.Path(tmp_path) / "r.json"
    argv = record_golden.fixture_argv(record_golden.DEFORM_GROUP_RUN)
    assert cli.main([*argv, "--report", str(report)]) == 0
    assert built == {"functors": 1, "algebras": 1}


def test_deform_audit_makes_no_single_element_products(backends, monkeypatch):
    calls = []
    multiply = StarAlgebraModel.multiply

    def counted(self, x, y):
        if np.ndim(x) <= 1 and np.ndim(y) <= 1:
            calls.append(1)
        return multiply(self, x, y)

    monkeypatch.setattr(StarAlgebraModel, "multiply", counted)
    bk, act, om = m3_coboundary()
    assert deform_action(backends[bk], act, om).report["passed"]
    assert calls == []


def reference_deformed_table(table, rd, vals):
    """deformed_table as one unoptimized three-operand einsum per nonzero
    cocycle value."""
    out = np.zeros_like(table)
    for a in range(len(vals)):
        for c in range(len(vals)):
            if vals[a, c] != 0:
                out += vals[a, c] * np.einsum("pqr,pi,qj->ijr", table, rd[a], rd[c])
    return out


def clock_shift_coboundary(n):
    from qact.fixtures import clock_shift_grading
    from qact.repcat import dual_backend

    act = clock_shift_grading(n)
    phases = np.exp(2j * np.pi * np.random.default_rng(n).random(n))
    phases[act.group.identity] = 1.0
    return dual_backend(act.group), act, coboundary_cocycle(act.group, phases)


@pytest.mark.parametrize("which", ["clock3", "clock4", "bicharacter", "group_bicharacter"])
def test_deformed_table_is_the_einsum_bit_for_bit(which, backends):
    if which.startswith("clock"):
        backend, act, cocycle = clock_shift_coboundary(int(which[-1]))
    else:
        bk, act, cocycle = _audit_pair(which)
        backend = backends[bk]
    table = StarAlgebraModel.of_block_algebra(act.algebra).table
    rd = act.module_maps()
    rd = [rd[x] for x in act.group.elements]
    got = deformed_table(table, rd, cocycle.values)
    assert np.array_equal(got, reference_deformed_table(table, rd, cocycle.values))
    assert np.abs(got).max() > 0


# -- the dual kind's diagonal forms, as reference code for the group formulas --


def reference_pair_matrix(cocycle, u_grades, v_grades):
    """The cocycle on the tensor product of two graded spaces: the diagonal
    of its values at the pairs of grades."""
    return np.diag(np.array([cocycle.values[gu, gv] for gu in u_grades for gv in v_grades]))


def reference_rep_matrix(element, grades):
    """A companion function on a graded space: the diagonal of its values at
    the grades."""
    return np.diag([element.coeffs[gr] for gr in grades])


def unit_modulus_s3_cocycle():
    # not a cocycle: the formulas read a table, they do not check it
    s3 = standard_backends()["dual_s3"].group
    phases = np.random.default_rng(7).uniform(0, 2 * np.pi, (s3.order, s3.order))
    return make_cocycle("dual", s3, np.exp(1j * phases))


@pytest.mark.parametrize("name, make", [
    ("dual_z2z2", lambda: bicharacter_cocycle([2, 2])),
    ("dual_s3", unit_modulus_s3_cocycle),
], ids=["bicharacter_z2z2", "unit_modulus_s3"])
def test_group_formulas_keep_the_diagonal_forms_on_point_masses(name, make):
    backend = standard_backends()[name]
    cocycle = make()
    u, _ = twist_element(backend, cocycle)
    words = words_up_to_three(backend)
    atoms = [backend.atom(*w[0]) for w in words if len(w) == 1]
    for word in words:
        rep = backend.word(word)
        grades = reference_grades(backend, word)
        assert np.array_equal(u.rep_matrix(rep), reference_rep_matrix(u, grades))
        if len(word) == 3:
            continue
        for atom in atoms:
            got = cocycle_pair_matrix(cocycle, rep, atom)
            want = reference_pair_matrix(cocycle, grades, reference_grades(backend, atom.atoms))
            assert np.array_equal(got, want)


def reference_kron_loop(cocycle, u, v):
    """The group formula one pair at a time, as np.kron gives it."""
    n = cocycle.group.order
    out = np.zeros((u.dim * v.dim, u.dim * v.dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            if cocycle.values[a, b] != 0:
                out += cocycle.values[a, b] * np.kron(u.matrices[a], v.matrices[b])
    return out


@pytest.mark.parametrize("name, make", [
    ("z2z2", group_backend_bicharacter_cocycle),
    ("dual_z2z2", lambda: bicharacter_cocycle([2, 2])),
], ids=["group_bicharacter_z2z2", "bicharacter_z2z2"])
def test_pair_matrix_keeps_the_bytes_of_the_kron_loop(name, make):
    backend = standard_backends()[name]
    cocycle = make()
    words = [w for w in words_up_to_three(backend) if len(w) < 3]
    atoms = [backend.atom(*w[0]) for w in words if len(w) == 1]
    for word in words:
        rep = backend.word(word)
        for atom in atoms:
            got = cocycle_pair_matrix(cocycle, rep, atom)
            assert got.tobytes() == reference_kron_loop(cocycle, rep, atom).tobytes()


# -- the per-kind formulas, as reference code for the formulas over D ----------


def reference_normalize(kind, group, values):
    """make_cocycle's normalizer, one branch per kind."""
    vals = np.asarray(values, dtype=complex).copy()
    e = group.identity
    c = vals[e, e] if kind == "dual" else vals.sum(axis=0)[e]
    return vals / c


def reference_convolve(group, a, b):
    """Product in the tensor square of the group algebra."""
    n = group.order
    out = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            axy = a[x, y]
            if axy == 0:
                continue
            for u in range(n):
                row = group.mul[x, u]
                for v in range(n):
                    out[row, group.mul[y, v]] += axy * b[u, v]
    return out


def reference_group_star(group, a):
    n = group.order
    out = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            out[group.inv(x), group.inv(y)] = np.conj(a[x, y])
    return out


def reference_left_regular(group, coeffs):
    """Left multiplication by sum_x coeffs[x] x on the group algebra."""
    out = np.zeros((group.order, group.order), dtype=complex)
    out[group.mul, np.arange(group.order)] = coeffs[:, None]
    return out


def reference_check(cocycle):
    """check_cocycle's residuals, one branch per kind."""
    g = cocycle.group
    n = g.order
    vals = cocycle.values
    rep = {}
    if cocycle.kind == "dual":
        rep["unitarity"] = float(np.abs(np.abs(vals) - 1.0).max())
        worst = 0.0
        worst_triple = None
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    lhs = vals[a, b] * vals[g.mul[a, b], c]
                    rhs = vals[b, c] * vals[a, g.mul[b, c]]
                    r = abs(lhs - rhs)
                    if r > worst:
                        worst = r
                        worst_triple = (g.elements[a], g.elements[b], g.elements[c])
        rep["cocycle_identity"] = worst
        rep["worst_triple"] = list(worst_triple) if worst_triple else None
        e = g.identity
        rep["counital"] = float(max(
            np.abs(vals[e, :] - 1.0).max(), np.abs(vals[:, e] - 1.0).max()
        ))
    else:
        delta = np.zeros((n, n), dtype=complex)
        delta[g.identity, g.identity] = 1.0
        rep["unitarity"] = float(np.abs(
            reference_convolve(g, vals, reference_group_star(g, vals)) - delta
        ).max())
        lhs = np.zeros((n, n, n), dtype=complex)
        rhs = np.zeros((n, n, n), dtype=complex)
        for a in range(n):
            for b in range(n):
                w1 = vals[a, b]
                if w1 == 0:
                    continue
                for c in range(n):
                    for d in range(n):
                        w2 = vals[c, d]
                        if w2 == 0:
                            continue
                        lhs[g.mul[a, c], g.mul[b, c], d] += w1 * w2
                        rhs[c, g.mul[a, d], g.mul[b, d]] += w1 * w2
        flat = np.abs(lhs - rhs)
        rep["cocycle_identity"] = float(flat.max())
        worst_idx = np.unravel_index(int(flat.argmax()), flat.shape)
        rep["worst_triple"] = [g.elements[i] for i in worst_idx]
        want = np.zeros(n)
        want[g.identity] = 1.0
        rep["counital"] = float(max(np.abs(vals.sum(axis=0) - want).max(),
                                    np.abs(vals.sum(axis=1) - want).max()))
    rep["passed"] = bool(max(rep["unitarity"], rep["cocycle_identity"],
                             rep["counital"]) < AUDIT_FACTOR * TOL)
    return rep


def reference_companion(cocycle):
    """twist_element's companion coefficients and inverse identity, one
    branch per kind."""
    g = cocycle.group
    n = g.order
    vals = cocycle.values
    if cocycle.kind == "dual":
        coeffs = np.array([vals[x, g.inv(x)] for x in range(n)])
        inverse = float(max(abs(1.0 / coeffs[x] - np.conj(coeffs[g.inv(x)]))
                            for x in range(n)))
        return coeffs, inverse
    coeffs = np.zeros(n, dtype=complex)
    for a in range(n):
        for b in range(n):
            coeffs[g.mul[a, g.inv(b)]] += vals[a, b]
    reg = reference_left_regular(g, coeffs)
    reg2 = reference_left_regular(g, coeffs.conj())
    return coeffs, float(np.abs(reg @ reg2 - np.eye(n)).max())


def dual_coboundary(group, seed):
    phases = np.exp(2j * np.pi * np.random.default_rng(seed).random(group.order))
    phases[group.identity] = 1.0
    return coboundary_cocycle(group, phases)


def group_coboundary(backend, seed):
    """(v (x) v) Dhat(v)^{-1} for the unitary v of the group algebra of an
    abelian group backend whose value at each character is a seeded phase."""
    g = backend.group
    n = g.order
    chars = np.array([backend.irrep(label).matrices[:, 0, 0] for label in backend.labels])
    hat = np.exp(2j * np.pi * np.random.default_rng(seed).random(n))
    c = chars.conj().T @ hat / n
    cinv = chars.conj().T @ (1.0 / hat) / n
    vals = np.zeros((n, n), dtype=complex)
    for a in range(n):
        for b in range(n):
            for d in range(n):
                vals[g.mul[a, d], g.mul[b, d]] += c[a] * c[b] * cinv[d]
    return make_cocycle("group", g, vals)


def random_phases(group, seed):
    # not a cocycle: the formulas read a table, they do not check it
    vals = np.exp(2j * np.pi * np.random.default_rng(seed).random((group.order,) * 2))
    return make_cocycle("dual", group, vals)


def zn2(n):
    return direct_product(cyclic_group(n), cyclic_group(n))


S3 = symmetric_group(3)
REFERENCE_COCYCLES = {
    "corpus_bicharacter_z2z2": lambda: bicharacter_cocycle([2, 2]),
    "corpus_trivial_z2z2": lambda: trivial_cocycle("dual", zn2(2)),
    "corpus_group_bicharacter_z2z2": group_backend_bicharacter_cocycle,
    "bicharacter_z3z3": lambda: bicharacter_cocycle([3, 3]),
    "bicharacter_z4z4": lambda: bicharacter_cocycle([4, 4]),
    "bicharacter_z5z5": lambda: bicharacter_cocycle([5, 5]),
    "coboundary_z2z2": lambda: dual_coboundary(zn2(2), 1),
    "coboundary_z3z3": lambda: dual_coboundary(zn2(3), 2),
    "coboundary_z4z4": lambda: dual_coboundary(zn2(4), 3),
    "coboundary_z5z5": lambda: dual_coboundary(zn2(5), 4),
    "coboundary_s3": lambda: dual_coboundary(S3, 5),
    "random_phases_z2z2": lambda: random_phases(zn2(2), 0),
    "random_phases_s3": lambda: random_phases(S3, 7),
    "group_coboundary_z2z2": lambda: group_coboundary(standard_backends()["z2z2"], 1),
    "group_coboundary_z4": lambda: group_coboundary(standard_backends()["z4"], 6),
    "trivial_dual_s3": lambda: trivial_cocycle("dual", S3),
    "trivial_dual_z3z3": lambda: trivial_cocycle("dual", zn2(3)),
    "trivial_group_z2z2": lambda: trivial_cocycle("group", zn2(2)),
    "trivial_group_s3": lambda: trivial_cocycle("group", S3),
}


def reference_backend(cocycle):
    if cocycle.kind == "dual":
        return dual_backend(cocycle.group)
    return standard_backends()[{"Z2xZ2": "z2z2", "Z4": "z4", "S3": "s3"}[cocycle.group.name]]


@pytest.mark.parametrize("name", sorted(REFERENCE_COCYCLES))
def test_formulas_over_d_match_the_per_kind_formulas(name):
    cocycle = REFERENCE_COCYCLES[name]()
    assert cocycle.values.tobytes() == reference_normalize(
        cocycle.kind, cocycle.group, cocycle.raw).tobytes()
    got, want = check_cocycle(cocycle, TOL), reference_check(cocycle)
    assert got["counital"] == want["counital"]
    for key in ("unitarity", "cocycle_identity"):
        assert abs(got[key] - want[key]) <= 1e-14, (key, got[key], want[key])
    assert got["passed"] == want["passed"]
    if want["cocycle_identity"] > 1e-12:
        assert got["worst_triple"] == want["worst_triple"]
    assert (got["worst_triple"] is None) == (got["cocycle_identity"] == 0)
    u, urep = twist_element(reference_backend(cocycle), cocycle, TOL)
    coeffs, inverse = reference_companion(cocycle)
    assert u.coeffs.tobytes() == coeffs.tobytes()
    assert abs(urep["inverse_identity"] - inverse) <= 1e-14


@pytest.mark.parametrize("name", ["coboundary_z3z3", "random_phases_s3", "group_coboundary_z4",
                                  "trivial_group_s3"])
def test_pair_matrix_over_nonzero_images_keeps_the_bytes_of_the_full_loop(name):
    # a dual word's images vanish off its grades, so most pairs are left out
    # of the sum; a group word's images are unitaries, so none is
    cocycle = REFERENCE_COCYCLES[name]()
    backend = reference_backend(cocycle)
    words = [w for w in words_up_to_three(backend) if len(w) < 3]
    atoms = [backend.atom(*w[0]) for w in words if len(w) == 1]
    for word in words:
        rep = backend.word(word)
        for atom in atoms:
            got = cocycle_pair_matrix(cocycle, rep, atom)
            assert got.tobytes() == reference_kron_loop(cocycle, rep, atom).tobytes(), word
