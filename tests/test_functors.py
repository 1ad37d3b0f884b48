import numpy as np
import pytest

from qact.algebras import (
    BlockAlgebra,
    Correspondence,
    algebra_as_correspondence,
    zero_correspondence,
)
from qact.fixtures import (
    action_corpus,
    c3_swap_grading,
    clock_shift_bundle,
    m2_plus_c_bundle,
    standard_backends,
    zero_odd_bundle,
)
from qact.functors import (
    IncompleteDataError,
    Realization,
    TensorFunctorData,
    from_graded,
    group_algebra_bundle,
    validate_functor,
    validate_graded,
)
from qact.groups import cyclic_group
from qact.actions import spectral_functor
from qact.repcat import Backend

TOL = 1e-9


@pytest.fixture(scope="module")
def backends():
    return standard_backends()


@pytest.fixture(scope="module")
def z2_translation_functor(backends):
    # the spectral functor of the order-two translation, built from the
    # group-algebra bundle
    return from_graded(group_algebra_bundle(cyclic_group(2)))


def trivial_z2_functor(backends):
    """Trivial order-two action on C: the odd module vanishes."""
    backend = backends["z2"]
    algebra = BlockAlgebra((1,))
    line = algebra_as_correspondence(algebra)
    modules = {"chi0": line, "chi1": zero_correspondence(algebra)}
    phi = {("chi0", "chi0", "chi0"): [np.ones((1, 1, 1), dtype=complex)]}
    return TensorFunctorData(backend, algebra, modules, phi)


def test_translation_functor_validates(z2_translation_functor):
    rep = validate_functor(z2_translation_functor)
    assert rep.passed
    assert max(c.residual for c in rep.axioms.values()) < TOL


def test_zero_module_functor_validates(backends):
    rep = validate_functor(trivial_z2_functor(backends))
    assert rep.passed


def test_spectral_functors_validate_across_corpus(backends):
    # cross-module soundness: every spectral functor passes validation
    for name, (bk, act) in action_corpus().items():
        spec = spectral_functor(backends[bk], act)
        rep = validate_functor(spec.functor)
        assert rep.passed, (name, rep.summary())


def test_mutation_breaks_associativity(backends):
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    key = ("std", "std", "std")
    functor.phi[key][0] = functor.phi[key][0] + 1e-3
    rep = validate_functor(functor)
    assert not rep.passed
    resid = rep.axioms["iv_associativity"].residual
    assert 1e-4 < resid < 1e-1


def test_missing_phi_tensor_named(backends):
    functor = from_graded(group_algebra_bundle(cyclic_group(2)))
    del functor.phi[("1", "1", "0")]
    with pytest.raises(IncompleteDataError, match="1.*1.*0"):
        validate_functor(functor)


def test_involution_partner_identities(backends):
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    real = Realization(functor)
    algebra = functor.algebra
    for label in ("triv", "sign", "std"):
        mod = functor.module(label)
        bar = functor.backend.conj_label(label)
        mbar = functor.module(bar)
        sol = functor.backend.conjugate_solution(label)
        u_obj = real.atom_object(label)
        bar_obj = real.atom_object(label, barred=True)
        pair = real.object(u_obj.atoms + bar_obj.atoms)
        pair2 = real.object(bar_obj.atoms + u_obj.atoms)
        f_rbar_star = real.morphism_matrix(
            sol.rbar.reshape(-1, 1).conj().T, pair, real.trivial_object()
        )
        f_r_star = real.morphism_matrix(
            sol.r.reshape(-1, 1).conj().T, pair2, real.trivial_object()
        )
        for p in range(mod.dim):
            x = np.zeros(mod.dim, dtype=complex)
            x[p] = 1.0
            part = real.involution_partner(label, x)
            for q in range(mbar.dim):
                y = np.zeros(mbar.dim, dtype=complex)
                y[q] = 1.0
                # <X., Y> agrees with the conjugation pairing of X and Y
                lhs = mbar.inner(part, y)
                rhs = algebra.from_coords(
                    f_rbar_star @ real.s_matrix(u_obj, x, bar_obj) @ y
                )
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            for q in range(mod.dim):
                y = np.zeros(mod.dim, dtype=complex)
                y[q] = 1.0
                # and the original inner product is recovered from the partner
                lhs = mod.inner(x, y)
                rhs = algebra.from_coords(
                    f_r_star @ real.s_matrix(bar_obj, part, u_obj) @ y
                )
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_involution_partner_graded_case():
    # on a graded functor the partner is characterized through the
    # multiplication into the unit fiber
    bundle = clock_shift_bundle(3)
    functor = from_graded(bundle)
    real = Realization(functor)
    g = functor.backend.group
    for label in g.elements:
        inv = g.elements[g.inv(g.index(label))]
        mod = functor.module(label)
        minv = functor.module(inv)
        t = bundle.mult_tensor(label, inv)
        for p in range(mod.dim):
            x = np.zeros(mod.dim, dtype=complex)
            x[p] = 1.0
            part = real.involution_partner(label, x)
            for q in range(minv.dim):
                y = np.zeros(minv.dim, dtype=complex)
                y[q] = 1.0
                lhs = minv.inner(part, y)
                prod = np.einsum("tpq,p,q->t", t, x, y)
                rhs = functor.algebra.from_coords(prod)
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_involution_partner_unit(z2_translation_functor):
    real = Realization(z2_translation_functor)
    unit = z2_translation_functor.algebra.coords(
        z2_translation_functor.algebra.identity()
    )
    part = real.involution_partner("0", unit)
    np.testing.assert_allclose(part, unit, atol=TOL)


def test_involution_partner_conjugate_linear(backends):
    bk, act = action_corpus()["swap_c2"]
    functor = spectral_functor(backends[bk], act).functor
    real = Realization(functor)
    mod = functor.module("chi1")
    rng = np.random.default_rng(0)
    x = rng.standard_normal(mod.dim) + 1j * rng.standard_normal(mod.dim)
    y = rng.standard_normal(mod.dim) + 1j * rng.standard_normal(mod.dim)
    c = 0.3 - 1.7j
    lhs = real.involution_partner("chi1", c * x + y)
    rhs = np.conj(c) * real.involution_partner("chi1", x) + real.involution_partner("chi1", y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_involution_partner_trace_identity(backends):
    # with trivial modular data the partner preserves the trace of the
    # self-pairing
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    real = Realization(functor)
    rng = np.random.default_rng(1)
    for label in ("sign", "std"):
        mod = functor.module(label)
        mbar = functor.module(functor.backend.conj_label(label))
        x = rng.standard_normal(mod.dim) + 1j * rng.standard_normal(mod.dim)
        part = real.involution_partner(label, x)
        t1 = np.trace(mod.inner(x, x))
        t2 = np.trace(mbar.inner(part, part))
        assert abs(t1 - t2) < 1e-8 * max(1.0, abs(t1))


def test_s_adjoint_naturality(backends):
    # the adjoint of left multiplication is natural against intertwiners
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    real = Realization(functor)
    backend = functor.backend
    u_obj = real.atom_object("std")
    v_obj = real.object((("std", False), ("std", False)))
    pair = backend.tensor(backend.atom("std"), backend.atom("std"))
    mod = functor.module("std")
    for target in ("triv", "sign", "std"):
        basis_t = backend.mor_basis(pair, backend.atom(target))
        for t in basis_t:
            vprime = real.atom_object(target)
            f_iot = real.morphism_matrix(
                np.kron(np.eye(2), t),
                real.object(u_obj.atoms + v_obj.atoms),
                real.object(u_obj.atoms + vprime.atoms),
            )
            f_t = real.morphism_matrix(t, v_obj, vprime)
            for p in range(mod.dim):
                x = np.zeros(mod.dim, dtype=complex)
                x[p] = 1.0
                s_small = real.s_adjoint(u_obj, x, vprime).adjoint
                s_big = real.s_adjoint(u_obj, x, v_obj).adjoint
                lhs = s_small @ f_iot
                rhs = f_t @ s_big
                np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_star_independent_of_conjugation_phases(backends):
    # rotating the conjugation solutions by phases must not change the
    # involution of the rebuilt algebra
    from qact.reconstruction import build_algebra, random_element

    class PhaseRotated(Backend):
        def __init__(self, base, phases):
            super().__init__(base.kind, base.group,
                             [base.irreps[l] for l in base.labels])
            self._phases = phases

        def conjugate_solution(self, label):
            sol = Backend.conjugate_solution(self, label)
            c = self._phases[label]
            return type(sol)(sol.label, sol.conj, c * sol.r, c * sol.rbar)

    bk, act = action_corpus()["s3_translation"]
    base = backends[bk]
    functor = spectral_functor(base, act).functor
    alg1 = build_algebra(functor, validate=False)
    rotated = PhaseRotated(base, {"triv": 1.0, "sign": np.exp(0.7j), "std": np.exp(-1.2j)})
    functor_rot = TensorFunctorData(rotated, functor.algebra, functor.modules, functor.phi)
    alg2 = build_algebra(functor_rot, validate=False)
    rng = np.random.default_rng(2)
    for _ in range(5):
        x = random_element(alg1, rng)
        s1 = alg1.flatten(alg1.star(x))
        s2 = alg2.flatten(alg2.star(alg2.unflatten(alg1.flatten(x))))
        np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_validate_graded_clock_shift():
    rep = validate_graded(clock_shift_bundle(3))
    assert rep.passed
    assert rep.axioms["d_adjoint_exchange"].detail.get("skipped")


def test_validate_graded_zero_fiber():
    rep = validate_graded(zero_odd_bundle())
    assert rep.passed


def test_validate_graded_broken_associativity():
    bundle = clock_shift_bundle(3)
    bad = bundle.mult[("1", "1")].copy()
    bundle.mult[("1", "1")] = bad[:, :, [1, 2, 0]]
    rep = validate_graded(bundle)
    assert not rep.axioms["c_associativity"].passed


def test_validate_graded_checks_exchange_when_not_surjective():
    # odd times odd misses the C block of M_2 (+) C; values pinned before the
    # exchange check was batched
    rep = validate_graded(m2_plus_c_bundle())
    d = rep.axioms["d_adjoint_exchange"]
    assert rep.passed and "skipped" not in d.detail
    assert d.residual == 0.0


def skewed_odd_fiber(bundle, seed):
    """The same bundle on a random non-orthogonal basis of the odd fiber."""
    rng = np.random.default_rng(seed)
    p = np.eye(2) + (rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))) / 2
    inv = np.linalg.inv(p)
    odd = bundle.fibers["1"]
    inner = np.einsum("rp,sq,rsuv->pquv", p.conj(), p, odd.inner_tensor)
    bundle.fibers["1"] = Correspondence(odd.algebra, 2, inv @ odd.left @ p,
                                        inv @ odd.right @ p, inner)
    change = {"0": (np.eye(3), np.eye(3)), "1": (p, inv)}
    for (a, b), t in list(bundle.mult.items()):
        ab = str((int(a) + int(b)) % 2)
        bundle.mult[(a, b)] = np.einsum("st,tpq,pi,qj->sij", change[ab][1], t,
                                        change[a][0], change[b][0])
    return bundle


def test_validate_graded_exchange_on_skewed_basis():
    rep = validate_graded(skewed_odd_fiber(m2_plus_c_bundle(), 0))
    d = rep.axioms["d_adjoint_exchange"]
    assert rep.passed and "skipped" not in d.detail
    assert d.residual < 1e-12


def test_validate_graded_exchange_detects_broken_product():
    # perturb odd times odd inside the M_2 block only: still not surjective
    bundle = m2_plus_c_bundle()
    rng = np.random.default_rng(0)
    t = bundle.mult[("1", "1")].copy()
    t[:2] += 1e-3 * rng.standard_normal((2, 2, 2))
    bundle.mult[("1", "1")] = t
    d = validate_graded(bundle).axioms["d_adjoint_exchange"]
    assert not d.passed and "skipped" not in d.detail
    assert abs(d.residual - 0.00114328628169965) < 1e-12


def test_from_graded_outputs_validate():
    for bundle in (group_algebra_bundle(cyclic_group(3)), clock_shift_bundle(3),
                   zero_odd_bundle(), m2_plus_c_bundle()):
        functor = from_graded(bundle)
        assert validate_functor(functor).passed


def test_rank_one_odd_fiber_functor(backends):
    # order-two grading of C^3: the odd module is one-dimensional over the
    # two-block fixed algebra
    act = c3_swap_grading()
    spec = spectral_functor(backends["dual_z2"], act)
    assert spec.fixed.algebra.blocks == (1, 1)
    assert spec.functor.module("1").dim == 1
    assert validate_functor(spec.functor).passed
