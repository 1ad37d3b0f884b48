import json

import numpy as np
import pytest

from qact.algebras import (
    BlockAlgebra,
    Correspondence,
    algebra_as_correspondence,
    validate_correspondences,
    zero_correspondence,
)
from qact.fixtures import (
    action_corpus,
    c3_swap_grading,
    clock_shift_bundle,
    m2_plus_c_bundle,
    negative_odd_fiber_bundle,
    standard_backends,
    zero_odd_bundle,
)
from qact.functors import (
    GRADED_KEYS,
    AxiomCheck,
    IncompleteDataError,
    Realization,
    TensorFunctorData,
    ValidationReport,
    _unit_axiom_residual,
    from_graded,
    group_algebra_bundle,
    validate_functor,
    validate_graded,
)
from qact.groups import cyclic_group
from qact.actions import canonical_module_iso, spectral_functor
from qact.algebras import adjoints_of, module_linear_residuals
from qact.repcat import Backend, cyclic_backend, dual_backend
from test_algebras import module_inner, reference_adjoints_of, tensor_semi_inner
from test_reconstruction import conjugated_clock_shift, random_element

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


def test_f2_tensor_looks_up_each_fusion_triple_once(backends, monkeypatch):
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    lookup = functor.phi_tensors
    calls = []

    def counted(*key):
        calls.append(key)
        return lookup(*key)

    monkeypatch.setattr(functor, "phi_tensors", counted)
    real = Realization(functor)
    std = real.atom_object("std")
    ss = real.object(std.atoms * 2)
    # std occurs three times in std^3 and twice in the carrier pairs below,
    # so every triple with std in it is met in several blocks
    for left, right in ((ss, std), (std, ss), (ss, ss)):
        real.f2_tensor(left, right)
    backend = functor.backend
    labels = backend.labels
    fusion = {
        (a, b, c) for a in labels for b in labels for c in labels
        if backend.mor_dim(backend.tensor(backend.atom(a), backend.atom(b)), backend.atom(c))
    }
    assert sorted(calls) == sorted(fusion)


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
        bar = functor.backend.irrep(label).conj
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
        parts = real.involution_partners(label, np.eye(mod.dim))
        f2_bar = real.f2_tensor(u_obj, bar_obj)
        f2_back = real.f2_tensor(bar_obj, u_obj)
        for p, (x, part) in enumerate(zip(np.eye(mod.dim), parts)):
            for q, y in enumerate(np.eye(mbar.dim)):
                # <X., Y> agrees with the conjugation pairing of X and Y
                lhs = module_inner(mbar, part, y)
                rhs = algebra.from_coords(f_rbar_star @ f2_bar[:, p, q])
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)
            for q, y in enumerate(np.eye(mod.dim)):
                # and the original inner product is recovered from the partner
                lhs = module_inner(mod, x, y)
                rhs = algebra.from_coords(f_r_star @ f2_back[:, :, q] @ part)
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
        parts = real.involution_partners(label, np.eye(mod.dim))
        for x, part in zip(np.eye(mod.dim), parts):
            for q in range(minv.dim):
                y = np.zeros(minv.dim, dtype=complex)
                y[q] = 1.0
                lhs = module_inner(minv, part, y)
                prod = np.einsum("tpq,p,q->t", t, x, y)
                rhs = functor.algebra.from_coords(prod)
                np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_involution_partner_unit(z2_translation_functor):
    real = Realization(z2_translation_functor)
    unit = z2_translation_functor.algebra.coords(
        z2_translation_functor.algebra.identity()
    )
    part = real.involution_partners("0", unit[None])[0]
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
    lhs, px, py = real.involution_partners("chi1", np.array([c * x + y, x, y]))
    rhs = np.conj(c) * px + py
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
        mbar = functor.module(functor.backend.irrep(label).conj)
        x = rng.standard_normal(mod.dim) + 1j * rng.standard_normal(mod.dim)
        part = real.involution_partners(label, x[None])[0]
        t1 = np.trace(module_inner(mod, x, x))
        t2 = np.trace(module_inner(mbar, part, part))
        assert abs(t1 - t2) < 1e-8 * max(1.0, abs(t1))


def adjoint_maps(real, u, v):
    """The adjoints of the maps Y -> F_2(m_p (x) Y) : F(v) -> F(u * v), one
    per basis vector m_p of F(u)."""
    maps = real.f2_tensor(u, v).transpose(1, 0, 2)
    adj = adjoints_of(maps, v.carrier, real.object(u.atoms + v.atoms).carrier)
    assert adj.adjointable.all()
    return adj.adjoints


def test_morphism_matrix_is_linear_at_every_scale(backends):
    # the Schur floor is relative to the norm of T, so F(c w) = c F(w) also
    # where |c| is below SCHUR_FLOOR, which an absolute floor would send to 0
    bk, act = action_corpus()["s3_translation"]
    real = Realization(spectral_functor(backends[bk], act).functor)
    obj = real.object((("std", False), ("std", False)))
    label, w = obj.components[0]
    atom = real.atom_object(label)
    fw = real.morphism_matrix(w, atom, obj)
    assert np.abs(fw).max() == pytest.approx(1.0)
    for c in (1e-15, 1e-17):
        got = real.morphism_matrix(c * w, atom, obj)
        np.testing.assert_allclose(got, c * fw, rtol=1e-12, atol=0)
        assert np.abs(got).max() == pytest.approx(c)


def test_s_adjoint_naturality(backends):
    # the adjoint of left multiplication is natural against intertwiners
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    real = Realization(functor)
    backend = functor.backend
    u_obj = real.atom_object("std")
    v_obj = real.object((("std", False), ("std", False)))
    pair = backend.tensor(backend.atom("std"), backend.atom("std"))
    big = adjoint_maps(real, u_obj, v_obj)
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
            for s_small, s_big in zip(adjoint_maps(real, u_obj, vprime), big):
                lhs = s_small @ f_iot
                rhs = f_t @ s_big
                np.testing.assert_allclose(lhs, rhs, atol=1e-8)


def test_star_independent_of_conjugation_phases(backends):
    # rotating the conjugation solutions by phases must not change the
    # involution of the rebuilt algebra
    from qact.reconstruction import build_algebra

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
        s1 = alg1.model.star(x)
        s2 = alg2.model.star(x)
        np.testing.assert_allclose(s1, s2, atol=1e-9)


def test_validate_graded_clock_shift():
    rep = validate_graded(clock_shift_bundle(3))
    assert rep.passed
    assert rep.axioms["d_adjoint_exchange"].detail.get("skipped")


def test_validate_graded_zero_fiber():
    rep = validate_graded(zero_odd_bundle())
    assert rep.passed


def broken_associativity_bundle():
    bundle = clock_shift_bundle(3)
    bad = bundle.mult[("1", "1")].copy()
    bundle.mult[("1", "1")] = bad[:, :, [1, 2, 0]]
    return bundle


def test_validate_graded_broken_associativity():
    rep = validate_graded(broken_associativity_bundle())
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


def broken_product_bundle():
    # perturb odd times odd inside the M_2 block only: still not surjective
    bundle = m2_plus_c_bundle()
    rng = np.random.default_rng(0)
    t = bundle.mult[("1", "1")].copy()
    t[:2] += 1e-3 * rng.standard_normal((2, 2, 2))
    bundle.mult[("1", "1")] = t
    return bundle


def test_validate_graded_exchange_detects_broken_product():
    d = validate_graded(broken_product_bundle()).axioms["d_adjoint_exchange"]
    assert not d.passed and "skipped" not in d.detail
    assert abs(d.residual - 0.00114328628169965) < 1e-12


def test_validate_graded_rejects_negative_odd_fiber():
    # the odd fiber is no correspondence; the graded identities still hold
    axioms = validate_graded(negative_odd_fiber_bundle()).axioms
    assert [(k, c.residual, c.passed) for k, c in sorted(axioms.items())] == [
        ("a_unit_fiber", 0.0, True), ("b_units", 0.0, True), ("c_associativity", 0.0, True),
        ("d_adjoint_exchange", 0.0, True), ("isometry", 0.0, True),
        ("modules_wellformed", float("inf"), False)]
    assert "skipped" not in axioms["d_adjoint_exchange"].detail


def one_missing_exchange_adjoint(monkeypatch, modules):
    """Make the first adjoint solve out of a word F(bc), not a module, report
    its first map as not adjointable, with residual 10 * TOL."""
    from qact import functors

    solve = functors._adjoints

    def patched(jobs, tol):
        out = solve(jobs, tol)
        first = next(n for n, job in enumerate(jobs) if all(job[1] is not m for m in modules))
        out[first].residuals[0], out[first].adjointable[0] = 10 * TOL, False
        return out

    monkeypatch.setattr(functors, "_adjoints", patched)


def test_missing_exchange_adjoint_fails_with_its_residual(monkeypatch, backends):
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    one_missing_exchange_adjoint(monkeypatch, functor.modules.values())
    v = validate_functor(functor).axioms["v_adjointability"]
    assert v.residual == 10 * TOL and not v.passed
    assert 10 * TOL in v.detail["checks"].values()


def test_validate_graded_fails_on_a_missing_exchange_adjoint(monkeypatch):
    # within 100 * TOL, but a missing adjoint fails the axiom
    bundle = m2_plus_c_bundle()
    one_missing_exchange_adjoint(monkeypatch, bundle.fibers.values())
    d = validate_graded(bundle).axioms["d_adjoint_exchange"]
    assert d.residual == 10 * TOL and not d.passed


GRADED_BUNDLES = {
    **{f"clock_shift_{n}": lambda n=n: clock_shift_bundle(n) for n in range(2, 8)},
    **{f"group_algebra_z{n}": lambda n=n: group_algebra_bundle(cyclic_group(n))
       for n in (2, 3, 5)},
    "zero_odd": zero_odd_bundle,
    "m2_plus_c": m2_plus_c_bundle,
    "skewed": lambda: skewed_odd_fiber(m2_plus_c_bundle(), 0),
    "broken_associativity": broken_associativity_bundle,
    "broken_product": broken_product_bundle,
}


@pytest.mark.parametrize("name", sorted(GRADED_BUNDLES))
def test_validate_graded_is_validate_functor_renamed(name):
    bundle = GRADED_BUNDLES[name]()
    graded = validate_graded(bundle).axioms
    full = validate_functor(from_graded(bundle)).axioms
    assert sorted(graded) == sorted(GRADED_KEYS.values())
    for key, renamed in GRADED_KEYS.items():
        got, want = graded[renamed], full[key]
        if "skipped" in got.detail:
            assert renamed == "d_adjoint_exchange" and (got.residual, got.passed) == (0.0, True)
        else:
            assert (got.residual, got.passed, got.detail) == (want.residual, want.passed, {}), key


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


# -- the word-based validator as a reference ----------------------------------


def reference_f2_tensor(real, left, right):
    """F_2 on one pair of words assembled block by block, as f2_tensor did
    before it became a stack of one."""
    target = real.object(left.atoms + right.atoms)
    out = np.zeros((target.dim, left.dim, right.dim), dtype=complex)
    for k, (lk, wk) in enumerate(target.components):
        for i, (li, ui) in enumerate(left.components):
            for j, (lj, vj) in enumerate(right.components):
                dims = [real.functor.module(label).dim for label in (lk, li, lj)]
                if 0 in dims:
                    continue
                basis, tensors = real._fusion_data(li, lj, lk)
                kron = (ui[:, None, :, None] * vj[None, :, None, :]).reshape(
                    ui.shape[0] * vj.shape[0], ui.shape[1] * vj.shape[1]
                )
                compressed = wk.conj().T @ kron
                block = np.zeros(dims, dtype=complex)
                for t_m, phi_m in zip(basis, tensors):
                    coeff = np.trace(t_m.conj().T @ compressed)
                    if abs(coeff) > 1e-16:
                        block += coeff * phi_m
                out[target.slot(k), left.slot(i), right.slot(j)] += block
    return out


class ReferenceRealization(Realization):
    """A realization whose F_2 is the block-by-block reference."""

    def f2_tensor(self, left, right):
        key = (left.atoms, right.atoms)
        if key not in self._f2:
            self._f2[key] = reference_f2_tensor(self, left, right)
        return self._f2[key]


def test_f2_tensor_matches_block_by_block_assembly(backends):
    # words up to length 4, on multiplicity spaces of dimension up to 3
    bk, act = action_corpus()["s3_translation"]
    functor = spectral_functor(backends[bk], act).functor
    real, ref = Realization(functor), ReferenceRealization(functor)
    words = [(), ("std",), ("sign", "std"), ("std", "std"), ("std", "std", "std")]
    for left in words:
        for right in words:
            l_atoms = tuple((x, False) for x in left)
            r_atoms = tuple((x, False) for x in right)
            got = real.f2_tensor(real.object(l_atoms), real.object(r_atoms))
            want = ref.f2_tensor(ref.object(l_atoms), ref.object(r_atoms))
            assert np.array_equal(got, want)


def _exchange_residuals(adjoints, t_bc, t_a_bc, bc, abc, t_ab_c, tol):
    """The exchange identity F_2(S_p* y (x) z) = S_p* F_2(y (x) z) for a
    stack of adjoints S_p* : F(ab) -> F(b), one per basis vector m_p of F(a).

    The adjoints of the maps S_p : F(bc) -> F(abc) of the same vectors,
    slices of t_a_bc, come from one batch solve.  Returns that batch and the
    largest entry of lhs - rhs per p, meaningful where the batch found an
    adjoint.
    """
    big = adjoints_of(np.moveaxis(t_a_bc, 1, 0), bc, abc, tol)
    lhs = np.einsum("tqr,pqs->ptsr", t_bc, adjoints)
    rhs = np.einsum("pts,sqr->ptqr", big.adjoints, t_ab_c)
    return big, np.abs(lhs - rhs).max(axis=(1, 2, 3), initial=0.0)


def _isometry_residual(t, inner, ma, mb):
    """Axiom (ii)'s residual of one pair, contracted with einsum one operand
    at a time: the largest entry of <t(x (x) y), t(x' (x) y')> -
    <x (x) y, x' (x) y'>."""
    half = np.einsum("srz,tsuv->trzuv", t, inner)
    lhs = np.einsum("tpq,trzuv->pqrzuv", t.conj(), half)
    n = inner.shape[-1]
    lhs = lhs.reshape(ma.dim * mb.dim, ma.dim * mb.dim, n, n)
    return float(np.abs(lhs - tensor_semi_inner(ma, mb)).max())


def reference_validate_functor(functor, tol=1e-9):
    """validate_functor as it was written before it ran on fusion data: every
    word a*b*c is realized, and axioms (iv) and (v) run triple by triple
    through the block-by-block F_2 on those words."""
    real = ReferenceRealization(functor)
    backend = functor.backend
    labels = list(backend.labels)
    axioms = {}

    canonical = algebra_as_correspondence(functor.algebra)
    m_e = functor.module(backend.trivial_label)
    if m_e.dim != canonical.dim:
        res_i = float("inf")
    else:
        res_i = max(
            float(np.abs(m_e.left - canonical.left).max()),
            float(np.abs(m_e.right - canonical.right).max()),
            float(np.abs(m_e.inner_tensor - canonical.inner_tensor).max()),
        )
    axioms["i_unit_object"] = AxiomCheck(res_i, res_i < tol)

    worst_mod = 0.0
    for label in labels:
        mod = functor.module(label)
        if mod.dim == 0:
            continue
        rep = validate_correspondences([mod], tol)[0]
        worst_mod = max(
            worst_mod, rep["actions"], rep["left_right_commute"], rep["inner_hermitian"],
            rep["inner_module_linear"], 0.0 if rep["nondegenerate"] else float("inf"),
        )
    axioms["modules_wellformed"] = AxiomCheck(worst_mod, worst_mod < 100 * tol)

    res_ii = 0.0
    detail_ii = {}
    for a in labels:
        for b in labels:
            ma, mb = functor.module(a), functor.module(b)
            if ma.dim == 0 or mb.dim == 0:
                continue
            oa, ob = real.atom_object(a), real.atom_object(b)
            target = real.object(oa.atoms + ob.atoms)
            r = _isometry_residual(
                real.f2_tensor(oa, ob), target.carrier.inner_tensor, ma, mb
            )
            detail_ii[f"{a},{b}"] = r
            res_ii = max(res_ii, r)
    axioms["ii_isometry"] = AxiomCheck(res_ii, res_ii < tol, {"pairs": detail_ii})

    res_iii = _unit_axiom_residual(real)
    axioms["iii_units"] = AxiomCheck(res_iii, res_iii < tol)

    res_iv = 0.0
    detail_iv = {}
    live = [label for label in labels if functor.module(label).dim]
    for a in live:
        for b in live:
            for c in live:
                oa, ob, oc = (real.atom_object(x) for x in (a, b, c))
                oab = real.object(oa.atoms + ob.atoms)
                obc = real.object(ob.atoms + oc.atoms)
                lhs = np.einsum(
                    "tsr,spq->tpqr", real.f2_tensor(oab, oc), real.f2_tensor(oa, ob)
                )
                rhs = np.einsum(
                    "tps,sqr->tpqr", real.f2_tensor(oa, obc), real.f2_tensor(ob, oc)
                )
                r = float(np.abs(lhs - rhs).max())
                detail_iv[f"{a},{b},{c}"] = r
                res_iv = max(res_iv, r)
    axioms["iv_associativity"] = AxiomCheck(res_iv, res_iv < tol, {"triples": detail_iv})

    res_v = 0.0
    missing = False
    detail_v = {}
    for a in live:
        oa = real.atom_object(a)
        for b in live:
            ob = real.atom_object(b)
            oab = real.object(oa.atoms + ob.atoms)
            s = np.moveaxis(real.f2_tensor(oa, ob), 1, 0)
            lin = module_linear_residuals(s, ob.carrier.right, oab.carrier.right)
            adj = adjoints_of(s, ob.carrier, oab.carrier, tol)
            exchange = {}
            for c in live:
                oc = real.atom_object(c)
                obc = real.object(ob.atoms + oc.atoms)
                exchange[c] = _exchange_residuals(
                    adj.adjoints, real.f2_tensor(ob, oc), real.f2_tensor(oa, obc),
                    obc.carrier, real.object(oa.atoms + obc.atoms).carrier,
                    real.f2_tensor(oab, oc), tol,
                )
            for p in range(len(s)):
                r = float(max(lin[p], adj.residuals[p]))
                detail_v[f"adjoint:{a},{b}:{p}"] = r
                res_v = max(res_v, r)
                if not adj.adjointable[p]:
                    continue
                for c, (big, r2) in exchange.items():
                    r2 = float(r2[p] if big.adjointable[p] else big.residuals[p])
                    missing = missing or not big.adjointable[p]
                    detail_v[f"exchange:{a},{b},{c}:{p}"] = r2
                    res_v = max(res_v, r2)
    axioms["v_adjointability"] = AxiomCheck(res_v, res_v < 100 * tol and not missing,
                                            {"checks": detail_v})
    return ValidationReport(tol, axioms)


def flat_report(rep):
    """(key, value) pairs of a report summary in order, nested keys joined."""
    out = []

    def walk(prefix, node):
        for key, value in node.items():
            if isinstance(value, dict):
                walk(prefix + key + "/", value)
            else:
                out.append((prefix + key, value))

    walk("", rep.summary())
    return out


def assert_same_report(got, want):
    """Same keys in the same order, equal flags, residuals within 1e-12 of
    each other, and every zero residual still zero."""
    got, want = flat_report(got), flat_report(want)
    assert [k for k, _ in got] == [k for k, _ in want]
    for (key, g), (_, w) in zip(got, want):
        if isinstance(w, bool):
            assert g is w, key
        elif w == 0.0 or np.isinf(w):
            assert g == w, (key, g, w)
        else:
            assert abs(g - w) <= 1e-12, (key, g, w)


def translation_functor(backend):
    from qact.fixtures import translation_action

    return spectral_functor(backend, translation_action(backend)).functor


def twisted_functor(kind):
    """The cocycle-twisted spectral functor that deform --cross-test validates."""
    from qact.cocycles import deform_functor
    from qact.fixtures import bicharacter_cocycle, group_backend_bicharacter_cocycle

    corpus = action_corpus()
    if kind == "dual":
        bk, act = corpus["z2z2_group_algebra"]
        cocycle = bicharacter_cocycle([2, 2])
    else:
        bk, act = corpus["z2z2_translation"]
        cocycle = group_backend_bicharacter_cocycle()
    return deform_functor(spectral_functor(standard_backends()[bk], act).functor, cocycle)


def perturbed(functor, seed, scale=1e-3):
    """The functor with every phi tensor moved by seeded noise."""
    rng = np.random.default_rng(seed)
    phi = {
        key: [t + scale * (rng.standard_normal(t.shape) + 1j * rng.standard_normal(t.shape))
              for t in tensors]
        for key, tensors in functor.phi.items()
    }
    return TensorFunctorData(functor.backend, functor.algebra, functor.modules, phi)


@pytest.mark.parametrize("name", sorted(action_corpus()))
def test_fusion_validator_matches_word_validator_on_corpus(name, backends):
    # s3_translation holds std three times in std*std*std, where the word
    # basis is part of what a residual means
    bk, act = action_corpus()[name]
    functor = spectral_functor(backends[bk], act).functor
    assert_same_report(validate_functor(functor), reference_validate_functor(functor))


@pytest.mark.parametrize("name", sorted(action_corpus()))
def test_fusion_validator_matches_word_validator_on_module_functors(name, backends):
    bk, act = action_corpus()[name]
    functor = canonical_module_iso(backends[bk], act)[1].functor
    assert_same_report(validate_functor(functor), reference_validate_functor(functor))


@pytest.mark.parametrize("make", [
    lambda: translation_functor(cyclic_backend(8)),
    lambda: spectral_functor(dual_backend(cyclic_group(4)), conjugated_clock_shift(4)).functor,
    lambda: twisted_functor("dual"),
    lambda: twisted_functor("group"),
], ids=["z8_translation", "clock4_conjugated", "twisted_dual_z2z2", "twisted_z2z2"])
def test_fusion_validator_matches_word_validator(make):
    functor = make()
    assert_same_report(validate_functor(functor), reference_validate_functor(functor))


@pytest.mark.parametrize("name,seed", [("s3_translation", 0), ("m3_clock_shift", 1),
                                       ("z2z2_translation", 2), ("inner_m2", 3)])
def test_fusion_validator_matches_word_validator_when_it_fails(name, seed, backends):
    bk, act = action_corpus()[name]
    functor = perturbed(spectral_functor(backends[bk], act).functor, seed)
    rep = validate_functor(functor)
    assert not rep.axioms["iv_associativity"].passed
    assert not rep.axioms["v_adjointability"].passed
    assert_same_report(rep, reference_validate_functor(functor))


def test_validation_realizes_no_word_of_length_three(monkeypatch):
    # the Z12 translation functor as the CLI meets it: read from JSON over a
    # freshly loaded backend, so no cache is warm
    from qact import functors, repcat, serialize

    backend = cyclic_backend(12)
    data = json.loads(serialize.dumps(serialize.functor_to_json(translation_functor(backend))))
    fresh = serialize.backend_from_json(
        json.loads(serialize.dumps(serialize.backend_to_json(backend))))
    functor = serialize.functor_from_json(data, fresh)
    calls = {"decompose": 0, "object": 0, "svd": 0, "lstsq": 0}
    decompose, obj = repcat.Backend.decompose, functors.Realization.object
    svd, lstsq = np.linalg.svd, np.linalg.lstsq

    def counted_decompose(self, u):
        calls["decompose"] += len(u.atoms) == 3
        return decompose(self, u)

    def counted_object(self, atoms):
        calls["object"] += len(tuple(atoms)) == 3
        return obj(self, atoms)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(repcat.Backend, "decompose", counted_decompose)
    monkeypatch.setattr(functors.Realization, "object", counted_object)
    monkeypatch.setattr(np.linalg, "svd", counted("svd", svd))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", lstsq))
    assert validate_functor(functor).passed
    # reference_validate_functor makes 1,728, 5,184, 2,016 and 1,872 of these
    assert calls["decompose"] == 0
    assert calls["object"] == 0
    assert calls["svd"] <= 300
    assert calls["lstsq"] <= 300


def test_isometry_stacks_give_each_pair_its_own_bits(backends):
    # axiom (ii) builds F_2 of all pairs of live labels one stack per layout
    # (Realization.f2_tensors); each pair gets the bits f2_tensor gives it
    # alone, as a stack of one
    functors = [translation_functor(cyclic_backend(8))]
    for name, (bk, act) in sorted(action_corpus().items()):
        functors.append(spectral_functor(backends[bk], act).functor)
        functors.append(canonical_module_iso(backends[bk], act)[1].functor)
    for functor in functors:
        live = [label for label in functor.backend.labels if functor.module(label).dim]
        stacked, alone = Realization(functor), Realization(functor)
        pairs = [(a, b) for a in live for b in live]
        tensors = stacked.f2_tensors([(stacked.atom_object(a), stacked.atom_object(b))
                                      for a, b in pairs])
        for (a, b), t in zip(pairs, tensors):
            one = alone.f2_tensor(alone.atom_object(a), alone.atom_object(b))
            assert t.tobytes() == one.tobytes(), (functor.name, a, b)


def test_validation_builds_no_f2_stack_of_one(monkeypatch):
    # the Z8 functor of module-functor: its 64 pairs share one layout, and so
    # do its 512 triples
    from qact import functors
    from qact.fixtures import translation_action

    backend = cyclic_backend(8)
    functor = canonical_module_iso(backend, translation_action(backend))[1].functor
    sizes = []
    stacked_f2 = functors._stacked_f2

    def counted(real, prods, layout):
        sizes.append(len(prods))
        return stacked_f2(real, prods, layout)

    monkeypatch.setattr(functors, "_stacked_f2", counted)
    assert validate_functor(functor).passed
    assert sizes and min(sizes) > 1
    assert 64 in sizes


def solved_adjoint_jobs(monkeypatch, functor):
    """The (job, result) pairs of every adjoint solve of validate_functor,
    and its axiom (v) check."""
    from qact import functors

    seen, solve = [], functors._adjoints

    def capture(jobs, tol):
        out = solve(jobs, tol)
        seen.extend(zip(jobs, out))
        return out

    monkeypatch.setattr(functors, "_adjoints", capture)
    return seen, validate_functor(functor).axioms["v_adjointability"]


ADJOINT_CASES = [f"{kind} {name}" for name in sorted(action_corpus())
                 for kind in ("spectral", "module")] + ["clock3", "clock4", "clock5"]


@pytest.mark.parametrize("case", ADJOINT_CASES)
def test_shape_solve_matches_lstsq_and_stacks_of_one(case, backends, monkeypatch):
    # every adjoint of axiom (v), solved one shape at a time, against the
    # former lstsq solve on full matrices; each job alone, a stack of one,
    # gets the entries it got in its shape's stack; and axiom (v) reports
    # what it reports with the lstsq solve, every exact zero kept
    from qact import functors

    if case.startswith("clock"):
        n = int(case[-1])
        functor = spectral_functor(dual_backend(cyclic_group(n)),
                                   conjugated_clock_shift(n)).functor
    else:
        kind, name = case.split()
        bk, act = action_corpus()[name]
        functor = (spectral_functor(backends[bk], act).functor if kind == "spectral"
                   else canonical_module_iso(backends[bk], act)[1].functor)
    jobs, got = solved_adjoint_jobs(monkeypatch, functor)
    assert jobs
    for (_, source, maps, target), batch in jobs:
        want = reference_adjoints_of(maps, source, target)
        np.testing.assert_array_equal(batch.adjointable, want.adjointable)
        assert np.abs(batch.adjoints - want.adjoints).max(initial=0.0) <= 1e-12
        assert np.abs(batch.residuals - want.residuals).max(initial=0.0) <= 1e-12
        alone = adjoints_of(maps, source, target, TOL)
        np.testing.assert_array_equal(alone.adjoints, batch.adjoints)
        np.testing.assert_array_equal(alone.residuals, batch.residuals)
    monkeypatch.setattr(functors, "_adjoints", lambda jobs, tol: [
        reference_adjoints_of(maps, source, target, tol) for _, source, maps, target in jobs])
    want = validate_functor(functor).axioms["v_adjointability"]
    assert (got.passed, sorted(got.detail["checks"])) == (want.passed, sorted(want.detail["checks"]))
    for key, value in want.detail["checks"].items():
        assert abs(got.detail["checks"][key] - value) <= 1e-12, key
        assert value != 0.0 or got.detail["checks"][key] == 0.0, key
