import numpy as np
import pytest

from qact.algebras import BlockAlgebra
from qact.blockdecomp import row_spaces
from qact.fixtures import (
    action_corpus,
    standard_backends,
    swap_action,
    translation_action,
    trivial_action,
)
from qact.functors import validate_functor
from qact.repcat import cyclic_backend
from qact.thresholds import RANK_TOL
from qact.actions import (
    Action,
    ActionError,
    EquivariantModule,
    InSpan,
    _kron,
    _tensor_comodule,
    canonical_module_iso,
    fixed_point_algebra,
    fullness_check,
    functor_roundtrip_check,
    module_from_algebra,
    module_functor,
    roundtrip_check,
    spectral_basis,
    spectral_functor,
    verify_natural_iso,
)

TOL = 1e-9


def apply(act, element, mat):
    """alpha_g(x) for an action of the automorphism kind."""
    b = act.algebra
    return b.from_coords(act.map_matrix(element) @ b.coords(mat))


def module_tensor_irrep(backend, module, label):
    """M (x) H for the representation space H of one irreducible; carrier
    index order is (module index, representation index)."""
    d = backend.irrep(label).dim
    dim = module.dim * d
    b = module.action.algebra
    right = _kron(module.right, np.eye(d))
    # <m_p (x) e_i, m_q (x) e_j> = delta_ij <m_p, m_q>
    inner = np.zeros((module.dim, d, module.dim, d, b.n, b.n), dtype=complex)
    inner[:, range(d), :, range(d)] = module.inner
    inner = inner.reshape(dim, dim, b.n, b.n)
    return EquivariantModule(module.action, dim, right, inner,
                             _tensor_comodule(backend, module.comodule, label))


def module_direct_sum(m1, m2):
    """M1 (+) M2, the carriers' bases concatenated."""
    act = m1.action
    dim = m1.dim + m2.dim
    b = act.algebra
    right = np.zeros((b.dim, dim, dim), dtype=complex)
    inner = np.zeros((dim, dim, b.n, b.n), dtype=complex)
    right[:, : m1.dim, : m1.dim] = m1.right
    right[:, m1.dim:, m1.dim:] = m2.right
    inner[: m1.dim, : m1.dim] = m1.inner
    inner[m1.dim:, m1.dim:] = m2.inner
    com = np.array([block_diag(w1, w2) for w1, w2 in zip(m1.comodule, m2.comodule)])
    return EquivariantModule(act, dim, right, inner, comodule=com)


def block_diag(a, b):
    out = np.zeros((a.shape[0] + b.shape[0], a.shape[1] + b.shape[1]), dtype=complex)
    out[: a.shape[0], : a.shape[1]] = a
    out[a.shape[0]:, a.shape[1]:] = b
    return out


def null_space(stacked):
    """The kernel half of the one SVD of blockdecomp.row_spaces."""
    return row_spaces(stacked)[1]


@pytest.fixture(scope="module")
def backends():
    return standard_backends()


@pytest.fixture(scope="module")
def corpus():
    return action_corpus()


def test_fixed_algebra_trivial(backends):
    act = trivial_action(backends["z2"], BlockAlgebra((2, 1)))
    fixed = fixed_point_algebra(backends["z2"], act)
    assert sorted(fixed.algebra.blocks) == [1, 2]


def test_fixed_algebra_swap(backends):
    fixed = fixed_point_algebra(backends["z2"], swap_action(backends["z2"]))
    assert fixed.algebra.blocks == (1,)
    # the embedding sends 1 to the identity of the diagonal pair
    np.testing.assert_allclose(fixed.unit_images[0], np.eye(2), atol=TOL)


def test_fixed_algebra_translation(backends):
    act = translation_action(backends["s3"])
    fixed = fixed_point_algebra(backends["s3"], act)
    assert fixed.algebra.blocks == (1,)
    np.testing.assert_allclose(fixed.unit_images[0], np.eye(6), atol=TOL)


def test_spectral_basis_dims(backends, corpus):
    bk, act = corpus["swap_c2"]
    assert spectral_basis(backends[bk], act, "chi0").shape[0] == 1
    assert spectral_basis(backends[bk], act, "chi1").shape[0] == 1
    bk, act = corpus["s3_translation"]
    for label, mult in (("triv", 1), ("sign", 1), ("std", 2)):
        assert spectral_basis(backends[bk], act, label).shape[0] == mult


def test_peter_weyl_dimension_identity(backends, corpus):
    # exact integer identity over the whole corpus
    for name, (bk, act) in corpus.items():
        backend = backends[bk]
        total = 0
        for label in backend.labels:
            d = backend.irrep(label).dim
            total += d * spectral_basis(backend, act, label).shape[0]
        assert total == act.algebra.dim, name


def test_trivial_action_kills_nontrivial_modules(backends):
    act = trivial_action(backends["z2"], BlockAlgebra((1,)))
    spec = spectral_functor(backends["z2"], act)
    assert spec.functor.module("chi0").dim == 1
    assert spec.functor.module("chi1").dim == 0
    assert validate_functor(spec.functor).passed


def test_roundtrip_corpus(backends, corpus):
    for name, (bk, act) in corpus.items():
        cert = roundtrip_check(backends[bk], act)
        assert cert["passed"], (name, cert["residuals"])
        worst = max(v for k, v in cert["residuals"].items() if k != "invertibility")
        assert worst < TOL, name


def test_roundtrip_trivial_identity(backends):
    act = trivial_action(backends["z2"], BlockAlgebra((1,)))
    cert = roundtrip_check(backends["z2"], act)
    np.testing.assert_allclose(cert["isomorphism"], np.eye(1), atol=TOL)


def test_functor_roundtrip(backends, corpus):
    for name in ("swap_c2", "s3_translation", "m3_clock_shift",
                  "s3_group_algebra", "m2_pauli_grading"):
        bk, act = corpus[name]
        spec = spectral_functor(backends[bk], act)
        iso = functor_roundtrip_check(spec.functor)
        assert iso["passed"], (name, iso["residuals"])


def test_module_functor_matches_spectral(backends, corpus):
    for name in ("swap_c2", "inner_m2", "m3_clock_shift",
                  "m2_pauli_grading", "s3_group_algebra"):
        bk, act = corpus[name]
        spec, mf, iso = canonical_module_iso(backends[bk], act)
        assert iso["passed"], (name, iso["residuals"])
        assert validate_functor(mf.functor).passed


def test_module_functor_direct_sum_blocks(backends, corpus):
    bk, act = corpus["swap_c2"]
    mod = module_from_algebra(backends[bk], act)
    mod2 = module_direct_sum(mod, mod)
    mf1 = module_functor(backends[bk], mod)
    mf2 = module_functor(backends[bk], mod2)
    assert mf1.endomorphisms.algebra.blocks == (1,)
    assert mf2.endomorphisms.algebra.blocks == (2,)
    for label in backends[bk].labels:
        assert mf2.functor.module(label).dim == 4 * mf1.functor.module(label).dim
    assert validate_functor(mf2.functor).passed


def test_module_functor_trivial_action_hom_spaces(backends):
    # trivial symmetry on C: the equivariant maps C^k -> C^k (x) H reduce to
    # plain linear maps into the invariant part of H, so the module dimension
    # at each label is k^2 times the multiplicity of the trivial subspace
    backend = backends["s3"]
    act = trivial_action(backend, BlockAlgebra((1,)))
    base = module_from_algebra(backend, act)
    mod = module_direct_sum(base, base)  # C^2 with trivial structure
    mf = module_functor(backend, mod)
    for label in backend.labels:
        rep = backend.atom(label)
        triv_mult = len(backend.mor_basis(backend.trivial_rep(), rep))
        assert mf.functor.module(label).dim == 4 * triv_mult
    assert validate_functor(mf.functor).passed


def test_fullness_on_algebra_and_tensors(backends, corpus):
    for name, (bk, act) in corpus.items():
        backend = backends[bk]
        mod = module_from_algebra(backend, act)
        cert = fullness_check(backend, mod)
        assert cert["passed"], name
        assert cert["lower_constant"] > 0
        label = backend.labels[-1]
        cert2 = fullness_check(backend, module_tensor_irrep(backend, mod, label))
        assert cert2["passed"], name


def test_fullness_fails_on_proper_submodule(backends):
    # the first summand of C (+) C with the trivial symmetry is not full
    backend = backends["z2"]
    cert = fullness_check(backend, non_full_module(backend))
    assert not cert["passed"]
    assert cert["max_rank"] == 1  # strictly less than the rank of the algebra


def test_fullness_of_the_zero_module_is_a_failed_certificate(backends):
    # the zero module under the Z2 translation: no candidate, rank 0
    backend = backends["z2"]
    act = translation_action(backend)
    b = act.algebra
    zero = EquivariantModule(act, 0, np.zeros((b.dim, 0, 0), dtype=complex),
                             np.zeros((0, 0, b.n, b.n), dtype=complex),
                             comodule=np.zeros((act.group.order, 0, 0), dtype=complex))
    cert = fullness_check(backend, zero)
    assert not cert["passed"]
    assert cert["max_rank"] == 0
    assert cert["chosen"] == [] and cert["gram"] is None


def reference_fullness_check(backend, module, tol=TOL, min_eig=1e-8):
    """fullness_check as it was before it ran on stacks: every candidate
    prefix summed again pair by pair, and the isometry checked one pair of
    matrix units and one pair of tuple components at a time."""
    from qact.actions import _tuple_space

    b = module.action.algebra
    chosen = []

    def inner_mat(x, y):
        return np.einsum("p,q,pquv->uv", x.conj(), y, module.inner)

    def y_gram(picks):
        total = np.zeros((b.n, b.n), dtype=complex)
        for label, arr in picks:
            for i in range(arr.shape[0]):
                total += inner_mat(arr[i], arr[i])
        return total

    all_gram = np.zeros((b.n, b.n), dtype=complex)
    candidates = []
    for label in backend.labels:
        space = _tuple_space(backend, module, label)
        for t in range(space.shape[0]):
            candidates.append((label, space[t]))
            for i in range(space.shape[1]):
                all_gram += inner_mat(space[t][i], space[t][i])
    full_rank = int(np.linalg.matrix_rank((all_gram + all_gram.conj().T) / 2, tol=1e-8))

    gram = None
    for label, arr in candidates:
        chosen.append((label, arr))
        gram = y_gram(chosen)
        herm = (gram + gram.conj().T) / 2
        if np.linalg.eigvalsh(herm).min() > min_eig:
            break
    else:
        rank = 0
        if gram is not None:
            rank = int(np.linalg.matrix_rank((gram + gram.conj().T) / 2, tol=1e-8))
        return {"passed": False, "chosen": [label for label, _ in chosen], "gram": gram,
                "lower_constant": 0.0, "residuals": {}, "max_rank": rank}

    bound = gram - y_gram(chosen)
    bound_violation = -float(np.linalg.eigvalsh((bound + bound.conj().T) / 2).min())

    w, v = np.linalg.eigh((gram + gram.conj().T) / 2)
    gram_inv_half = (v / np.sqrt(w)) @ v.conj().T
    worst_iso = 0.0
    for bu in b.basis():
        for bv in b.basis():
            q1 = gram_inv_half @ bu
            q2 = gram_inv_half @ bv
            val = np.zeros((b.n, b.n), dtype=complex)
            for label, arr in chosen:
                for i in range(arr.shape[0]):
                    xi = np.einsum("k,kpq,q->p", b.coords(q1), module.right, arr[i])
                    xj = np.einsum("k,kpq,q->p", b.coords(q2), module.right, arr[i])
                    val += inner_mat(xi, xj)
            worst_iso = max(worst_iso, float(np.abs(val - bu.conj().T @ bv).max()))

    residuals = {
        "lower_bound_violation": max(bound_violation, 0.0),
        "embedding_isometry": worst_iso,
    }
    passed = bound_violation < 1e4 * tol and worst_iso < 1e-6
    return {"passed": passed, "chosen": [label for label, _ in chosen], "gram": gram,
            "lower_constant": 1.0, "residuals": residuals, "max_rank": full_rank}


def non_full_module(backend):
    """The first summand of C (+) C under the trivial symmetry."""
    act = trivial_action(backend, BlockAlgebra((1, 1)))
    right = np.zeros((2, 1, 1), dtype=complex)
    right[0] = 1.0  # only the first block acts
    inner = np.zeros((1, 1, 2, 2), dtype=complex)
    inner[0, 0, 0, 0] = 1.0
    com = np.ones((backend.group.order, 1, 1), dtype=complex)
    return EquivariantModule(act, 1, right, inner, comodule=com)


def test_tuple_spaces_of_a_grading_are_its_inverse_grade_components(backends, corpus):
    # the spectral subspace of the label gamma in a graded module is spanned
    # by the carrier basis vectors of grade gamma^-1 (Z3 and S3 tell gamma
    # from its inverse)
    from qact.actions import _tuple_space

    for name, backend, module in corpus_modules(backends, corpus):
        if module.action.kind != "grading":
            continue
        g = module.action.group
        for target in (module, module_tensor_irrep(backend, module, backend.labels[-1])):
            grades = np.array(module_grades(target))
            for label in backend.labels:
                space = _tuple_space(backend, target, label)[:, 0]
                units = np.eye(target.dim)[grades == g.elements[g.inv(g.index(label))]]
                np.testing.assert_allclose(space.conj().T @ space, units.T @ units,
                                           rtol=0, atol=1e-12, err_msg=f"{name} {label}")


def test_fullness_check_agrees_with_the_pairwise_reference(backends, corpus):
    # the module of every corpus action and its tensor product with the
    # last label, modules whose bases are not aligned with the axes (Haar
    # conjugated as the block ladder does it) and a module that is not full
    import pathlib
    import sys

    from qact.fixtures import clock_shift_grading
    from qact.repcat import dual_backend

    bench = str(pathlib.Path(__file__).resolve().parents[1] / "perfbench")
    if bench not in sys.path:
        sys.path.insert(0, bench)
    from workloads import conjugated

    cases = []
    for name, (bk, act) in sorted(corpus.items()):
        backend = backends[bk]
        mod = module_from_algebra(backend, act)
        cases.append((name, backend, mod))
        cases.append((f"{name} x {backend.labels[-1]}", backend,
                      module_tensor_irrep(backend, mod, backend.labels[-1])))
    for n in (3, 4):
        act = conjugated(clock_shift_grading(n), 1)
        backend = dual_backend(act.group)
        cases.append((f"conjugated clock{n}", backend, module_from_algebra(backend, act)))
    act = conjugated(trivial_action(backends["z2"], BlockAlgebra((3,))), 1)
    cases.append(("conjugated trivial m3", backends["z2"],
                  module_from_algebra(backends["z2"], act)))
    cases.append(("not full", backends["z2"], non_full_module(backends["z2"])))

    failed = []
    for name, backend, mod in cases:
        got, want = fullness_check(backend, mod), reference_fullness_check(backend, mod)
        assert sorted(got) == sorted(want), name
        assert got["passed"] == want["passed"], name
        if not got["passed"]:
            failed.append(name)
        for key in ("chosen", "lower_constant", "max_rank"):
            assert got[key] == want[key], (name, key)
        np.testing.assert_allclose(got["gram"], want["gram"], rtol=0, atol=1e-12, err_msg=name)
        assert sorted(got["residuals"]) == sorted(want["residuals"]), name
        for key, value in want["residuals"].items():
            assert abs(got["residuals"][key] - value) <= 1e-12, (name, key)
            assert value != 0.0 or got["residuals"][key] == 0.0, (name, key)
    assert failed == ["not full"]


def test_verify_natural_iso_accepts_phase_rotation(backends, corpus):
    # rotate every module basis by a phase: the inverse phases are a natural
    # unitary identification again
    bk, act = corpus["m3_clock_shift"]
    f1 = spectral_functor(backends[bk], act).functor
    rng = np.random.default_rng(0)
    f2 = spectral_functor(backends[bk], act).functor
    phases = {}
    for label in f2.backend.labels:
        mod = f2.module(label)
        if label == f2.backend.trivial_label or mod.dim == 0:
            phases[label] = 1.0
            continue
        phases[label] = np.exp(2j * np.pi * rng.random())
    new_phi = {}
    for (a, b, c), tensors in f2.phi.items():
        scale = phases[a] * phases[b] / phases[c]
        new_phi[(a, b, c)] = [scale * t for t in tensors]
    f2 = type(f2)(f2.backend, f2.algebra, f2.modules, new_phi)
    assert validate_functor(f2).passed
    maps = {l: np.eye(f1.module(l).dim, dtype=complex) / phases[l] for l in phases}
    iso = verify_natural_iso(f1, f2, maps)
    assert iso["passed"], iso["residuals"]


def test_verify_natural_iso_rejects_wrong_map(backends, corpus):
    bk, act = corpus["swap_c2"]
    f1 = spectral_functor(backends[bk], act).functor
    maps = {l: np.eye(f1.module(l).dim, dtype=complex) for l in f1.backend.labels}
    maps["chi1"] = 2.0 * maps["chi1"]  # not inner-product preserving
    iso = verify_natural_iso(f1, f1, maps)
    assert not iso["passed"]


def test_action_validation_rejects_broken_homomorphism(backends):
    backend = backends["z2"]
    algebra = BlockAlgebra((1, 1))
    bad = np.array([[0, 1], [0.5, 0]], dtype=complex)
    act = Action("automorphism", algebra, backend.group,
                 maps={"0": np.eye(2, dtype=complex), "1": bad})
    assert not act.validate()["passed"]


def reference_action_validate(act, tol=TOL):
    """Action.validate one matrix unit, pair of units and product of
    component rows at a time."""
    from qact.actions import _outside_span

    b, g = act.algebra, act.group
    rep = {"kind": act.kind}
    if act.kind == "automorphism":
        units = b.basis()
        worst_hom = float(np.abs(act.map_matrix(g.elements[g.identity]) - np.eye(b.dim)).max())
        worst_mult = worst_star = 0.0
        for x in g.elements:
            tx = act.map_matrix(x)
            for y in g.elements:
                xy = g.elements[g.times(g.index(x), g.index(y))]
                worst_hom = max(worst_hom, float(np.abs(
                    tx @ act.map_matrix(y) - act.map_matrix(xy)).max()))
            for u in units:
                worst_star = max(worst_star, float(np.abs(
                    apply(act, x, u.conj().T) - apply(act, x, u).conj().T).max()))
                for v in units:
                    worst_mult = max(worst_mult, float(np.abs(
                        apply(act, x, u @ v) - apply(act, x, u) @ apply(act, x, v)).max()))
        rep.update(homomorphism=worst_hom, multiplicative=worst_mult,
                   star_preserving=worst_star)
        rep["passed"] = max(worst_hom, worst_mult, worst_star) < 100 * tol
        return rep
    stacked = np.vstack([act.component_rows(x) for x in g.elements])
    rep["spanning"] = bool(np.linalg.svd(stacked, compute_uv=False).min() > 1e-8)
    worst_mult = worst_star = 0.0
    for x in g.elements:
        rx = act.component_rows(x)
        for row in rx:
            starred = b.coords(b.from_coords(row).conj().T)
            worst_star = max(worst_star, _outside_span(
                starred, act.component_rows(g.elements[g.inv(g.index(x))])))
        for y in g.elements:
            txy = act.component_rows(g.elements[g.times(g.index(x), g.index(y))])
            for r1 in rx:
                for r2 in act.component_rows(y):
                    prod = b.coords(b.from_coords(r1) @ b.from_coords(r2))
                    worst_mult = max(worst_mult, _outside_span(prod, txy))
    rep["component_products"] = worst_mult
    rep["component_star"] = worst_star
    rep["passed"] = bool(rep["spanning"] and max(worst_mult, worst_star) < 100 * tol)
    return rep


def test_action_validation_keeps_the_per_unit_results(corpus):
    # one stack per group element: automorphisms keep every bit, gradings
    # (one least-squares solve per component pair) keep the golden rule
    for name, (_, act) in sorted(corpus.items()):
        got, want = act.validate(), reference_action_validate(act)
        assert sorted(got) == sorted(want), name
        for key, value in want.items():
            if act.kind == "automorphism" or not isinstance(value, float):
                assert got[key] == value, (name, key)
            else:
                assert abs(got[key] - value) <= 1e-15, (name, key)
                assert value != 0.0 or got[key] == 0.0, (name, key)


def test_invariant_tuples_keep_the_bits_of_the_kron_system(backends, corpus):
    # the spectral subspaces of a rebuilt algebra's coaction: one stacked
    # Kronecker system, against the vstack of np.kron blocks it replaced
    from qact.actions import _spectral_tuples
    from qact.reconstruction import build_algebra

    seen = 0
    for name, (bk, act) in sorted(corpus.items()):
        backend = backends[bk]
        if backend.kind != "group":
            continue
        alg = build_algebra(spectral_functor(backend, act).functor)
        g = backend.group
        coaction = np.array([alg.coaction_matrix(g.inv(gi)) for gi in range(g.order)])
        for label in backend.labels:
            mats = backend.irrep(label).matrices
            d = backend.irrep(label).dim
            reference = null_space(np.vstack([
                np.kron(mats[gi], coaction[gi]) - np.eye(d * alg.dim)
                for gi in range(g.order)
            ])).reshape(-1, d, alg.dim)
            got = _spectral_tuples(backend, label, coaction)
            assert got.tobytes() == reference.tobytes(), (name, label)
            seen += 1
    assert seen >= 12


def test_builder_asks_only_for_the_fusion_triples_that_occur(monkeypatch):
    # on Z6 translation each alpha x beta has one constituent, so the
    # builder asks for 36 intertwiner bases, not 6^3
    from qact.repcat import Backend

    calls = []
    mor_basis = Backend.mor_basis

    def counted(self, u, v):
        calls.append((u.atoms, v.atoms))
        return mor_basis(self, u, v)

    backend = cyclic_backend(6)
    act = translation_action(backend)
    monkeypatch.setattr(Backend, "mor_basis", counted)
    spec = spectral_functor(backend, act)
    assert len(calls) == 36
    assert len(spec.functor.phi) == 36


def test_verify_natural_iso_accepts_module_rotation(backends, corpus):
    # rotate the two-dimensional module by a unitary and transport the
    # tensors; the rotation is a natural unitary identification
    from qact.algebras import Correspondence
    from qact.functors import TensorFunctorData

    bk, act = corpus["s3_translation"]
    f1 = spectral_functor(backends[bk], act).functor
    rng = np.random.default_rng(5)
    w = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))[0]
    ws = {
        l: (np.eye(f1.module(l).dim, dtype=complex) if l != "std" else w)
        for l in f1.backend.labels
    }
    mods = {}
    for l in f1.backend.labels:
        m = f1.module(l)
        v = ws[l]
        mods[l] = Correspondence(
            m.algebra, m.dim,
            np.einsum("pa,kab,qb->kpq", v, m.left, v.conj()),
            np.einsum("pa,kab,qb->kpq", v, m.right, v.conj()),
            np.einsum("pa,qb,abuv->pquv", v.conj(), v, m.inner_tensor),
        )
    phi2 = {}
    for (a, b, c), ts in f1.phi.items():
        phi2[(a, b, c)] = [
            np.einsum("gc,cab,pa,qb->gpq", ws[c], t, ws[a].conj(), ws[b].conj())
            for t in ts
        ]
    f2 = TensorFunctorData(f1.backend, f1.algebra, mods, phi2)
    assert validate_functor(f2).passed
    iso = verify_natural_iso(f1, f2, ws)
    assert iso["passed"], iso["residuals"]


def test_spectral_adjoint_contraction_formula(backends, corpus):
    # for spectral data the adjoint of Y -> (multiplication tensor of X and Y)
    # is contraction against the adjoints of X's components
    from qact.algebras import adjoints_of
    from qact.functors import Realization

    bk, act = corpus["s3_translation"]
    spec = spectral_functor(backends[bk], act)
    functor = spec.functor
    b = act.algebra
    real = Realization(functor)
    u_obj = real.atom_object("std")
    v_obj = real.atom_object("std")
    word = real.object(u_obj.atoms + v_obj.atoms)
    basis_std = spec.bases["std"]
    flat = basis_std.reshape(basis_std.shape[0], -1)
    pinv = np.linalg.pinv(flat.T)
    # the maps Y -> F_2(m_p (x) Y) of the basis vectors m_p
    maps = real.f2_tensor(u_obj, v_obj).transpose(1, 0, 2)
    adj = adjoints_of(maps, v_obj.carrier, word.carrier)
    assert adj.adjointable.all()
    for p, s_adj in enumerate(adj.adjoints):
        x_mats = [b.from_coords(basis_std[p, i]) for i in range(2)]
        for k, (gamma, wk) in enumerate(word.components):
            gb = spec.bases[gamma]
            for q in range(gb.shape[0]):
                # concrete invariant tensor of the carrier basis element
                z = np.zeros((4, b.dim), dtype=complex)
                for c in range(gb.shape[1]):
                    z += np.outer(wk[:, c], gb[q, c])
                out = np.zeros((2, b.dim), dtype=complex)
                for j in range(2):
                    for i in range(2):
                        zmat = b.from_coords(z[i * 2 + j])
                        out[j] += b.coords(x_mats[i].conj().T @ zmat)
                expected = pinv @ out.reshape(-1)
                col = np.zeros(word.dim, dtype=complex)
                col[word.slot(k).start + q] = 1.0
                np.testing.assert_allclose(s_adj @ col, expected, atol=1e-9)


def test_expectation_faithful_on_every_action(backends, corpus):
    # the averaging (or unit-component) projection composed with the trace
    # is positive definite on every corpus algebra
    for name, (bk, act) in corpus.items():
        b = act.algebra
        if act.kind == "automorphism":
            proj = sum(act.map_matrix(x) for x in act.group.elements)
            proj = np.asarray(proj) / act.group.order
        else:
            stacked = []
            owners = []
            for x in act.group.elements:
                for row in act.component_rows(x):
                    stacked.append(row)
                    owners.append(x)
            v = np.array(stacked)
            sel = np.diag([
                1.0 if o == act.group.elements[act.group.identity] else 0.0
                for o in owners
            ])
            proj = v.T @ sel @ np.linalg.inv(v.T)
        units = b.basis()
        gram = np.zeros((b.dim, b.dim), dtype=complex)
        for p, up in enumerate(units):
            for q, uq in enumerate(units):
                e_val = b.from_coords(proj @ b.coords(up.conj().T @ uq))
                gram[p, q] = np.trace(e_val)
        eigs = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
        assert eigs.min() > 1e-9, name


def _unitary(n, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))[0]


def test_null_space_of_empty_stacks():
    # no equations: every vector solves them; no unknowns: nothing to solve for
    ker = null_space(np.zeros((0, 3)))
    assert ker.shape == (3, 3)
    np.testing.assert_allclose(ker @ ker.conj().T, np.eye(3), atol=1e-12)
    assert null_space(np.zeros((4, 0))).shape == (0, 0)


def test_null_space_of_rotated_matrix():
    # rank 2 in C^4 with kernel spanned by two columns of a random unitary
    u, v = _unitary(5, 0), _unitary(4, 1)
    sing = np.zeros((5, 4))
    sing[0, 0], sing[1, 1] = 3.0, 1e-3
    stacked = u @ sing @ v.conj().T
    ker = null_space(stacked)
    assert ker.shape == (2, 4)
    np.testing.assert_allclose(stacked @ ker.T, 0, atol=1e-12)
    np.testing.assert_allclose(ker @ ker.conj().T, np.eye(2), atol=1e-12)
    np.testing.assert_allclose(ker.T @ ker.conj(), v[:, 2:] @ v[:, 2:].conj().T,
                               atol=1e-12)
    # the other half of the same SVD spans the rows, the complement of the kernel
    span, same = row_spaces(stacked)
    assert span.shape == (2, 4) and same.tobytes() == ker.tobytes()
    np.testing.assert_allclose(stacked @ span.conj().T @ span, stacked, atol=1e-12)
    np.testing.assert_allclose(span.conj().T @ span + ker.T @ ker.conj(), np.eye(4), atol=1e-12)


def test_null_space_counts_missing_rows():
    # two proportional equations in five unknowns: nullity 5 - 2 + 1
    u = _unitary(5, 2)
    stacked = np.outer([1.0, 2.0], u[:, 0].conj())
    ker = null_space(stacked)
    assert ker.shape == (4, 5)
    np.testing.assert_allclose(stacked @ ker.T, 0, atol=1e-12)
    np.testing.assert_allclose(ker @ ker.conj().T, np.eye(4), atol=1e-12)


def test_null_space_of_tall_stack_matches_full_svd():
    # 40 equations of rank 3 in six unknowns: the thin SVD keeps the kernel
    rng = np.random.default_rng(6)
    stacked = (rng.standard_normal((40, 3)) @ _unitary(6, 4)[:3]) * 2.0
    ker = null_space(stacked)
    _, s, vh = np.linalg.svd(stacked)
    full = vh[int(np.sum(s > RANK_TOL)):].conj()
    assert ker.shape == full.shape == (3, 6)
    np.testing.assert_allclose(ker.T @ ker.conj(), full.T @ full.conj(), atol=1e-12)


def test_in_span_coordinates_in_rotated_basis():
    u = _unitary(6, 3)
    basis = u[:3].reshape(3, 2, 3)  # entries shaped like irrep-dim tuples
    span = InSpan(basis, "rotated")
    coef = np.array([1.0, -2.0j, 0.5])
    np.testing.assert_allclose(span((coef @ u[:3]).reshape(2, 3)), coef, atol=1e-12)
    with pytest.raises(ActionError):
        span(u[4].reshape(2, 3))


def test_in_span_empty_basis():
    span = InSpan(np.zeros((0, 2, 3)), "empty")
    assert span(np.zeros((2, 3))).shape == (0,)
    with pytest.raises(ActionError):
        span(np.ones((2, 3)))
    # basis vectors of length zero: every coordinate reads zero
    np.testing.assert_array_equal(InSpan(np.zeros((2, 0)), "void")(np.zeros(0)), 0)


# -- the module-functor system, bit for bit -----------------------------------


def reference_equivariant_system(backend, module, label):
    """The stacked system of the equivariant maps M -> M (x) H_label as it
    was assembled before the right-linearity rows were shared: per label,
    through module_tensor_irrep, one np.kron pair per block."""
    act = module.action
    target = module_tensor_irrep(backend, module, label)
    rows = []
    for k in range(act.algebra.dim):
        rk, rk2 = module.right[k], target.right[k]
        rows.append(np.kron(np.eye(target.dim), rk.T) - np.kron(rk2, np.eye(module.dim)))
    if act.kind == "automorphism":
        for w, w2 in zip(module.comodule, target.comodule):
            rows.append(np.kron(np.eye(target.dim), w.T) - np.kron(w2, np.eye(module.dim)))
    else:
        grades, target_grades = module_grades(module), module_grades(target)
        mask = np.zeros((target.dim, module.dim))
        for r in range(target.dim):
            for c in range(module.dim):
                if target_grades[r] != grades[c]:
                    mask[r, c] = 1.0
        rows.append(np.diag(mask.reshape(-1)))
    return np.vstack(rows)


def module_grades(module):
    """The grade of each carrier basis vector of a graded module: the
    element whose projection holds it."""
    diagonals = np.einsum("xcc->cx", module.comodule)
    assert set(diagonals.ravel()) <= {0, 1} and (diagonals.sum(axis=1) == 1).all()
    return tuple(module.action.group.elements[x] for x in diagonals.argmax(axis=1))


def test_tensor_comodule_is_the_kron_of_the_maps_or_the_left_translated_grades(
        backends, corpus):
    # M (x) H carries W(g) (x) U(g) for the group kind, and for the dual kind
    # gives m (x) h the grade label^-1 mu for m of grade mu: on S3 the other
    # order, mu label^-1, differs
    seen = set()
    for name, backend, module in corpus_modules(backends, corpus):
        g = module.action.group
        for label in backend.labels:
            target = module_tensor_irrep(backend, module, label)
            if module.action.kind == "automorphism":
                want = [np.kron(w, u) for w, u in
                        zip(module.comodule, backend.irrep(label).matrices)]
                assert np.array_equal(target.comodule, want), (name, label)
            else:
                gamma = g.inv(g.index(label))
                want = tuple(g.elements[g.times(gamma, g.index(mu))]
                             for mu in module_grades(module))
                assert module_grades(target) == want, (name, label)
            seen.add((module.action.kind, g.order))
    assert ("grading", 6) in seen


def thin_svd_null_space(stacked):
    """The kernel through the thin SVD of the whole stack, with no QR first."""
    _, s, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    return vh[int(np.sum(s > RANK_TOL)):].conj()


def corpus_modules(backends, corpus):
    """Every corpus action's algebra as a module over itself (both kinds),
    and two direct sums, one of each kind."""
    out = []
    for name, (bk, act) in sorted(corpus.items()):
        out.append((name, backends[bk], module_from_algebra(backends[bk], act)))
    for name in ("swap_c2", "m2_pauli_grading"):
        bk, act = corpus[name]
        mod = module_from_algebra(backends[bk], act)
        out.append((f"{name}+{name}", backends[bk], module_direct_sum(mod, mod)))
    return out


def test_equivariant_maps_keep_the_bits_of_the_kron_system(backends, corpus, monkeypatch):
    # the shared right-linearity rows and the batched Kronecker products give
    # the per-label kron system byte for byte (signed zeros included), and
    # the QR-first kernel gives the basis of its thin SVD byte for byte;
    # s3_translation's std is the 2-dimensional irreducible
    from qact import actions, blockdecomp

    stacks = []

    def captured(stacked):
        stacks.append(stacked)
        return row_spaces(stacked)

    monkeypatch.setattr(blockdecomp, "row_spaces", captured)
    seen = set()
    for name, backend, module in corpus_modules(backends, corpus):
        for label in backend.labels:
            d = backend.irrep(label).dim
            rows = actions._right_linearity_rows(module, d)
            basis = actions._equivariant_maps(backend, module, label, rows)
            reference = reference_equivariant_system(backend, module, label)
            assert stacks.pop().tobytes() == reference.tobytes(), (name, label)
            expect = thin_svd_null_space(reference).reshape(-1, module.dim, d, module.dim)
            assert basis.tobytes() == expect.transpose(0, 2, 1, 3).tobytes(), (name, label)
            seen.add((module.action.kind, d))
    assert seen == {("automorphism", 1), ("automorphism", 2), ("grading", 1)}


def test_null_space_keeps_the_thin_svd_bits_on_every_tall_stack(backends, corpus, monkeypatch):
    # every tall stack the corpus and the Z8 translation send to the kernel
    # routine (spectral subspaces, equivariant maps, the center solve, tuple
    # spaces); bit identity holds with the LAPACK the suite runs on
    from qact import blockdecomp

    stacks = []

    def captured(stacked):
        stacks.append(stacked)
        return row_spaces(stacked)

    monkeypatch.setattr(blockdecomp, "row_spaces", captured)
    z8 = cyclic_backend(8)
    runs = [(backends[bk], act) for bk, act in corpus.values()] + [(z8, translation_action(z8))]
    for backend, act in runs:
        canonical_module_iso(backend, act)
        fullness_check(backend, module_from_algebra(backend, act))
    tall = [s for s in stacks if s.shape[0] > s.shape[1]]
    # 83 tall stacks, up to the 1024 x 64 equivariant-map systems of Z8
    assert len(tall) >= 80
    assert max(s.shape for s in tall) == (1024, 64)
    for stacked in tall:
        assert null_space(stacked).tobytes() == thin_svd_null_space(stacked).tobytes()


@pytest.mark.parametrize("dtype", [float, complex])
def test_null_space_keeps_the_thin_svd_bits_at_every_height(dtype):
    # QR runs first only where LAPACK's own SVD would run it, so the heights
    # just below that crossover keep their bits as well
    rng = np.random.default_rng(7)
    cols = 6

    def draw(shape):
        x = rng.standard_normal(shape)
        return x + 1j * rng.standard_normal(shape) if dtype is complex else x

    for rows in range(cols + 1, 3 * cols + 1):
        stacked = draw((rows, 3)) @ draw((3, cols))  # rank 3: a kernel of dimension 3
        ker = null_space(stacked)
        assert ker.shape == (3, cols)
        assert ker.tobytes() == thin_svd_null_space(stacked).tobytes(), rows


def test_canonical_module_iso_solves_each_nontrivial_label_once(monkeypatch):
    # the base algebra is given, so End(M) (the trivial label) is not solved
    # for; the Z8 labels share one set of right-linearity rows
    from qact import actions

    backend = cyclic_backend(8)
    act = translation_action(backend)
    solved, built = [], []
    maps, rows = actions._equivariant_maps, actions._right_linearity_rows

    def counted_maps(backend, module, label, right_rows):
        solved.append(label)
        return maps(backend, module, label, right_rows)

    def counted_rows(module, d):
        built.append(d)
        return rows(module, d)

    monkeypatch.setattr(actions, "_equivariant_maps", counted_maps)
    monkeypatch.setattr(actions, "_right_linearity_rows", counted_rows)
    _, _, iso = canonical_module_iso(backend, act)
    assert iso["passed"]
    assert len(solved) == 7 and backend.trivial_label not in solved
    assert sorted(solved) == sorted(set(solved))
    assert built == [1]


def reference_functor_from_subspaces(backend, base, bases, ambient, product, pairing, name):
    """functor_from_subspaces one element at a time: every product,
    pairing and projection on its own, the library's callbacks called on
    single elements."""
    from qact.actions import Correspondence
    from qact.functors import TensorFunctorData

    elements = {label: [[ambient(v) for v in vecs] for vecs in bases[label]]
                for label in backend.labels}
    spans = {label: InSpan(bases[label], label) for label in backend.labels}
    units = [xs[0] for xs in elements[backend.trivial_label]]

    modules = {}
    for label in backend.labels:
        tuples = elements[label]
        m = len(tuples)
        left = np.zeros((base.dim, m, m), dtype=complex)
        right = np.zeros((base.dim, m, m), dtype=complex)
        inner = np.zeros((m, m, base.n, base.n), dtype=complex)
        for k, unit in enumerate(units):
            for q, xs in enumerate(tuples):
                left[k, :, q] = spans[label]([product(unit, x) for x in xs])
                right[k, :, q] = spans[label]([product(x, unit) for x in xs])
        for p, xs in enumerate(tuples):
            for q, ys in enumerate(tuples):
                inner[p, q] = pairing(np.array(xs), np.array(ys))
        modules[label] = Correspondence(base, m, left, right, inner)

    phi = {}
    live = [label for label in backend.labels if elements[label]]
    for alpha in live:
        for beta in live:
            pair = backend.tensor(backend.atom(alpha), backend.atom(beta))
            targets = {}
            for gamma in live:
                basis_t = backend.mor_basis(pair, backend.atom(gamma))
                if basis_t:
                    targets[gamma] = basis_t
                    shape = (len(elements[gamma]), len(elements[alpha]), len(elements[beta]))
                    phi[(alpha, beta, gamma)] = [np.zeros(shape, dtype=complex) for _ in basis_t]
            for p, xs in enumerate(elements[alpha]):
                for q, ys in enumerate(elements[beta]):
                    prods = np.array([product(x, y) for x in xs for y in ys])
                    for gamma, basis_t in targets.items():
                        for arr, t in zip(phi[(alpha, beta, gamma)], basis_t):
                            arr[:, p, q] = spans[gamma](np.einsum("cz,z...->c...", t, prods))
    return TensorFunctorData(backend, base, modules, phi, name=name)


def builder_cases(backends, corpus):
    """Every corpus action, the actions of both benchmark ladders (the
    clock-shift gradings conjugated as the block ladder does) and trivial
    actions whose nontrivial spectral subspaces are empty."""
    from qact.fixtures import clock_shift_grading
    from qact.groups import cyclic_group
    from qact.repcat import dual_backend, symmetric3_backend
    from test_reconstruction import conjugated_clock_shift

    cases = [(name, backends[bk], act) for name, (bk, act) in sorted(corpus.items())]
    for n in (3, 4, 5):
        cases.append((f"clock{n}", dual_backend(cyclic_group(n)), conjugated_clock_shift(n, 1)))
    cases.append(("clock3_aligned", dual_backend(cyclic_group(3)), clock_shift_grading(3)))
    for n in (4, 8, 12):
        backend = cyclic_backend(n)
        cases.append((f"z{n}_translation", backend, translation_action(backend)))
    s3 = symmetric3_backend()
    cases.append(("s3_translation", s3, translation_action(s3)))
    for label, backend, blocks in (("z2", backends["z2"], (2,)), ("z2", backends["z2"], (3,)),
                                   ("z3", cyclic_backend(3), (2, 1)), ("s3", s3, (2,))):
        cases.append((f"trivial_{label}_{blocks}", backend,
                      trivial_action(backend, BlockAlgebra(blocks))))
    return cases


def test_builder_stacks_keep_the_bits_of_the_per_element_builder(backends, corpus,
                                                                   monkeypatch):
    # spectral and module functors serialize byte for byte (signed zeros
    # included) as the per-element builder gives them, in stacks of the
    # default size and in stacks of one pair; the module functors of
    # clock4, clock5 and z12, whose dense equivariant-map systems take from
    # half a second to several seconds, are left out
    from qact import actions, serialize

    def functors(backend, act, module):
        out = [actions.spectral_functor(backend, act).functor]
        if module:
            out.append(actions.canonical_module_iso(backend, act)[1].functor)
            out.append(actions.module_functor(backend, module_from_algebra(backend, act)).functor)
        return [serialize.dumps(serialize.functor_to_json(f)) for f in out]

    seen_empty = False
    for name, backend, act in builder_cases(backends, corpus):
        module = name not in ("clock4", "clock5", "z12_translation")
        got = functors(backend, act, module)
        with monkeypatch.context() as patch:
            patch.setattr(actions, "CHUNK", 1)
            single = functors(backend, act, module)
            patch.setattr(actions, "functor_from_subspaces", reference_functor_from_subspaces)
            want = functors(backend, act, module)
        assert got == want, name
        assert single == want, name
        spec = actions.spectral_functor(backend, act).functor
        seen_empty |= any(spec.module(label).dim == 0 for label in backend.labels)
    assert seen_empty


REFERENCE_ATTEMPTS = 8


def reference_decompose_star_algebra(basis, n, seed=0):
    """The random-probe decomposition that the deterministic refinement of
    `blockdecomp.decompose_star_algebra` replaced, for an algebra of every
    dimension: a central probe drawn from `np.random.default_rng(seed)`,
    then a pair of probes for each summand M_d with d >= 2, each retried up
    to REFERENCE_ATTEMPTS times."""
    from qact import blockdecomp

    basis = blockdecomp._orthonormal_span([np.asarray(b, dtype=complex) for b in basis], n)
    rows = [np.array([(b @ c - c @ b).reshape(-1) for c in basis]).T for b in basis]
    center = [sum(c * b for c, b in zip(row, basis)) for row in row_spaces(np.vstack(rows))[1]]
    center_sa = blockdecomp._selfadjoint_basis(center, n)
    unit = blockdecomp._unit_of(basis, n)
    rng = np.random.default_rng(seed)
    for _ in range(REFERENCE_ATTEMPTS):
        coeffs = rng.standard_normal(len(center_sa))
        probe = sum(c * h for c, h in zip(coeffs, center_sa))
        projections = blockdecomp.eigenprojections(probe, unit)
        if len(projections) != len(center_sa):
            continue
        try:
            return reference_units_from_projections(basis, projections, n, rng)
        except blockdecomp.DecompositionError:
            pass
    raise blockdecomp.DecompositionError("the reference probes failed")


def reference_units_from_projections(basis, projections, n, rng):
    from qact import blockdecomp

    summands = []
    for p in projections:
        comp = blockdecomp._orthonormal_span([p @ b @ p for b in basis], n)
        d = int(round(np.sqrt(len(comp))))
        if d * d != len(comp):
            raise blockdecomp.DecompositionError("summand dimension is not a square")
        rank = int(round(np.trace(p).real))
        if rank % d:
            raise blockdecomp.DecompositionError("summand rank incompatible with block size")
        summands.append((d, rank // d, reference_matrix_units(comp, p, d, rank // d, rng)))
    images = [unit for _, _, units in summands for row in units for unit in row]
    return blockdecomp.SubalgebraBlocks(BlockAlgebra(tuple(d for d, _, _ in summands)),
                                        np.array(images), tuple(m for _, m, _ in summands), n)


def reference_matrix_units(comp_basis, p, d, mult, rng):
    """Matrix units of one summand from two random probes: the eigenspaces
    of the first inside p are the e_ii, and the polar parts of the second
    compressed between them the e_1i."""
    from qact import blockdecomp
    from qact.thresholds import RELATIVE_RANK_TOL, TRACE_SLACK, UNIT_RELATIONS_TOL

    if d == 1:
        return [[p]]
    for _ in range(REFERENCE_ATTEMPTS):
        h = sum(c * b for c, b in zip(rng.standard_normal(len(comp_basis)), comp_basis))
        qs = blockdecomp.eigenprojections((h + h.conj().T) / 2, p)
        if len(qs) != d or any(abs(np.trace(q).real - mult) > TRACE_SLACK for q in qs):
            continue
        s = sum(c * b for c, b in zip(rng.standard_normal(len(comp_basis)), comp_basis))
        row = [qs[0]]
        for i in range(1, d):
            vmat = qs[0] @ s @ qs[i]
            wg, vg = np.linalg.eigh(vmat.conj().T @ vmat)
            keep = wg > RELATIVE_RANK_TOL * max(1.0, float(wg.max()))
            if int(np.sum(keep)) != mult:
                break
            row.append(vmat @ (vg[:, keep] / np.sqrt(wg[keep])) @ vg[:, keep].conj().T)
        if len(row) < d:
            continue
        units = [[row[i].conj().T @ row[j] for j in range(d)] for i in range(d)]
        units[0] = row
        for i in range(1, d):
            units[i][0] = row[i].conj().T
        if blockdecomp._unit_relations_residual(units, p, d) < UNIT_RELATIONS_TOL:
            return units
    raise blockdecomp.DecompositionError("failed to build matrix units for a summand")


@pytest.fixture(scope="module")
def corpus_decompositions(backends, corpus):
    """(case, spanning set, n) of every decomposition asked for by the
    corpus actions, Z8 and Z12 translation through `canonical_module_iso`
    (whose spectral functor decomposes the fixed-point algebra) and through
    `module_functor` without a base, and by the fixed-point algebras of the
    conjugated clock-shift gradings of M_3 and M_4."""
    from qact import actions
    from qact.fixtures import translation_action
    from qact.groups import cyclic_group
    from qact.repcat import dual_backend
    from test_reconstruction import conjugated_clock_shift

    calls = []
    decompose = actions.decompose_star_algebra

    def recording(basis, n):
        calls.append((case, [np.array(b) for b in basis], n))
        return decompose(basis, n)

    cases = [(name, backends[bk], act) for name, (bk, act) in sorted(corpus.items())]
    for n in (8, 12):
        backend = cyclic_backend(n)
        cases.append((f"z{n}_translation", backend, translation_action(backend)))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(actions, "decompose_star_algebra", recording)
        for case, backend, act in cases:
            canonical_module_iso(backend, act)
            module_functor(backend, module_from_algebra(backend, act))
        for n in (3, 4):
            case = f"clock{n}"
            fixed_point_algebra(dual_backend(cyclic_group(n)), conjugated_clock_shift(n, 1))
    return calls


def test_a_one_dimensional_algebra_keeps_the_probe_paths_bits(corpus_decompositions,
                                                             monkeypatch):
    # the rule draws nothing; where the unit is the identity it keeps the
    # probe path's bytes, elsewhere (End(M) of the group-algebra gradings,
    # whose unit lies a few 1e-15 from I) its values to 1e-12
    from qact import blockdecomp

    def no_draw(seed=None):
        raise AssertionError("a one-dimensional algebra drew a number")

    ones = [(case, basis, n) for case, basis, n in corpus_decompositions
            if len(blockdecomp._orthonormal_span(basis, n)) == 1]
    identity, near = set(), set()
    for case, basis, n in ones:
        for seed in range(4):
            with monkeypatch.context() as patch:
                patch.setattr(np.random, "default_rng", no_draw)
                got = blockdecomp.decompose_star_algebra(basis, n)
            want = reference_decompose_star_algebra(basis, n, seed=seed)
            assert got.algebra.blocks == want.algebra.blocks == (1,), case
            assert got.multiplicities == want.multiplicities, case
            if np.array_equal(want.unit_images[0], np.eye(n)):
                assert got.unit_images.tobytes() == want.unit_images.tobytes(), case
                identity.add(case)
            else:
                np.testing.assert_allclose(got.unit_images, want.unit_images, rtol=0,
                                           atol=1e-12, err_msg=case)
                near.add(case)
    assert {"s3_translation", "z8_translation", "z12_translation"} <= identity | near
    assert identity


def gauge_free(dec):
    """(block, multiplicity, central projection sum_i e_ii) of each summand
    of a decomposition, in its order."""
    out, k = [], 0
    for d, m in zip(dec.algebra.blocks, dec.multiplicities):
        out.append((d, m, sum(dec.unit_images[k + i * d + i] for i in range(d))))
        k += d * d
    return out


def test_a_larger_algebra_keeps_the_probe_paths_summands(corpus_decompositions):
    # the matrix units are a choice of basis, so only their sorted blocks,
    # and each summand's block, multiplicity and central projection, are
    # compared with the probe path's
    from qact import blockdecomp

    cases = set()
    for case, basis, n in corpus_decompositions:
        if len(blockdecomp._orthonormal_span(basis, n)) < 2:
            continue
        got = blockdecomp.decompose_star_algebra(basis, n)
        for seed in range(4):
            want = reference_decompose_star_algebra(basis, n, seed=seed)
            assert sorted(got.algebra.blocks) == sorted(want.algebra.blocks), case
            for d, m, z in gauge_free(got):
                assert sum(d == e and m == k and np.abs(z - y).max() < 1e-12
                           for e, k, y in gauge_free(want)) == 1, (case, seed)
        cases.add(case)
    assert {"inner_m2", "trivial_m2", "clock3", "clock4"} <= cases


def test_every_corpus_algebra_decomposes_without_a_draw(corpus_decompositions, monkeypatch):
    from qact import blockdecomp

    def no_draw(seed=None):
        raise AssertionError("the decomposition drew a number")

    monkeypatch.setattr(np.random, "default_rng", no_draw)
    sizes = set()
    for case, basis, n in corpus_decompositions:
        dec = blockdecomp.decompose_star_algebra(basis, n)
        assert dec.unit_images.shape == (dec.algebra.dim, n, n), case
        sizes.add(dec.algebra.dim)
    assert 1 in sizes and max(sizes) > 1


SEPARATED_ONLY_JOINTLY = [
    ((2, 2, 2), (1, 1, 1)), ((2,), (3,)), ((1, 2, 3), (2, 1, 1)), ((3, 3), (2, 1)),
    ((2, 2), (2, 2)), ((1, 1, 1, 1), (1, 1, 1, 1)), ((4,), (1,)),
]


@pytest.mark.parametrize("conjugate", [False, True], ids=["axis-aligned", "haar"])
@pytest.mark.parametrize("blocks, mults", SEPARATED_ONLY_JOINTLY,
                         ids=[f"{b}x{m}" for b, m in SEPARATED_ONLY_JOINTLY])
def test_block_algebras_that_one_center_element_cannot_split(blocks, mults, conjugate):
    # the matrix units e_ij (x) 1_m of each block, on the axes and conjugated
    # by a Haar unitary; on the axes the first center element of (2, 2, 2),
    # (1, 2, 3) and (1, 1, 1, 1) leaves two summands together, and every
    # M_d with d >= 2 has its minimal projection split out of its unit
    from qact import blockdecomp
    from qact.thresholds import UNIT_RELATIONS_TOL

    n = sum(d * m for d, m in zip(blocks, mults))
    basis, off = [], 0
    for d, m in zip(blocks, mults):
        for i in range(d):
            for j in range(d):
                e = np.zeros((n, n), dtype=complex)
                e[off:off + d * m, off:off + d * m] = np.kron(np.outer(np.eye(d)[i], np.eye(d)[j]),
                                                             np.eye(m))
                basis.append(e)
        off += d * m
    if conjugate:
        rng = np.random.default_rng(n)
        u, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        basis = [u @ e @ u.conj().T for e in basis]
    dec = blockdecomp.decompose_star_algebra(basis, n)
    assert sorted(zip(dec.algebra.blocks, dec.multiplicities)) == sorted(zip(blocks, mults))
    summands, k = gauge_free(dec), 0
    for d, _, z in summands:
        units = [[dec.unit_images[k + i * d + j] for j in range(d)] for i in range(d)]
        assert blockdecomp._unit_relations_residual(units, z, d) < UNIT_RELATIONS_TOL
        k += d * d
    np.testing.assert_allclose(sum(z for _, _, z in summands), np.eye(n), atol=1e-12)
