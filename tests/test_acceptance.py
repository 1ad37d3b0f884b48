"""Acceptance suite.

One test per shipped acceptance criterion; each prints a PASS/FAIL line so
the whole gate is readable from the pytest -s output.  Tolerances are fixed
here and nowhere else.
"""

import pathlib
import subprocess
import sys

import numpy as np

from qact.algebras import BlockAlgebra, algebra_as_correspondence, zero_correspondence
from qact.fixtures import (
    action_corpus,
    bicharacter_cocycle,
    clock_shift_bundle,
    coboundary_cocycle,
    group_backend_bicharacter_cocycle,
    standard_backends,
    translation_action,
    trivial_action,
)
from qact.functors import (
    TensorFunctorData,
    from_graded,
    group_algebra_bundle,
    validate_functor,
)
from qact.groups import cyclic_group
from qact.actions import (
    functor_roundtrip_check,
    fullness_check,
    module_from_algebra,
    roundtrip_check,
    spectral_basis,
    spectral_functor,
)
from qact.cocycles import (
    deform_action,
    deformation_cross_test,
    trivial_cocycle,
    twist_element,
)
from qact.reconstruction import build_algebra
from qact.staralg import StarAlgebraModel, verify_algebra_iso

from test_actions import module_tensor_irrep
from test_cocycles import block_structure
from test_repcat import conjugate_norms, conjugate_residuals

ROOT = pathlib.Path(__file__).resolve().parents[1]
BACKENDS = standard_backends()
CORPUS = action_corpus()

ROUNDTRIP_NAMES = [
    "trivial_c", "trivial_c2", "trivial_m2",
    "swap_c2", "s3_translation", "m3_clock_shift", "inner_m2",
]


def report(criterion, passed, detail=""):
    tag = "PASS" if passed else "FAIL"
    print(f"ACCEPT-{criterion:02d} {tag} {detail}")
    assert passed, detail


def test_criterion_01_conjugate_equations():
    # all irreps of S3, Z4, Z2xZ2 and the duals of the same groups
    worst = 0.0
    for name in ("s3", "z4", "z2z2", "dual_s3", "dual_z4", "dual_z2z2"):
        backend = BACKENDS[name]
        for label in backend.labels:
            sol = backend.conjugate_solution(label)
            r1, r2 = conjugate_residuals(sol)
            nr, nrb = conjugate_norms(sol)
            dq = backend.irrep(label).dim
            worst = max(worst, r1, r2, abs(nr**2 - dq), abs(nrb**2 - dq))
    report(1, worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_02_peter_weyl_count():
    backend = BACKENDS["s3"]
    act = CORPUS["s3_translation"][1]
    total = 0
    per_irrep_ok = True
    for label in backend.labels:
        d = backend.irrep(label).dim
        mult = spectral_basis(backend, act, label).shape[0]
        per_irrep_ok = per_irrep_ok and (mult == d)
        total += d * mult
    report(2, per_irrep_ok and total == 6, f"sum over irreps = {total}")


def test_criterion_03_roundtrip_corpus():
    worst = 0.0
    ok = True
    for name in ROUNDTRIP_NAMES:
        bk, act = CORPUS[name]
        cert = roundtrip_check(BACKENDS[bk], act)
        ok = ok and cert["passed"]
        worst = max(worst, max(
            v for k, v in cert["residuals"].items() if k != "invertibility"
        ))
    report(3, ok and worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_04_functor_roundtrip():
    functors = []
    for bk, act in CORPUS.values():
        functors.append(spectral_functor(BACKENDS[bk], act).functor)
    functors.append(from_graded(group_algebra_bundle(cyclic_group(2))))
    functors.append(from_graded(clock_shift_bundle(3)))
    worst = 0.0
    ok = True
    for functor in functors:
        iso = functor_roundtrip_check(functor)
        ok = ok and iso["passed"]
        worst = max(worst, max(iso["residuals"].values()))
    report(4, ok and worst < 1e-9, f"worst intertwiner residual {worst:.2e}")


def test_criterion_05_adjointability_witness():
    backend = BACKENDS["z2"]
    algebra = BlockAlgebra((1,))
    line = algebra_as_correspondence(algebra)
    clean = TensorFunctorData(
        backend, algebra,
        {"chi0": line, "chi1": zero_correspondence(algebra)},
        {("chi0", "chi0", "chi0"): [np.ones((1, 1, 1), dtype=complex)]},
    )
    ok_clean = validate_functor(clean).passed
    # inject a sign component whose multiplication is scaled off unitary:
    # associativity survives but the adjoint-exchange identity breaks
    eps = 2e-3
    mutated = TensorFunctorData(
        backend, algebra,
        {"chi0": line, "chi1": algebra_as_correspondence(algebra)},
        {
            ("chi0", "chi0", "chi0"): [np.ones((1, 1, 1), dtype=complex)],
            ("chi0", "chi1", "chi1"): [np.ones((1, 1, 1), dtype=complex)],
            ("chi1", "chi0", "chi1"): [np.ones((1, 1, 1), dtype=complex)],
            ("chi1", "chi1", "chi0"): [(1 + eps) * np.ones((1, 1, 1), dtype=complex)],
        },
    )
    rep = validate_functor(mutated)
    resid_v = rep.axioms["v_adjointability"].residual
    resid_iv = rep.axioms["iv_associativity"].residual
    ok = ok_clean and (not rep.passed) and resid_v > 1e-3 and resid_iv < 1e-12
    report(5, ok, f"clean passes; injected failure at (v): {resid_v:.2e}")


def test_criterion_06_fell_bundle_equivalence():
    bundle = clock_shift_bundle(3)
    functor = from_graded(bundle)
    ok = validate_functor(functor).passed
    alg = build_algebra(functor, validate=False)
    model3 = StarAlgebraModel.of_block_algebra(BlockAlgebra((3,)))
    phi = np.zeros((9, alg.dim), dtype=complex)
    for k in range(3):
        off = alg.offsets[str(k)]
        for p in range(3):
            phi[p * 3 + (p + k) % 3, off + p] = 1.0
    model = alg.model
    iso = verify_algebra_iso(model, model3, phi, tol=1e-9)
    worst = max(iso["multiplicative"], iso["star"], iso["unit"])
    simple = model.center_dimension() == 1 and block_structure(model) == (3,)
    ok = ok and iso["passed"] and simple
    report(6, ok, f"isomorphism residual {worst:.2e}; ideal lattice trivial: {simple}")


def test_criterion_07_cstar_identity():
    rng = np.random.default_rng(0)
    worst = 0.0
    builds = []
    for name in ("swap_c2", "s3_translation", "m3_clock_shift", "inner_m2"):
        bk, act = CORPUS[name]
        builds.append(build_algebra(spectral_functor(BACKENDS[bk], act).functor,
                                    validate=False))
    for alg in builds:
        model = alg.model
        # drawn in the order of one element at a time
        draws = rng.standard_normal((100, 2, alg.dim))
        x = model.prune(draws[:, 0] + 1j * draws[:, 1])
        n = model.operator_norm(x)
        nn = model.operator_norm(model.multiply(model.star(x), x))
        worst = max(worst, float(np.max(abs(nn - n * n) / np.maximum(n * n, 1e-30))))
    report(7, worst < 1e-8, f"worst relative defect {worst:.2e} over 100 x {len(builds)} samples")


def test_criterion_08_primitive_bicharacter_deformation():
    bk, act = CORPUS["z2z2_group_algebra"]
    om = bicharacter_cocycle([2, 2])
    deformed = deform_action(BACKENDS[bk], act, om)
    simple = (deformed.model.center_dimension() == 1
              and block_structure(deformed.model) == (2,))
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
    iso = verify_algebra_iso(deformed.model, m2, phi, tol=1e-9)
    worst = max(iso["multiplicative"], iso["star"], iso["unit"])
    triv = deform_action(BACKENDS[bk], act, trivial_cocycle("dual", g))
    base = StarAlgebraModel.of_block_algebra(act.algebra)
    exact = (np.array_equal(triv.model.table, base.table)
             and np.array_equal(triv.model.star_matrix, base.star_matrix))
    ok = deformed.report["passed"] and simple and iso["passed"] and exact
    report(8, ok and worst < 1e-9,
           f"Pauli residual {worst:.2e}; trivial cocycle exact: {exact}")


def test_criterion_09_deformation_cross_test():
    pairs = []
    bk, act = CORPUS["z2z2_group_algebra"]
    pairs.append((bk, act, bicharacter_cocycle([2, 2])))
    pairs.append((bk, act, trivial_cocycle("dual", act.group)))
    rng = np.random.default_rng(1)
    bk3, act3 = CORPUS["m3_clock_shift"]
    phases = np.exp(2j * np.pi * rng.random(3))
    phases[act3.group.identity] = 1.0
    pairs.append((bk3, act3, coboundary_cocycle(act3.group, phases)))
    act_tr = translation_action(BACKENDS["z2z2"])
    pairs.append(("z2z2", act_tr, group_backend_bicharacter_cocycle()))
    worst = 0.0
    ok = True
    for bk, act, om in pairs:
        backend = BACKENDS[bk]
        deformed = deform_action(backend, act, om)
        cross = deformation_cross_test(backend, act, om, deformed)
        ok = ok and cross["twisted_functor_valid"]
        worst = max(worst, cross["comparison_residual"])
    report(9, ok and worst < 1e-9, f"worst comparison residual {worst:.2e}")


def test_criterion_10_twist_element_consistency():
    worst = 0.0
    cases = [
        ("dual_z2z2", bicharacter_cocycle([2, 2])),
        ("z2z2", group_backend_bicharacter_cocycle()),
    ]
    for bk, om in cases:
        _, rep = twist_element(BACKENDS[bk], om)
        worst = max(worst, rep["conjugation_intertwining"], rep["inverse_identity"])
    report(10, worst < 1e-9, f"worst residual {worst:.2e}")


def test_criterion_11_fullness():
    ok = True
    min_c = np.inf
    for name, (bk, act) in CORPUS.items():
        backend = BACKENDS[bk]
        mod = module_from_algebra(backend, act)
        cert = fullness_check(backend, mod)
        ok = ok and cert["passed"] and cert["lower_constant"] > 0
        min_c = min(min_c, cert["lower_constant"])
        label = backend.labels[-1]
        cert2 = fullness_check(backend, module_tensor_irrep(backend, mod, label))
        ok = ok and cert2["passed"]
    # constructed non-full module: one summand of C (+) C under the trivial
    # symmetry
    from qact.actions import EquivariantModule

    backend = BACKENDS["z2"]
    act = trivial_action(backend, BlockAlgebra((1, 1)))
    right = np.zeros((2, 1, 1), dtype=complex)
    right[0] = 1.0
    inner = np.zeros((1, 1, 2, 2), dtype=complex)
    inner[0, 0, 0, 0] = 1.0
    com = np.ones((backend.group.order, 1, 1), dtype=complex)
    bad = EquivariantModule(act, 1, right, inner, comodule=com)
    bad_cert = fullness_check(backend, bad)
    ok = ok and (not bad_cert["passed"])
    report(11, ok, f"smallest reported constant c = {min_c}")


def test_criterion_12_deterministic_reports(tmp_path):
    jobs = [
        ("roundtrip", "--backend", str(ROOT / "fixtures/backends/s3.json"),
         "--input", str(ROOT / "fixtures/actions/s3_translation.json")),
        ("deform", "--backend", str(ROOT / "fixtures/backends/dual_z2z2.json"),
         "--input", str(ROOT / "fixtures/actions/z2z2_group_algebra.json"),
         "--input", str(ROOT / "fixtures/cocycles/bicharacter_z2z2.json"),
         "--cross-test"),
        ("build", "--backend", str(ROOT / "fixtures/backends/z2.json"),
         "--input", str(ROOT / "fixtures/functors/spectral_swap_c2.json")),
    ]
    identical = True
    for k, job in enumerate(jobs):
        paths = [tmp_path / f"r{k}_{i}.json" for i in (0, 1)]
        for path in paths:
            proc = subprocess.run(
                [sys.executable, "-m", "qact", *job, "--seed", "0",
                 "--report", str(path)],
                capture_output=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
        identical = identical and paths[0].read_bytes() == paths[1].read_bytes()
    report(12, identical, "byte-identical reports across fresh interpreters")
