import itertools

import numpy as np
import pytest

from qact.cocycles import TwistedBackend
from qact.fixtures import bicharacter_cocycle, group_backend_bicharacter_cocycle
from qact.groups import GroupError, cyclic_group, direct_product, symmetric_group
from qact.repcat import (
    Backend,
    BackendError,
    Irrep,
    _character_backend,
    abelian_product_backend,
    cyclic_backend,
    dual_backend,
    symmetric3_backend,
)
from qact.thresholds import RANK_TOL

TOL = 1e-9


@pytest.fixture(scope="module")
def s3():
    return symmetric3_backend()


@pytest.fixture(scope="module")
def z4():
    return cyclic_backend(4)


@pytest.fixture(scope="module")
def z2z2():
    return abelian_product_backend([2, 2])


def character(backend, rep):
    return np.einsum("gii->g", rep.matrices)


def char_inner(backend, chi_v, chi_u):
    # independent oracle: <chi_V, chi_U> by an explicit sum over the group
    total = 0.0
    for g in range(backend.group.order):
        total += chi_v[g] * np.conj(chi_u[g])
    return total / backend.group.order


def is_abelian(group):
    return bool(np.array_equal(group.mul, group.mul.T))


def test_group_laws():
    for g in (cyclic_group(5), symmetric_group(3), direct_product(cyclic_group(2), cyclic_group(3))):
        g.check()
    assert symmetric_group(3).order == 6
    assert not is_abelian(symmetric_group(3))
    assert is_abelian(cyclic_group(6))


def test_bad_table_rejected():
    g = cyclic_group(3)
    bad = g.mul.copy()
    bad[1, 1] = 1
    with pytest.raises(GroupError):
        type(g)(g.elements, bad, g.identity, g.inverse).check()


def test_backend_tables_validate(s3, z4, z2z2):
    for backend in (s3, z4, z2z2, dual_backend(symmetric_group(3))):
        backend.check()


def test_mor_space_dims_match_characters(s3):
    std = s3.atom("std")
    assert len(s3.mor_basis(std, std)) == 1
    ss = s3.tensor(std, std)
    chi_ss = character(s3, ss)
    for label, expected in (("triv", 1), ("sign", 1), ("std", 1)):
        chi = character(s3, s3.atom(label))
        oracle = char_inner(s3, chi_ss, chi)
        np.testing.assert_allclose(oracle, expected, atol=TOL)
        assert len(s3.mor_basis(s3.atom(label), ss)) == expected


def test_mor_space_properties(s3):
    std = s3.atom("std")
    ss = s3.tensor(std, std)
    basis = s3.mor_basis(ss, std)
    for i, t in enumerate(basis):
        for g in range(6):
            resid = t @ ss.matrices[g] - std.matrices[g] @ t
            assert np.linalg.norm(resid) < TOL
        for j, u in enumerate(basis):
            np.testing.assert_allclose(
                np.trace(t.conj().T @ u), 1.0 if i == j else 0.0, atol=TOL
            )


def test_mor_space_dual_distinct_grades():
    gamma = dual_backend(cyclic_group(3))
    assert gamma.mor_basis(gamma.atom("1"), gamma.atom("2")) == []
    assert len(gamma.mor_basis(gamma.atom("1"), gamma.atom("1"))) == 1


def test_schur_orthogonality_all_pairs(s3, z4, z2z2):
    for backend in (s3, z4, z2z2):
        for a in backend.labels:
            for b in backend.labels:
                n = len(backend.mor_basis(backend.atom(a), backend.atom(b)))
                assert n == (1 if a == b else 0)


def test_decompose_irreducible(s3):
    pairs = s3.decompose(s3.atom("std"))
    assert [label for label, _ in pairs] == ["std"]
    w = pairs[0][1]
    np.testing.assert_allclose(w.conj().T @ w, np.eye(2), atol=TOL)


def test_decompose_std_squared(s3):
    std = s3.atom("std")
    pairs = s3.decompose(s3.tensor(std, std))
    labels = sorted(label for label, _ in pairs)
    assert labels == ["sign", "std", "triv"]
    total = np.zeros((4, 4), dtype=complex)
    for label, w in pairs:
        d = s3.irrep(label).dim
        np.testing.assert_allclose(w.conj().T @ w, np.eye(d), atol=TOL)
        total += w @ w.conj().T
    np.testing.assert_allclose(total, np.eye(4), atol=TOL)


def test_decompose_dual_products():
    gamma = dual_backend(cyclic_group(4))
    u = gamma.tensor(gamma.atom("1"), gamma.atom("3"))
    pairs = gamma.decompose(u)
    assert [label for label, _ in pairs] == ["0"]


def test_decompose_dimension_identity(s3, z4):
    # exact integer identity through tensor depth 3
    for backend in (s3, z4):
        atoms = [backend.atom(l) for l in backend.labels]
        words = []
        for a in atoms:
            words.append(a)
            for b in atoms:
                words.append(backend.tensor(a, b))
        words.append(backend.tensor(backend.tensor(atoms[-1], atoms[-1]), atoms[-1]))
        for u in words:
            pairs = backend.decompose(u)
            assert sum(backend.irrep(l).dim for l, _ in pairs) == u.dim


def test_conjugate_solution_trivial(s3):
    sol = s3.conjugate_solution("triv")
    np.testing.assert_allclose(sol.r, [[1.0]])
    np.testing.assert_allclose(sol.rbar, [[1.0]])


@pytest.mark.parametrize("maker", [symmetric3_backend, lambda: cyclic_backend(4),
                                   lambda: abelian_product_backend([2, 2]),
                                   lambda: dual_backend(symmetric_group(3))])
def test_conjugate_equations_all_irreps(maker):
    backend = maker()
    for label in backend.labels:
        sol = backend.conjugate_solution(label)
        r1, r2 = sol.residuals()
        assert r1 < TOL and r2 < TOL
        nr, nrb = sol.norms()
        dq = backend.irrep(label).dim
        assert abs(nr**2 - dq) < TOL
        assert abs(nrb**2 - dq) < TOL


def test_table_matches_hold_to_the_absolute_bound():
    # phases 5e-6 from 1 lie within np.allclose's default relative 1e-5, but
    # far outside TABLE_MATCH_TOL: such a character is not the trivial one,
    # nor the conjugate of the trivial character
    group = cyclic_group(2)
    phases = np.array([1.0, np.exp(5e-6j)])
    near = Irrep("near", 1, phases.reshape(2, 1, 1), "near")
    triv = Irrep("triv", 1, np.ones((2, 1, 1), dtype=complex), "triv")
    assert Backend("group", group, [near, triv]).trivial_label == "triv"
    with pytest.raises(BackendError, match="no trivial representation"):
        Backend("group", group, [near])
    table = _character_backend(group, np.array([np.ones(2), phases]), ["triv", "near"])
    assert table.irrep("near").conj != "triv"


# -- Frobenius reciprocity, as reference code for the conjugate solutions --


def frobenius_forward(t: np.ndarray, dim_b: int, dim_u: int, dim_v: int,
                      rbar: np.ndarray) -> np.ndarray:
    """Send T : B (x) U -> B (x) V to (T (x) i)(i (x) rbar) : B -> B (x) V (x) U-bar."""
    if t.shape != (dim_b * dim_v, dim_b * dim_u):
        raise ValueError(f"map has shape {t.shape}")
    t4 = t.reshape(dim_b, dim_v, dim_b, dim_u)
    s = np.einsum("mvnu,uc->mvcn", t4, rbar)
    return s.reshape(dim_b * dim_v * dim_u, dim_b)


def frobenius_back(s: np.ndarray, dim_b: int, dim_u: int, dim_v: int,
                   r: np.ndarray) -> np.ndarray:
    """Send S : B -> B (x) V (x) U-bar to (i (x) i (x) r*)(S (x) i) : B (x) U -> B (x) V."""
    if s.shape != (dim_b * dim_v * dim_u, dim_b):
        raise ValueError(f"map has shape {s.shape}")
    s4 = s.reshape(dim_b, dim_v, dim_u, dim_b)
    t = np.einsum("mvcn,cu->mvnu", s4, r.conj())
    return t.reshape(dim_b * dim_v, dim_b * dim_u)


def test_frobenius_roundtrip(s3):
    rng = np.random.default_rng(2)
    dim_b = 3
    std = s3.atom("std")
    sol = s3.conjugate_solution("std")
    t = rng.standard_normal((dim_b * 2, dim_b * 2)) + 1j * rng.standard_normal((dim_b * 2, dim_b * 2))
    s = frobenius_forward(t, dim_b, 2, 2, sol.rbar)
    back = frobenius_back(s, dim_b, 2, 2, sol.r)
    np.testing.assert_allclose(back, t, atol=1e-10)


def test_frobenius_identity_case(s3):
    # T = identity on B (x) U maps to (i (x) rbar)
    sol = s3.conjugate_solution("std")
    s = frobenius_forward(np.eye(2), 1, 2, 2, sol.rbar)
    np.testing.assert_allclose(s.reshape(2, 2, 1)[:, :, 0], sol.rbar, atol=TOL)


def test_frobenius_dual_scalars():
    gamma = dual_backend(cyclic_group(3))
    sol = gamma.conjugate_solution("1")
    t = np.array([[2.0 + 1j]])
    s = frobenius_forward(t, 1, 1, 1, sol.rbar)
    back = frobenius_back(s, 1, 1, 1, sol.r)
    np.testing.assert_allclose(back, t, atol=TOL)


def test_mor_space_backend_mismatch(s3):
    other = symmetric3_backend()
    with pytest.raises(Exception, match="different backends"):
        s3.mor_basis(s3.atom("std"), other.atom("std"))


# -- character counts against the SVD of every label --------------------------


def reference_mor_basis(backend, u, v):
    """Mor(u, v) without character counts: the thresholded SVD of the
    averaging map for the group kind, grade matching for the dual kind."""
    if isinstance(backend, TwistedBackend):
        tu, tv = backend.twist_matrix(u), backend.twist_matrix(v)
        base = reference_mor_basis(
            backend.base, backend.base.word(u.atoms), backend.base.word(v.atoms)
        )
        return [tv @ t @ tu.conj().T for t in base]
    if backend.kind == "dual":
        basis = []
        for k in range(v.dim):
            for l in range(u.dim):
                if v.grades[k] == u.grades[l]:
                    e = np.zeros((v.dim, u.dim), dtype=complex)
                    e[k, l] = 1.0
                    basis.append(e)
        return basis
    sup = np.einsum("gki,glj->klij", v.matrices, u.matrices.conj())
    sup = sup.reshape(v.dim * u.dim, v.dim * u.dim) / backend.group.order
    w, s, _ = np.linalg.svd(sup)
    return [w[:, k].reshape(v.dim, u.dim) for k in range(int(np.sum(s > RANK_TOL)))]


def reference_decompose(backend, u):
    """The decomposition with one SVD for every label."""
    if isinstance(backend, TwistedBackend):
        tu = backend.twist_matrix(u)
        base = reference_decompose(backend.base, backend.base.word(u.atoms))
        return [(label, tu @ w) for label, w in base]
    if len(u.atoms) == 1 and not u.atoms[0][1]:
        return [(u.atoms[0][0], np.eye(u.dim, dtype=complex))]
    out = []
    for label in backend.labels:
        a = backend.atom(label)
        for s in reference_mor_basis(backend, a, u):
            out.append((label, np.sqrt(a.dim) * s))
    return out


def z2z2_dual():
    return dual_backend(direct_product(cyclic_group(2), cyclic_group(2)))


@pytest.mark.parametrize("make", [
    symmetric3_backend,
    lambda: cyclic_backend(4),
    lambda: abelian_product_backend([2, 2]),
    lambda: dual_backend(cyclic_group(3)),
    z2z2_dual,
    lambda: TwistedBackend(z2z2_dual(), bicharacter_cocycle([2, 2])),
    lambda: TwistedBackend(abelian_product_backend([2, 2]),
                           group_backend_bicharacter_cocycle()),
], ids=["s3", "z4", "z2z2", "dual_z3", "dual_z2z2", "twisted_dual_z2z2",
        "twisted_z2z2"])
def test_character_counts_match_svd_of_every_label(make):
    backend = make()
    atoms = [(label, barred) for label in backend.labels for barred in (False, True)]
    words = [w for n in (1, 2, 3) for w in itertools.product(atoms, repeat=n)]
    for word in words:
        u = backend.word(word)
        got, want = backend.decompose(u), reference_decompose(backend, u)
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, w1), (_, w2) in zip(got, want):
            assert np.array_equal(w1, w2)
        for label in backend.labels:
            a = backend.atom(label)
            basis = backend.mor_basis(a, u)
            assert len(basis) == len(reference_mor_basis(backend, a, u))
            for t1, t2 in zip(basis, reference_mor_basis(backend, a, u)):
                assert np.array_equal(t1, t2)
            assert backend.mor_dim(a, u) == backend.multiplicity(a, u)


@pytest.mark.parametrize("make", [
    symmetric3_backend,
    lambda: cyclic_backend(6),
    lambda: dual_backend(cyclic_group(3)),
    lambda: TwistedBackend(z2z2_dual(), bicharacter_cocycle([2, 2])),
    lambda: TwistedBackend(abelian_product_backend([2, 2]),
                           group_backend_bicharacter_cocycle()),
], ids=["s3", "z6", "dual_z3", "twisted_dual_z2z2", "twisted_z2z2"])
def test_stacked_decomposition_matches_one_word_at_a_time(make):
    # every word of length <= 3 in one call, on a fresh backend, against the
    # stacks of one that decompose makes on another
    stacked, single = make(), make()
    atoms = [(label, barred) for label in stacked.labels for barred in (False, True)]
    words = [w for n in (1, 2, 3) for w in itertools.product(atoms, repeat=n)]
    for word, got in zip(words, stacked.decompose_words(words)):
        want = single.decompose(single.word(word))
        assert [label for label, _ in got] == [label for label, _ in want]
        for (_, w1), (_, w2) in zip(got, want):
            assert np.array_equal(w1, w2)


def test_stacked_decomposition_names_the_word_that_fails_the_rank_check():
    group = cyclic_group(2)
    triv = Irrep("triv", 1, np.ones((2, 1, 1), dtype=complex), "triv")
    mats = np.array([np.eye(2), np.diag([1.0, -0.8])], dtype=complex)
    fake = Irrep("fake", 2, mats, "fake")
    backend = Backend("group", group, [triv, fake])
    # fake's character meets triv*triv's with count 1, but the averaging map
    # has rank 2: the error names the pair, whatever else is in the stack
    with pytest.raises(BackendError, match=r"Mor\(Rep\(fake, dim=2\), Rep\(triv\*triv, "
                                           r"dim=1\)\): SVD rank 2 .*character count 1"):
        backend.decompose_words([[("triv", False)], [("triv", False), ("triv", False)]])


def test_character_count_with_multiplicity_three(s3):
    std = ("std", False)
    u = s3.word([std, std, std])
    assert s3.multiplicity(s3.atom("std"), u) == 3
    assert [s3.multiplicity(s3.atom(label), u) for label in s3.labels] == [1, 1, 3]
    assert [label for label, _ in s3.decompose(u)] == ["triv", "sign", "std", "std", "std"]


def test_mor_basis_rank_guard():
    # not a representation: its character count against the trivial label
    # rounds to 1, but the averaging map has rank 2
    group = cyclic_group(2)
    triv = Irrep("triv", 1, np.ones((2, 1, 1), dtype=complex), "triv")
    mats = np.array([np.eye(2), np.diag([1.0, -0.8])], dtype=complex)
    fake = Irrep("fake", 2, mats, "fake")
    backend = Backend("group", group, [triv, fake])
    assert backend.multiplicity(backend.atom("triv"), backend.atom("fake")) == 1
    with pytest.raises(BackendError, match="character count"):
        backend.mor_basis(backend.atom("triv"), backend.atom("fake"))


def test_decompose_runs_the_svd_only_for_occurring_labels(monkeypatch):
    backend = cyclic_backend(12)
    u = backend.word([("chi1", False), ("chi2", False), ("chi5", True)])
    calls = []
    svd = np.linalg.svd

    def counted(*args, **kwargs):
        calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    assert [label for label, _ in backend.decompose(u)] == ["chi10"]
    assert len(calls) == 1


def test_check_names_the_first_element_that_fails():
    # the stacked products report the first failure in the order of the
    # element-by-element loop: unitarity at g before the products g*h
    group = cyclic_group(3)
    triv = Irrep("triv", 1, np.ones((3, 1, 1), dtype=complex), "triv")

    def backend(values):
        mats = np.array(values, dtype=complex).reshape(3, 1, 1)
        return Backend("group", group, [triv, Irrep("v", 1, mats, "v")])

    with pytest.raises(BackendError, match="'v' is not unitary at 1"):
        backend([1, 2, 4]).check()
    with pytest.raises(BackendError, match="'v' violates the table"):
        backend([1, 1j, 1j]).check()
    # the products of row 0 come before the unitarity of element 1
    with pytest.raises(BackendError, match="'v' violates the table"):
        backend([1j, 2, 4]).check()


def test_group_check_names_the_first_nonassociative_triple():
    # a loop of order 5: identity and inverses, but not associative
    from qact.groups import GroupPresentation

    mul = np.array([[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
                    [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]])
    group = GroupPresentation(tuple("abcde"), mul, 0, np.arange(5))
    first = next((i, j, k) for i, j, k in itertools.product(range(5), repeat=3)
                 if mul[mul[i, j], k] != mul[i, mul[j, k]])
    names = ", ".join("abcde"[x] for x in first)
    with pytest.raises(GroupError, match=rf"associativity fails at \({names}\)"):
        group.check()
