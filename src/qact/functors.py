"""Tensor-functor data into categories of correspondences, and its validators.

The data of a functor F is: the base algebra A = F(trivial), one
correspondence M_alpha per irreducible, and for every fusion triple
(alpha, beta, gamma) a linear family of bilinear maps
M_alpha (x) M_beta -> M_gamma indexed by the chosen orthonormal basis of
the intertwiner space Mor(alpha x beta, gamma).

F extends to arbitrary representations through their decompositions: the
value on a tensor word is the direct sum of the modules of its irreducible
constituents, morphisms act blockwise by Schur scalars, and the
multiplication maps assemble from the stored family.  All axiom checks run
through this extension on the finite set of decompositions the backend
produces, which by semisimplicity certifies the axioms up to the tested
tensor depth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebras import (
    BlockAlgebra,
    Correspondence,
    adjoint_of,
    adjoints_of,
    algebra_as_correspondence,
    module_linear_residuals,
    tensor_semi_inner,
)
from .groups import GroupPresentation
from .repcat import Backend, BackendError, Rep, dual_backend


class IncompleteDataError(ValueError):
    """A required multiplication tensor is missing from the functor data."""


@dataclass
class TensorFunctorData:
    """The presentation of a functor into correspondences over one algebra.

    phi maps a fusion triple (alpha, beta, gamma) to the list of tensors
    of shape (dim M_gamma, dim M_alpha, dim M_beta), one per basis element
    of Mor(alpha x beta, gamma) in backend order.
    """

    backend: Backend
    algebra: BlockAlgebra
    modules: dict[str, Correspondence]
    phi: dict[tuple[str, str, str], list[np.ndarray]]
    name: str = "functor"

    def module(self, label: str) -> Correspondence:
        if label not in self.modules:
            raise IncompleteDataError(f"no module for irrep {label!r}")
        return self.modules[label]

    def phi_tensors(self, alpha: str, beta: str, gamma: str) -> list[np.ndarray]:
        n_mor = self.backend.mor_dim(
            self.backend.tensor(self.backend.atom(alpha), self.backend.atom(beta)),
            self.backend.atom(gamma),
        )
        key = (alpha, beta, gamma)
        shape = (self.module(gamma).dim, self.module(alpha).dim, self.module(beta).dim)
        if key not in self.phi:
            if 0 in shape or n_mor == 0:
                return [np.zeros(shape, dtype=complex) for _ in range(n_mor)]
            raise IncompleteDataError(f"missing multiplication tensors for triple {key}")
        tensors = self.phi[key]
        if len(tensors) != n_mor:
            raise IncompleteDataError(
                f"triple {key} has {len(tensors)} tensors, expected {n_mor}"
            )
        for t in tensors:
            if t.shape != shape:
                raise IncompleteDataError(f"triple {key}: tensor shape {t.shape} != {shape}")
        return tensors


def direct_sum(algebra: BlockAlgebra, parts: list[Correspondence]) -> Correspondence:
    dims = [p.dim for p in parts]
    total = sum(dims)
    left = np.zeros((algebra.dim, total, total), dtype=complex)
    right = np.zeros((algebra.dim, total, total), dtype=complex)
    inner = np.zeros((total, total, algebra.n, algebra.n), dtype=complex)
    off = 0
    for p in parts:
        sl = slice(off, off + p.dim)
        left[:, sl, sl] = p.left
        right[:, sl, sl] = p.right
        inner[sl, sl] = p.inner_tensor
        off += p.dim
    return Correspondence(algebra, total, left, right, inner)


@dataclass
class WordObject:
    """The realization of F on one tensor word of atoms."""

    atoms: tuple
    rep: Rep
    components: list  # (label, isometry) pairs from the backend decomposition
    offsets: list[int]
    carrier: Correspondence

    @property
    def dim(self) -> int:
        return self.carrier.dim

    def slot(self, k: int) -> slice:
        lo = self.offsets[k]
        hi = self.offsets[k + 1] if k + 1 < len(self.offsets) else self.dim
        return slice(lo, hi)


class Realization:
    """Extension of functor data to tensor words, morphisms and products."""

    def __init__(self, functor: TensorFunctorData):
        self.functor = functor
        self.backend = functor.backend
        self._objects: dict = {}
        self._f2: dict = {}
        self._fusion: dict = {}

    def object(self, atoms) -> WordObject:
        atoms = tuple(atoms)
        if atoms in self._objects:
            return self._objects[atoms]
        rep = self.backend.word(atoms)
        components = self.backend.decompose(rep)
        offsets = []
        parts = []
        off = 0
        for label, _ in components:
            offsets.append(off)
            mod = self.functor.module(label)
            parts.append(mod)
            off += mod.dim
        carrier = direct_sum(self.functor.algebra, parts)
        obj = WordObject(atoms, rep, components, offsets, carrier)
        self._objects[atoms] = obj
        return obj

    def atom_object(self, label: str, barred: bool = False) -> WordObject:
        return self.object(((label, barred),))

    def trivial_object(self) -> WordObject:
        return self.object(())

    def morphism_matrix(self, t: np.ndarray, src: WordObject, tgt: WordObject) -> np.ndarray:
        """F(T) for T in Mor(src.rep, tgt.rep), as a matrix on the carriers.

        Blocks between matching irreducible constituents are Schur scalars
        of the compressed intertwiners.
        """
        out = np.zeros((tgt.dim, src.dim), dtype=complex)
        for k, (lk, wk) in enumerate(tgt.components):
            for j, (lj, wj) in enumerate(src.components):
                if lk != lj:
                    continue
                d = self.backend.irrep(lk).dim
                scalar = np.trace(wk.conj().T @ t @ wj) / d
                if abs(scalar) < 1e-16:
                    continue
                mod_dim = self.functor.module(lk).dim
                out[tgt.slot(k), src.slot(j)] = scalar * np.eye(mod_dim)
        return out

    def _fusion_data(self, alpha: str, beta: str, gamma: str):
        """The basis of Mor(alpha x beta, gamma) and the multiplication
        tensors stored against it, looked up and shape-checked once per
        fusion triple; the tensors are [] when the basis is empty."""
        key = (alpha, beta, gamma)
        if key not in self._fusion:
            b = self.backend
            basis = b.mor_basis(b.tensor(b.atom(alpha), b.atom(beta)), b.atom(gamma))
            tensors = self.functor.phi_tensors(alpha, beta, gamma) if basis else []
            self._fusion[key] = (basis, tensors)
        return self._fusion[key]

    def f2_tensor(self, left: WordObject, right: WordObject) -> np.ndarray:
        """The multiplication map F(left) (x) F(right) -> F(left * right) as a
        dense (target, left, right) tensor."""
        key = (left.atoms, right.atoms)
        if key in self._f2:
            return self._f2[key]
        target = self.object(left.atoms + right.atoms)
        out = np.zeros((target.dim, left.dim, right.dim), dtype=complex)
        for k, (lk, wk) in enumerate(target.components):
            gamma_dim = self.functor.module(lk).dim
            if gamma_dim == 0:
                continue
            for i, (li, ui) in enumerate(left.components):
                mi = self.functor.module(li).dim
                if mi == 0:
                    continue
                for j, (lj, vj) in enumerate(right.components):
                    mj = self.functor.module(lj).dim
                    if mj == 0:
                        continue
                    basis, tensors = self._fusion_data(li, lj, lk)
                    if not basis:
                        continue
                    # the Kronecker product of the two isometries
                    kron = (ui[:, None, :, None] * vj[None, :, None, :]).reshape(
                        ui.shape[0] * vj.shape[0], ui.shape[1] * vj.shape[1]
                    )
                    compressed = wk.conj().T @ kron
                    block = np.zeros((gamma_dim, mi, mj), dtype=complex)
                    for t_m, phi_m in zip(basis, tensors):
                        coeff = np.trace(t_m.conj().T @ compressed)
                        if abs(coeff) > 1e-16:
                            block += coeff * phi_m
                    out[target.slot(k), left.slot(i), right.slot(j)] += block
        self._f2[key] = out
        return out

    def s_matrix(self, u: WordObject, x: np.ndarray, v: WordObject) -> np.ndarray:
        """The map Y -> F_2(X (x) Y) : F(v) -> F(u * v) for X in F(u)."""
        return np.einsum("tpq,p->tq", self.f2_tensor(u, v), x)

    def s_adjoint(self, u: WordObject, x: np.ndarray, v: WordObject,
                  tol: float = 1e-9):
        """Adjoint data of s_matrix; see algebras.adjoint_of."""
        target = self.object(u.atoms + v.atoms)
        s = self.s_matrix(u, x, v)
        return adjoint_of(s, v.carrier, target.carrier, tol=tol, check_linear=False)

    def involution_partners(self, alpha: str, xs: np.ndarray,
                            tol: float = 1e-9) -> np.ndarray:
        """The elements of the conjugate module dual to the rows X of xs
        under the conjugation pairing, as rows; the building blocks of the
        involution.

        Computed constructively as the adjoints of Y -> F_2(X (x) Y), found
        in one batch, applied to the image of the unit under the
        conjugation morphism.
        """
        sol = self.backend.conjugate_solution(alpha)
        u = self.atom_object(alpha)
        bar = self.atom_object(alpha, barred=True)
        pair = self.object(u.atoms + bar.atoms)
        rbar_vec = sol.rbar.reshape(-1, 1)
        f_rbar = self.morphism_matrix(rbar_vec, self.trivial_object(), pair)
        unit = self.functor.algebra.coords(self.functor.algebra.identity())
        target_vec = f_rbar @ unit
        maps = np.einsum("tpq,ip->itq", self.f2_tensor(u, bar), xs)
        adj = adjoints_of(maps, bar.carrier, pair.carrier, tol)
        if not adj.adjointable.all():
            raise BackendError(
                "adjoint solve failed; the data violates the adjointability axiom"
            )
        return adj.adjoints @ target_vec

    def involution_partner(self, alpha: str, x: np.ndarray,
                           tol: float = 1e-9) -> np.ndarray:
        """The involution partner of one element X; see involution_partners."""
        return self.involution_partners(alpha, np.asarray(x)[None], tol)[0]


# -- validation ---------------------------------------------------------------


@dataclass
class AxiomCheck:
    residual: float
    passed: bool
    detail: dict = field(default_factory=dict)


@dataclass
class ValidationReport:
    tol: float
    axioms: dict[str, AxiomCheck]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.axioms.values())

    def summary(self) -> dict:
        return {
            "passed": self.passed,
            "tolerance": self.tol,
            "axioms": {
                name: {"residual": c.residual, "passed": c.passed, **c.detail}
                for name, c in sorted(self.axioms.items())
            },
        }


def _unit_axiom_residual(real: Realization) -> float:
    """Units of the multiplication: identity morphisms act as the module
    actions on both sides."""
    f = real.functor
    e = f.backend.trivial_label
    worst = 0.0
    for label in f.backend.labels:
        mod = f.module(label)
        if mod.dim == 0:
            continue
        left_obj = real.atom_object(e)
        right_obj = real.atom_object(label)
        t2 = real.f2_tensor(left_obj, right_obj)
        target = real.object(left_obj.atoms + right_obj.atoms)
        ft = real.morphism_matrix(
            np.eye(f.backend.irrep(label).dim), target, real.atom_object(label)
        )
        acted = np.einsum("st,tpq->spq", ft, t2)
        expect = np.transpose(mod.left, (1, 0, 2))
        worst = max(worst, float(np.abs(acted - expect).max()))
        t2r = real.f2_tensor(right_obj, left_obj)
        targetr = real.object(right_obj.atoms + left_obj.atoms)
        ftr = real.morphism_matrix(
            np.eye(f.backend.irrep(label).dim), targetr, real.atom_object(label)
        )
        actedr = np.einsum("st,tpq->spq", ftr, t2r)
        expectr = np.transpose(mod.right, (1, 2, 0))
        worst = max(worst, float(np.abs(actedr - expectr).max()))
    return worst


def _isometry_residual(t: np.ndarray, inner: np.ndarray, ma: Correspondence,
                       mb: Correspondence) -> float:
    """Largest entry of <t(x (x) y), t(x' (x) y')> - <x (x) y, x' (x) y'> for
    a multiplication tensor t : M_a (x) M_b -> M_c, where inner is the inner
    tensor of M_c; contracted one operand at a time."""
    half = np.einsum("srz,tsuv->trzuv", t, inner)
    lhs = np.einsum("tpq,trzuv->pqrzuv", t.conj(), half)
    n = inner.shape[-1]
    lhs = lhs.reshape(ma.dim * mb.dim, ma.dim * mb.dim, n, n)
    return float(np.abs(lhs - tensor_semi_inner(ma, mb)).max())


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


def validate_functor(functor: TensorFunctorData, tol: float = 1e-9,
                     deep_triples: bool = True) -> ValidationReport:
    """Check the defining conditions of the functor data.

    (i)   the trivial module is the base algebra;
    (ii)  multiplication maps are jointly isometric for the inner products;
    (iii) identity intertwiners act as the module actions;
    (iv)  the two ways through a triple product agree;
    (v)   left-multiplication operators are adjointable and their adjoints
          exchange with the multiplication maps.
    """
    real = Realization(functor)
    backend = functor.backend
    labels = list(backend.labels)
    axioms: dict[str, AxiomCheck] = {}

    # (i) trivial module equals the algebra
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

    # module well-formedness feeds into the same report
    worst_mod = 0.0
    for label in labels:
        mod = functor.module(label)
        if mod.dim == 0:
            continue
        rep = mod.validate(tol)
        worst_mod = max(
            worst_mod,
            rep["actions"],
            rep["left_right_commute"],
            rep["inner_hermitian"],
            rep["inner_module_linear"],
            0.0 if rep["nondegenerate"] else float("inf"),
        )
    axioms["modules_wellformed"] = AxiomCheck(worst_mod, worst_mod < 100 * tol)

    # (ii) isometry pair by pair
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

    # (iii) units
    res_iii = _unit_axiom_residual(real)
    axioms["iii_units"] = AxiomCheck(res_iii, res_iii < tol)

    # (iv) associativity through depth-3 words
    res_iv = 0.0
    detail_iv = {}
    triples = [
        (a, b, c)
        for a in labels
        for b in labels
        for c in labels
        if functor.module(a).dim and functor.module(b).dim and functor.module(c).dim
    ]
    if deep_triples:
        for a, b, c in triples:
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

    # (v) adjointability plus the exchange identity, for the maps
    # S_p = F_2(m_p (x) -) of all basis vectors m_p of F(a) at once
    res_v = 0.0
    detail_v = {}
    for a in labels:
        if functor.module(a).dim == 0:
            continue
        oa = real.atom_object(a)
        for b in labels:
            if functor.module(b).dim == 0:
                continue
            ob = real.atom_object(b)
            oab = real.object(oa.atoms + ob.atoms)
            s = np.moveaxis(real.f2_tensor(oa, ob), 1, 0)
            lin = module_linear_residuals(s, ob.carrier, oab.carrier)
            adj = adjoints_of(s, ob.carrier, oab.carrier, tol)
            exchange = {}
            for c in labels:
                if functor.module(c).dim == 0:
                    continue
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
                    r2 = float(r2[p]) if big.adjointable[p] else float("inf")
                    detail_v[f"exchange:{a},{b},{c}:{p}"] = r2
                    res_v = max(res_v, r2)
    axioms["v_adjointability"] = AxiomCheck(res_v, res_v < 100 * tol, {"checks": detail_v})

    return ValidationReport(tol, axioms)


# -- graded bundles -----------------------------------------------------------


@dataclass
class GradedBundle:
    """A group-indexed bundle of correspondences with multiplication
    isometries phi[(a, b)] : M_a (x) M_b -> M_{ab}, tensors of shape
    (dim M_ab, dim M_a, dim M_b)."""

    group: GroupPresentation
    algebra: BlockAlgebra
    fibers: dict[str, Correspondence]
    mult: dict[tuple[str, str], np.ndarray]

    def fiber(self, label: str) -> Correspondence:
        if label not in self.fibers:
            raise IncompleteDataError(f"no fiber for {label!r}")
        return self.fibers[label]

    def mult_tensor(self, a: str, b: str) -> np.ndarray:
        g = self.group
        ab = g.elements[g.times(g.index(a), g.index(b))]
        shape = (self.fiber(ab).dim, self.fiber(a).dim, self.fiber(b).dim)
        if (a, b) not in self.mult:
            if 0 in shape:
                return np.zeros(shape, dtype=complex)
            raise IncompleteDataError(f"missing multiplication tensor for ({a}, {b})")
        t = np.asarray(self.mult[(a, b)], dtype=complex)
        if t.shape != shape:
            raise IncompleteDataError(f"tensor for ({a}, {b}) has shape {t.shape}")
        return t


def validate_graded(bundle: GradedBundle, tol: float = 1e-9) -> ValidationReport:
    """Check the graded-bundle conditions: unit fiber, unit maps, isometry,
    associativity, and the adjoint-exchange condition (skipped, and reported
    as such, when every multiplication map is surjective)."""
    g = bundle.group
    names = list(g.elements)
    axioms: dict[str, AxiomCheck] = {}
    e = g.elements[g.identity]

    canonical = algebra_as_correspondence(bundle.algebra)
    m_e = bundle.fiber(e)
    if m_e.dim != canonical.dim:
        res_a = float("inf")
    else:
        res_a = max(
            float(np.abs(m_e.left - canonical.left).max()),
            float(np.abs(m_e.right - canonical.right).max()),
            float(np.abs(m_e.inner_tensor - canonical.inner_tensor).max()),
        )
    axioms["a_unit_fiber"] = AxiomCheck(res_a, res_a < tol)

    res_b = 0.0
    for name in names:
        fib = bundle.fiber(name)
        if fib.dim == 0:
            continue
        t_left = bundle.mult_tensor(e, name)
        res_b = max(res_b, float(np.abs(t_left - np.transpose(fib.left, (1, 0, 2))).max()))
        t_right = bundle.mult_tensor(name, e)
        res_b = max(res_b, float(np.abs(t_right - np.transpose(fib.right, (1, 2, 0))).max()))
    axioms["b_units"] = AxiomCheck(res_b, res_b < tol)

    res_iso = 0.0
    surjective = True
    for a in names:
        for b in names:
            fa, fb = bundle.fiber(a), bundle.fiber(b)
            if fa.dim == 0 or fb.dim == 0:
                continue
            ab = g.elements[g.times(g.index(a), g.index(b))]
            fab = bundle.fiber(ab)
            t = bundle.mult_tensor(a, b)
            res_iso = max(res_iso, _isometry_residual(t, fab.inner_tensor, fa, fb))
            if fab.dim and np.linalg.matrix_rank(t.reshape(fab.dim, -1), tol=1e-8) < fab.dim:
                surjective = False
    axioms["isometry"] = AxiomCheck(res_iso, res_iso < tol)

    res_c = 0.0
    for a in names:
        for b in names:
            for c in names:
                fa, fb, fc = bundle.fiber(a), bundle.fiber(b), bundle.fiber(c)
                if 0 in (fa.dim, fb.dim, fc.dim):
                    continue
                ab = g.elements[g.times(g.index(a), g.index(b))]
                bc = g.elements[g.times(g.index(b), g.index(c))]
                lhs = np.einsum(
                    "tsr,spq->tpqr", bundle.mult_tensor(ab, c), bundle.mult_tensor(a, b)
                )
                rhs = np.einsum(
                    "tps,sqr->tpqr", bundle.mult_tensor(a, bc), bundle.mult_tensor(b, c)
                )
                res_c = max(res_c, float(np.abs(lhs - rhs).max()))
    axioms["c_associativity"] = AxiomCheck(res_c, res_c < tol)

    if surjective:
        axioms["d_adjoint_exchange"] = AxiomCheck(
            0.0, True, {"skipped": "all multiplication maps are surjective"}
        )
    else:
        res_d = 0.0
        for a in names:
            fa = bundle.fiber(a)
            if fa.dim == 0:
                continue
            for b in names:
                fb = bundle.fiber(b)
                if fb.dim == 0:
                    continue
                ab = g.elements[g.times(g.index(a), g.index(b))]
                fab = bundle.fiber(ab)
                s = np.moveaxis(bundle.mult_tensor(a, b), 1, 0)
                lin = module_linear_residuals(s, fb, fab)
                adj = adjoints_of(s, fb, fab, tol)
                ok = adj.adjointable
                res_d = max(res_d, float(np.max(np.maximum(lin, adj.residuals))))
                if not ok.any():
                    continue
                for c in names:
                    if bundle.fiber(c).dim == 0:
                        continue
                    abc = g.elements[g.times(g.index(ab), g.index(c))]
                    bc = g.elements[g.times(g.index(b), g.index(c))]
                    big, r2 = _exchange_residuals(
                        adj.adjoints, bundle.mult_tensor(b, c), bundle.mult_tensor(a, bc),
                        bundle.fiber(bc), bundle.fiber(abc), bundle.mult_tensor(ab, c), tol,
                    )
                    r2 = np.where(big.adjointable, r2, big.residuals)
                    res_d = max(res_d, float(r2[ok].max()))
        axioms["d_adjoint_exchange"] = AxiomCheck(res_d, res_d < 100 * tol)

    return ValidationReport(tol, axioms)


def from_graded(bundle: GradedBundle, tol: float = 1e-9,
                validated: bool = False) -> TensorFunctorData:
    """Wrap a graded bundle as functor data over the dual backend of its group."""
    if not validated:
        report = validate_graded(bundle, tol)
        if not report.passed:
            bad = [k for k, v in report.axioms.items() if not v.passed]
            raise IncompleteDataError(f"graded data fails validation: {bad}")
    backend = dual_backend(bundle.group)
    g = bundle.group
    modules = {name: bundle.fiber(name) for name in g.elements}
    phi = {}
    for a in g.elements:
        for b in g.elements:
            ab = g.elements[g.times(g.index(a), g.index(b))]
            if bundle.fiber(a).dim and bundle.fiber(b).dim:
                phi[(a, b, ab)] = [bundle.mult_tensor(a, b)]
    return TensorFunctorData(backend, bundle.algebra, modules, phi, name="graded")


def group_algebra_bundle(group: GroupPresentation) -> GradedBundle:
    """The bundle with every fiber a copy of C and plain multiplication;
    its algebra is the group algebra."""
    algebra = BlockAlgebra((1,))
    line = algebra_as_correspondence(algebra)
    fibers = {name: line for name in group.elements}
    one = np.ones((1, 1, 1), dtype=complex)
    mult = {(a, b): one for a in group.elements for b in group.elements}
    return GradedBundle(group, algebra, fibers, mult)
