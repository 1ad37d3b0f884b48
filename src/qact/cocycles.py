"""Unitary 2-cocycles on the dual side of a backend and the deformations
they induce.

For the dual backend of a group Gamma a cocycle is a unit-modulus function
on Gamma x Gamma; for a finite-group backend it is an invertible element of
the tensor square of the group algebra.  Loading normalizes the cocycle to
counital form by the permitted overall phase (the raw data is retained).

The deformed product routes both factors through the coaction before
multiplying; the deformed involution composes the original one with the
companion element u built by contracting one leg of the cocycle through
the antipode.  The deformed algebra is a qact.staralg.StarAlgebraModel,
the class of the algebra rebuilt from functor data, whose state is the
trace of the expectation onto the fixed algebra.

The layers of actions, functors and algebras are reached through their
modules, so `cocycle-check`, which checks a cocycle against a backend's
table alone, leaves them unrun when the CLI binds them lazily.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import actions, algebras, functors, reconstruction, staralg
from .errors import CocycleError
from .groups import GroupPresentation
from .repcat import Backend, ConjugateSolution, Rep
from .thresholds import (
    AUDIT_FACTOR,
    COCYCLE_SCALAR_FLOOR,
    COCYCLE_SV_FLOOR,
    DEFAULT_TOL,
    RANK_TOL,
)


@dataclass
class Cocycle:
    """kind "dual": values[i, j] = Omega(gamma_i, gamma_j), unit modulus.
    kind "group": values[i, j] = coefficient of g_i (x) g_j in Omega."""

    kind: str
    group: GroupPresentation
    values: np.ndarray
    raw: np.ndarray  # as loaded, before counital normalization

    def __post_init__(self):
        if self.kind not in ("dual", "group"):
            raise CocycleError(f"unknown cocycle kind {self.kind!r}")
        n = self.group.order
        if self.values.shape != (n, n):
            raise CocycleError(f"cocycle table has shape {self.values.shape}")

    def is_trivial(self) -> bool:
        n = self.group.order
        if self.kind == "dual":
            return bool(np.array_equal(self.values, np.ones((n, n))))
        expect = np.zeros((n, n), dtype=complex)
        expect[self.group.identity, self.group.identity] = 1.0
        return bool(np.array_equal(self.values, expect))


def make_cocycle(kind: str, group: GroupPresentation, values) -> Cocycle:
    """Normalize to counital form by the permitted phase and package."""
    raw = np.asarray(values, dtype=complex)
    vals = raw.copy()
    e = group.identity
    if kind == "dual":
        c = vals[e, e]
        if abs(c) < COCYCLE_SCALAR_FLOOR:
            raise CocycleError("cocycle vanishes at the identity pair")
        vals = vals / c
    else:
        c = vals.sum(axis=0)[e]
        if abs(c) < COCYCLE_SCALAR_FLOOR:
            raise CocycleError("cocycle has no counit component")
        vals = vals / c
    return Cocycle(kind, group, vals, raw)


def trivial_cocycle(kind: str, group: GroupPresentation) -> Cocycle:
    n = group.order
    if kind == "dual":
        return make_cocycle(kind, group, np.ones((n, n), dtype=complex))
    vals = np.zeros((n, n), dtype=complex)
    vals[group.identity, group.identity] = 1.0
    return make_cocycle(kind, group, vals)


def _convolve(group: GroupPresentation, a: np.ndarray, b: np.ndarray) -> np.ndarray:
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


def _group_star(group: GroupPresentation, a: np.ndarray) -> np.ndarray:
    n = group.order
    out = np.zeros((n, n), dtype=complex)
    for x in range(n):
        for y in range(n):
            out[group.inv(x), group.inv(y)] = np.conj(a[x, y])
    return out


def check_cocycle(cocycle: Cocycle, tol: float = DEFAULT_TOL) -> dict:
    """Residuals of unitarity, the cocycle identity, and counitality
    (after the load-time phase normalization); names the worst triple."""
    g = cocycle.group
    n = g.order
    vals = cocycle.values
    rep: dict = {"kind": cocycle.kind}
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
        sv = np.linalg.svd(_omega_regular(g, vals), compute_uv=False)
        if sv.min() < COCYCLE_SV_FLOOR:
            raise CocycleError("cocycle is not invertible")
        rep["unitarity"] = float(np.abs(
            _convolve(g, vals, _group_star(g, vals)) - delta
        ).max())
        # (Omega (x) 1)(Dhat (x) i)(Omega) versus (1 (x) Omega)(i (x) Dhat)(Omega)
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
        rep["cocycle_identity"] = float(np.abs(lhs - rhs).max())
        flat = np.abs(lhs - rhs)
        worst_idx = np.unravel_index(int(flat.argmax()), flat.shape)
        rep["worst_triple"] = [g.elements[i] for i in worst_idx]
        v1 = vals.sum(axis=0)
        v2 = vals.sum(axis=1)
        want = np.zeros(n)
        want[g.identity] = 1.0
        rep["counital"] = float(max(np.abs(v1 - want).max(), np.abs(v2 - want).max()))
    rep["passed"] = bool(max(rep["unitarity"], rep["cocycle_identity"],
                             rep["counital"]) < AUDIT_FACTOR * tol)
    return rep


def _left_regular(group: GroupPresentation, coeffs: np.ndarray) -> np.ndarray:
    """Left multiplication by sum_x coeffs[x] x on the group algebra: entry
    [xy, y] is coeffs[x]."""
    out = np.zeros((group.order, group.order), dtype=complex)
    out[group.mul, np.arange(group.order)] = coeffs[:, None]
    return out


def _omega_regular(group: GroupPresentation, vals: np.ndarray) -> np.ndarray:
    """Omega in the left regular representation of the tensor square: entry
    [(au, bv), (u, v)] is vals[a, b]."""
    n = group.order
    out = np.zeros((n * n, n * n), dtype=complex)
    rows = group.mul[:, None, :, None] * n + group.mul[None, :, None, :]
    out[rows, np.arange(n * n).reshape(n, n)] = vals[:, :, None, None]
    return out


@dataclass
class TwistElement:
    """The companion element u of a cocycle: a function on the group (dual
    kind) or a group-algebra element (group kind)."""

    kind: str
    group: GroupPresentation
    coeffs: np.ndarray  # dual: u(gamma_i); group: coefficient of g_i

    def rep_matrix(self, rep: Rep) -> np.ndarray:
        """pi_U(u) for a representation of the matching backend."""
        if self.kind == "dual":
            return np.diag([self.coeffs[gr] for gr in rep.grades])
        return np.einsum("g,gij->ij", self.coeffs, rep.matrices)


def twist_element(backend: Backend, cocycle: Cocycle, tol: float = DEFAULT_TOL):
    """Contract the cocycle through the antipode to its companion element;
    verify invertibility, the antipode identity for the inverse, and the
    intertwining identity against every conjugation solution of the table.

    Returns (element, report).
    """
    _check_cocycle_backend(backend, cocycle)
    g = cocycle.group
    n = g.order
    vals = cocycle.values
    rep: dict = {}
    if cocycle.kind == "dual":
        coeffs = np.array([vals[x, g.inv(x)] for x in range(n)])
        if np.abs(coeffs).min() < COCYCLE_SCALAR_FLOOR:
            raise CocycleError("companion element is not invertible")
        u = TwistElement("dual", g, coeffs)
        # u^{-1} = antipode of u*, pointwise: 1/u(x) = conj(u(x^{-1}))
        rep["inverse_identity"] = float(max(
            abs(1.0 / coeffs[x] - np.conj(coeffs[g.inv(x)])) for x in range(n)
        ))
    else:
        coeffs = np.zeros(n, dtype=complex)
        for a in range(n):
            for b in range(n):
                coeffs[g.mul[a, g.inv(b)]] += vals[a, b]
        reg = _left_regular(g, coeffs)
        sv = np.linalg.svd(reg, compute_uv=False)
        if sv.min() < COCYCLE_SV_FLOOR:
            raise CocycleError("companion element is not invertible")
        u = TwistElement("group", g, coeffs)
        # the antipode of u* has coefficient conj(u_x) at x
        reg2 = _left_regular(g, coeffs.conj())
        rep["inverse_identity"] = float(np.abs(reg @ reg2 - np.eye(n)).max())

    worst_eu = 0.0
    for label in backend.labels:
        sol = backend.conjugate_solution(label)
        bar = backend.atom(label, barred=True)
        plain = backend.atom(label)
        omega_mat = cocycle_pair_matrix(cocycle, bar, plain)
        r = sol.r.reshape(-1)
        lhs = omega_mat @ r
        rhs = np.kron(u.rep_matrix(bar), np.eye(plain.dim)) @ r
        worst_eu = max(worst_eu, float(np.abs(lhs - rhs).max()))
    rep["conjugation_intertwining"] = worst_eu
    rep["passed"] = bool(max(rep.values()) < AUDIT_FACTOR * tol)
    return u, rep


def cocycle_pair_matrix(cocycle: Cocycle, u: Rep, v: Rep) -> np.ndarray:
    """The action of the cocycle on the tensor product of two
    representations of the matching backend."""
    if cocycle.kind == "dual":
        diag = np.array([
            cocycle.values[gu, gv] for gu in u.grades for gv in v.grades
        ])
        return np.diag(diag)
    n = cocycle.group.order
    out = np.zeros((u.dim * v.dim, u.dim * v.dim), dtype=complex)
    for a in range(n):
        for b in range(n):
            w = cocycle.values[a, b]
            if w == 0:
                continue
            out += w * np.kron(u.matrices[a], v.matrices[b])
    return out


# -- deformation of concrete actions -------------------------------------------


@dataclass
class DeformedAlgebra:
    """The deformed *-algebra on the coordinate space of the original one,
    plus the unchanged expectation onto the fixed part as a coordinate
    projection."""

    model: staralg.StarAlgebraModel
    expectation_matrix: np.ndarray
    report: dict


def _coaction_module_maps(backend: Backend, act: actions.Action):
    """x <| g as coordinate matrices: the inverse automorphism (group kind)
    or the projection onto each component along the grading decomposition
    (dual kind)."""
    b = act.algebra
    g = act.group
    if act.kind == "automorphism":
        return {
            x: act.map_matrix(g.elements[g.inv(g.index(x))]) for x in g.elements
        }
    rows = [act.component_rows(x) for x in g.elements]
    v = np.vstack(rows)  # rows span B; coordinates along the grading
    if v.shape[0] != b.dim:
        raise CocycleError("grading components do not span the algebra")
    vinv = np.linalg.inv(v.T)
    # owners[i]: the number of the group element whose component row i spans
    owners = np.repeat(np.arange(g.order), [len(r) for r in rows])
    return {x: v.T @ np.diag((owners == k).astype(float)) @ vinv
            for k, x in enumerate(g.elements)}


def deformed_table(table: np.ndarray, rd: list[np.ndarray], vals: np.ndarray) -> np.ndarray:
    """The deformed product table sum_{a, c} vals[a, c] sum_{p, q}
    rd[a][p, i] rd[c][q, j] table[p, q]: the rd[a] side is contracted once
    per a, then each pair (a, c) with a nonzero value adds one contraction
    with rd[c], in the order of the pairs."""
    out = np.zeros_like(table)
    for a, row in enumerate(vals):
        if not row.any():
            continue
        # t[i, q, r] = sum_p rd[a][p, i] table[p, q, r]
        t = np.tensordot(rd[a], table, (0, 0))
        for c, w in enumerate(row):
            if w != 0:
                out += w * np.tensordot(t, rd[c], (1, 0)).transpose(0, 2, 1)
    return out


def deform_action(backend: Backend, act: actions.Action, cocycle: Cocycle,
                  tol: float = DEFAULT_TOL, seed: int = 0) -> DeformedAlgebra:
    """The deformed algebra: both product factors are routed through the
    coaction against the cocycle, and the involution picks up the companion
    element.  The state of the model is the trace of the expectation onto
    the fixed algebra.  The report verifies, as contractions over the whole
    basis, that it is again a *-algebra, and that the expectation still
    satisfies the algebraic-action conditions."""
    _check_cocycle_backend(backend, cocycle)
    _require_matching(act, cocycle)
    b = act.algebra
    g = act.group
    n = g.order
    vals = cocycle.values
    base = staralg.StarAlgebraModel.of_block_algebra(b)
    rd = _coaction_module_maps(backend, act)
    u, u_rep = twist_element(backend, cocycle, tol=tol)

    if cocycle.is_trivial():
        # the identity cocycle deforms nothing; keep the tensors bit-exact
        table = base.table
        dagger = base.star_matrix
    else:
        table = deformed_table(base.table, [rd[x] for x in g.elements], vals)
        dagger = np.zeros_like(base.star_matrix)
        if act.kind == "grading":
            # <| by the pointwise conjugate of the companion function
            for x in range(n):
                dagger += np.conj(u.coeffs[x]) * rd[g.elements[x]] @ base.star_matrix
        else:
            # u* = sum_h conj(u_h) h^{-1}; <| by a group element h is rd[h]
            for x in range(n):
                if u.coeffs[x] == 0:
                    continue
                dagger += np.conj(u.coeffs[x]) * rd[g.elements[g.inv(x)]] @ base.star_matrix

    fixed = actions.fixed_point_algebra(backend, act, seed=seed)
    emb = np.array([b.coords(fixed.unit_images[k]) for k in range(fixed.algebra.dim)])
    proj = emb.T @ np.linalg.pinv(emb.T)
    trace_vec = np.trace(b.from_coords(proj.T), axis1=1, axis2=2)
    model = staralg.StarAlgebraModel(table, dagger, base.unit, {}, algebras.BlockAlgebra((1,)),
                                     trace_vec[None, :])

    def worst(values) -> float:
        return float(np.abs(values).max(initial=0.0))

    report = dict(u_rep)
    basis = np.eye(b.dim, dtype=complex)
    stars = model.star(basis)
    # [p, q] is b_p b_q, and [p, q, r] is (b_p b_q) b_r against b_p (b_q b_r)
    prods = model.table
    report["associative"] = worst(model.multiply(prods[:, :, None], basis)
                                  - model.multiply(basis[:, None, None], prods[None]))
    report["involutive"] = worst(model.star(stars) - basis)
    report["anti_multiplicative"] = worst(model.star(prods)
                                          - model.multiply(stars[None], stars[:, None]))
    report["unital"] = max(worst(model.multiply(base.unit, basis) - basis),
                           worst(model.multiply(basis, base.unit) - basis))

    # algebraic-action conditions for the unchanged coaction: the expectation
    # is positive and faithful for the new structure and satisfies the
    # boundedness estimate over the fixed algebra
    gram = model.gram()[:, :, 0, 0]
    gram = (gram + gram.conj().T) / 2
    eigs = np.linalg.eigvalsh(gram)
    report["expectation_gram_min_eig"] = float(eigs.min())
    # a rank decision, not a residual: it does not move with tol
    report["expectation_faithful"] = bool(eigs.min() > RANK_TOL * max(1.0, float(eigs.max())))

    rng = np.random.default_rng(seed)
    xs, avecs, anorms = [], [], []
    for _ in range(10):
        xs.append(rng.standard_normal(b.dim) + 1j * rng.standard_normal(b.dim))
        acoords = fixed.algebra.coords(
            fixed.algebra.project(
                rng.standard_normal((fixed.algebra.n, fixed.algebra.n))
            )
        )
        amat = fixed.embed(acoords)
        avecs.append(b.coords(amat))
        anorms.append(b.opnorm(amat))
    xs = np.array(xs)
    axs = model.multiply(np.array(avecs), xs)

    def expect(ys):
        # E(y* y) onto the fixed algebra, as elements of B, one sample at a time
        return b.from_coords(np.array([proj @ v for v in model.multiply(model.star(ys), ys)]))

    diff = np.array(anorms)[:, None, None] ** 2 * expect(xs) - expect(axs)
    diff = (diff + diff.conj().transpose(0, 2, 1)) / 2
    report["expectation_bound_violation"] = max(
        0.0, float(np.max(-np.linalg.eigvalsh(diff).min(axis=1))))
    report["fixed_algebra_blocks"] = list(fixed.algebra.blocks)
    report["passed"] = bool(
        max(report["associative"], report["involutive"], report["anti_multiplicative"],
            report["unital"], report["expectation_bound_violation"]) < AUDIT_FACTOR * tol
        and report["expectation_faithful"]
    )
    return DeformedAlgebra(model, proj, report)


def deformation_cross_test(backend: Backend, act: actions.Action, cocycle: Cocycle,
                           deformed: DeformedAlgebra, tol: float = DEFAULT_TOL,
                           seed: int = 0) -> dict:
    """Rebuild the deformed algebra a second way, from the twisted spectral
    functor, and compare it with the deformed action's algebra through the
    canonical map of the spectral functor: the two product tables and the
    two star matrices must agree (staralg.verify_algebra_iso)."""
    spec = actions.spectral_functor(backend, act, seed=seed)
    twisted = deform_functor(spec.functor, cocycle)
    val = functors.validate_functor(twisted, tol)
    rebuilt = reconstruction.build_algebra(twisted, tol=tol, validate=False)
    iso = staralg.verify_algebra_iso(rebuilt.model, deformed.model,
                                     actions.canonical_map(spec, rebuilt), tol)
    worst = max(iso["multiplicative"], iso["star"])
    return {
        "twisted_functor_valid": val.passed,
        "comparison_residual": worst,
        "passed": bool(val.passed and worst < AUDIT_FACTOR * tol),
    }


def _check_cocycle_backend(backend: Backend, cocycle: Cocycle) -> None:
    """A cocycle lives on the dual side of a backend of its own kind and
    group."""
    if cocycle.kind != backend.kind:
        raise CocycleError(
            f"{cocycle.kind} cocycles need a {cocycle.kind} backend, got {backend.kind}"
        )
    if backend.group.elements != cocycle.group.elements:
        raise CocycleError("cocycle and backend use different groups")


def _require_matching(act: actions.Action, cocycle: Cocycle) -> None:
    want = "automorphism" if cocycle.kind == "group" else "grading"
    if act.kind != want:
        raise CocycleError(
            f"{cocycle.kind} cocycles deform {want} actions, got {act.kind}"
        )
    if act.group.elements != cocycle.group.elements:
        raise CocycleError("cocycle and action use different groups")


# -- deformation of functor data ------------------------------------------------


class TwistedBackend(Backend):
    """The representation category of the deformed symmetry: same
    irreducibles and fusion, with intertwiners, decompositions and
    conjugation solutions conjugated by the cocycle action on tensor words."""

    def __init__(self, base: Backend, cocycle: Cocycle):
        _check_cocycle_backend(base, cocycle)
        super().__init__(base.kind, base.group, [base.irreps[l] for l in base.labels])
        self.base = base
        self.cocycle = cocycle
        self._twist_cache: dict = {}

    def twist_matrix(self, rep: Rep) -> np.ndarray:
        """The iterated cocycle action on a tensor word (any bracketing
        gives the same matrix, by the cocycle identity)."""
        atoms = rep.atoms
        if atoms in self._twist_cache:
            return self._twist_cache[atoms]
        if len(atoms) <= 1:
            out = np.eye(rep.dim, dtype=complex)
        else:
            prefix = self.word(atoms[:-1])
            last = self.atom(*atoms[-1])
            out = np.kron(
                self.twist_matrix(prefix), np.eye(last.dim)
            ) @ cocycle_pair_matrix(self.cocycle, prefix, last)
        self._twist_cache[atoms] = out
        return out

    def mor_basis(self, u: Rep, v: Rep):
        key = (u.atoms, v.atoms)
        if key in self._mor_cache:
            return self._mor_cache[key]
        tu = self.twist_matrix(u)
        tv = self.twist_matrix(v)
        base = Backend.mor_basis(self.base, self._as_base(u), self._as_base(v))
        out = [tv @ t @ tu.conj().T for t in base]
        self._mor_cache[key] = out
        return out

    def _decompose_stack(self, words):
        base = self.base.decompose_words(words)
        out = []
        for word, parts in zip(words, base):
            tu = self.twist_matrix(self.word(word))
            out.append([(label, tu @ w) for label, w in parts])
        return out

    def conjugate_solution(self, label: str) -> ConjugateSolution:
        sol = Backend.conjugate_solution(self, label)
        bar = self.atom(label, barred=True)
        plain = self.atom(label)
        d = plain.dim
        r = (cocycle_pair_matrix(self.cocycle, bar, plain) @ sol.r.reshape(-1))
        rbar = (cocycle_pair_matrix(self.cocycle, plain, bar) @ sol.rbar.reshape(-1))
        return ConjugateSolution(sol.label, sol.conj, r.reshape(d, d), rbar.reshape(d, d))

    def _as_base(self, rep: Rep) -> Rep:
        return self.base.word(rep.atoms)


def deform_functor(functor: functors.TensorFunctorData,
                   cocycle: Cocycle) -> functors.TensorFunctorData:
    """Precompose functor data with the cocycle twist of its category: same
    modules and the same multiplication tensors, read against the twisted
    intertwiner bases of the twisted backend."""
    twisted = TwistedBackend(functor.backend, cocycle)
    return functors.TensorFunctorData(
        twisted,
        functor.algebra,
        dict(functor.modules),
        {k: [t.copy() for t in v] for k, v in functor.phi.items()},
        name=f"{functor.name}:twisted",
    )
