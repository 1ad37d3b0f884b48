"""Unitary 2-cocycles on the dual side of a backend and the deformations
they induce.

A cocycle is an element Omega of D (x) D for the dual algebra D of a
backend kind (qact.repcat.DualAlgebra): C(Gamma) for the dual backend of a
group Gamma, where Omega is a unit-modulus function on Gamma x Gamma, and
the group algebra C[G] for a finite-group backend.  Every check is one
formula over D, written with D's product, unit, antipode, coproduct,
counit and star, whichever kind D comes from.  Loading normalizes the
cocycle to counital form by the permitted overall phase (the raw data is
retained).

The deformed product routes both factors through the coaction before
multiplying; the deformed involution composes the original one with the
companion element u = m(i (x) S)(Omega).  The deformed algebra is a
qact.staralg.StarAlgebraModel, the class of the algebra rebuilt from
functor data, whose expectation is the unchanged one onto the fixed
algebra, and staralg.audit, the audit of `build` too, certifies it over
the basis without a random draw.

The layers of actions, functors and staralg are reached through their
modules, so `cocycle-check`, which checks a cocycle against a backend's
table alone, leaves them unrun when the CLI binds them lazily.
"""

from __future__ import annotations

import numpy as np

from . import actions, functors, reconstruction, staralg
from .errors import BackendError, CocycleError
from .groups import GroupPresentation
from .repcat import Backend, ConjugateSolution, DualAlgebra, Rep, dual_algebra
from .thresholds import AUDIT_FACTOR, COCYCLE_SCALAR_FLOOR, COCYCLE_SV_FLOOR, DEFAULT_TOL


class Cocycle:
    """values[i, j] is the coefficient of e_i (x) e_j in Omega, for the basis
    e_x of D: Omega(gamma_i, gamma_j) for the dual kind, the coefficient of
    g_i (x) g_j for the group kind."""

    def __init__(self, kind: str, group: GroupPresentation, values: np.ndarray,
                 raw: np.ndarray):
        self.kind = kind
        self.group = group
        self.values = values
        self.raw = raw  # as loaded, before counital normalization
        try:
            self.dual = dual_algebra(self.kind, self.group)
        except BackendError:
            raise CocycleError(f"unknown cocycle kind {self.kind!r}") from None
        n = self.group.order
        if self.values.shape != (n, n):
            raise CocycleError(f"cocycle table has shape {self.values.shape}, "
                               f"not ({n}, {n})")

    def is_trivial(self) -> bool:
        return bool(np.array_equal(self.values, np.outer(self.dual.unit, self.dual.unit)))


def make_cocycle(kind: str, group: GroupPresentation, values) -> Cocycle:
    """Normalize to counital form by the permitted phase, the coefficient
    of (eps (x) i)(Omega) at e, and package."""
    raw = np.asarray(values, dtype=complex)
    cocycle = Cocycle(kind, group, raw, raw)  # checks the kind and the shape
    c = _counit_legs(cocycle.dual, raw)[0][group.identity]
    if abs(c) < COCYCLE_SCALAR_FLOOR:
        raise CocycleError("cocycle has no counit component")
    cocycle.values = raw / c
    return cocycle


def trivial_cocycle(kind: str, group: GroupPresentation) -> Cocycle:
    """The cocycle 1 (x) 1."""
    unit = dual_algebra(kind, group).unit
    return make_cocycle(kind, group, np.outer(unit, unit))


# -- D as index data: products over nonzero coefficients ------------------------


def _sums(shape) -> np.ndarray:
    """Accumulators for np.add.at, holding -0.0, the identity of IEEE
    addition: a coefficient that one term reaches is that term, bit for
    bit."""
    return np.full(shape, complex(-0.0, -0.0))


def _times(dual: DualAlgebra, x: np.ndarray, legs: tuple, y: np.ndarray) -> np.ndarray:
    """The product (x on legs) y in the tensor power of D that y lives in: x
    is an element of D^(x len(legs)) acting on the given legs of y, and 1 on
    the others.  A term is formed for each nonzero coefficient of y and each
    nonzero product of basis elements e_a e_b on the legs, in the order of
    y's coefficients."""
    a, _, c = dual.product
    at = list(np.nonzero(y))
    w = y[tuple(at)]
    xat: list = []
    for leg in legs:
        # every triple (a, b, c) with b the index of y on this leg
        t = dual.left_partners[at[leg]]
        rows, k = np.nonzero(t >= 0)
        t = t[rows, k]
        at = [i[rows] for i in at]
        xat = [i[rows] for i in xat] + [a[t]]
        w = w[rows]
        at[leg] = c[t]
    out = _sums(y.shape)
    np.add.at(out, tuple(at), x[tuple(xat)] * w)
    return out


def _coproduct_on(dual: DualAlgebra, omega: np.ndarray, leg: int) -> np.ndarray:
    """(Delta (x) i)(Omega) for leg 0, (i (x) Delta)(Omega) for leg 1, in
    D (x) D (x) D."""
    p, q = dual.coproduct
    m = p.shape[1]
    at = np.nonzero(omega)
    out_at = [np.repeat(i, m) for i in at]
    out_at[leg:leg + 1] = [p[at[leg]].ravel(), q[at[leg]].ravel()]
    out = _sums((len(omega),) * 3)
    np.add.at(out, tuple(out_at), np.repeat(omega[at], m))
    return out


def _counit_legs(dual: DualAlgebra, omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(eps (x) i)(Omega) and (i (x) eps)(Omega), in D."""
    eps = dual.counit
    return (eps[:, None] * omega).sum(axis=0), (omega * eps).sum(axis=1)


def check_cocycle(cocycle: Cocycle, tol: float = DEFAULT_TOL) -> dict:
    """Residuals, as the largest coefficient on the basis, of unitarity
    Omega Omega* = 1 (x) 1, of the cocycle identity (Omega (x) 1)(Delta (x)
    i)(Omega) = (1 (x) Omega)(i (x) Delta)(Omega), and of counitality
    (eps (x) i)(Omega) = (i (x) eps)(Omega) = 1 (after the load-time phase
    normalization); names the first worst triple of the identity, or null
    when it holds exactly.  A non-invertible Omega fails unitarity."""
    dual, vals, g = cocycle.dual, cocycle.values, cocycle.group
    one = dual.unit
    rep: dict = {"kind": cocycle.kind}
    star = vals.conj()[np.ix_(dual.star, dual.star)]
    rep["unitarity"] = float(np.abs(_times(dual, vals, (0, 1), star) - np.outer(one, one)).max())
    lhs = _times(dual, vals, (0, 1), _coproduct_on(dual, vals, 0))
    rhs = _times(dual, vals, (1, 2), _coproduct_on(dual, vals, 1))
    diff = np.abs(lhs - rhs)
    rep["cocycle_identity"] = float(diff.max())
    worst = np.unravel_index(int(diff.argmax()), diff.shape)
    rep["worst_triple"] = [g.elements[i] for i in worst] if diff.max() > 0 else None
    left, right = _counit_legs(dual, vals)
    rep["counital"] = float(max(np.abs(left - one).max(), np.abs(right - one).max()))
    rep["passed"] = bool(max(rep["unitarity"], rep["cocycle_identity"],
                             rep["counital"]) < AUDIT_FACTOR * tol)
    return rep


class TwistElement:
    """The companion element u = sum_x coeffs[x] e_x of a cocycle, on the
    basis of D: a function on the group (dual kind) or a group-algebra
    element (group kind)."""

    def __init__(self, group: GroupPresentation, coeffs: np.ndarray):
        self.group = group
        self.coeffs = coeffs  # dual: u(gamma_i); group: coefficient of g_i

    def rep_matrix(self, rep: Rep) -> np.ndarray:
        """pi_U(u) = sum_x coeffs[x] pi_U(e_x) for a representation of the
        matching backend."""
        return np.einsum("g,gij->ij", self.coeffs, rep.matrices)


def twist_element(backend: Backend, cocycle: Cocycle, tol: float = DEFAULT_TOL):
    """Contract the cocycle through the antipode to its companion element
    u = m(i (x) S)(Omega); verify invertibility (the smallest singular value
    of u's left-regular matrix), the inverse identity u S(u*) = 1, and the
    intertwining identity against every conjugation solution of the table.

    Returns (element, report).
    """
    _check_cocycle_backend(backend, cocycle)
    dual, vals = cocycle.dual, cocycle.values
    n = cocycle.group.order
    a, b, c = dual.product
    rep: dict = {}
    # the terms Omega[a, x] e_a S(e_x) with S(e_x) = e_b and e_a e_b = e_c
    coeffs = _sums(n)
    np.add.at(coeffs, c, vals[a, dual.antipode[b]])
    reg = np.zeros((n, n), dtype=complex)
    np.add.at(reg, (c, b), coeffs[a])  # [c, b]: the coefficient of e_c in u e_b
    if np.linalg.svd(reg, compute_uv=False).min() < COCYCLE_SV_FLOOR:
        raise CocycleError("companion element is not invertible")
    u = TwistElement(cocycle.group, coeffs)
    # S(u*) = sum_x conj(u_x) S(e_x*)
    s_ustar = coeffs.conj()[dual.star[dual.antipode]]
    rep["inverse_identity"] = float(np.abs(_times(dual, coeffs, (0,), s_ustar) - dual.unit).max())

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
    representations of the matching backend: the sum of values[a, b]
    kron(u(e_a), v(e_b)) over the basis of D (x) D."""
    a, b = np.nonzero(cocycle.values)
    ua, vb = u.matrices[a], v.matrices[b]
    # a pair whose image u(e_a) or v(e_b) is 0 would add zeros: it is skipped
    keep = ua.any(axis=(1, 2)) & vb.any(axis=(1, 2))
    out = np.zeros((u.dim * v.dim, u.dim * v.dim), dtype=complex)
    # the kron of every pair kept, as one product, added in the order of
    # the pairs
    krons = ua[keep][:, :, None, :, None] * vb[keep][:, None, :, None, :]
    for w, k in zip(cocycle.values[a[keep], b[keep]], krons.reshape(-1, *out.shape)):
        out += w * k
    return out


# -- deformation of concrete actions -------------------------------------------


class DeformedAlgebra:
    """The deformed *-algebra on the coordinate space of the original one,
    whose model's expectation model.expect is the unchanged projection
    onto the fixed part, and its audit report."""

    def __init__(self, model: staralg.StarAlgebraModel, report: dict):
        self.model = model
        self.report = report


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
                  tol: float = DEFAULT_TOL) -> DeformedAlgebra:
    """The deformed algebra: both product factors are routed through the
    coaction against the cocycle, and the involution picks up the companion
    element.  The model's expectation is the unchanged one onto the fixed
    algebra F, as a B-valued map, so its state is the trace of B after it.
    The report is staralg.audit of the model over the matrix units of F:
    the *-algebra laws over the whole basis, and the algebraic-action
    conditions of the expectation, its faithfulness and the bound over F
    derived from its positivity.  The audit's C*-identity and bimodularity,
    which the section has no keys for, are gated in `passed`, and so is the
    companion element's verdict, whose report the section starts from."""
    _check_cocycle_backend(backend, cocycle)
    _require_matching(act, cocycle)
    b = act.algebra
    g = act.group
    n = g.order
    vals = cocycle.values
    base = staralg.StarAlgebraModel.of_block_algebra(b)
    rd = act.module_maps()
    u, u_rep = twist_element(backend, cocycle, tol=tol)

    if cocycle.is_trivial():
        # the identity cocycle deforms nothing; keep the tensors bit-exact
        table = base.table
        dagger = base.star_matrix
    else:
        table = deformed_table(base.table, [rd[x] for x in g.elements], vals)
        # <| by u* = sum_x conj(u_x) e_x*, where <| by e_x is rd[x]
        dagger = np.zeros_like(base.star_matrix)
        for x in range(n):
            if u.coeffs[x] != 0:
                dagger += np.conj(u.coeffs[x]) * rd[g.elements[backend.dual.star[x]]] @ base.star_matrix

    fixed = actions.fixed_point_algebra(backend, act)
    emb = np.array([b.coords(fixed.unit_images[k]) for k in range(fixed.algebra.dim)])
    model = staralg.StarAlgebraModel(table, dagger, base.unit, {}, b,
                                     emb.T @ np.linalg.pinv(emb.T))

    checks = staralg.audit(model, emb, tol)
    report = dict(u_rep)
    report["associative"] = checks["associativity"]
    report["involutive"] = checks["involution"]
    for key in ("anti_multiplicative", "unital", "expectation_gram_min_eig",
                "expectation_faithful", "expectation_bound_violation"):
        report[key] = checks[key]
    report["passed"] = u_rep["passed"] and checks["passed"]
    report["fixed_algebra_blocks"] = list(fixed.algebra.blocks)
    return DeformedAlgebra(model, report)


def deformation_cross_test(backend: Backend, act: actions.Action, cocycle: Cocycle,
                           deformed: DeformedAlgebra, tol: float = DEFAULT_TOL) -> dict:
    """Rebuild the deformed algebra a second way, from the twisted spectral
    functor, and compare it with the deformed action's algebra through the
    canonical map of the spectral functor: the two product tables and the
    two star matrices must agree (staralg.verify_algebra_iso)."""
    spec = actions.spectral_functor(backend, act)
    twisted = deform_functor(spec.functor, cocycle)
    # validated on the build's realization, so the twisted F_2 is formed once
    rebuilt = reconstruction.build_algebra(twisted, tol=tol, validate=False)
    val = functors.validate_functor(twisted, tol, real=rebuilt.real)
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
