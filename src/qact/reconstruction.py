"""Assembly of the graded *-algebra attached to validated functor data.

The algebra lives on the direct sum, over irreducibles alpha, of
(conjugate space of H_alpha) (x) M_alpha.  The product routes elementary
tensors through the multiplication maps and reprojects onto irreducible
components; the involution pairs each component with its conjugate; the
distinguished component of the trivial irreducible is the base algebra,
and compressing onto it is the conditional expectation.  The operator
norm comes from the left regular representation on the induced Hilbert
space of the expectation.
"""

from __future__ import annotations

import numpy as np

from .functors import Realization, TensorFunctorData, validate_functor

PRUNE_TOL = 1e-13


class BuildError(ValueError):
    """Functor data failed validation on entry to the build."""


class GradedElement:
    """An element of the reconstructed algebra: one coefficient array of
    shape (irrep dim, module dim) per irreducible label."""

    __slots__ = ("parts",)

    def __init__(self, parts: dict[str, np.ndarray] | None = None):
        self.parts = {}
        if parts:
            for label, arr in parts.items():
                arr = np.asarray(arr, dtype=complex)
                if arr.size and np.abs(arr).max() > PRUNE_TOL:
                    self.parts[label] = arr

    def component(self, label: str, shape) -> np.ndarray:
        if label in self.parts:
            return self.parts[label]
        return np.zeros(shape, dtype=complex)

    def __add__(self, other):
        out = {label: arr.copy() for label, arr in self.parts.items()}
        for label, arr in other.parts.items():
            if label in out:
                out[label] = out[label] + arr
            else:
                out[label] = arr
        return GradedElement(out)

    def scale(self, c: complex):
        return GradedElement({l: c * a for l, a in self.parts.items()})

    def __sub__(self, other):
        return self + other.scale(-1.0)


class ReconstructedAlgebra:
    """The graded *-algebra of a functor, with precomputed structure tensors."""

    def __init__(self, functor: TensorFunctorData, tol: float = 1e-9,
                 validate: bool = True):
        if validate:
            report = validate_functor(functor, tol)
            if not report.passed:
                bad = sorted(k for k, v in report.axioms.items() if not v.passed)
                raise BuildError(f"functor data fails validation at {bad}")
        self.functor = functor
        self.backend = functor.backend
        self.algebra = functor.algebra
        self.tol = tol
        self.real = Realization(functor)

        self.labels = []
        self.shapes: dict[str, tuple[int, int]] = {}
        self.offsets: dict[str, int] = {}
        off = 0
        for label in self.backend.labels:
            d = self.backend.irrep(label).dim
            m = functor.module(label).dim
            if m == 0:
                continue
            self.labels.append(label)
            self.shapes[label] = (d, m)
            self.offsets[label] = off
            off += d * m
        self.dim = off

        self._product = self._build_product_tensors()
        self._star = self._build_star_tensors()
        self._gram = None
        self._gns = None
        self._table = None

    # -- structure tensors -------------------------------------------------

    def _build_product_tensors(self):
        tensors = {}
        for a in self.labels:
            for b in self.labels:
                oa = self.real.atom_object(a)
                ob = self.real.atom_object(b)
                word = self.real.object(oa.atoms + ob.atoms)
                f2 = self.real.f2_tensor(oa, ob)
                da, db = self.shapes[a][0], self.shapes[b][0]
                entries = []
                for k, (gamma, wk) in enumerate(word.components):
                    if gamma not in self.shapes:
                        continue
                    dg = self.shapes[gamma][0]
                    wt = wk.T.reshape(dg, da, db)
                    phi = f2[word.slot(k)]
                    entries.append((gamma, wt.copy(), phi))
                tensors[(a, b)] = entries
        return tensors

    def _build_star_tensors(self):
        tensors = {}
        for a in self.labels:
            m = self.shapes[a][1]
            sol = self.backend.conjugate_solution(a)
            bar_obj = self.real.atom_object(a, barred=True)
            (target, w), = bar_obj.components
            partners = self.real.involution_partners(a, np.eye(m), tol=self.tol).T
            cmat = w.T @ sol.r.conj()
            tensors[a] = (target, cmat, partners)
        return tensors

    # -- element helpers ----------------------------------------------------

    def zero(self) -> GradedElement:
        return GradedElement({})

    def unit(self) -> GradedElement:
        e = self.backend.trivial_label
        coords = self.algebra.coords(self.algebra.identity())
        return GradedElement({e: coords.reshape(1, -1)})

    def from_algebra(self, mat: np.ndarray) -> GradedElement:
        e = self.backend.trivial_label
        return GradedElement({e: self.algebra.coords(mat).reshape(1, -1)})

    def flatten(self, x: GradedElement) -> np.ndarray:
        vec = np.zeros(self.dim, dtype=complex)
        for label, arr in x.parts.items():
            d, m = self.shapes[label]
            off = self.offsets[label]
            vec[off:off + d * m] = arr.reshape(-1)
        return vec

    def unflatten(self, vec: np.ndarray) -> GradedElement:
        parts = {}
        for label in self.labels:
            d, m = self.shapes[label]
            off = self.offsets[label]
            parts[label] = np.asarray(vec[off:off + d * m]).reshape(d, m)
        return GradedElement(parts)

    def basis(self):
        out = []
        for label in self.labels:
            d, m = self.shapes[label]
            for i in range(d):
                for p in range(m):
                    arr = np.zeros((d, m), dtype=complex)
                    arr[i, p] = 1.0
                    out.append(GradedElement({label: arr}))
        return out

    # -- operations ----------------------------------------------------------

    def multiply(self, x: GradedElement, y: GradedElement) -> GradedElement:
        acc: dict[str, np.ndarray] = {}
        for a, xa in x.parts.items():
            for b, yb in y.parts.items():
                for gamma, wt, phi in self._product[(a, b)]:
                    piece = np.einsum("cij,rpq,ip,jq->cr", wt, phi, xa, yb)
                    if gamma in acc:
                        acc[gamma] += piece
                    else:
                        acc[gamma] = piece
        return GradedElement(acc)

    def star(self, x: GradedElement) -> GradedElement:
        acc: dict[str, np.ndarray] = {}
        for a, xa in x.parts.items():
            target, cmat, partners = self._star[a]
            piece = cmat @ xa.conj() @ partners.T
            if target in acc:
                acc[target] += piece
            else:
                acc[target] = piece
        return GradedElement(acc)

    def expectation(self, x: GradedElement) -> np.ndarray:
        """Compress onto the trivial component, as a base-algebra element."""
        e = self.backend.trivial_label
        if e not in x.parts:
            return np.zeros((self.algebra.n, self.algebra.n), dtype=complex)
        return self.algebra.from_coords(x.parts[e][0])

    def inner(self, x: GradedElement, y: GradedElement) -> np.ndarray:
        """Algebra-valued inner product E(x* y)."""
        return self.expectation(self.multiply(self.star(x), y))

    def coaction_at(self, g: str, x: GradedElement) -> GradedElement:
        """Evaluate the coaction at a group element (group-kind backends)."""
        if self.backend.kind != "group":
            raise BuildError("pointwise coaction evaluation needs a group backend")
        gi = self.backend.group.index(g)
        parts = {}
        for label, arr in x.parts.items():
            u = self.backend.irrep(label).matrices[gi]
            parts[label] = u.T @ arr
        return GradedElement(parts)

    def grading(self, x: GradedElement) -> dict[str, GradedElement]:
        """The coaction of a dual backend: the component decomposition."""
        if self.backend.kind != "dual":
            raise BuildError("grading form of the coaction needs a dual backend")
        return {label: GradedElement({label: arr}) for label, arr in x.parts.items()}

    def project_word(self, atoms, arr: np.ndarray, components=None) -> GradedElement:
        """Project an element of (conjugate word space) (x) F(word) onto the
        algebra; independent of the decomposition used (components may
        override the cached one to exercise that independence)."""
        obj = self.real.object(tuple(atoms))
        arr = np.asarray(arr, dtype=complex).reshape(obj.rep.dim, obj.dim)
        acc: dict[str, np.ndarray] = {}
        if components is None:
            for k, (gamma, wk) in enumerate(obj.components):
                if gamma not in self.shapes:
                    continue
                piece = wk.T @ arr[:, obj.slot(k)]
                if gamma in acc:
                    acc[gamma] += piece
                else:
                    acc[gamma] = piece
        else:
            for gamma, wk in components:
                if gamma not in self.shapes:
                    continue
                fw = self.real.morphism_matrix(
                    wk.conj().T, obj, self.real.atom_object(gamma)
                )
                piece = wk.T @ (arr @ fw.T)
                if gamma in acc:
                    acc[gamma] += piece
                else:
                    acc[gamma] = piece
        return GradedElement(acc)

    def free_product_word(self, a: str, xa: np.ndarray, b: str, yb: np.ndarray):
        """The elementary product of two components before projection: the
        pair (word, coefficient array) in (conjugate space) (x) F(word)."""
        oa = self.real.atom_object(a)
        ob = self.real.atom_object(b)
        f2 = self.real.f2_tensor(oa, ob)
        arr = np.einsum("ip,jq,tpq->ijt", xa, yb, f2)
        atoms = oa.atoms + ob.atoms
        word = self.real.object(atoms)
        return atoms, arr.reshape(word.rep.dim, word.dim)

    # -- norms ----------------------------------------------------------------

    def gram(self) -> np.ndarray:
        """Algebra-valued Gram matrix of the flat basis under E(x* y)."""
        if self._gram is None:
            basis = self.basis()
            n = self.algebra.n
            g = np.zeros((self.dim, self.dim, n, n), dtype=complex)
            stars = [self.star(b) for b in basis]
            for i, bs in enumerate(stars):
                for j, bj in enumerate(basis):
                    g[i, j] = self.expectation(self.multiply(bs, bj))
            self._gram = g
        return self._gram

    def _gns_data(self):
        if self._gns is None:
            g = self.gram()
            n = self.algebra.n
            s = np.transpose(g, (0, 2, 1, 3)).reshape(self.dim * n, self.dim * n)
            s = (s + s.conj().T) / 2
            w, v = np.linalg.eigh(s)
            cutoff = 1e-12 * max(float(w.max()), 1e-300)
            keep = w > cutoff
            self._gns = (v[:, keep], np.sqrt(w[keep]))
        return self._gns

    def mult_matrix(self, x: GradedElement) -> np.ndarray:
        """Matrix of y -> x y on the flat basis."""
        return np.einsum("i,ijk->kj", self.flatten(x), self.multiplication_table())

    def operator_norm(self, x: GradedElement) -> float:
        """Norm of x acting by left multiplication on the Hilbert space
        induced from the expectation (a faithful *-representation, so this
        is the C*-norm)."""
        v, sq = self._gns_data()
        lx = np.kron(self.mult_matrix(x), np.eye(self.algebra.n))
        t = (v * sq).conj().T @ lx @ (v / sq)
        return float(np.linalg.norm(t, 2)) if t.size else 0.0

    # -- reporting -------------------------------------------------------------

    def component_dims(self) -> dict[str, list[int]]:
        return {l: [self.shapes[l][0], self.shapes[l][1]] for l in self.labels}

    def multiplication_table(self) -> np.ndarray:
        """Entry [i, j] is the flat product of basis elements i and j, with
        each component pruned as multiply prunes it.  Built once; read-only."""
        if self._table is None:
            span = {label: slice(self.offsets[label], self.offsets[label] + d * m)
                    for label, (d, m) in self.shapes.items()}
            table = np.zeros((self.dim, self.dim, self.dim), dtype=complex)
            for (a, b), entries in self._product.items():
                for gamma, wt, phi in entries:
                    block = np.einsum("cij,rpq->ipjqcr", wt, phi)
                    table[span[a], span[b], span[gamma]] += block.reshape(
                        block.shape[0] * block.shape[1], block.shape[2] * block.shape[3], -1)
            for gamma in self.labels:
                part = table[:, :, span[gamma]]
                part[np.abs(part).max(axis=2) <= PRUNE_TOL] = 0.0
            table.setflags(write=False)
            self._table = table
        return self._table

    def star_matrix(self) -> np.ndarray:
        basis = self.basis()
        cols = [self.flatten(self.star(b)) for b in basis]
        return np.array(cols).T


def build_algebra(functor: TensorFunctorData, tol: float = 1e-9,
                  validate: bool = True) -> ReconstructedAlgebra:
    return ReconstructedAlgebra(functor, tol=tol, validate=validate)


def random_element(algebra: ReconstructedAlgebra, rng) -> GradedElement:
    vec = rng.standard_normal(algebra.dim) + 1j * rng.standard_normal(algebra.dim)
    return algebra.unflatten(vec)


def build_report(alg: ReconstructedAlgebra, seed: int = 0, samples: int = 100) -> dict:
    """Property audit of a built algebra: associativity, involution laws,
    expectation laws, the C*-identity for the regular norm, and the
    homomorphism property of the word projection."""
    rng = np.random.default_rng(seed)
    tol = alg.tol
    rep: dict = {
        "dimension": alg.dim,
        "component_dims": alg.component_dims(),
        "tolerance": tol,
    }

    worst_assoc = 0.0
    worst_invol = 0.0
    worst_anti = 0.0
    worst_cstar = 0.0
    for _ in range(samples):
        x = random_element(alg, rng)
        y = random_element(alg, rng)
        z = random_element(alg, rng)
        nx, ny, nz = (alg.operator_norm(v) for v in (x, y, z))
        lhs = alg.multiply(alg.multiply(x, y), z)
        rhs = alg.multiply(x, alg.multiply(y, z))
        worst_assoc = max(
            worst_assoc,
            alg.operator_norm(lhs - rhs) / max(nx * ny * nz, 1e-30),
        )
        worst_invol = max(
            worst_invol,
            alg.operator_norm(alg.star(alg.star(x)) - x) / max(nx, 1e-30),
        )
        worst_anti = max(
            worst_anti,
            alg.operator_norm(alg.star(alg.multiply(x, y))
                              - alg.multiply(alg.star(y), alg.star(x)))
            / max(nx * ny, 1e-30),
        )
        xx = alg.multiply(alg.star(x), x)
        worst_cstar = max(
            worst_cstar,
            abs(alg.operator_norm(xx) - nx**2) / max(nx**2, 1e-30),
        )
    rep["associativity"] = worst_assoc
    rep["involution"] = worst_invol
    rep["anti_multiplicative"] = worst_anti
    rep["cstar_identity"] = worst_cstar

    # expectation: bimodularity over A, positivity, faithfulness, and the
    # boundedness condition E(x* a* a x) <= |a|^2 E(x* x)
    worst_bimod = 0.0
    worst_bound = -np.inf
    amat = alg.algebra.project(
        rng.standard_normal((alg.algebra.n, alg.algebra.n))
        + 1j * rng.standard_normal((alg.algebra.n, alg.algebra.n))
    )
    a_el = alg.from_algebra(amat)
    for _ in range(20):
        x = random_element(alg, rng)
        lhs = alg.expectation(alg.multiply(a_el, alg.multiply(x, a_el)))
        rhs = amat @ alg.expectation(x) @ amat
        worst_bimod = max(worst_bimod, float(np.abs(lhs - rhs).max()))
        exx = alg.inner(x, x)
        ax = alg.multiply(a_el, x)
        eaxax = alg.inner(ax, ax)
        bound = alg.algebra.opnorm(amat) ** 2 * exx - eaxax
        worst_bound = max(
            worst_bound,
            -float(np.linalg.eigvalsh((bound + bound.conj().T) / 2).min()),
        )
    rep["expectation_bimodular"] = worst_bimod
    rep["expectation_bound_violation"] = max(worst_bound, 0.0)

    gram = alg.gram()
    scal = np.einsum("pquu->pq", gram)
    scal = (scal + scal.conj().T) / 2
    eigs = np.linalg.eigvalsh(scal) if alg.dim else np.array([1.0])
    rep["expectation_gram_min_eig"] = float(eigs.min())
    rep["expectation_faithful"] = bool(eigs.min() > tol)

    # the projection onto irreducibles is a homomorphism on word elements
    worst_pi = 0.0
    labels = alg.labels
    for _ in range(10):
        a = labels[int(rng.integers(len(labels)))]
        b = labels[int(rng.integers(len(labels)))]
        da, ma = alg.shapes[a]
        db, mb = alg.shapes[b]
        xa = rng.standard_normal((da, ma)) + 1j * rng.standard_normal((da, ma))
        yb = rng.standard_normal((db, mb)) + 1j * rng.standard_normal((db, mb))
        atoms, arr = alg.free_product_word(a, xa, b, yb)
        lhs = alg.project_word(atoms, arr)
        rhs = alg.multiply(GradedElement({a: xa}), GradedElement({b: yb}))
        worst_pi = max(worst_pi, alg.operator_norm(lhs - rhs))
    rep["word_projection_homomorphism"] = worst_pi

    checks = [
        worst_assoc < 1e4 * tol,
        worst_invol < 1e4 * tol,
        worst_anti < 1e4 * tol,
        worst_cstar < 1e-8,
        worst_bimod < 1e4 * tol,
        rep["expectation_bound_violation"] < 1e4 * tol,
        rep["expectation_faithful"],
        worst_pi < 1e4 * tol,
    ]
    rep["passed"] = bool(all(checks))
    return rep
