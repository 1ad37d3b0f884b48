"""Representation categories of the two supported symmetry backends.

A backend is either a finite group G (representations are unitary matrix
representations) or the dual of a finite group Gamma (representations are
Gamma-graded vector spaces; irreducibles are one-dimensional and labeled
by group elements).  Both expose the same category operations: morphism
spaces, decomposition into irreducibles, and conjugation data.

Multiplicities come from characters before any SVD.  The character of a
word is the vector chi_u(g) = tr U(g) over the group for the group kind,
and the count of basis vectors in each grade for the dual kind; the
backend caches it per word, next to the table of irreducible characters.
dim Mor(u, v) is then <chi_u, chi_v>/|G| (Schur orthogonality), or the
number of matching grade pairs.  ``mor_basis`` skips the SVD when this count
is 0, and otherwise checks the rank of its thresholded SVD against it, so
the count certifies every rank decision and is never just trusted.

``decompose_words`` decomposes many words at once: words of one shape are
formed as one stack of matrices, and the Mor-space SVDs of one shape and
count run as one stacked SVD (``_mor_stack``).  ``mor_basis`` and
``decompose`` are its stacks of one, so a word gets the same bits alone as
in any stack.

Every table is of Kac type: every finite quantum group is (its Haar state
is a trace; Woronowicz, "Compact matrix pseudogroups", 1987), so the
modular matrix rho of the conjugate equations is the identity.  The
conjugate of an irreducible is its entrywise conjugate, and the
conjugate equations are solved by the identity matrices r and rbar.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BackendError
from .groups import GroupPresentation, cyclic_group, direct_product, symmetric_group
from .thresholds import DEFAULT_TOL, RANK_TOL, TABLE_MATCH_TOL


def _frobenius(stack: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each matrix of a stack (..., m, n), with the bits
    norm gives that matrix alone: the same dot products of the real and
    imaginary parts, as one stacked product each."""
    flat = stack.reshape(stack.shape[:-2] + (1, -1))

    def square(x):
        return (x @ x.swapaxes(-1, -2))[..., 0, 0]

    if np.iscomplexobj(flat):
        return np.sqrt(square(flat.real) + square(flat.imag))
    return np.sqrt(square(flat))


@dataclass(frozen=True)
class Irrep:
    """One irreducible: label, dimension, matrices (group kind only) and
    the label of the designated conjugate."""

    label: str
    dim: int
    matrices: np.ndarray | None  # (|G|, d, d) for the group kind
    conj: str


class Rep:
    """A concrete representation, tracked as a word of atomic factors.

    Atoms are irreducibles or their literal conjugates; tensor products
    concatenate words.  For the group kind the data is one unitary per
    group element; for the dual kind it is a grading (one group element
    per basis vector).
    """

    __slots__ = ("backend", "atoms", "dim", "matrices", "grades")

    def __init__(self, backend, atoms, dim, matrices, grades):
        self.backend = backend
        self.atoms = atoms  # tuple of (label, barred) pairs
        self.dim = dim
        self.matrices = matrices
        self.grades = grades

    @property
    def key(self):
        return self.atoms

    def __repr__(self):
        return _word_name(self.atoms, self.dim)


def _word_name(atoms, dim: int) -> str:
    word = "*".join(f"{l}~" if b else l for l, b in atoms) or "1"
    return f"Rep({word}, dim={dim})"


class Backend:
    """Irreducible table plus category operations for one backend.

    kind = "group": compact backend C(G) for a finite group G.
    kind = "dual":  dual backend C*(Gamma); irreps are labeled by
    elements of Gamma and all have dimension one.
    """

    def __init__(self, kind: str, group: GroupPresentation, irreps: list[Irrep]):
        if kind not in ("group", "dual"):
            raise BackendError(f"unknown backend kind {kind!r}")
        self.kind = kind
        # the data of a representation: its matrices or its grades
        self._field = "matrices" if kind == "group" else "grades"
        self.group = group
        self.irreps = {ir.label: ir for ir in irreps}
        if len(self.irreps) != len(irreps):
            raise BackendError("duplicate irrep labels")
        self.labels = tuple(ir.label for ir in irreps)
        self._trivial = self._find_trivial()
        self._rep_cache: dict = {}
        self._mor_cache: dict = {}
        self._dec_cache: dict = {}
        self._char_cache: dict = {}
        self._char_table: np.ndarray | None = None

    # -- table structure ------------------------------------------------

    def _find_trivial(self) -> str:
        if self.kind == "dual":
            return self.group.elements[self.group.identity]
        for label in self.labels:
            ir = self.irreps[label]
            if ir.dim == 1 and np.allclose(ir.matrices, 1.0, rtol=0, atol=TABLE_MATCH_TOL):
                return label
        raise BackendError("table has no trivial representation")

    @property
    def trivial_label(self) -> str:
        return self._trivial

    def irrep(self, label: str) -> Irrep:
        try:
            return self.irreps[label]
        except KeyError:
            raise BackendError(f"unknown irrep label {label!r}") from None

    def check(self, tol: float = DEFAULT_TOL) -> None:
        """Validate the table: unitarity, multiplicativity, conjugation
        pairing."""
        g = self.group
        g.check()
        for label in self.labels:
            ir = self.irreps[label]
            if ir.conj not in self.irreps:
                raise BackendError(f"conjugate of {label!r} missing from table")
            if self.kind == "dual":
                if ir.dim != 1:
                    raise BackendError("dual-backend irreps must be one-dimensional")
                idx = g.index(label)
                if ir.conj != g.elements[g.inv(idx)]:
                    raise BackendError(f"conjugate of {label!r} must be its inverse")
                continue
            mats = ir.matrices
            if mats is None or mats.shape != (g.order, ir.dim, ir.dim):
                raise BackendError(f"irrep {label!r} has malformed matrices")
            # U_i U_i* and U_i U_j for all i, j as two stacked products; the
            # first failure in the order i, then (i, j) over j, is reported
            unitary = _frobenius(mats @ mats.conj().transpose(0, 2, 1) - np.eye(ir.dim)) > tol
            table = _frobenius(mats[:, None] @ mats[None] - mats[g.mul]) > tol
            bad = np.flatnonzero(unitary | table.any(axis=1))
            if bad.size and unitary[bad[0]]:
                raise BackendError(f"irrep {label!r} is not unitary at {g.elements[bad[0]]}")
            if bad.size:
                raise BackendError(f"irrep {label!r} violates the table")
            # designated conjugate must have the conjugate character
            chi = np.einsum("gii->g", mats)
            chib = np.einsum("gii->g", self.irreps[ir.conj].matrices)
            if np.linalg.norm(chi.conj() - chib) > tol * g.order:
                raise BackendError(f"conjugate pairing of {label!r} is wrong")
        # Schur orthogonality across the table
        for a in self.labels:
            for b in self.labels:
                n = len(self.mor_basis(self.atom(a), self.atom(b)))
                if (a == b and n != 1) or (a != b and n != 0):
                    raise BackendError(f"table is not irreducible at ({a}, {b})")

    # -- representation constructors -------------------------------------

    def atom(self, label: str, barred: bool = False) -> Rep:
        key = ((label, barred),)
        if key in self._rep_cache:
            return self._rep_cache[key]
        ir = self.irrep(label)
        if self.kind == "group":
            # the conjugate representation on the conjugate space: with the
            # canonical identification its matrices are the entrywise conjugates
            mats = ir.matrices.conj() if barred else ir.matrices
            rep = Rep(self, key, ir.dim, mats, None)
        else:
            idx = self.group.index(label)
            grade = self.group.inv(idx) if barred else idx
            rep = Rep(self, key, 1, None, (grade,))
        self._rep_cache[key] = rep
        return rep

    def trivial_rep(self) -> Rep:
        return self.atom(self._trivial)

    def tensor(self, u: Rep, v: Rep) -> Rep:
        if u.backend is not v.backend:
            raise BackendError("representations live over different backends")
        key = u.atoms + v.atoms
        if key in self._rep_cache:
            return self._rep_cache[key]
        dim = u.dim * v.dim
        if self.kind == "group":
            mats = np.einsum("gij,gkl->gikjl", u.matrices, v.matrices).reshape(
                self.group.order, dim, dim
            )
            rep = Rep(self, key, dim, mats, None)
        else:
            grades = tuple(
                self.group.times(a, b) for a in u.grades for b in v.grades
            )
            rep = Rep(self, key, dim, None, grades)
        self._rep_cache[key] = rep
        return rep

    def word(self, atoms) -> Rep:
        """Representation of a word of (label, barred) atoms; () is trivial."""
        atoms = tuple(atoms)
        if not atoms:
            return self.trivial_rep()
        rep = self.atom(*atoms[0])
        for a in atoms[1:]:
            rep = self.tensor(rep, self.atom(*a))
        return rep

    # -- characters ---------------------------------------------------------

    def character(self, u: Rep) -> np.ndarray:
        """The character of a word, cached: tr U(g) per group element for
        the group kind, the number of basis vectors of each grade for the
        dual kind."""
        chi = self._char_cache.get(u.atoms)
        if chi is None:
            if self.kind == "group":
                chi = np.einsum("gii->g", u.matrices)
            else:
                grades = np.asarray(u.grades, dtype=int)
                chi = np.bincount(grades, minlength=self.group.order).astype(complex)
            self._char_cache[u.atoms] = chi
        return chi

    def _count(self, inner) -> np.ndarray:
        """Multiplicities from raw character inner products."""
        if self.kind == "group":
            inner = inner / self.group.order
        return np.rint(np.real(inner)).astype(int)

    def multiplicity(self, u: Rep, v: Rep) -> int:
        """dim Mor(u, v) from characters: <chi_u, chi_v>/|G| for the group
        kind, the number of matching grade pairs for the dual kind."""
        if u.backend is not v.backend:
            raise BackendError("representations live over different backends")
        return int(self._count(np.vdot(self.character(u), self.character(v))))

    # -- category operations ----------------------------------------------

    def mor_basis(self, u: Rep, v: Rep) -> list[np.ndarray]:
        """Orthonormal basis (trace inner product) of the intertwiner space
        Mor(u, v): the stack of one of ``_mor_stack``.

        The character count ``multiplicity(u, v)`` comes first: when it is 0
        the basis is empty and ``_mor_stack`` does not run.
        """
        if u.backend is not v.backend:
            raise BackendError("representations live over different backends")
        key = (u.atoms, v.atoms)
        if key in self._mor_cache:
            return self._mor_cache[key]
        count = self.multiplicity(u, v)
        basis = []
        if count:
            udata, vdata = (np.asarray(getattr(r, self._field))[None] for r in (u, v))
            basis = list(self._mor_stack(udata, vdata, count, lambda _: f"{u}, {v}")[0])
        self._mor_cache[key] = basis
        return basis

    def _mor_stack(self, udata: np.ndarray, vdata: np.ndarray, count: int,
                   name) -> np.ndarray:
        """Bases of Mor(u_n, v_n) for a stack of pairs of one shape and one
        character count > 0, given by their matrices (N, |G|, dim u, dim u)
        and (N, |G|, dim v, dim v), or for the dual kind by their grades
        (N, dim u) and (N, dim v): shape (N, count, dim v, dim u).  This is
        the one routine that chooses intertwiner bases.

        For the dual kind the basis is the matrix units e_kl with grade k of
        v equal to grade l of u, in row-major order.  For the group kind the
        averaging maps of the whole stack go through one SVD.  Each pair's
        number of singular values above RANK_TOL must equal the count; if it
        does not, the matrices are not a representation and BackendError is
        raised, naming the pair by ``name(index)``.
        """
        if self.kind == "dual":
            n, k, l = np.nonzero(vdata[:, :, None] == udata[:, None, :])
            out = np.zeros((len(vdata), count, vdata.shape[1], udata.shape[1]), dtype=complex)
            # the position of each unit within its pair's basis
            out[n, np.arange(len(n)) - np.searchsorted(n, n), k, l] = 1.0
            return out
        n, _, du, _ = udata.shape
        dv = vdata.shape[2]
        # columns of the averaging superoperator are the projected units
        sup = np.einsum("ngki,nglj->nklij", vdata, udata.conj())
        sup = sup.reshape(n, dv * du, dv * du) / self.group.order
        w, s, _ = np.linalg.svd(sup)
        ranks = np.sum(s > RANK_TOL, axis=1)
        for k in np.flatnonzero(ranks != count):
            raise BackendError(
                f"Mor({name(k)}): SVD rank {ranks[k]} differs from the character "
                f"count {count}; the matrices are not a representation"
            )
        return np.moveaxis(w[:, :, :count], 2, 1).reshape(n, count, dv, du)

    def mor_dim(self, u: Rep, v: Rep) -> int:
        return len(self.mor_basis(u, v))

    def decompose(self, u: Rep) -> list[tuple[str, np.ndarray]]:
        """Decompose into irreducibles: a list of (label, isometry) pairs with
        w* w = 1 on each summand and sum_i w_i w_i* = 1 on H_u; the stack of
        one of ``decompose_words``."""
        return self.decompose_words([u.atoms])[0]

    def decompose_words(self, words) -> list[list[tuple[str, np.ndarray]]]:
        """``decompose`` for many words of (label, barred) atoms at once,
        cached per word; the words not yet cached go through one
        ``_decompose_stack``."""
        words = [tuple(w) or ((self._trivial, False),) for w in words]
        todo = list(dict.fromkeys(w for w in words if w not in self._dec_cache))
        if todo:
            self._dec_cache.update(zip(todo, self._decompose_stack(todo)))
        return [self._dec_cache[w] for w in words]

    def _decompose_stack(self, words: list[tuple]) -> list[list[tuple[str, np.ndarray]]]:
        """The decompositions of distinct words.

        Trace-orthonormal intertwiners S_i from an irreducible into u satisfy
        S_i* S_j = (delta_ij / d) id by Schur's lemma, so sqrt(d) S_i are the
        required isometries; no further orthogonalization is needed.

        The words of one shape are formed as one stack of matrices (no Rep
        is built), the multiplicities of all irreducibles come from one
        product of the character table with their characters, and the
        Mor-space bases of each (word shape, label dimension, count) come
        from one ``_mor_stack``, in label order per word.  A word gets the
        same bits alone as in any stack.
        """
        out: list[list] = [[] for _ in words]
        if self._char_table is None:
            self._char_table = np.array(
                [self.character(self.atom(label)) for label in self.labels]
            ).conj()
        shapes: dict = {}
        for n, w in enumerate(words):
            if len(w) == 1 and not w[0][1]:
                # an irreducible from the table decomposes as itself, on the nose
                out[n] = [(w[0][0], np.eye(self.irrep(w[0][0]).dim, dtype=complex))]
            else:
                shapes.setdefault(tuple(self.irrep(label).dim for label, _ in w), []).append(n)

        def column(idx, pos):
            """The matrices (or grades) of the atoms at one position of the
            words, each distinct atom looked up once."""
            atoms = [words[n][pos] for n in idx]
            distinct = {x: k for k, x in enumerate(dict.fromkeys(atoms))}
            table = np.array([getattr(self.atom(*x), self._field) for x in distinct])
            return table[[distinct[x] for x in atoms]]

        for idx in shapes.values():
            data = column(idx, 0)
            for pos in range(1, len(words[idx[0]])):
                nxt = column(idx, pos)
                if self.kind == "group":
                    dim = data.shape[-1] * nxt.shape[-1]
                    data = np.einsum("ngij,ngkl->ngikjl", data, nxt).reshape(
                        len(idx), self.group.order, dim, dim
                    )
                else:
                    data = self.group.mul[data[:, :, None], nxt[:, None, :]].reshape(len(idx), -1)
            if self.kind == "group":
                chars = np.einsum("ngii->ng", data)
            else:
                chars = np.array([np.bincount(g, minlength=self.group.order) for g in data],
                                 dtype=complex)
            counts = self._count(chars @ self._char_table.T)
            irreps = [self.atom(label) for label in self.labels]
            found: dict = {}
            for row, col in zip(*np.nonzero(counts)):
                found.setdefault((irreps[col].dim, counts[row, col]), []).append((row, col))
            isos: dict = {}
            for (dim, count), pairs in found.items():
                rows, cols = (list(x) for x in zip(*pairs))
                bases = self._mor_stack(
                    np.array([getattr(irreps[col], self._field) for col in cols]), data[rows],
                    count, lambda k: f"{irreps[cols[k]]}, "
                                     f"{_word_name(words[idx[rows[k]]], data.shape[-1])}",
                )
                for pair, isometries in zip(pairs, np.sqrt(dim) * bases):
                    isos[pair] = list(isometries)
            for row, col in sorted(isos):
                out[idx[row]] += [(self.labels[col], iso) for iso in isos[row, col]]
        return out

    def conjugate_solution(self, label: str) -> "ConjugateSolution":
        """Solution of the conjugate equations for one irreducible.

        Coordinates: r lives in H_bar (x) H, rbar in H (x) H_bar, both stored
        as (d, d) arrays with the conjugate index first / last respectively.
        For a Kac table both are the identity: r = sum_k xi-bar_k (x) xi_k.
        """
        ir = self.irrep(label)
        eye = np.eye(ir.dim, dtype=complex)
        return ConjugateSolution(label, ir.conj, eye, eye.copy())


@dataclass(frozen=True)
class ConjugateSolution:
    """Conjugation maps for one irreducible: r : C -> H_bar (x) H and
    rbar : C -> H (x) H_bar, as coefficient matrices."""

    label: str
    conj: str
    r: np.ndarray  # r[c, k]: component on xi-bar_c (x) xi_k
    rbar: np.ndarray  # rbar[k, c]: component on xi_k (x) xi-bar_c

    def residuals(self) -> tuple[float, float]:
        """Deviation of the two conjugate-equation composites from the identity."""
        d = self.r.shape[0]
        m1 = np.einsum("kc,ci->ik", self.rbar.conj(), self.r)
        m2 = np.einsum("ck,kd->dc", self.r.conj(), self.rbar)
        eye = np.eye(d)
        return float(np.linalg.norm(m1 - eye)), float(np.linalg.norm(m2 - eye))

    def norms(self) -> tuple[float, float]:
        return float(np.linalg.norm(self.r)), float(np.linalg.norm(self.rbar))


# -- backend constructors ----------------------------------------------------


def dual_backend(group: GroupPresentation) -> Backend:
    """Dual backend of a finite group: one 1-dimensional irrep per element,
    conjugate = inverse."""
    irreps = []
    for i, name in enumerate(group.elements):
        conj = group.elements[group.inv(i)]
        irreps.append(Irrep(name, 1, None, conj))
    return Backend("dual", group, irreps)


def _character_backend(group: GroupPresentation, characters: np.ndarray,
                       labels: list[str]) -> Backend:
    irreps = []
    n = group.order
    for k, label in enumerate(labels):
        mats = characters[k].reshape(n, 1, 1).astype(complex)
        # conjugate character identifies the conjugate irrep
        conj = None
        for l in range(len(labels)):
            if np.allclose(characters[l], characters[k].conj(), rtol=0,
                           atol=TABLE_MATCH_TOL):
                conj = labels[l]
                break
        irreps.append(Irrep(label, 1, mats, conj))
    return Backend("group", group, irreps)


def cyclic_backend(n: int) -> Backend:
    """Compact backend for the cyclic group Z_n (all irreps are characters)."""
    group = cyclic_group(n)
    omega = np.exp(2j * np.pi / n)
    chars = np.array([[omega ** (k * g) for g in range(n)] for k in range(n)])
    return _character_backend(group, chars, [f"chi{k}" for k in range(n)])


def abelian_product_backend(orders: list[int]) -> Backend:
    """Compact backend for Z_{n1} x ... x Z_{nk}."""
    group = cyclic_group(orders[0])
    for n in orders[1:]:
        group = direct_product(group, cyclic_group(n))

    def exponents(name: str) -> list[int]:
        return [int(p) for p in name.split("|")]

    chars = []
    labels = []
    for k, name in enumerate(group.elements):
        ks = exponents(name)
        row = []
        for g in group.elements:
            gs = exponents(g)
            phase = sum(a * b / n for a, b, n in zip(ks, gs, orders))
            row.append(np.exp(2j * np.pi * phase))
        chars.append(row)
        labels.append("chi" + name.replace("|", ","))
    return _character_backend(group, np.array(chars), labels)


def symmetric3_backend() -> Backend:
    """Compact backend for S_3: trivial, sign, and the 2-dimensional standard
    irrep realized orthogonally on the zero-sum plane of C^3."""
    group = symmetric_group(3)
    n = group.order
    # orthonormal basis of the zero-sum plane
    b = np.array([[1, 1], [-1, 1], [0, -2]], dtype=float)
    b[:, 0] /= np.sqrt(2)
    b[:, 1] /= np.sqrt(6)
    triv = np.ones((n, 1, 1), dtype=complex)
    sign = np.zeros((n, 1, 1), dtype=complex)
    std = np.zeros((n, 2, 2), dtype=complex)
    for i, name in enumerate(group.elements):
        perm = [int(c) for c in name]
        p = np.zeros((3, 3))
        for x in range(3):
            p[perm[x], x] = 1.0
        std[i] = b.T @ p @ b
        sign[i] = np.linalg.det(p)
    irreps = [
        Irrep("triv", 1, triv, "triv"),
        Irrep("sign", 1, sign, "sign"),
        Irrep("std", 2, std, "std"),
    ]
    return Backend("group", group, irreps)
