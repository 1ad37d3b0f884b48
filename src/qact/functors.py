"""Tensor-functor data into categories of correspondences, and its validators.

The data of a functor F is: the base algebra A = F(trivial), one
correspondence M_alpha per irreducible, and for every fusion triple
(alpha, beta, gamma) a linear family of bilinear maps
M_alpha (x) M_beta -> M_gamma indexed by the chosen orthonormal basis of
the intertwiner space Mor(alpha x beta, gamma).

F extends to arbitrary representations through their decompositions: the
value on a tensor word is the direct sum of the modules of its irreducible
constituents, morphisms act blockwise by Schur scalars, and the
multiplication maps assemble from the stored family.  ``Realization``
builds this extension word by word, for the reconstruction and the
involution; the layout of F_2 on a product of words is memoized by the
component labels and dimension of each word, which determine it.

The validator checks the axioms on the finite set of decompositions the
backend produces, which by semisimplicity certifies them up to tensor
depth 3.  Associativity and the adjoint exchange are conditions on fusion
data carried along the two bracketings of a*b*c (the F-moves of
Etingof-Gelaki-Nikshych-Ostrik, Tensor Categories, ch. 4); the validator
evaluates them from fusion data, stacked, without realizing any word of
length 3, and reports them in the word basis of a*b*c (see
``validate_functor``).  Both validators return the validation section
itself; data that fails an axiom gives `passed` false, not an exception.
"""

from __future__ import annotations

import numpy as np

from .algebras import (
    BlockAlgebra,
    Correspondence,
    adjoints_of,
    algebra_as_correspondence,
    module_linear_residuals,
    tensor_semi_inners,
    validate_correspondences,
)
from .errors import BackendError, IncompleteDataError
from .groups import GroupPresentation
from .repcat import Backend, Rep, dual_backend
from .thresholds import COMPOSITE_FACTOR, DEFAULT_TOL, RANK_TOL, SCHUR_FLOOR

# complex entries per triple chunk of the stacked validation contractions;
# past this size a larger stack runs slower
CHUNK = 1 << 15


def _word_key(components: list) -> tuple:
    """The component labels, in order, and the dimension of a word, given by
    its component list: with those of the other words of a product, they
    determine the layout of F_2 on it (Realization.layout)."""
    return tuple(label for label, _ in components), components[0][1].shape[0]


class TensorFunctorData:
    """The presentation of a functor into correspondences over one algebra.

    phi maps a fusion triple (alpha, beta, gamma) to the list of tensors
    of shape (dim M_gamma, dim M_alpha, dim M_beta), one per basis element
    of Mor(alpha x beta, gamma) in backend order.
    """

    def __init__(self, backend: Backend, algebra: BlockAlgebra,
                 modules: dict[str, Correspondence],
                 phi: dict[tuple[str, str, str], list[np.ndarray]], name: str = "functor"):
        self.backend = backend
        self.algebra = algebra
        self.modules = modules
        self.phi = phi
        self.name = name

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


class WordObject:
    """The realization of F on one tensor word of atoms."""

    def __init__(self, atoms: tuple, rep: Rep, components: list, offsets: list[int],
                 carrier: Correspondence):
        self.atoms = atoms
        self.rep = rep
        self.components = components  # (label, isometry) pairs from the backend decomposition
        self.offsets = offsets
        self.carrier = carrier
        self.key = _word_key(components)

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
        self._layouts: dict = {}

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
        of the compressed intertwiners; a block whose scalar is at most
        SCHUR_FLOOR times the Frobenius norm of T in modulus stays zero, so
        F(c T) = c F(T) for every scalar c.
        """
        out = np.zeros((tgt.dim, src.dim), dtype=complex)
        floor = SCHUR_FLOOR * np.linalg.norm(t)
        for k, (lk, wk) in enumerate(tgt.components):
            for j, (lj, wj) in enumerate(src.components):
                if lk != lj:
                    continue
                d = self.backend.irrep(lk).dim
                scalar = np.trace(wk.conj().T @ t @ wj) / d
                if abs(scalar) > floor:
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

    def layout(self, key: tuple, prod: tuple):
        """The shape of F_2 on one product of words, given by their component
        lists prod = (left, right, target): each component's isometry shape
        and module dimension, and (k, i, j, number of intertwiners) for every
        block F_2 fills.  Memoized by `key`, which must be the _word_key of
        each of the three words of prod (WordObject.key), and determines it."""
        if key not in self._layouts:
            left, right, target = prod
            dim = {label: self.functor.module(label).dim for label, _ in left + right + target}
            parts = tuple(tuple((w.shape, dim[l]) for l, w in comps) for comps in prod)
            blocks = []
            for k, (lk, _) in enumerate(target):
                for i, (li, _) in enumerate(left):
                    for j, (lj, _) in enumerate(right):
                        if dim[lk] and dim[li] and dim[lj]:
                            count = len(self._fusion_data(li, lj, lk)[0])
                            if count:
                                blocks.append((k, i, j, count))
            self._layouts[key] = parts, tuple(blocks)
        return self._layouts[key]

    def f2_tensor(self, left: WordObject, right: WordObject) -> np.ndarray:
        """The multiplication map F(left) (x) F(right) -> F(left * right) as a
        dense (target, left, right) tensor."""
        return self.f2_tensors([(left, right)])[0]

    def f2_tensors(self, pairs: list) -> list[np.ndarray]:
        """f2_tensor for a list of (left, right) pairs: the pairs not yet
        cached are built by ``_stacked_f2``, one stack per layout."""
        stacks: dict = {}
        for left, right in pairs:
            key = (left.atoms, right.atoms)
            if key not in self._f2:
                target = self.object(left.atoms + right.atoms)
                prod = (left.components, right.components, target.components)
                layout = self.layout((left.key, right.key, target.key), prod)
                stacks.setdefault(layout, {})[key] = prod
        for layout, prods in stacks.items():
            self._f2.update(zip(prods, _stacked_f2(self, list(prods.values()), layout)))
        return [self._f2[left.atoms, right.atoms] for left, right in pairs]

    def involution_partners(self, alpha: str, xs: np.ndarray,
                            tol: float = DEFAULT_TOL) -> np.ndarray:
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
        [(adjoints, _, adjointable)] = adjoints_of([(None, bar.carrier, maps, pair.carrier)], tol)
        if not adjointable.all():
            raise BackendError(
                "adjoint solve failed; the data violates the adjointability axiom"
            )
        return adjoints @ target_vec


# -- validation ---------------------------------------------------------------


def _axiom(residual: float, passed: bool, **detail) -> dict:
    """One axiom's entry of the validation section."""
    return {"residual": residual, "passed": passed, **detail}


def _section(tol: float, axioms: dict) -> dict:
    """The validation section: passed when every axiom is."""
    return {"passed": all(c["passed"] for c in axioms.values()), "tolerance": tol,
            "axioms": dict(sorted(axioms.items()))}


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


def _isometry_residuals(t: np.ndarray, inner: np.ndarray, semi: np.ndarray) -> np.ndarray:
    """Largest entry, per stack entry, of <t(x (x) y), t(x' (x) y')> -
    <x (x) y, x' (x) y'> for a stack (count, c, a, b) of multiplication
    tensors t : M_a (x) M_b -> M_c, where inner is the stack of inner
    tensors of M_c, (count, c, c, k) in the algebra's coordinates, and semi
    that of tensor_semi_inners(M_a, M_b); two stacked matrix products."""
    count, c, a, b = t.shape
    k = inner.shape[-1]
    # half[t, (r, z), l] = sum_s t[s, r, z] <m_t, m_s>_l
    half = t.reshape(count, 1, c, a * b).transpose(0, 1, 3, 2) @ inner
    # lhs[(p, q), (r, z, l)] = sum_t conj(t[t, p, q]) half[t, r, z, l]
    lhs = t.conj().reshape(count, c, a * b).transpose(0, 2, 1) \
        @ half.reshape(count, c, a * b * k)
    lhs.reshape(semi.shape)[...] -= semi
    return np.abs(lhs).max(axis=(1, 2), initial=0.0)


def _gather(items: list) -> np.ndarray:
    """np.array(items) for a list that repeats its objects: each distinct
    object is converted once, then indexed."""
    distinct = list({id(x): x for x in items}.values())
    where = {id(x): n for n, x in enumerate(distinct)}
    return np.array(distinct)[[where[id(x)] for x in items]]


def _stacked_f2(real: Realization, prods: list, layout) -> np.ndarray:
    """F_2 for a stack of products (left, right, target) of component lists
    with one layout, as (count, target, left, right) tensors.

    Block by block: the Kronecker product of the two isometries compressed
    by the target's, one trace against each intertwiner of the fusion
    triple, and the phi tensors weighted by the traces above SCHUR_FLOOR.
    Every operation acts on each product of the stack on its own, so a
    product gets the same bits alone as in any stack.
    """
    parts, blocks = layout
    off = [np.cumsum([0] + [m for _, m in part]) for part in parts]
    n = len(prods)
    out = np.zeros((n, off[2][-1], off[0][-1], off[1][-1]), dtype=complex)
    for k, i, j, count in blocks:
        u, v, w = (_gather([p[x][y][1] for p in prods]) for x, y in ((0, i), (1, j), (2, k)))
        # the Kronecker products of the two isometries
        kron = (u[:, :, None, :, None] * v[:, None, :, None, :]).reshape(
            n, u.shape[1] * v.shape[1], u.shape[2] * v.shape[2]
        )
        compressed = w.conj().transpose(0, 2, 1) @ kron
        fusion = [real._fusion_data(p[0][i][0], p[1][j][0], p[2][k][0]) for p in prods]
        basis = _gather([f[0] for f in fusion])
        coeffs = np.trace(basis.conj().transpose(0, 1, 3, 2) @ compressed[:, None],
                          axis1=2, axis2=3)
        block = out[:, off[2][k]:off[2][k + 1], off[0][i]:off[0][i + 1],
                    off[1][j]:off[1][j + 1]]
        for m in range(count):
            keep = np.abs(coeffs[:, m]) > SCHUR_FLOOR
            phis = _gather([f[1][m] for f in fusion])[keep]
            block[keep] += coeffs[keep, m][:, None, None, None] * phis
    return out


def _bracketings(real: Realization, live: list):
    """F_2 on the two bracketings of every word a*b*c over the labels
    ``live``, in the word basis of a*b*c, without realizing any word of
    length 3.

    Returns the triples (a, b, c) in label order, chunks
    (indices, ab_c, a_bc) of the tensors F(ab) (x) F(c) -> F(abc) and
    F(a) (x) F(bc) -> F(abc) for triples[indices[n]], and the component
    labels of each a*b*c.  The isometries of all words a*b*c come from one
    backend.decompose_words.  A chunk holds triples of one shape signature
    (the module dimension of b and the layouts of both products), at most
    CHUNK entries per triple's largest contraction.
    """
    words = {(x,): real.atom_object(x) for x in live}
    words.update({(x, y): real.object(((x, False), (y, False))) for x in live for y in live})
    triples = [(a, b, c) for a in live for b in live for c in live]
    abc = real.backend.decompose_words([tuple((x, False) for x in t) for t in triples])
    abc_keys = [_word_key(parts) for parts in abc]
    groups: dict = {}
    for n, (a, b, c) in enumerate(triples):
        ab, c_, a_, bc = words[a, b], words[c,], words[a,], words[b, c]
        prods = ((ab.components, c_.components, abc[n]), (a_.components, bc.components, abc[n]))
        # layout's precondition: abc_keys[n] is _word_key(abc[n])
        key = (real.functor.module(b).dim,
               real.layout((ab.key, c_.key, abc_keys[n]), prods[0]),
               real.layout((a_.key, bc.key, abc_keys[n]), prods[1]))
        groups.setdefault(key, []).append((n, prods))
    chunks = []
    for (mb, lay_ab_c, lay_a_bc), members in groups.items():
        (n_ab, mc, n_abc), (ma, n_bc, _) = (
            [sum(m for _, m in part) for part in lay[0]] for lay in (lay_ab_c, lay_a_bc)
        )
        step = max(1, CHUNK // max(n_abc * ma * mb * mc, ma * n_bc * n_ab * mc, 1))
        for lo in range(0, len(members), step):
            part = members[lo:lo + step]
            chunks.append((
                [n for n, _ in part],
                _stacked_f2(real, [p[0] for _, p in part], lay_ab_c),
                _stacked_f2(real, [p[1] for _, p in part], lay_a_bc),
            ))
    return triples, chunks, [labels for labels, _ in abc_keys]


def validate_functor(functor: TensorFunctorData, tol: float = DEFAULT_TOL,
                     real: Realization | None = None) -> dict:
    """The validation section of the functor data: `passed`, `tolerance`
    and, under `axioms`, each axiom's residual and verdict.  It is checked
    on `real`, a Realization of the data, when given: a caller that goes on
    to use the realization (the algebra build) then reuses its word
    objects and F_2.

    (i)   the trivial module is the base algebra;
    (ii)  multiplication maps are jointly isometric for the inner products;
    (iii) identity intertwiners act as the module actions;
    (iv)  the two ways through a triple product agree;
    (v)   left-multiplication operators are adjointable and their adjoints
          exchange with the multiplication maps; a missing adjoint in the
          exchange fails the axiom (see ``_axiom_v``).

    (i)-(iii) and the adjoints of (v) run on the words of length <= 2.
    (iv) and the exchange identity of (v) run on F_2 of the two
    bracketings of every word a*b*c, evaluated from fusion data by
    ``_bracketings`` with no word of length 3 realized: triples of one
    shape signature form one stack, and each axiom is a few contractions
    per stack.  Each quantity is formed once per shape, across labels,
    pairs and sources: the module checks one stack per module dimension
    (validate_correspondences), the semi-inner products of (ii) one stack
    per shape of F_2 from each module's inner-tensor coordinates, taken
    once, and module linearity in (v) one stack per shape of the maps.  The
    adjoints of (v), out of F(b) or F(bc), are one adjoints_of call, with
    one SVD per shape and distinct source: the carriers of words with the
    same constituent labels are equal.  (ii) and the adjoint
    solves compare algebra elements by their matrix-unit coordinates; the
    entries outside the blocks of the algebra, zero for valid data, are
    checked once, by modules_wellformed.

    Each entry of (iv), an einsum per stack, gets the bits the word-by-word
    evaluation gives it.  (ii), the adjoint solves and the exchange
    identity of (v) are stacked matrix products (BLAS): an entry is the
    same in any stack, and agrees with a contraction in another order, or
    with lstsq's solve, to rounding, not bit for bit.

    Residuals are reported in the word basis of a*b*c, through the
    isometries of its decomposition.  A max-abs entry is not invariant
    under a change of basis on a multiplicity space (as in S3's
    std*std*std, which holds std three times), so the basis is part of
    what a residual means.
    """
    real = Realization(functor) if real is None else real
    axioms, fusion = _axioms_i_to_iv(real, tol)
    axioms["v_adjointability"] = _axiom_v(real, fusion, tol)
    return _section(tol, axioms)


def _axioms_i_to_iv(real: Realization, tol: float):
    """Module well-formedness and axioms (i)-(iv) of validate_functor, and
    the fusion data that axiom (v) reuses: the live labels, F_2 of their
    pairs, and the triples with their bracketings (see ``_bracketings``)."""
    functor = real.functor
    backend = functor.backend
    labels = list(backend.labels)
    axioms: dict = {}

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
    axioms["i_unit_object"] = _axiom(res_i, res_i < tol)

    # module well-formedness feeds into the same report; the modules of one
    # dimension are checked as one stack
    live = [label for label in labels if functor.module(label).dim]
    worst_mod = 0.0
    for rep in validate_correspondences([functor.module(label) for label in live], tol):
        worst_mod = max(
            worst_mod,
            rep["actions"],
            rep["left_right_commute"],
            rep["inner_hermitian"],
            rep["inner_module_linear"],
            0.0 if rep["nondegenerate"] else float("inf"),
        )
    axioms["modules_wellformed"] = _axiom(worst_mod, worst_mod < COMPOSITE_FACTOR * tol)

    # (ii) isometry pair by pair; the words of length 2 decompose as one
    # stack, and their F_2 form one stack per layout
    keys = [(a, b) for a in live for b in live]
    backend.decompose_words([((a, False), (b, False)) for a, b in keys])
    pairs = [(real.atom_object(a), real.atom_object(b)) for a, b in keys]
    f2 = dict(zip(keys, real.f2_tensors(pairs)))
    shapes: dict = {}
    for key, (oa, ob) in zip(keys, pairs):
        shapes.setdefault(f2[key].shape, []).append((key, real.object(oa.atoms + ob.atoms)))
    # the inner products in the algebra's matrix-unit coordinates (entries
    # outside its blocks are modules_wellformed's concern), each module's
    # taken once; one stack of residuals per shape of F_2, at most CHUNK
    # entries of the inner products of M_a (x) M_b per chunk
    alg = functor.algebra
    coords = {label: alg.coords(functor.module(label).inner_tensor) for label in live}
    res_pairs = {}
    for (_, ma, mb), members in shapes.items():
        step = max(1, CHUNK // (ma * mb * ma * mb * alg.dim))
        for lo in range(0, len(members), step):
            part = members[lo:lo + step]
            res_pairs.update(zip((key for key, _ in part), _isometry_residuals(
                np.stack([f2[key] for key, _ in part]),
                alg.coords(np.stack([target.carrier.inner_tensor for _, target in part])),
                tensor_semi_inners(
                    np.stack([coords[a] for (a, _), _ in part]),
                    np.stack([functor.module(b).left for (_, b), _ in part]),
                    np.stack([coords[b] for (_, b), _ in part])))))
    detail_ii = {f"{a},{b}": float(res_pairs[a, b]) for a, b in keys}
    res_ii = max(detail_ii.values(), default=0.0)
    axioms["ii_isometry"] = _axiom(res_ii, res_ii < tol, pairs=detail_ii)

    # (iii) units
    res_iii = _unit_axiom_residual(real)
    axioms["iii_units"] = _axiom(res_iii, res_iii < tol)

    # (iv) associativity on the two bracketings of every word a*b*c
    triples, chunks, abc_labels = _bracketings(real, live)
    res_iv = np.zeros(len(triples))
    for idx, ab_c, a_bc in chunks:
        lhs = np.einsum("ntsr,nspq->ntpqr", ab_c, np.stack([f2[triples[n][:2]] for n in idx]))
        rhs = np.einsum("ntps,nsqr->ntpqr", a_bc, np.stack([f2[triples[n][1:]] for n in idx]))
        res_iv[idx] = np.abs(lhs - rhs).max(axis=(1, 2, 3, 4), initial=0.0)
    detail_iv = {f"{a},{b},{c}": float(r) for (a, b, c), r in zip(triples, res_iv)}
    res = max(detail_iv.values(), default=0.0)
    axioms["iv_associativity"] = _axiom(res, res < tol, triples=detail_iv)
    return axioms, (live, f2, triples, chunks, abc_labels)


def _exchange_residuals(adj_ab: np.ndarray, f2_bc: np.ndarray, adj_a_bc: np.ndarray,
                        f2_ab_c: np.ndarray) -> np.ndarray:
    """The exchange identity of axiom (v) for a stack of triples a*b*c:
    the largest entry, per triple and basis vector m_p of F(a), of
    S_p*(ab) F_2(bc) - S_p*(abc) F_2(ab, c), where S_p*(ab) : F(ab) -> F(b)
    and S_p*(abc) : F(abc) -> F(bc) are the adjoints (adj_ab, adj_a_bc) and
    F_2(bc), F_2(ab, c) the multiplication tensors; two stacked matrix
    products."""
    count, ma, mb, m_ab = adj_ab.shape
    m_bc, mc = f2_bc.shape[1], f2_bc.shape[3]
    # lhs[n, p, (s, t, r)] = sum_q S*_p(ab)[q, s] F_2(bc)[t, q, r], with s
    # in F(ab), t in F(bc) and r in F(c)
    lhs = adj_ab.transpose(0, 1, 3, 2).reshape(count, ma * m_ab, mb) \
        @ f2_bc.transpose(0, 2, 1, 3).reshape(count, mb, m_bc * mc)
    # rhs[n, p, (t, s, r)] = sum_w S*_p(abc)[t, w] F_2(ab, c)[w, s, r]
    rhs = adj_a_bc.reshape(count, ma * m_bc, -1) @ f2_ab_c.reshape(count, f2_ab_c.shape[1], -1)
    diff = lhs.reshape(count, ma, m_ab, m_bc, mc)
    diff -= rhs.reshape(count, ma, m_bc, m_ab, mc).transpose(0, 1, 3, 2, 4)
    return np.abs(diff).max(axis=(2, 3, 4), initial=0.0)


def _axiom_v(real: Realization, fusion, tol: float) -> dict:
    """Axiom (v) on the fusion data of ``_axioms_i_to_iv``: adjointability
    plus the exchange identity, for the maps S_p = F_2(m_p (x) -) of all
    basis vectors m_p of F(a) at once.

    Where S_p : F(bc) -> F(abc) has no adjoint, the exchange entry reports
    the finite residual of its adjoint solve, and the axiom fails whatever
    that residual is.
    """
    functor = real.functor
    live, f2, triples, chunks, abc_labels = fusion
    words = {p: real.object(((p[0], False), (p[1], False))) for p in f2}
    maps = {(a, b): t.transpose(1, 0, 2) for (a, b), t in f2.items()}
    # module linearity, one stack per shape of the maps
    lin = {}
    shapes: dict = {}
    for p, s in maps.items():
        shapes.setdefault(s.shape, []).append(p)
    for (count, dim_n, dim_m), members in shapes.items():
        step = max(1, CHUNK // max(count * functor.algebra.dim * dim_n * dim_m, 1))
        for lo in range(0, len(members), step):
            part = members[lo:lo + step]
            lin.update(zip(part, module_linear_residuals(
                np.stack([maps[p] for p in part]),
                np.stack([functor.module(p[1]).right for p in part]),
                np.stack([words[p].carrier.right for p in part]))))
    # the adjoints of S_p : F(b) -> F(ab) and of S_p : F(bc) -> F(abc), all
    # in one call; a source is keyed by its constituent labels
    jobs = [((b,), functor.module(b), s, words[a, b].carrier) for (a, b), s in maps.items()]
    sums: dict = {}
    order = []
    for idx, _, a_bc in chunks:
        for n, t in zip(idx, a_bc):
            key = abc_labels[n]
            if key not in sums:
                sums[key] = direct_sum(functor.algebra, [functor.module(l) for l in key])
            bc = words[triples[n][1:]]
            jobs.append((tuple(label for label, _ in bc.components), bc.carrier,
                         t.transpose(1, 0, 2), sums[key]))
            order.append(n)
    solved = adjoints_of(jobs, tol)
    adj = dict(zip(f2, solved))
    big = dict(zip(order, solved[len(f2):]))
    # per triple and basis vector: the exchange residual where S_p : F(bc) ->
    # F(abc) has an adjoint, else the residual of its solve
    entry = {}
    for idx, ab_c, _ in chunks:
        found = np.stack([big[n][2] for n in idx])
        exchange = _exchange_residuals(
            np.stack([adj[triples[n][:2]][0] for n in idx]),
            np.stack([f2[triples[n][1:]] for n in idx]),
            np.stack([big[n][0] for n in idx]), ab_c)
        solve = np.stack([big[n][1] for n in idx])
        entry.update(zip(idx, zip(np.where(found, exchange, solve).tolist(), found.tolist())))
    missing = False
    detail_v = {}
    index = {t: n for n, t in enumerate(triples)}
    for a, b in f2:
        rows = [entry[index[a, b, c]] for c in live]
        _, solve, adjointable = adj[a, b]
        residuals = np.where(solve > lin[a, b], solve, lin[a, b]).tolist()
        for p, adjointable in enumerate(adjointable.tolist()):
            detail_v[f"adjoint:{a},{b}:{p}"] = residuals[p]
            if not adjointable:
                continue
            for c, (values, found) in zip(live, rows):
                missing = missing or not found[p]
                detail_v[f"exchange:{a},{b},{c}:{p}"] = values[p]
    res_v = max([0.0, *detail_v.values()])
    return _axiom(res_v, res_v < COMPOSITE_FACTOR * tol and not missing, checks=detail_v)


# -- graded bundles -----------------------------------------------------------


class GradedBundle:
    """A group-indexed bundle of correspondences with multiplication
    isometries phi[(a, b)] : M_a (x) M_b -> M_{ab}, tensors of shape
    (dim M_ab, dim M_a, dim M_b)."""

    def __init__(self, group: GroupPresentation, algebra: BlockAlgebra,
                 fibers: dict[str, Correspondence], mult: dict[tuple[str, str], np.ndarray]):
        self.group = group
        self.algebra = algebra
        self.fibers = fibers
        self.mult = mult

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


# the keys of validate_functor's axioms in a validate_graded report
GRADED_KEYS = {"i_unit_object": "a_unit_fiber", "modules_wellformed": "modules_wellformed",
               "ii_isometry": "isometry", "iii_units": "b_units",
               "iv_associativity": "c_associativity", "v_adjointability": "d_adjoint_exchange"}


def validate_graded(bundle: GradedBundle, tol: float = DEFAULT_TOL) -> dict:
    """The validation section of validate_functor on from_graded(bundle),
    with its axioms renamed by GRADED_KEYS and without the per-pair and
    per-triple detail.

    Axiom (v), the adjoint exchange, is skipped, and reported as such, when
    every multiplication map is surjective (numerical rank at RANK_TOL).
    """
    functor = from_graded(bundle)
    real = Realization(functor)
    checks, fusion = _axioms_i_to_iv(real, tol)
    axioms = {GRADED_KEYS[k]: _axiom(c["residual"], c["passed"]) for k, c in checks.items()}
    if all(not len(t) or np.linalg.matrix_rank(t.reshape(len(t), -1), tol=RANK_TOL) == len(t)
           for [t] in functor.phi.values()):
        axioms["d_adjoint_exchange"] = _axiom(
            0.0, True, skipped="all multiplication maps are surjective")
    else:
        d = _axiom_v(real, fusion, tol)
        axioms["d_adjoint_exchange"] = _axiom(d["residual"], d["passed"])
    return _section(tol, axioms)


def from_graded(bundle: GradedBundle) -> TensorFunctorData:
    """Wrap a graded bundle as functor data over the dual backend of its
    group; the data is not validated (see validate_graded)."""
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
