"""Finite groups presented by explicit multiplication tables.

Element names are strings; all internal arithmetic is done on integer
indices into the element list, which keeps every downstream computation
deterministic (no hash-ordered iteration anywhere).
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .records import ReadOnly


class GroupError(ValueError):
    """Raised when a multiplication table violates the group laws."""


class GroupPresentation(ReadOnly):
    """A finite group as an ordered element list plus a Cayley table.

    Parameters
    ----------
    elements : tuple of str
        Element names, in a fixed order.
    mul : ndarray, shape (n, n), int
        ``mul[i, j]`` is the index of ``elements[i] * elements[j]``.
    identity : int
        Index of the identity element.
    inverse : ndarray, shape (n,), int
        ``inverse[i]`` is the index of ``elements[i] ** -1``.
    """

    def __init__(self, elements: tuple[str, ...], mul: np.ndarray, identity: int,
                 inverse: np.ndarray, name: str = "group"):
        self.__dict__.update(elements=elements, mul=mul, identity=identity,
                             inverse=inverse, name=name)

    @property
    def order(self) -> int:
        return len(self.elements)

    def index(self, element: str) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise GroupError(f"unknown element {element!r}") from None

    def times(self, i: int, j: int) -> int:
        return int(self.mul[i, j])

    def inv(self, i: int) -> int:
        return int(self.inverse[i])

    def check(self) -> None:
        """Verify associativity, identity and inverse laws on all tuples."""
        n = self.order
        if self.mul.shape != (n, n):
            raise GroupError("multiplication table has wrong shape")
        e = self.identity
        for i in range(n):
            if self.mul[e, i] != i or self.mul[i, e] != i:
                raise GroupError(f"identity law fails at {self.elements[i]}")
            j = self.inv(i)
            if self.mul[i, j] != e or self.mul[j, i] != e:
                raise GroupError(f"inverse law fails at {self.elements[i]}")
        # [i, j, k]: (ij)k and i(jk); the first failure in index order
        bad = np.argwhere(self.mul[self.mul] != self.mul[:, self.mul])
        if len(bad):
            i, j, k = bad[0]
            raise GroupError(
                "associativity fails at "
                f"({self.elements[i]}, {self.elements[j]}, {self.elements[k]})"
            )


def group_from_table(elements, table, identity, name="group") -> GroupPresentation:
    """Build and validate a presentation from a name-valued Cayley table.

    `table` maps pairs of names to names, given as nested lists in element
    order (row g, column h holds the name of g*h).
    """
    elements = tuple(elements)
    index = {g: i for i, g in enumerate(elements)}
    n = len(elements)
    mul = np.zeros((n, n), dtype=int)
    for i in range(n):
        for j in range(n):
            mul[i, j] = index[table[i][j]]
    e = index[identity]
    inverse = np.zeros(n, dtype=int)
    for i in range(n):
        hits = [j for j in range(n) if mul[i, j] == e]
        if len(hits) != 1:
            raise GroupError(f"no unique inverse for {elements[i]}")
        inverse[i] = hits[0]
    group = GroupPresentation(elements, mul, e, inverse, name=name)
    group.check()
    return group


def cyclic_group(n: int) -> GroupPresentation:
    """The cyclic group of order n with elements "0", ..., "n-1"."""
    if n < 1:
        raise GroupError("order must be positive")
    elements = tuple(str(k) for k in range(n))
    table = [[str((i + j) % n) for j in range(n)] for i in range(n)]
    return group_from_table(elements, table, "0", name=f"Z{n}")


def direct_product(g: GroupPresentation, h: GroupPresentation) -> GroupPresentation:
    """Direct product with elements named "a|b"."""
    elements = []
    for a in g.elements:
        for b in h.elements:
            elements.append(f"{a}|{b}")
    ng, nh = g.order, h.order
    table = []
    for i in range(ng * nh):
        ia, ib = divmod(i, nh)
        row = []
        for j in range(ng * nh):
            ja, jb = divmod(j, nh)
            row.append(f"{g.elements[g.times(ia, ja)]}|{h.elements[h.times(ib, jb)]}")
        table.append(row)
    identity = f"{g.elements[g.identity]}|{h.elements[h.identity]}"
    return group_from_table(elements, table, identity, name=f"{g.name}x{h.name}")


def symmetric_group(n: int) -> GroupPresentation:
    """The symmetric group on {0, ..., n-1}, elements named by one-line notation.

    Composition convention: (s*t)(x) = s(t(x)).
    """
    perms = sorted(permutations(range(n)))
    label = {p: "".join(map(str, p)) for p in perms}
    elements = [label[p] for p in perms]
    table = []
    for s in perms:
        row = []
        for t in perms:
            st = tuple(s[t[x]] for x in range(n))
            row.append(label[st])
        table.append(row)
    identity = label[tuple(range(n))]
    return group_from_table(elements, table, identity, name=f"S{n}")
