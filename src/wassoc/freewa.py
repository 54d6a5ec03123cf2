"""The free weakly associative algebra on one generator.

On one generator the algebra is the free commutative magma algebra with a
unit adjoined: basis labels are the unit, the generator X, and unordered
pairs {u, v} of lower-degree labels.  Degree counts satisfy

    d_1 = d_2 = d_3 = 1,
    d_(2p+1) = sum_{k=1}^{p} d_k d_(2p+1-k),
    d_(2p)   = sum_{k=1}^{p-1} d_k d_(2p-k) + d_p (d_p + 1) / 2,

the unordered-binary-tree (Wedderburn-Etherington) numbers."""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from .finalg import FinAlg
from .identities import LEAF, shapes


@total_ordering
class Label:
    """Canonical basis label: unit, generator, or unordered pair."""

    __slots__ = ("degree", "kind", "parts", "_key")

    def __init__(self, kind: str, parts=None):
        if kind == "unit":
            degree = 0
        elif kind == "gen":
            degree = 1
        elif kind == "pair":
            u, v = parts
            if u > v:
                u, v = v, u
            parts = (u, v)
            degree = u.degree + v.degree
        else:
            raise ValueError(kind)
        self.kind = kind
        self.parts = parts
        self.degree = degree
        self._key = (degree, 0 if kind == "unit" else 1 if kind == "gen" else 2,
                     tuple(p._key for p in parts) if parts else ())

    def __eq__(self, other):
        return isinstance(other, Label) and self._key == other._key

    def __lt__(self, other):
        return self._key < other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        if self.kind == "unit":
            return "1"
        if self.kind == "gen":
            return "X"
        return "{" + str(self.parts[0]) + "," + str(self.parts[1]) + "}"

    __repr__ = __str__


UNIT = Label("unit")
GEN = Label("gen")


class DegreeOverflowError(ValueError):
    """Raised when a product would exceed the built degree bound."""


@dataclass
class GradedBasis:
    max_degree: int
    elements: list[list[Label]]  # elements[d] = canonical labels of degree d

    def all_labels(self) -> list[Label]:
        return [l for level in self.elements for l in level]

    def dims(self) -> list[int]:
        return [len(level) for level in self.elements]


def dimension_sequence(max_degree: int) -> list[int]:
    """d_0..d_D straight from the recursion (d_0 = 1 for the unit line)."""
    d = [1, 1]
    for n in range(2, max_degree + 1):
        if n % 2 == 1:
            p = (n - 1) // 2
            d.append(sum(d[k] * d[n - k] for k in range(1, p + 1)))
        else:
            p = n // 2
            total = sum(d[k] * d[n - k] for k in range(1, p))
            total += d[p] * (d[p] + 1) // 2
            d.append(total)
    return d[: max_degree + 1]


def build(max_degree: int) -> GradedBasis:
    """Populate all degrees 0..max_degree; counts match the recursion."""
    if max_degree < 0:
        raise ValueError("degree bound must be nonnegative")
    levels: list[list[Label]] = []
    for d in range(max_degree + 1):
        if d == 0:
            levels.append([UNIT])
        elif d == 1:
            levels.append([GEN])
        else:
            seen = set()
            out = []
            for p in range(1, d // 2 + 1):
                q = d - p
                for u in levels[p]:
                    for v in levels[q]:
                        lab = Label("pair", (u, v))
                        if lab not in seen:
                            seen.add(lab)
                            out.append(lab)
            out.sort()
            levels.append(out)
    basis = GradedBasis(max_degree, levels)
    expected = dimension_sequence(max_degree)
    if basis.dims() != expected:
        raise AssertionError(
            f"degree counts {basis.dims()} disagree with recursion {expected}"
        )
    return basis


def multiply(u: Label, v: Label, max_degree: int | None = None) -> Label:
    """Canonical unordered product; the unit is a genuine two-sided unit."""
    if u.kind == "unit":
        return v
    if v.kind == "unit":
        return u
    if max_degree is not None and u.degree + v.degree > max_degree:
        raise DegreeOverflowError(
            f"product degree {u.degree + v.degree} exceeds bound {max_degree}"
        )
    return Label("pair", (u, v))


@dataclass
class FreeTruncation:
    """Structure constants of the degree-truncated free algebra.

    Products of total degree above `max_degree` are set to zero; any
    computation that would look at such a product must keep its total degree
    within the bound to be trusted.
    """

    algebra: FinAlg
    labels: list[Label]
    index: dict
    max_degree: int


def as_truncated_algebra(basis: GradedBasis, max_degree: int | None = None) -> FreeTruncation:
    if max_degree is None:
        max_degree = basis.max_degree
    if max_degree > basis.max_degree:
        raise ValueError("cannot truncate above the built degree")
    labels = [l for level in basis.elements[: max_degree + 1] for l in level]
    index = {l: i for i, l in enumerate(labels)}
    products = {
        (i, j): {index[multiply(u, v)]: 1}
        for i, u in enumerate(labels)
        for j, v in enumerate(labels)
        if u.degree + v.degree <= max_degree
    }
    return FreeTruncation(FinAlg(len(labels), products), labels, index, max_degree)


def enumerate_unordered_trees(n: int) -> set:
    """Brute-force set of unordered binary trees with n leaves (independent
    counting oracle for the dimension recursion): the ordered trees of
    `identities.shapes` as canonical strings, children sorted
    lexicographically inside each node."""

    def canonical(tree) -> str:
        if tree is LEAF:
            return "*"
        x, y = sorted((canonical(tree[1]), canonical(tree[2])))
        return "(" + x + y + ")"

    return {canonical(tree) for tree in shapes(n)}
