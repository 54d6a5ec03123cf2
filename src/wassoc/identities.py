"""Binary trees and the multilinear identities built from them.

A tree is `LEAF` or a triple (op, left, right) of an operation tag and two
subtrees.  The product is "m"; the degree-3 coboundary ansatz also uses a
formal cochain symbol "f".  This module owns the tree format: `shapes`
enumerates trees, `leaf_count`, `node_ops` and `shape_str` read them,
`graft` (partial composition) substitutes one tree into a leaf of another,
and `consequence_generators` builds the consequences of a relation span one
arity up from grafts and one relabeling per coset of the relabelings that
the span absorbs: (n+1)(n+2) rows per basis vector of an arity-n span.

An identity of arity n is a rational vector over pairs (tree, labeling):
the labeling assigns the variable indices 1..n to the leaves left to right.
The associator, the weak-associativity expression, flexibility, Lie
admissibility and the Leibniz expression all live here, and the
symmetric-group algebra acts by relabeling.  The coordinate order of the
one-operation monomials of each arity (`monomial_order`) and its index are
built once; an identity's coordinates are its sparse row (`sparse_row`,
{column: coefficient}), ranked through `linalg.sparse_rref`.  The
constructor is the only validation: results of arithmetic, relabeling and
grafting are built from validated identities by `_trusted`, which only drops
zero coefficients.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from types import MappingProxyType
from typing import Iterable, Mapping

from .linalg import as_rational, sparse_rref
from .symgroup import SIGMA3, GroupAlgebraElement, Perm, all_perms, sigma_basis

LEAF = None
Shape = object

LEFT_COMB3 = ("m", ("m", LEAF, LEAF), LEAF)
RIGHT_COMB3 = ("m", LEAF, ("m", LEAF, LEAF))


@lru_cache(maxsize=None)
def shapes(n: int, ops: tuple[str, ...] = ("m",)) -> tuple:
    """All binary trees with n leaves whose nodes are tagged by `ops`: larger
    left subtree first, then by operation in the order of `ops` (so the left
    comb is always shapes(n)[0])."""
    if n < 1:
        raise ValueError("need at least one leaf")
    if n == 1:
        return (LEAF,)
    return tuple(
        (op, l, r)
        for left_leaves in range(n - 1, 0, -1)
        for op in ops
        for l in shapes(left_leaves, ops)
        for r in shapes(n - left_leaves, ops)
    )


@lru_cache(maxsize=None)
def monomial_order(arity: int) -> tuple[tuple, ...]:
    """Canonical (shape, labels) order of the free arity-n component: shapes
    in canonical order, labelings in the group-basis order.  Position i is
    column i of `MultilinearIdentity.sparse_row`."""
    return tuple((shape, p.images) for shape in shapes(arity) for p in sigma_basis(arity))


@lru_cache(maxsize=None)
def _monomial_index(arity: int) -> Mapping[tuple, int]:
    """(shape, labels) -> position in `monomial_order(arity)`, read-only
    because every identity of that arity shares it."""
    return MappingProxyType({key: i for i, key in enumerate(monomial_order(arity))})


@lru_cache(maxsize=None)
def _shape_position(arity: int) -> Mapping[Shape, int]:
    """One-operation tree -> position in `shapes(arity)`, read-only."""
    return MappingProxyType({shape: i for i, shape in enumerate(shapes(arity))})


_SIGMA3_POSITION = {p.images: i for i, p in enumerate(SIGMA3)}


def leaf_count(shape: Shape) -> int:
    if shape is LEAF:
        return 1
    return leaf_count(shape[1]) + leaf_count(shape[2])


def node_ops(shape: Shape) -> tuple[str, ...]:
    """The operations of a tree's nodes in prefix order."""
    if shape is LEAF:
        return ()
    return (shape[0],) + node_ops(shape[1]) + node_ops(shape[2])


def shape_str(shape: Shape, labels: Iterable[int]) -> str:
    it = iter(labels)

    def rec(s, top=False):
        if s is LEAF:
            return f"x{next(it)}"
        if s[0] != "m":
            return f"{s[0]}({rec(s[1], True)},{rec(s[2], True)})"
        inner = rec(s[1]) + rec(s[2])
        return inner if top else "(" + inner + ")"

    return rec(shape, top=True)


class MultilinearIdentity:
    """Rational combination of (tree, labeling) monomials of one arity.

    `sparse_row` covers the one-operation ("m") monomials
    of `monomial_order`; trees with other operations take part in
    arithmetic, relabeling, grafting and printing only."""

    __slots__ = ("arity", "coeffs")

    def __init__(self, arity: int, coeffs: dict | None = None):
        self.arity = arity
        clean: dict[tuple, Fraction] = {}
        for (shape, labels), q in (coeffs or {}).items():
            labels = tuple(labels)
            if leaf_count(shape) != arity or sorted(labels) != list(range(1, arity + 1)):
                raise ValueError(f"bad monomial for arity {arity}: {shape}, {labels}")
            q = as_rational(q)
            if q != 0:
                clean[(shape, labels)] = q
        self.coeffs = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultilinearIdentity)
            and self.arity == other.arity
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.arity, frozenset(self.coeffs.items())))

    def is_zero(self) -> bool:
        return not self.coeffs

    def term_count(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "MultilinearIdentity") -> "MultilinearIdentity":
        if self.arity != other.arity:
            raise ValueError("arity mismatch")
        acc = dict(self.coeffs)
        for k, q in other.coeffs.items():
            acc[k] = acc[k] + q if k in acc else q
        return _trusted(self.arity, acc)

    def __sub__(self, other: "MultilinearIdentity") -> "MultilinearIdentity":
        return self + other.scale(-1)

    def scale(self, q) -> "MultilinearIdentity":
        q = as_rational(q)
        return _trusted(self.arity, {k: q * c for k, c in self.coeffs.items()})

    def coefficient(self, shape: Shape, labels: Iterable[int]) -> Fraction:
        return self.coeffs.get((shape, tuple(labels)), Fraction(0))

    def sparse_row(self) -> dict[int, Fraction]:
        """The nonzero coordinates as {position in `monomial_order`: coefficient}."""
        index = _monomial_index(self.arity)
        return {index[key]: q for key, q in self.coeffs.items()}

    def __str__(self) -> str:
        """Terms in `monomial_order` (shape position, then the labels'
        group-basis position), computed per term so any arity prints; trees
        with another operation follow in insertion order."""
        if not self.coeffs:
            return "0"
        position = _shape_position(self.arity)

        def order(key):
            shape, labels = key
            if shape not in position:
                return (1,)
            return (0, position[shape], _SIGMA3_POSITION[labels] if self.arity == 3 else labels)

        parts = []
        for key in sorted(self.coeffs, key=order):
            q = self.coeffs[key]
            sign = "-" if q < 0 else "+"
            mag = abs(q)
            mono = shape_str(*key)
            parts.append((sign, mono if mag == 1 else f"{mag}*{mono}"))
        sign, term = parts[0]
        out = ("-" if sign == "-" else "") + term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def __repr__(self) -> str:
        return f"MultilinearIdentity({self})"


def _trusted(arity: int, acc: dict) -> MultilinearIdentity:
    """A MultilinearIdentity around the nonzero entries of `acc` without
    validation: its keys must already be monomials of this arity and its
    values Fractions, as every result computed from validated identities
    is."""
    e = object.__new__(MultilinearIdentity)
    e.arity = arity
    e.coeffs = {k: q for k, q in acc.items() if q}
    return e


def monomial(shape: Shape, labels: Iterable[int], coeff=1) -> MultilinearIdentity:
    labels = tuple(labels)
    return MultilinearIdentity(len(labels), {(shape, labels): as_rational(coeff)})


def zero_identity(arity: int) -> MultilinearIdentity:
    return MultilinearIdentity(arity, {})


def apply_perm(e: MultilinearIdentity, s: Perm) -> MultilinearIdentity:
    """Relabel variables through s (label j becomes s(j)); this realizes
    precomposition of the evaluated map with the slot permutation of s."""
    if e.arity != s.n:
        raise ValueError("arity mismatch")
    images = (None,) + s.images
    # Relabeling is injective on monomials, so no two terms merge.
    return _trusted(
        e.arity,
        {(shape, tuple([images[l] for l in labels])): q for (shape, labels), q in e.coeffs.items()},
    )


def apply_group_vector(e: MultilinearIdentity, v: GroupAlgebraElement) -> MultilinearIdentity:
    """Linear extension of apply_perm over a group-algebra element."""
    if e.arity != v.n:
        raise ValueError("arity mismatch")
    acc: dict[tuple, Fraction] = {}
    for p, q in v.coeffs.items():
        for k, c in apply_perm(e, p).coeffs.items():
            acc[k] = acc[k] + q * c if k in acc else q * c
    return _trusted(e.arity, acc)


def graft(outer: MultilinearIdentity, var: int, inner: MultilinearIdentity) -> MultilinearIdentity:
    """Partial composition outer o_var inner (Loday-Vallette, *Algebraic
    Operads*, ch. 5), bilinear in both: in each monomial of `outer` the leaf
    labelled `var` is replaced by a monomial of `inner` whose labels are
    shifted up by var - 1, and every other label l > var becomes
    l + inner.arity - 1."""
    if not 1 <= var <= outer.arity:
        raise ValueError(f"no variable {var} in an arity-{outer.arity} identity")
    shift = inner.arity - 1
    acc: dict[tuple, Fraction] = {}
    for (tree, labels), p in outer.coeffs.items():
        for (sub, sub_labels), q in inner.coeffs.items():
            out_labels: list[int] = []

            def rec(t, it):
                if t is LEAF:
                    l = next(it)
                    if l == var:
                        out_labels.extend(s + var - 1 for s in sub_labels)
                        return sub
                    out_labels.append(l + shift if l > var else l)
                    return LEAF
                return (t[0], rec(t[1], it), rec(t[2], it))

            key = (rec(tree, iter(labels)), tuple(out_labels))
            acc[key] = acc[key] + p * q if key in acc else p * q
    return _trusted(outer.arity + shift, acc)


def _relabeling_basis(relations: list[MultilinearIdentity]) -> list[MultilinearIdentity]:
    """A basis of the span of every relabeling of the relations, reduced over
    the monomials they use, so trees with any operations are accepted."""
    n = relations[0].arity
    closure = [apply_perm(r, p) for r in relations for p in all_perms(n)]
    index: dict[tuple, int] = {}
    rows = [{index.setdefault(k, len(index)): q for k, q in e.coeffs.items()} for e in closure]
    keys = list(index)
    return [_trusted(n, {keys[j]: q for j, q in row.items()}) for row in sparse_rref(rows, len(keys))]


def _coset_representatives(n: int, slots: tuple[int, ...]) -> list[Perm]:
    """The lex-first permutation of degree n for each tuple of images of
    `slots`: one per coset of the permutations fixing those slots."""
    reps: dict[tuple, Perm] = {}
    for p in all_perms(n):
        reps.setdefault(tuple(p.images[i - 1] for i in slots), p)
    return list(reps.values())


def consequence_generators(relations, op: str) -> list[MultilinearIdentity]:
    """Spanning set of the consequences one arity up of arity-n relations
    (one identity or a sequence) under a new binary node nu = op(x1, x2):
    every relabeling of a relation with nu grafted into one of its slots, or
    grafted into either slot of nu.

    The relations are first closed under relabeling and reduced to a basis.
    Their span R is then S_n-stable, so the rows for each basis vector r are
      r o_1 nu relabeled by one permutation per value of (s(1), s(2)),
      nu o_1 r relabeled by one permutation per value of s(n+1),
      nu o_2 r relabeled by one permutation per value of s(1):
    a relabeling that fixes those values is a relabeling of r, which stays
    in R, and r o_i nu for i > 1 is a relabeling of (t.r) o_1 nu for some t.
    That is (n+1)(n+2) rows per basis vector instead of (n+2)(n+1)! (20
    instead of 120 at n = 3), the coset argument behind the shuffle
    compositions of Dotsenko-Khoroshkin, "Groebner bases for operads", Duke
    Math. J. 153 (2010)."""
    if isinstance(relations, MultilinearIdentity):
        relations = [relations]
    relations = list(relations)
    if not relations:
        return []
    n = relations[0].arity
    if any(r.arity != n for r in relations):
        raise ValueError("arity mismatch")
    node = monomial((op, LEAF, LEAF), (1, 2))
    slot1 = _coset_representatives(n + 1, (1, 2))
    left = _coset_representatives(n + 1, (n + 1,))
    right = _coset_representatives(n + 1, (1,))
    return [
        apply_perm(e, p)
        for r in _relabeling_basis(relations)
        for e, perms in ((graft(r, 1, node), slot1), (graft(node, 1, r), left), (graft(node, 2, r), right))
        for p in perms
    ]


def associator() -> MultilinearIdentity:
    """x1(x2x3) - (x1x2)x3."""
    return monomial(RIGHT_COMB3, (1, 2, 3), 1) + monomial(LEFT_COMB3, (1, 2, 3), -1)


def wa_expression() -> MultilinearIdentity:
    """The weak-associativity expression: the associator symmetrized by
    Id + c - (12).  Algebras annihilating it are weakly associative."""
    from .symgroup import wa_vector

    return apply_group_vector(associator(), wa_vector())


def flexibility_expression() -> MultilinearIdentity:
    """Associator symmetrized by Id + (13); vanishes on flexible algebras."""
    from .symgroup import ID3, T13, ga

    return apply_group_vector(associator(), ga(3, (1, ID3), (1, T13)))


def lie_admissible_expression() -> MultilinearIdentity:
    """Signed S3-symmetrized associator; vanishes iff the commutator
    satisfies the Jacobi identity."""
    from .symgroup import lie_admissible_vector

    return apply_group_vector(associator(), lie_admissible_vector())


def leibniz_expression() -> MultilinearIdentity:
    """Associator symmetrized by the Leibniz vector; its evaluation is the
    Leibniz defect of the polarized product pair."""
    from .symgroup import leibniz_vector

    return apply_group_vector(associator(), leibniz_vector())
