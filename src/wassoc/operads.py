"""Arity-3 and arity-4 components of binary quadratic operads.

The free arity-n component on one binary generator has dimension
Catalan(n-1) * n! (12 at arity 3, 120 at arity 4); its vectors are
`MultilinearIdentity` values.  This module computes relation spans and their
operadic consequences, the quadratic-duality pairing with annihilators, the
dual dimensions in the associative word space, and generating-function
arithmetic.  A relation span is the unique sparse RREF of the identities'
rows (`linalg.sparse_rref`), so equal spans have equal `RelationSpace.rows`;
membership is a normal form (`linalg.sparse_reduce`) and the annihilator a
kernel (`linalg.sparse_kernel`).  A word in n letters is the permutation
whose images it lists, so a word combination is a group-algebra element of
S_n whose `sparse_row` is its `Fraction`-valued word row (lex word order at
n = 4); each placement of R3 is built from `symgroup.dual3_relation_vector`
and reduced the same way.  Every kernel is a list of sparse rows.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .identities import (
    LEFT_COMB3,
    MultilinearIdentity,
    apply_perm,
    associator,
    consequence_generators,
    monomial,
    monomial_order,
    wa_expression,
)
from .linalg import sparse_kernel, sparse_reduce, sparse_rref
from .symgroup import GroupAlgebraElement, Perm, all_perms, dual3_relation_vector, sigma_basis


def free_dim(arity: int) -> int:
    return len(monomial_order(arity))


@dataclass
class RelationSpace:
    """Subspace of the free arity-n component, stored as its sparse RREF
    rows {column in `monomial_order(arity)`: Fraction}."""

    arity: int
    rows: list[dict[int, Fraction]]

    @property
    def dim(self) -> int:
        return len(self.rows)

    def quotient_dim(self) -> int:
        return free_dim(self.arity) - self.dim

    def contains(self, e: MultilinearIdentity) -> bool:
        if e.arity != self.arity:
            raise ValueError("arity mismatch")
        return not sparse_reduce(self.rows, e.sparse_row())


def span_of(vectors: list[MultilinearIdentity], arity: int) -> RelationSpace:
    """Span of arity-n identities, reduced from their sparse rows."""
    if any(v.arity != arity for v in vectors):
        raise ValueError("arity mismatch")
    return RelationSpace(arity, sparse_rref([v.sparse_row() for v in vectors], free_dim(arity)))


def relation_closure(generator: MultilinearIdentity) -> RelationSpace:
    """Span of all relabelings of a single arity-3 relation vector."""
    return span_of(
        [apply_perm(generator, p) for p in sigma_basis(3)], 3
    )


def wa_relation_space() -> RelationSpace:
    """The relation span of weak associativity inside the 12-dimensional
    arity-3 free component; dimension 4, quotient dimension 8."""
    return relation_closure(wa_expression())


def associativity_relation_space() -> RelationSpace:
    return relation_closure(associator())


def full_free_space(arity: int = 3) -> RelationSpace:
    return span_of([monomial(*key) for key in monomial_order(arity)], arity)


# ---------------------------------------------------------------------------
# Operadic consequences at arity 4.
# ---------------------------------------------------------------------------

def consequences(r: RelationSpace) -> RelationSpace:
    """Arity-4 span generated by an arity-3 relation space: a product grafted
    into each slot and each relation grafted into either slot of a product,
    closed under relabeling of the four slots.  The whole basis goes to
    `consequence_generators` in one call (20 rows per basis vector)."""
    if r.arity != 3:
        raise ValueError("expected an arity-3 relation space")
    order = monomial_order(3)
    gens3 = [MultilinearIdentity(3, {order[j]: q for j, q in row.items()}) for row in r.rows]
    return span_of(consequence_generators(gens3, "m"), 4)


# ---------------------------------------------------------------------------
# Quadratic-duality pairing on the arity-3 free component.
# ---------------------------------------------------------------------------

def dual_pairing(u: MultilinearIdentity, w: MultilinearIdentity) -> Fraction:
    """Diagonal pairing: equal left-comb monomials pair to the sign of their
    labeling, equal right-comb monomials to minus the sign, everything else
    to zero."""
    if u.arity != 3 or w.arity != 3:
        raise ValueError("pairing is defined at arity 3")
    total = Fraction(0)
    for (shape, labels), q in u.coeffs.items():
        q2 = w.coeffs.get((shape, labels))
        if q2 is None:
            continue
        sign = Perm(3, labels).sign()
        if shape == LEFT_COMB3:
            total += q * q2 * sign
        else:
            total -= q * q2 * sign
    return total


def pairing_gram_matrix() -> list[dict[int, Fraction]]:
    """The Gram matrix of the pairing on `monomial_order(3)` as sparse rows
    {column: nonzero pairing}."""
    basis = [monomial(*key) for key in monomial_order(3)]
    return [
        {j: q for j, w in enumerate(basis) if (q := dual_pairing(u, w))} for u in basis
    ]


def annihilator(r: RelationSpace) -> RelationSpace:
    """Orthogonal complement under the pairing.  The pairing is diagonal
    with entries +-1, so w pairs to zero with every row iff w with each
    coordinate scaled by its sign lies in the kernel of the rows; the
    dimensions add up to 12."""
    if r.arity != 3:
        raise ValueError("annihilator is defined at arity 3")
    n = free_dim(3)
    signs = [dual_pairing(m, m) for m in (monomial(*key) for key in monomial_order(3))]
    kernel = sparse_kernel(r.rows, n)
    return RelationSpace(
        3, sparse_rref(({j: signs[j] * x for j, x in v.items()} for v in kernel), n)
    )


# ---------------------------------------------------------------------------
# The arity-4 dual computation in the associative word space.
#
# Algebras over the dual operad are associative and satisfy the cubic
# relation R3(a,b,c) = abc + cba - acb - bca = 0, so the arity-4 component is
# the 24-dimensional word space modulo every placement of R3.
# ---------------------------------------------------------------------------

_R3_TERMS = tuple(dual3_relation_vector().coeffs.items())


def _r3(u: tuple, v: tuple, w: tuple, prefix: tuple = (), suffix: tuple = ()) -> GroupAlgebraElement:
    """R3(u, v, w) on three words between a prefix and a suffix word: each
    term q * sigma of `dual3_relation_vector` becomes q times the word
    prefix, the words in the order sigma(1) sigma(2) sigma(3), suffix, read
    as the images of a permutation.  The three words are nonempty with
    disjoint letters, so the four words differ."""
    parts = (u, v, w)
    n = len(prefix + u + v + w + suffix)
    return GroupAlgebraElement(n, {
        Perm(n, prefix + parts[s(1) - 1] + parts[s(2) - 1] + parts[s(3) - 1] + suffix): q
        for s, q in _R3_TERMS
    })


def dual_arity4_generators() -> list[dict[int, Fraction]]:
    """Every placement of R3 among four letters (one slot a two-letter word,
    or an outer letter on either side) as a `Fraction`-valued word row."""
    gens = []
    for a, b, c, d in itertools.permutations((1, 2, 3, 4)):
        gens += [_r3((a, b), (c,), (d,)), _r3((a,), (b, c), (d,)), _r3((a,), (b,), (c, d))]
    for a, b, c, d in itertools.permutations((1, 2, 3, 4)):
        gens += [_r3((b,), (c,), (d,), prefix=(a,)), _r3((b,), (c,), (d,), suffix=(a,))]
    return [g.sparse_row() for g in gens]


@dataclass
class DualArity4:
    """The span of the placements of R3 as its sparse RREF rows over the
    24 words, and the kernel of those rows as sparse rows."""

    rows: list[dict[int, Fraction]]
    kernel: list[dict[int, Fraction]]

    @property
    def rank(self) -> int:
        return len(self.rows)

    @property
    def dim(self) -> int:
        return len(self.kernel)


def wass_dual_arity4() -> DualArity4:
    """The arity-4 dual relations: rank 16 on the 24-dimensional word space,
    kernel of dimension 8.  (The published rank 18 and dimension 6 are
    refuted by this computation.)"""
    n = len(all_perms(4))
    rows = sparse_rref(dual_arity4_generators(), n)
    return DualArity4(rows=rows, kernel=sparse_kernel(rows, n))


def wass_dual_arity4_dim() -> int:
    return wass_dual_arity4().dim


def reduced_placement_matrix() -> list[dict[int, Fraction]]:
    """The 24 x 24 system, as `Fraction`-valued word rows, of the middle
    placements R3(x, yz, w) (16 after the syzygy reductions) and x R3(y,z,w)
    (8 rows): a square system of rank 16 with an 8-dimensional kernel.  (The
    published rank 18, kernel 6, is refuted by this computation.)"""
    listed = [
        (1, (2, 3), 4), (2, (1, 3), 4), (3, (2, 1), 4), (4, (2, 3), 1),
        (1, (3, 2), 4), (1, (4, 3), 2), (2, (3, 1), 4), (2, (4, 3), 1),
        (3, (1, 2), 4), (3, (2, 4), 1), (4, (1, 3), 2), (4, (2, 1), 3),
        (1, (3, 4), 2), (2, (3, 4), 1), (3, (4, 2), 1), (4, (3, 1), 2),
    ]
    rows = [_r3((a,), yz, (d,)) for a, yz, d in listed]
    for a in (1, 2, 3, 4):
        b, c, d = sorted({1, 2, 3, 4} - {a})
        rows += [_r3((b,), (c,), (d,), prefix=(a,)), _r3((c,), (b,), (d,), prefix=(a,))]
    return [g.sparse_row() for g in rows]


def r3_syzygies() -> dict[str, bool]:
    """The displayed consequences of R3, verified by direct word expansion."""
    a, b, c, d = (1,), (2,), (3,), (4,)
    checks = {
        "R3(a,b,c) + R3(a,c,b) = 0": _r3(a, b, c) + _r3(a, c, b),
        "R3(a,b,c) + R3(c,a,b) - R3(b,a,c) = 0": _r3(a, b, c) + _r3(c, a, b) - _r3(b, a, c),
        "R3(a,bc,d) + R3(a,db,c) - R3(a,cd,b) = 0": (
            _r3(a, b + c, d) + _r3(a, d + b, c) - _r3(a, c + d, b)
        ),
        "R3(a,b,c)d - R3(d,bc,a) + R3(d,cb,a) - dR3(a,b,c) = 0": (
            _r3(a, b, c, suffix=d) - _r3(d, b + c, a) + _r3(d, c + b, a) - _r3(a, b, c, prefix=d)
        ),
        "eight-term middle-placement relation = 0": (
            _r3(a, d + c, b) - _r3(a, c + d, b) + _r3(b, c + d, a) - _r3(b, d + c, a)
            + _r3(c, b + a, d) - _r3(c, a + b, d) + _r3(d, a + b, c) - _r3(d, b + a, c)
        ),
    }
    return {name: v.is_zero() for name, v in checks.items()}


# ---------------------------------------------------------------------------
# Generating functions.
# ---------------------------------------------------------------------------

def generating_function(dims: list[int], order: int) -> list[Fraction]:
    """Coefficients of x^1..x^order of sum_n (-1)^n dim(n) x^n / n!."""
    if not dims:
        raise ValueError("need at least one dimension")
    out = []
    fact = 1
    for n in range(1, order + 1):
        fact *= n
        d = dims[n - 1] if n - 1 < len(dims) else 0
        out.append(Fraction((-1) ** n * d, fact))
    return out


def compose_series(f: list[Fraction], g: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of x^1..x^order of f(g(x)) for power series with zero
    constant term, by Horner's rule: f(g) = g (f1 + g (f2 + g (f3 + ...)))."""
    f, g = ([Fraction(x) for x in c[:order]] + [Fraction(0)] * max(0, order - len(c)) for c in (f, g))

    def times_g(h: list[Fraction]) -> list[Fraction]:
        """x^1..x^order of g * h, for h given from x^0."""
        return [sum((g[i] * h[m - i] for i in range(m + 1)), Fraction(0)) for m in range(order)]

    h = [Fraction(0)] * order
    for fk in reversed(f):
        h = [fk] + times_g(h)[:-1]
    return times_g(h)


def koszul_composition_check(f: list[Fraction], g: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of f(g(x)) - x through the given order; identically zero
    composition is the numerical shadow of Koszul duality."""
    comp = compose_series(f, g, order)
    comp[0] -= 1
    return comp
