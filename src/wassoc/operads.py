"""Arity-3 and arity-4 components of binary quadratic operads.

The free arity-n component on one binary generator has dimension
Catalan(n-1) * n! (12 at arity 3, 120 at arity 4); its vectors are
`MultilinearIdentity` values.  This module computes relation spans and their
operadic consequences, the quadratic-duality pairing with annihilators, the
dual dimensions in the associative word space, and generating-function
arithmetic.  A relation span is the unique sparse RREF of the identities'
rows (`linalg.sparse_rref`), so equal spans have equal `RelationSpace.rows`;
membership is a normal form (`linalg.sparse_reduce`) and the annihilator a
kernel (`linalg.sparse_kernel`).  The arity-4 dual relations are sparse word
rows over the 24 words of `all_perms(4)` (lex order, the `sigma_basis(4)`
order, so a group-algebra element's `sparse_row` is its word row), reduced
the same way; every kernel is a list of sparse rows.
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
from .symgroup import Perm, all_perms, sigma_basis


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

Word = tuple[int, ...]


def _cat(*parts: Word) -> Word:
    out: tuple[int, ...] = ()
    for p in parts:
        out += p
    return out


def r3_terms(u: Word, v: Word, w: Word) -> dict[Word, int]:
    """R3(u, v, w) = uvw + wvu - uwv - vwu as a word combination."""
    acc: dict[Word, int] = {}
    for word, c in (
        (_cat(u, v, w), 1),
        (_cat(w, v, u), 1),
        (_cat(u, w, v), -1),
        (_cat(v, w, u), -1),
    ):
        acc[word] = acc.get(word, 0) + c
    return {k: v for k, v in acc.items() if v != 0}


def _word_rows(combinations: list[dict[Word, int]]) -> list[dict[int, int]]:
    """Word combinations in four letters as sparse rows {position of the
    word in `all_perms(4)`: coefficient}."""
    index = {p.images: i for i, p in enumerate(all_perms(4))}
    return [{index[w]: c for w, c in terms.items()} for terms in combinations]


def dual_arity4_generators() -> list[dict[int, int]]:
    """Every placement of R3 among four letters, as a word row: one slot a
    two-letter word (three positions), or an outer letter on either side."""
    gens: list[dict[Word, int]] = []
    letters = (1, 2, 3, 4)
    for assign in itertools.permutations(letters):
        a, b, c, d = assign
        gens.append(r3_terms((a, b), (c,), (d,)))
        gens.append(r3_terms((a,), (b, c), (d,)))
        gens.append(r3_terms((a,), (b,), (c, d)))
    for assign in itertools.permutations(letters):
        a, b, c, d = assign
        gens.append({_cat((a,), w): q for w, q in r3_terms((b,), (c,), (d,)).items()})
        gens.append({_cat(w, (a,)): q for w, q in r3_terms((b,), (c,), (d,)).items()})
    return _word_rows(gens)


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


def reduced_placement_matrix() -> list[dict[int, int]]:
    """The 24 x 24 system, as word rows, of middle placements R3(x, yz, w)
    (16 rows after the syzygy reductions) plus outer products x R3(y,z,w)
    (8 rows): a square system of rank 16 with an 8-dimensional kernel.  (The
    published rank 18, kernel 6, is refuted by this computation.)"""
    rows: list[dict[Word, int]] = []
    listed = [
        (1, (2, 3), 4), (2, (1, 3), 4), (3, (2, 1), 4), (4, (2, 3), 1),
        (1, (3, 2), 4), (1, (4, 3), 2), (2, (3, 1), 4), (2, (4, 3), 1),
        (3, (1, 2), 4), (3, (2, 4), 1), (4, (1, 3), 2), (4, (2, 1), 3),
        (1, (3, 4), 2), (2, (3, 4), 1), (3, (4, 2), 1), (4, (3, 1), 2),
    ]
    for a, (b, c), d in listed:
        rows.append(r3_terms((a,), (b, c), (d,)))
    for a in (1, 2, 3, 4):
        rest = sorted(set((1, 2, 3, 4)) - {a})
        b, c, d = rest
        rows.append({_cat((a,), w): q for w, q in r3_terms((b,), (c,), (d,)).items()})
        rows.append({_cat((a,), w): q for w, q in r3_terms((c,), (b,), (d,)).items()})
    return _word_rows(rows)


def r3_syzygies() -> dict[str, bool]:
    """The displayed consequences of R3, verified by direct word expansion."""

    def is_zero(terms: dict[Word, int]) -> bool:
        return all(c == 0 for c in terms.values())

    def add(*dicts):
        acc: dict[Word, int] = {}
        for d, s in dicts:
            for w, c in d.items():
                acc[w] = acc.get(w, 0) + s * c
        return acc

    a, b, c, d = (1,), (2,), (3,), (4,)
    checks = {
        "R3(a,b,c) + R3(a,c,b) = 0": add(
            (r3_terms(a, b, c), 1), (r3_terms(a, c, b), 1)
        ),
        "R3(a,b,c) + R3(c,a,b) - R3(b,a,c) = 0": add(
            (r3_terms(a, b, c), 1), (r3_terms(c, a, b), 1), (r3_terms(b, a, c), -1)
        ),
        "R3(a,bc,d) + R3(a,db,c) - R3(a,cd,b) = 0": add(
            (r3_terms(a, _cat(b, c), d), 1),
            (r3_terms(a, _cat(d, b), c), 1),
            (r3_terms(a, _cat(c, d), b), -1),
        ),
        "R3(a,b,c)d - R3(d,bc,a) + R3(d,cb,a) - dR3(a,b,c) = 0": add(
            ({_cat(w, d): q for w, q in r3_terms(a, b, c).items()}, 1),
            (r3_terms(d, _cat(b, c), a), -1),
            (r3_terms(d, _cat(c, b), a), 1),
            ({_cat(d, w): q for w, q in r3_terms(a, b, c).items()}, -1),
        ),
    }
    eight = add(
        (r3_terms((1,), (4, 3), (2,)), 1),
        (r3_terms((1,), (3, 4), (2,)), -1),
        (r3_terms((2,), (3, 4), (1,)), 1),
        (r3_terms((2,), (4, 3), (1,)), -1),
        (r3_terms((3,), (2, 1), (4,)), 1),
        (r3_terms((3,), (1, 2), (4,)), -1),
        (r3_terms((4,), (1, 2), (3,)), 1),
        (r3_terms((4,), (2, 1), (3,)), -1),
    )
    checks["eight-term middle-placement relation = 0"] = eight
    return {name: is_zero(terms) for name, terms in checks.items()}


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
    """Coefficients of f(g(x)) for power series with zero constant term."""
    # g_pow[k] = coefficients of g(x)^k, truncated
    g = [Fraction(x) for x in g[:order]] + [Fraction(0)] * max(0, order - len(g))
    out = [Fraction(0)] * order
    g_pow = [Fraction(0)] * order
    # start with g^1
    current = list(g)
    for k in range(1, order + 1):
        if k > 1:
            nxt = [Fraction(0)] * order
            for i, a in enumerate(current, start=1):
                if a == 0:
                    continue
                for j, b in enumerate(g, start=1):
                    if i + j <= order and b != 0:
                        nxt[i + j - 1] += a * b
            current = nxt
        coeff = f[k - 1] if k - 1 < len(f) else Fraction(0)
        if coeff != 0:
            for i in range(order):
                out[i] += coeff * current[i]
    return out


def koszul_composition_check(f: list[Fraction], g: list[Fraction], order: int) -> list[Fraction]:
    """Coefficients of f(g(x)) - x through the given order; identically zero
    composition is the numerical shadow of Koszul duality."""
    comp = compose_series(f, g, order)
    comp[0] -= 1
    return comp
