"""Built-in example algebras and seeded random generators.

The weakly associative members double as the test corpus for the cohomology
and deformation suites; every construction here is verified by predicate, not
assumed.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .finalg import (
    FinAlg,
    MultiMap,
    compose,
    contract,
    is_nonassociative_poisson,
    is_weakly_associative,
    vector_map,
)


def two_dim_family(a) -> FinAlg:
    """Two-dimensional weakly associative family with parameter a:
    e1 e1 = (a/2) e1, e1 e2 = ((a+2)/4) e2, e2 e1 = ((a-2)/4) e2, e2 e2 = 0.
    Associative exactly for a = 2 or a = -2."""
    a = Fraction(a)
    return FinAlg.from_products(
        2,
        {
            (1, 1): {1: a / 2},
            (1, 2): {2: (a + 2) / 4},
            (2, 1): {2: (a - 2) / 4},
        },
    )


def abelian(dim: int) -> FinAlg:
    return FinAlg(dim, {})


def sl2() -> FinAlg:
    """Basis (e, f, h) with [h,e] = 2e, [h,f] = -2f, [e,f] = h."""
    return FinAlg.from_products(
        3,
        {
            (3, 1): {1: 2},
            (1, 3): {1: -2},
            (3, 2): {2: -2},
            (2, 3): {2: 2},
            (1, 2): {3: 1},
            (2, 1): {3: -1},
        },
    )


def nonabelian_lie2() -> FinAlg:
    """Two-dimensional Lie algebra [e1, e2] = e2."""
    return FinAlg.from_products(2, {(1, 2): {2: 1}, (2, 1): {2: -1}})


def heisenberg3() -> FinAlg:
    """[e1, e2] = e3, center e3."""
    return FinAlg.from_products(3, {(1, 2): {3: 1}, (2, 1): {3: -1}})


def truncated_polynomials(k: int) -> FinAlg:
    """K[x]/(x^k) with basis 1, x, ..., x^(k-1)."""
    return FinAlg(k, {(i, j): {i + j: 1} for i in range(k) for j in range(k - i)})


# ---------------------------------------------------------------------------
# Truncated polynomial algebras in several variables, with Poisson brackets.
# ---------------------------------------------------------------------------

def _monomials(nvars: int, maxdeg: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree < maxdeg + 1, ordered by degree then lex."""
    out = []
    for deg in range(maxdeg + 1):
        out.extend(
            sorted(
                e
                for e in itertools.product(range(deg + 1), repeat=nvars)
                if sum(e) == deg
            )
        )
    return out


class TruncatedPolynomialRing:
    """K[x_1..x_m] / m^(D+1): monomials of total degree <= D."""

    def __init__(self, nvars: int, maxdeg: int):
        self.nvars = nvars
        self.maxdeg = maxdeg
        self.monomials = _monomials(nvars, maxdeg)
        self.index = {m: i for i, m in enumerate(self.monomials)}
        self.dim = len(self.monomials)
        self._algebra = None

    def algebra(self) -> FinAlg:
        """The ring as a FinAlg, built on the first call and then shared."""
        if self._algebra is None:
            products = {}
            for i, a in enumerate(self.monomials):
                for j, b in enumerate(self.monomials):
                    prod = tuple(x + y for x, y in zip(a, b))
                    if sum(prod) <= self.maxdeg:
                        products[(i, j)] = {self.index[prod]: 1}
            self._algebra = FinAlg(self.dim, products)
        return self._algebra

    def _diff(self, mono: tuple[int, ...], var: int):
        """d/dx_var of a monomial: (coefficient, exponent tuple) or None."""
        if mono[var] == 0:
            return None
        out = list(mono)
        out[var] -= 1
        return mono[var], tuple(out)

    def poisson_bracket(self, weight: tuple[int, ...]) -> MultiMap:
        """Bracket {u, v} = x^weight (du/dx1 dv/dx2 - du/dx2 dv/dx1),
        truncated.  Requires two variables.  Every 2-variable bivector field
        satisfies the Jacobi identity; the quotient works out to an honest
        Poisson bracket whenever the weight has positive total degree."""
        if self.nvars != 2:
            raise ValueError("plane Poisson brackets need two variables")
        values = {}
        for i, a in enumerate(self.monomials):
            for j, b in enumerate(self.monomials):
                out = values[(i, j)] = {}
                for (va, vb, sign) in ((0, 1, 1), (1, 0, -1)):
                    da = self._diff(a, va)
                    db = self._diff(b, vb)
                    if da is None or db is None:
                        continue
                    coeff = sign * da[0] * db[0]
                    mono = tuple(
                        w + x + y for w, x, y in zip(weight, da[1], db[1])
                    )
                    if sum(mono) <= self.maxdeg:
                        k = self.index[mono]
                        out[k] = out.get(k, 0) + coeff
        return MultiMap(2, self.dim, values)

    def bracket_algebra(self, weight: tuple[int, ...]) -> FinAlg:
        return FinAlg.from_map(self.poisson_bracket(weight))

    def derivation(self, images: list[tuple]) -> MultiMap:
        """The derivation with D(x_i) = images[i] (coordinate vectors) as a
        1-linear map; images must lie in the ideal (x_1..x_m)."""
        # D(x^a) = sum_i a_i x^(a - e_i) * D(x_i), computed in the quotient:
        # per variable, the partial derivative followed by right
        # multiplication by the image.
        mu, n = self.algebra().mu, self.dim
        terms = []
        for var in range(self.nvars):
            partial = {}
            for j, mono in enumerate(self.monomials):
                d = self._diff(mono, var)
                if d is not None:
                    partial[(j,)] = {self.index[d[1]]: d[0]}
            times_image = compose(mu, 1, vector_map(n, images[var]))
            terms.append((1, times_image, 0, MultiMap(1, n, partial)))
        return contract(1, n, terms)


def plane_quotient(maxdeg: int = 2) -> TruncatedPolynomialRing:
    """K[x,y] truncated above total degree maxdeg (default: the 6-dimensional
    quotient with basis 1, x, y, x^2, xy, y^2)."""
    return TruncatedPolynomialRing(2, maxdeg)


def space_quotient_square() -> TruncatedPolynomialRing:
    """K[x,y,z] / m^2: basis 1, x, y, z."""
    return TruncatedPolynomialRing(3, 1)


# ---------------------------------------------------------------------------
# Corpora.
# ---------------------------------------------------------------------------

def wa_corpus() -> list[tuple[str, FinAlg]]:
    """At least ten verified weakly associative algebras, dimensions 2..6."""
    ring = plane_quotient()
    plane = ring.algebra()
    br_x = ring.bracket_algebra((1, 0))
    br_mixed = ring.bracket_algebra((0, 1))
    from .freewa import as_truncated_algebra, build

    free4 = as_truncated_algebra(build(4)).algebra
    members = [
        ("two-dim family a=6", two_dim_family(6)),
        ("two-dim family a=0", two_dim_family(0).scale(4)),
        ("sl2 bracket", sl2()),
        ("heisenberg bracket", heisenberg3()),
        ("truncated polynomials x^3=0", truncated_polynomials(3)),
        ("truncated polynomials x^4=0", truncated_polynomials(4)),
        ("truncated polynomials x^5=0", truncated_polynomials(5)),
        ("plane quotient", plane),
        ("plane quotient + x-weighted bracket", plane.add(br_x)),
        ("plane quotient + y-weighted bracket", plane.add(br_mixed)),
        ("free one-generator algebra, degree <= 4", free4),
        ("abelian dim 3", abelian(3)),
    ]
    for name, alg in members:
        if not is_weakly_associative(alg):
            raise AssertionError(f"corpus member {name!r} is not weakly associative")
    return members


def poisson_corpus() -> list[tuple[str, FinAlg, FinAlg]]:
    """Verified nonassociative Poisson pairs (name, bullet, bracket)."""
    ring = plane_quotient()
    plane = ring.algebra()
    pairs = [
        ("plane quotient with x-weighted bracket", plane, ring.bracket_algebra((1, 0))),
        ("plane quotient with y-weighted bracket", plane, ring.bracket_algebra((0, 1))),
        ("plane quotient with xy-weighted bracket", plane, ring.bracket_algebra((1, 1))),
        ("commutative with zero bracket", truncated_polynomials(4), abelian(4)),
    ]
    from .freewa import as_truncated_algebra, build

    free4 = as_truncated_algebra(build(4)).algebra
    pairs.append(("free algebra with zero bracket", free4.scale(1), abelian(free4.dim)))
    for name, bullet, bracket in pairs:
        if not is_nonassociative_poisson(bullet, bracket):
            raise AssertionError(f"Poisson corpus member {name!r} fails verification")
    return pairs


def non_wa_corpus() -> list[tuple[str, FinAlg]]:
    """At least five algebras that are not weakly associative."""
    members = [
        (
            "nilpotent magma e1e1=e2, e1e2=e1",
            FinAlg.from_products(2, {(1, 1): {2: 1}, (1, 2): {1: 1}}),
        ),
        (
            "free magma truncation e1e1=e2, e1e2=e3",
            FinAlg.from_products(3, {(1, 1): {2: 1}, (1, 2): {3: 1}}),
        ),
        (
            "anticommutative non-Jacobi",
            FinAlg.from_products(
                3,
                {
                    (1, 2): {3: 1},
                    (2, 1): {3: -1},
                    (2, 3): {1: 1},
                    (3, 2): {1: -1},
                    (3, 1): {1: 1},
                    (1, 3): {1: -1},
                },
            ),
        ),
        (
            "two-dim family with mismatched diagonal",
            FinAlg.from_products(2, {(1, 1): {1: 4}, (1, 2): {2: 2}, (2, 1): {2: 1}}),
        ),
        (
            "one-sided unit",
            FinAlg.from_products(2, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 2): {1: 1}}),
        ),
    ]
    for name, alg in members:
        if is_weakly_associative(alg):
            raise AssertionError(f"corpus member {name!r} is unexpectedly WA")
    return members


def flexible_non_wa() -> FinAlg:
    """Anticommutative (hence flexible) algebra violating Jacobi."""
    return non_wa_corpus()[2][1]


# ---------------------------------------------------------------------------
# Random generators (explicit rng, fixed seeds in tests).
# ---------------------------------------------------------------------------

def random_vector(dim: int, rng: random.Random, bound: int = 3) -> tuple:
    return tuple(rng.randint(-bound, bound) for _ in range(dim))


def random_endomorphism(dim: int, rng: random.Random, bound: int = 3) -> MultiMap:
    """A 1-linear map with entries drawn row by row of its matrix (row k
    holds coordinate k of every image), so e_j -> column j."""
    rows = [[rng.randint(-bound, bound) for _ in range(dim)] for _ in range(dim)]
    return MultiMap(1, dim, {(j,): [row[j] for row in rows] for j in range(dim)})


def random_multimap(arity: int, dim: int, rng: random.Random, bound: int = 3) -> MultiMap:
    return MultiMap.from_function(
        arity, dim, lambda *idx: random_vector(dim, rng, bound)
    )


def random_fraction_multimap(arity: int, dim: int, rng: random.Random) -> MultiMap:
    """About a third of the outputs zero, the rest p/q with |p| <= 4, q <= 5."""
    return MultiMap.from_function(
        arity,
        dim,
        lambda *idx: (0,) * dim
        if rng.randrange(3) == 0
        else tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim)),
    )


def random_skew_bilinear(dim: int, rng: random.Random, bound: int = 3) -> MultiMap:
    values = {}
    for i in range(dim):
        for j in range(dim):
            if i < j:
                values[(i, j)] = random_vector(dim, rng, bound)
    full = {}
    for i in range(dim):
        for j in range(dim):
            if i < j:
                full[(i, j)] = values[(i, j)]
            elif i > j:
                full[(i, j)] = tuple(-x for x in values[(j, i)])
            else:
                full[(i, j)] = (0,) * dim
    return MultiMap(2, dim, full)


def random_symmetric_bilinear(dim: int, rng: random.Random, bound: int = 3) -> MultiMap:
    values = {}
    for i in range(dim):
        for j in range(i, dim):
            values[(i, j)] = random_vector(dim, rng, bound)
    full = {}
    for i in range(dim):
        for j in range(dim):
            full[(i, j)] = values[(min(i, j), max(i, j))]
    return MultiMap(2, dim, full)


def random_group_element(n: int, rng: random.Random, bound: int = 3):
    from .symgroup import GroupAlgebraElement, sigma_basis

    return GroupAlgebraElement(
        n, {p: Fraction(rng.randint(-bound, bound)) for p in sigma_basis(n)}
    )
