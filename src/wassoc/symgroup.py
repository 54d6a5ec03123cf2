"""Symmetric groups of degree 2..4 and their rational group algebras.

Conventions, fixed once for the whole package:

* a permutation is stored in one-line notation with 1-based images, so
  ``p(i) = images[i-1]``;
* ``compose(a, b)`` is ordinary function composition, ``(a . b)(i) = a(b(i))``;
* the degree-3 coordinate order is ``Id, (12), (13), (23), c, c2`` where
  ``c`` is the 3-cycle with images ``(2, 3, 1)`` and ``c2 = c . c`` its
  inverse;
* ``act(v, s)`` translates every term of a group-algebra element on the left,
  ``sigma -> s . sigma``.  This is the translation under which the orbit of
  the weak-associativity vector reproduces the standard printed table, and it
  matches precomposition of multilinear identities with a slot permutation
  (see `identities.apply_perm`): acting by ``s`` on an identity vector equals
  acting by ``s`` on its group-algebra element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .linalg import as_rational, sparse_reduce, sparse_rref


@dataclass(frozen=True, order=True)
class Perm:
    n: int
    images: tuple[int, ...]

    def __post_init__(self):
        if not 2 <= self.n <= 4:
            raise ValueError(f"degree {self.n} out of supported range 2..4")
        if sorted(self.images) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {self.images}")

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def inverse(self) -> "Perm":
        inv = [0] * self.n
        for i, img in enumerate(self.images, start=1):
            inv[img - 1] = i
        return Perm(self.n, tuple(inv))

    def sign(self) -> int:
        s = 1
        for i in range(self.n):
            for j in range(i + 1, self.n):
                if self.images[i] > self.images[j]:
                    s = -s
        return s

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its smallest element."""
        seen = set()
        out = []
        for start in range(1, self.n + 1):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            j = self(start)
            while j != start:
                cyc.append(j)
                seen.add(j)
                j = self(j)
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def __str__(self) -> str:
        return format_perm(self)


def identity_perm(n: int) -> Perm:
    return Perm(n, tuple(range(1, n + 1)))


def transposition(n: int, i: int, j: int) -> Perm:
    images = list(range(1, n + 1))
    images[i - 1], images[j - 1] = j, i
    return Perm(n, tuple(images))


def compose(a: Perm, b: Perm) -> Perm:
    """(a . b)(i) = a(b(i))."""
    if a.n != b.n:
        raise ValueError(f"degree mismatch: {a.n} vs {b.n}")
    return Perm(a.n, tuple(a(b(i)) for i in range(1, a.n + 1)))


_ALL_PERMS: dict[int, tuple[Perm, ...]] = {}


def all_perms(n: int) -> tuple[Perm, ...]:
    """Every permutation of degree n in lex order of images, built once per
    degree and shared."""
    perms = _ALL_PERMS.get(n)
    if perms is None:
        perms = tuple(Perm(n, imgs) for imgs in itertools.permutations(range(1, n + 1)))
        _ALL_PERMS[n] = perms
    return perms


# Canonical degree-3 basis order: Id, (12), (13), (23), c, c2.
ID3 = identity_perm(3)
T12 = transposition(3, 1, 2)
T13 = transposition(3, 1, 3)
T23 = transposition(3, 2, 3)
C3 = Perm(3, (2, 3, 1))
C3SQ = Perm(3, (3, 1, 2))

SIGMA3 = (ID3, T12, T13, T23, C3, C3SQ)
_SIGMA3_NAMES = ("Id", "(12)", "(13)", "(23)", "c", "c2")


def sigma_basis(n: int) -> tuple[Perm, ...]:
    """Coordinate order of K[S_n]: the fixed table for n = 3, lex otherwise."""
    if n == 3:
        return SIGMA3
    return all_perms(n)


@lru_cache(maxsize=None)
def _basis_index(n: int) -> dict[Perm, int]:
    """Perm -> position in `sigma_basis(n)`, built once per degree and
    shared by every element of that degree."""
    return {p: i for i, p in enumerate(sigma_basis(n))}


def format_perm(p: Perm) -> str:
    if p.n == 3:
        return _SIGMA3_NAMES[SIGMA3.index(p)]
    cycles = p.cycles()
    if not cycles:
        return "Id"
    return "".join("(" + "".join(str(i) for i in cyc) + ")" for cyc in cycles)


def parse_perm(text: str, n: int) -> Perm:
    """Parse cycle notation: "Id", "(12)", "(231)", "(12)(34)", "c", "c2"."""
    s = text.strip().replace(" ", "")
    if s in ("Id", "id", "e", "()"):
        return identity_perm(n)
    if n == 3 and s in ("c", "c1"):
        return C3
    if n == 3 and s in ("c2", "c^2", "c²"):
        return C3SQ
    if not (s.startswith("(") and s.endswith(")")):
        raise ValueError(f"cannot parse permutation {text!r}")
    images = list(range(1, n + 1))
    for part in s[1:-1].split(")("):
        pts = [int(ch) for ch in part]
        if len(pts) < 2 or len(set(pts)) != len(pts) or any(not 1 <= x <= n for x in pts):
            raise ValueError(f"bad cycle {part!r} for degree {n}")
        for k, x in enumerate(pts):
            images[x - 1] = pts[(k + 1) % len(pts)]
    return Perm(n, tuple(images))


class GroupAlgebraElement:
    """Formal rational combination of permutations of a fixed degree."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: dict[Perm, Fraction] | None = None):
        self.n = n
        clean: dict[Perm, Fraction] = {}
        for p, q in (coeffs or {}).items():
            if p.n != n:
                raise ValueError("degree mismatch in coefficients")
            q = as_rational(q)
            if q != 0:
                clean[p] = q
        self.coeffs = clean

    @staticmethod
    def from_terms(n: int, terms: list[tuple]) -> "GroupAlgebraElement":
        acc: dict[Perm, Fraction] = {}
        for coeff, p in terms:
            acc[p] = acc.get(p, Fraction(0)) + as_rational(coeff)
        return GroupAlgebraElement(n, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroupAlgebraElement)
            and self.n == other.n
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.coeffs.items())))

    def __add__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        acc = dict(self.coeffs)
        for p, q in other.coeffs.items():
            acc[p] = acc[p] + q if p in acc else q
        return GroupAlgebraElement(self.n, acc)

    def __sub__(self, other: "GroupAlgebraElement") -> "GroupAlgebraElement":
        return self + other.scale(-1)

    def scale(self, q) -> "GroupAlgebraElement":
        q = as_rational(q)
        return GroupAlgebraElement(self.n, {p: q * c for p, c in self.coeffs.items()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def sparse_row(self) -> dict[int, Fraction]:
        """{coordinate in `sigma_basis(n)`: coefficient} of the nonzero terms."""
        index = _basis_index(self.n)
        return {index[p]: q for p, q in self.coeffs.items()}

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for p in sigma_basis(self.n):
            if p not in self.coeffs:
                continue
            q = self.coeffs[p]
            sign = "-" if q < 0 else "+"
            mag = abs(q)
            term = format_perm(p) if mag == 1 else f"{mag}*{format_perm(p)}"
            parts.append((sign, term))
        first_sign, first_term = parts[0]
        out = ("-" if first_sign == "-" else "") + first_term
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def __repr__(self) -> str:
        return f"GroupAlgebraElement({self})"


def ga(n: int, *terms) -> GroupAlgebraElement:
    """Shorthand: ga(3, (1, ID3), (-1, T12), ...)."""
    return GroupAlgebraElement.from_terms(n, list(terms))


def act(v: GroupAlgebraElement, s: Perm) -> GroupAlgebraElement:
    """Translate every term of v by s (sigma -> s . sigma)."""
    if v.n != s.n:
        raise ValueError("degree mismatch")
    return GroupAlgebraElement(v.n, {compose(s, p): q for p, q in v.coeffs.items()})


def group_product(u: GroupAlgebraElement, v: GroupAlgebraElement) -> GroupAlgebraElement:
    """Convolution product of group-algebra elements, u * v = sum u_a v_b (a.b)."""
    if u.n != v.n:
        raise ValueError("degree mismatch")
    acc: dict[Perm, Fraction] = {}
    for a, qa in u.coeffs.items():
        for b, qb in v.coeffs.items():
            p = compose(a, b)
            acc[p] = acc.get(p, Fraction(0)) + qa * qb
    return GroupAlgebraElement(u.n, acc)


def orbit(v: GroupAlgebraElement) -> list[GroupAlgebraElement]:
    """All n! translates act(v, s), duplicates kept, in basis order of s."""
    return [act(v, s) for s in sigma_basis(v.n)]


def orbit_span(v: GroupAlgebraElement) -> list[dict[int, Fraction]]:
    """The span of the orbit of v as its sparse RREF rows over the
    coordinates of `sigma_basis(n)`; equal spans have equal rows."""
    return sparse_rref([w.sparse_row() for w in orbit(v)], len(sigma_basis(v.n)))


def orbit_span_dim(v: GroupAlgebraElement) -> int:
    return len(orbit_span(v))


def in_orbit_span(w: GroupAlgebraElement, v: GroupAlgebraElement) -> bool:
    if w.n != v.n:
        raise ValueError("degree mismatch")
    return not sparse_reduce(orbit_span(v), w.sparse_row())


def relations_equivalent(v: GroupAlgebraElement, v2: GroupAlgebraElement) -> bool:
    """True iff the two orbit spans coincide as subspaces of K[S_n]."""
    if v.n != v2.n:
        raise ValueError("degree mismatch")
    return orbit_span(v) == orbit_span(v2)


# ---------------------------------------------------------------------------
# Named degree-3 vectors used throughout the package.
# ---------------------------------------------------------------------------

def wa_vector() -> GroupAlgebraElement:
    """Id + c - (12): the symmetrization defining weak associativity."""
    return ga(3, (1, ID3), (1, C3), (-1, T12))


def lie_admissible_vector() -> GroupAlgebraElement:
    """Signed sum over S3: the symmetrization whose vanishing on the
    associator says the commutator is a Lie bracket."""
    return ga(3, (1, ID3), (-1, T12), (-1, T13), (-1, T23), (1, C3), (1, C3SQ))


def leibniz_vector() -> GroupAlgebraElement:
    """Id + (12) + (13) - (23) - c + c2: evaluates the associator to the
    Leibniz defect of the polarized product pair."""
    return ga(3, (1, ID3), (1, T12), (1, T13), (-1, T23), (-1, C3), (1, C3SQ))


def delta3_reduction_vectors() -> tuple[GroupAlgebraElement, ...]:
    """The four elimination vectors u1..u4 of the degree-3 coboundary ansatz:
    Id+c+c2, (12)+c2, (13)-c-c2, (23)+c."""
    u1 = ga(3, (1, ID3), (1, C3), (1, C3SQ))
    u2 = ga(3, (1, T12), (1, C3SQ))
    u3 = ga(3, (1, T13), (-1, C3), (-1, C3SQ))
    u4 = ga(3, (1, T23), (1, C3))
    return u1, u2, u3, u4


def cochain3_vectors() -> tuple[GroupAlgebraElement, GroupAlgebraElement]:
    """Spanning set {w1, w2} of the right annihilator of the WA vector:
    w * (Id + c - (12)) = 0.  Trilinear maps killed by both are exactly the
    operadic 3-cochains."""
    w1 = ga(3, (1, ID3), (1, T12), (-1, T23), (-1, C3))
    w2 = ga(3, (1, T12), (-1, T13), (-1, C3), (1, C3SQ))
    return w1, w2


def dual3_relation_vector() -> GroupAlgebraElement:
    """Id + (13) - (23) - c: the cubic relation R3 satisfied by algebras over
    the dual operad, in word form, and its one declaration: `operads` places
    it on words to build every arity-4 dual relation and syzygy."""
    return ga(3, (1, ID3), (1, T13), (-1, T23), (-1, C3))


def dual4_word_vectors() -> tuple[GroupAlgebraElement, GroupAlgebraElement]:
    """The two quartic relations of the dual operad in word form."""
    n = 4
    e = identity_perm(4)
    r1 = ga(
        n,
        (1, e),
        (1, parse_perm("(14)", 4)),
        (-1, parse_perm("(243)", 4)),
        (-1, parse_perm("(1234)", 4)),
    )
    r2 = ga(
        n,
        (1, e),
        (1, parse_perm("(24)", 4)),
        (-1, parse_perm("(34)", 4)),
        (-1, parse_perm("(234)", 4)),
    )
    return r1, r2


def cochain4_vectors() -> tuple[GroupAlgebraElement, GroupAlgebraElement]:
    """Symmetry conditions on operadic 4-cochains, derived from the two
    quartic relations of the dual operad: the term-wise inverses of
    `dual4_word_vectors`."""
    v4, v4p = (
        GroupAlgebraElement(4, {p.inverse(): q for p, q in r.coeffs.items()})
        for r in dual4_word_vectors()
    )
    return v4, v4p
