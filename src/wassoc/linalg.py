"""Exact linear algebra over the rationals.

Every dimension, rank and span fact computed by this package reduces to one
forward elimination, so the routines here are exact.  `Matrix` entries are
`fractions.Fraction` (plain ints are accepted and promoted; bools and floats
are rejected).  The elimination is fraction-free: each row is cleared of
denominators and stored as a sparse `{column: int}` row divided by the gcd of
its entries, and rows are combined as `a*row - b*pivot` with coprime `a, b`.
`rank` and `sparse_rank` (integer rows given directly as `{column: int}`
dicts) stop there.  `sparse_rref` takes sparse rational rows
(`{column: int | Fraction}` plus a column count), back-substitutes and
divides the pivot rows out into sparse `Fraction` rows; `rref` is the thin
wrapper that feeds it the rows of a `Matrix`, and `sparse_reduce` (dense
form: `reduce_modulo`) takes normal forms modulo its result.  The result is
still the unique reduced row-echelon form over Q, so reduced forms, kernel
bases and report output do not depend on how the elimination proceeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

Rational = Fraction


def as_rational(x) -> Fraction:
    """An int or Fraction as a Fraction; bools, floats and strings are
    rejected (text input is parsed where it is read, not here)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


Vector = tuple[Fraction, ...]


def vector(entries: Iterable) -> Vector:
    return tuple(as_rational(x) for x in entries)


@dataclass(frozen=True)
class Matrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    rows: int
    cols: int
    entries: tuple[Vector, ...]

    @staticmethod
    def from_rows(rows: Sequence[Sequence]) -> "Matrix":
        data = tuple(vector(r) for r in rows)
        if not data:
            return Matrix(0, 0, ())
        ncols = len(data[0])
        if any(len(r) != ncols for r in data):
            raise ValueError("ragged rows")
        return Matrix(len(data), ncols, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_rows(
            [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        z = Fraction(0)
        return Matrix(rows, cols, tuple(tuple(z for _ in range(cols)) for _ in range(rows)))

    def __getitem__(self, ij: tuple[int, int]) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def row(self, i: int) -> Vector:
        return self.entries[i]

    def col(self, j: int) -> Vector:
        return tuple(r[j] for r in self.entries)

    def transpose(self) -> "Matrix":
        return Matrix.from_rows([self.col(j) for j in range(self.cols)])

    def is_zero(self) -> bool:
        return all(x == 0 for r in self.entries for x in r)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix.from_rows(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.entries, other.entries)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-1)

    def scale(self, q) -> "Matrix":
        q = as_rational(q)
        return Matrix.from_rows([[q * x for x in r] for r in self.entries])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row by row: each nonzero entry of a row of `self` adds a multiple
        of the nonzero part of one row of `other`."""
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        nonzero = [[(j, b) for j, b in enumerate(r) if b] for r in other.entries]
        out = []
        for r in self.entries:
            acc = [Fraction(0)] * other.cols
            for a, terms in zip(r, nonzero):
                if a:
                    for j, b in terms:
                        acc[j] += a * b
            out.append(acc)
        return Matrix.from_rows(out)

    def apply(self, v: Sequence) -> Vector:
        v = vector(v)
        if len(v) != self.cols:
            raise ValueError("length mismatch")
        zero = Fraction(0)
        return tuple(sum((a * x for a, x in zip(r, v) if a and x), zero) for r in self.entries)

    def stack(self, other: "Matrix") -> "Matrix":
        if other.rows == 0:
            return self
        if self.rows == 0:
            return other
        if self.cols != other.cols:
            raise ValueError("column mismatch")
        return Matrix(self.rows + other.rows, self.cols, self.entries + other.entries)


def _primitive(row: dict[int, int]) -> dict[int, int]:
    g = gcd(*row.values())
    return row if g == 1 else {j: v // g for j, v in row.items()}


def _eliminate(row: dict[int, int], pivot: dict[int, int], col: int) -> dict[int, int]:
    """The primitive part of a*row - b*pivot, with a, b chosen coprime so that
    column `col` cancels.  Both rows are nonzero at `col`."""
    a, b = pivot[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {j: a * v for j, v in row.items()}
    for j, v in pivot.items():
        w = out.get(j, 0) - b * v
        if w:
            out[j] = w
        else:
            del out[j]
    return _primitive(out)


def _echelon(rows: Iterable[dict[int, int]]) -> dict[int, dict[int, int]]:
    """Forward elimination of nonzero integer rows: returns primitive echelon
    rows keyed by their leading column.  Each row is reduced on its leading
    column until that column has no pivot yet."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        row = _primitive(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = _eliminate(row, pivot, lead)
    return pivots


def _cleared(row: Iterable[tuple[int, int | Fraction]]) -> dict[int, int]:
    """The nonzero entries of a rational row times the lcm of their
    denominators, as {col: int}."""
    nonzero = [(j, x) for j, x in row if x]
    den = lcm(*(x.denominator for _, x in nonzero))
    return {j: x.numerator * (den // x.denominator) for j, x in nonzero}


def _integer_rows(m: Matrix):
    """The nonzero rows of m, each cleared of denominators, as {col: int}."""
    for entries in m.entries:
        row = _cleared(enumerate(entries))
        if row:
            yield row


def dense_row(row: dict[int, Fraction], cols: int) -> Vector:
    """The length-`cols` vector of a sparse {col: Fraction} row, with
    `Fraction` zeros elsewhere."""
    out = [Fraction(0)] * cols
    for j, x in row.items():
        out[j] = x
    return tuple(out)


def sparse_rref(rows: Iterable[dict[int, int | Fraction]], cols: int) -> list[dict[int, Fraction]]:
    """Reduced row-echelon form of sparse rational rows over `cols` columns.

    Rows are {column: int | Fraction} dicts; zero entries and empty rows are
    allowed.  Returns the nonzero rows of the unique RREF of their span, in
    pivot order, each a {column: Fraction} dict of its nonzero entries with
    its leading entry 1; the rank is their number.
    """
    integral = []
    for row in rows:
        if any(type(x) is not int and type(x) is not Fraction for x in row.values()):
            raise TypeError("sparse rows map columns to int or Fraction entries")
        if any(type(j) is not int or not 0 <= j < cols for j in row):
            raise ValueError(f"sparse row column out of range({cols})")
        row = _cleared(row.items())
        if row:
            integral.append(row)
    pivots = _echelon(integral)
    # Back substitution, last pivot first, so each row is cleared of the
    # later pivot columns using rows that are already fully reduced.
    order = sorted(pivots)
    for lead in reversed(order):
        row = pivots[lead]
        for col in sorted(j for j in row if j != lead and j in pivots):
            row = _eliminate(row, pivots[col], col)
        pivots[lead] = row
    reduced = []
    for lead in order:
        row = pivots[lead]
        scale = row[lead]
        reduced.append({j: Fraction(v, scale) for j, v in sorted(row.items())})
    return reduced


def rref(m: Matrix) -> tuple[int, Matrix]:
    """Reduced row-echelon form: returns (rank, reduced).

    The reduced form is the unique RREF of the row space, with pivots scaled
    to 1, zero rows trailing and `Fraction` entries; a matrix with no rows
    reduces to the 0 x 0 matrix.  The elimination is `sparse_rref` on the
    rows of m.
    """
    if m.rows == 0:
        return 0, Matrix(0, 0, ())
    sparse = [{j: x for j, x in enumerate(entries) if x} for entries in m.entries]
    reduced = [dense_row(row, m.cols) for row in sparse_rref(sparse, m.cols)]
    rk = len(reduced)
    reduced += [tuple([Fraction(0)] * m.cols)] * (m.rows - rk)
    return rk, Matrix(m.rows, m.cols, tuple(reduced))


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_rows(m)))


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of integer rows given as {column: int} dicts; zero entries
    and empty rows are allowed, non-integer entries are rejected."""
    nonzero = []
    for row in rows:
        if set(map(type, row)) - {int} or set(map(type, row.values())) - {int}:
            raise TypeError("sparse rows map int columns to int entries")
        row = {j: v for j, v in row.items() if v}
        if row:
            nonzero.append(row)
    return len(_echelon(nonzero))


def pivot_columns(reduced: Matrix, rk: int) -> list[int]:
    pivots = []
    col = 0
    for r in range(rk):
        while reduced[r, col] == 0:
            col += 1
        pivots.append(col)
        col += 1
    return pivots


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space {x : m x = 0}; count = cols - rank."""
    rk, red = rref(m)
    pivots = pivot_columns(red, rk)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(tuple(v))
    return basis


def row_space_basis(m: Matrix) -> list[Vector]:
    rk, red = rref(m)
    return [red.row(i) for i in range(rk)]


def sparse_reduce(reduced: list[dict[int, Fraction]], v: dict[int, int | Fraction]) -> dict[int, Fraction]:
    """Normal form of a sparse row v modulo sparse RREF rows as returned by
    `sparse_rref`: v minus the combination of those rows that clears every
    pivot column, as a {column: Fraction} dict of its nonzero entries.  RREF
    rows vanish on each other's pivots, so each pivot is cleared once."""
    out = {j: Fraction(x) for j, x in v.items() if x}
    for row in reduced:
        f = out.get(next(iter(row)))
        if f:
            for j, x in row.items():
                w = out.get(j, 0) - f * x
                if w:
                    out[j] = w
                else:
                    del out[j]
    return out


def reduce_modulo(reduced: Matrix, rk: int, v: Sequence) -> Vector:
    """Normal form of v modulo the row space of `reduced`, an RREF of rank rk
    as returned by `rref`: v minus the combination of its rows that clears
    every pivot coordinate.  v lies in that row space iff the result is zero."""
    v = vector(v)
    if rk and len(v) != reduced.cols:
        raise ValueError("length mismatch")
    rows = [{j: x for j, x in enumerate(reduced.row(r)) if x} for r in range(rk)]
    return dense_row(sparse_reduce(rows, dict(enumerate(v))), len(v))


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    """True iff v lies in the rational span of the given vectors.

    Decided exactly: v must reduce to zero modulo the RREF of the basis.
    """
    v = vector(v)
    basis = [vector(b) for b in basis]
    if any(len(b) != len(v) for b in basis):
        raise ValueError("vector lengths differ")
    if all(x == 0 for x in v):
        return True
    if not basis:
        return False
    rk, red = rref(Matrix.from_rows(basis))
    return not any(reduce_modulo(red, rk, v))


def same_span(a: Sequence[Sequence], b: Sequence[Sequence]) -> bool:
    """True iff two families of vectors span the same subspace."""
    ma = Matrix.from_rows([vector(x) for x in a])
    mb = Matrix.from_rows([vector(x) for x in b])
    if ma.cols != mb.cols:
        raise ValueError("ambient dimensions differ")
    ra, reda = rref(ma)
    rb, redb = rref(mb)
    if ra != rb:
        return False
    return [reda.row(i) for i in range(ra)] == [redb.row(i) for i in range(rb)]
