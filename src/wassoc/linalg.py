"""Exact linear algebra over the rationals.

Every dimension, rank and span fact computed by this package reduces to one
forward elimination, so the routines here are exact.  The elimination is
fraction-free: each row is cleared of denominators and stored as a sparse
`{column: int}` row divided by the gcd of its entries, and rows are combined
as `a*row - b*pivot` with coprime `a, b`.  Its order is fixed and
fill-reducing: singleton rows are peeled first, then the other rows are
reduced shortest first (structured Gaussian elimination).  `sparse_rank`
(integer rows given as `{column: int}` dicts) stops there.  `sparse_rref`
takes sparse rational rows (`{column: int | Fraction}` plus a column
count), back-substitutes and divides the pivot rows out into sparse
`Fraction` rows: the unique reduced row-echelon form over Q, whatever order
the rows are reduced in, so a span is its RREF rows and two spans are equal
iff those rows are.  `sparse_reduce` takes normal forms modulo such rows (a
vector lies in the span iff its normal form is empty) and `sparse_kernel`
reads a null-space basis off them, as sparse rows too.

`Matrix` is a dense input format with `Fraction` entries (plain ints are
accepted and promoted; bools and floats are rejected).  `rref`, `rank`,
`kernel_basis` and `in_span` take matrices or dense vectors and go straight
to the sparse routines above; `rref` and `kernel_basis` densify their
results with `dense_row`.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import chain
from math import gcd, lcm

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


class Matrix:
    """Immutable dense matrix with Fraction entries, row-major."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: tuple[Vector, ...]):
        for name, value in (("rows", rows), ("cols", cols), ("entries", entries)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of a Matrix")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if type(other) is not Matrix:
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"Matrix(rows={self.rows!r}, cols={self.cols!r}, entries={self.entries!r})"

    def __reduce__(self):  # by default copy and pickle set the slots through __setattr__
        return Matrix, (self.rows, self.cols, self.entries)

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
    rows keyed by their leading column.

    Singleton rows are peeled first, in rounds until none is left: each
    round fixes the column of every singleton row with the pivot {j: 1} and
    deletes those columns from every row without arithmetic (a touched row
    is copied, so the caller's rows are never mutated).  The remaining rows
    are then taken shortest first, ties in the order given, and each is
    reduced on its leading column until that column has no pivot yet.  The
    order depends only on the rows, so the pivots are deterministic."""
    rows = list(rows)
    pivots: dict[int, dict[int, int]] = {}
    peeled = {j: {j: 1} for row in rows if len(row) == 1 for j in row}
    while peeled:
        pivots.update(peeled)
        cols = peeled.keys()
        rows = [
            row if cols.isdisjoint(row) else {j: v for j, v in row.items() if j not in cols}
            for row in rows
        ]
        peeled = {j: {j: 1} for row in rows if len(row) == 1 for j in row}
    for row in sorted(filter(None, rows), key=len):
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


def _sparse_rows(m: Matrix) -> list[dict[int, Fraction]]:
    """The rows of m as {col: Fraction} dicts of their nonzero entries."""
    return [{j: x for j, x in enumerate(entries) if x} for entries in m.entries]


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
    reduced = [dense_row(row, m.cols) for row in sparse_rref(_sparse_rows(m), m.cols)]
    rk = len(reduced)
    reduced += [tuple([Fraction(0)] * m.cols)] * (m.rows - rk)
    return rk, Matrix(m.rows, m.cols, tuple(reduced))


def rank(m: Matrix) -> int:
    return len(_echelon(_integer_rows(m)))


def sparse_rank(rows: Iterable[dict[int, int]]) -> int:
    """Rank over Q of integer rows given as {column: int} dicts; zero entries
    and empty rows are allowed, non-integer entries are rejected.  The types
    of all keys and entries are checked in one pass, and a row is copied only
    when it holds a zero; the caller's rows are not mutated."""
    rows = list(rows)
    keys = chain.from_iterable(rows)
    entries = chain.from_iterable(row.values() for row in rows)
    if set(map(type, chain(keys, entries))) - {int}:
        raise TypeError("sparse rows map int columns to int entries")
    nonzero = (row if all(row.values()) else {j: v for j, v in row.items() if v} for row in rows)
    return len(_echelon(row for row in nonzero if row))


def sparse_kernel(reduced: list[dict[int, Fraction]], cols: int) -> list[dict[int, Fraction]]:
    """Basis of the null space of sparse RREF rows as returned by
    `sparse_rref`, over `cols` columns, as sparse rows: for each non-pivot
    column f in order, the row with 1 at f and minus entry f of each RREF
    row at that row's pivot column.  Those pivots precede f in increasing
    order, so the keys are in column order."""
    leads = [next(iter(row)) for row in reduced]
    pivot_set = set(leads)
    basis = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = {lead: -row[f] for lead, row in zip(leads, reduced) if row.get(f)}
        v[f] = Fraction(1)
        basis.append(v)
    return basis


def kernel_basis(m: Matrix) -> list[Vector]:
    """Basis of the right null space {x : m x = 0}; count = cols - rank."""
    kernel = sparse_kernel(sparse_rref(_sparse_rows(m), m.cols), m.cols)
    return [dense_row(v, m.cols) for v in kernel]


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


def in_span(v: Sequence, basis: Sequence[Sequence]) -> bool:
    """True iff v lies in the rational span of the given vectors.

    Decided exactly: v must reduce to zero modulo the RREF of the basis.
    """
    v = vector(v)
    basis = [vector(b) for b in basis]
    if any(len(b) != len(v) for b in basis):
        raise ValueError("vector lengths differ")
    rows = sparse_rref(({j: x for j, x in enumerate(b) if x} for b in basis), len(v))
    return not sparse_reduce(rows, dict(enumerate(v)))
