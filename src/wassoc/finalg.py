"""Finite-dimensional algebras over Q given by structure constants.

A FinAlg is a dim-n algebra with e_i * e_j = sum_k c[i][j][k] e_k (0-based
indices internally, 1-based in error messages and witnesses).  A MultiMap is a
k-linear map stored as a dense tensor of output vectors.  Entries may be ints
or Fractions; arithmetic stays exact either way.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .identities import (
    LEAF,
    MultilinearIdentity,
    associator,
    flexibility_expression,
    lie_admissible_expression,
    wa_expression,
)
from .linalg import Matrix, as_rational


class FinAlg:
    """Structure constants c[i][j] = coordinate tuple of e_i * e_j."""

    __slots__ = ("dim", "c")

    def __init__(self, dim: int, c):
        self.dim = dim
        table = tuple(tuple(tuple(row) for row in plane) for plane in c)
        if len(table) != dim or any(
            len(plane) != dim or any(len(v) != dim for v in plane) for plane in table
        ):
            raise ValueError("structure constant table must be dim x dim x dim")
        self.c = table

    @staticmethod
    def zero(dim: int) -> "FinAlg":
        z = tuple(tuple(tuple(0 for _ in range(dim)) for _ in range(dim)) for _ in range(dim))
        return FinAlg(dim, z)

    @staticmethod
    def from_products(dim: int, products: dict) -> "FinAlg":
        """products maps (i, j) 1-based pairs to {k: coeff} output dicts."""
        c = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
        for (i, j), out in products.items():
            for k, q in out.items():
                c[i - 1][j - 1][k - 1] = q
        return FinAlg(dim, c)

    def product(self, i: int, j: int) -> tuple:
        return self.c[i][j]

    def mul_vec(self, u, v) -> tuple:
        """Product of two coordinate vectors."""
        n = self.dim
        out = [0] * n
        for a in range(n):
            ua = u[a]
            if ua == 0:
                continue
            ca = self.c[a]
            for b in range(n):
                vb = v[b]
                if vb == 0:
                    continue
                q = ua * vb
                cab = ca[b]
                for k in range(n):
                    if cab[k] != 0:
                        out[k] += q * cab[k]
        return tuple(out)

    def lmul_basis(self, i: int, v) -> tuple:
        """e_i * v for a coordinate vector v."""
        n = self.dim
        out = [0] * n
        ci = self.c[i]
        for b in range(n):
            vb = v[b]
            if vb == 0:
                continue
            row = ci[b]
            for k in range(n):
                if row[k] != 0:
                    out[k] += vb * row[k]
        return tuple(out)

    def rmul_basis(self, v, j: int) -> tuple:
        """v * e_j for a coordinate vector v."""
        n = self.dim
        out = [0] * n
        for a in range(n):
            va = v[a]
            if va == 0:
                continue
            row = self.c[a][j]
            for k in range(n):
                if row[k] != 0:
                    out[k] += va * row[k]
        return tuple(out)

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def opposite(self) -> "FinAlg":
        n = self.dim
        return FinAlg(n, [[self.c[j][i] for j in range(n)] for i in range(n)])

    def add(self, other: "FinAlg") -> "FinAlg":
        n = self.dim
        if other.dim != n:
            raise ValueError("dimension mismatch")
        return FinAlg(
            n,
            [
                [[self.c[i][j][k] + other.c[i][j][k] for k in range(n)] for j in range(n)]
                for i in range(n)
            ],
        )

    def scale(self, q) -> "FinAlg":
        n = self.dim
        return FinAlg(
            n,
            [[[q * x for x in self.c[i][j]] for j in range(n)] for i in range(n)],
        )

    def sub(self, other: "FinAlg") -> "FinAlg":
        return self.add(other.scale(-1))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinAlg) or self.dim != other.dim:
            return False
        n = self.dim
        return all(
            self.c[i][j][k] == other.c[i][j][k]
            for i in range(n)
            for j in range(n)
            for k in range(n)
        )

    def __repr__(self) -> str:
        return f"FinAlg(dim={self.dim})"


class MultiMap:
    """Dense k-linear map A^k -> A: values[input basis tuple] = output vector."""

    __slots__ = ("arity", "dim", "values")

    def __init__(self, arity: int, dim: int, values: dict):
        self.arity = arity
        self.dim = dim
        self.values = {
            idx: tuple(values.get(idx, (0,) * dim))
            for idx in itertools.product(range(dim), repeat=arity)
        }

    @staticmethod
    def zero(arity: int, dim: int) -> "MultiMap":
        return MultiMap(arity, dim, {})

    @staticmethod
    def from_function(arity: int, dim: int, fn) -> "MultiMap":
        return MultiMap(
            arity,
            dim,
            {idx: fn(*idx) for idx in itertools.product(range(dim), repeat=arity)},
        )

    def __call__(self, *idx: int) -> tuple:
        return self.values[idx]

    def apply_vectors(self, *vecs) -> tuple:
        """Multilinear evaluation on coordinate vectors."""
        if len(vecs) != self.arity:
            raise ValueError("arity mismatch")
        out = [0] * self.dim
        for idx in itertools.product(range(self.dim), repeat=self.arity):
            scalar = 1
            zero = False
            for v, i in zip(vecs, idx):
                if v[i] == 0:
                    zero = True
                    break
                scalar = scalar * v[i]
            if zero:
                continue
            val = self.values[idx]
            for k in range(self.dim):
                if val[k] != 0:
                    out[k] += scalar * val[k]
        return tuple(out)

    def is_zero(self) -> bool:
        return all(all(x == 0 for x in v) for v in self.values.values())

    def first_nonzero(self):
        """Smallest input tuple with nonzero output, with its value (or None)."""
        for idx in sorted(self.values):
            if any(x != 0 for x in self.values[idx]):
                return idx, self.values[idx]
        return None

    def __add__(self, other: "MultiMap") -> "MultiMap":
        self._check_compat(other)
        return MultiMap(
            self.arity,
            self.dim,
            {
                idx: tuple(a + b for a, b in zip(v, other.values[idx]))
                for idx, v in self.values.items()
            },
        )

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return self + other.scale(-1)

    def scale(self, q) -> "MultiMap":
        return MultiMap(
            self.arity,
            self.dim,
            {idx: tuple(q * x for x in v) for idx, v in self.values.items()},
        )

    def permute_inputs(self, images: tuple[int, ...]) -> "MultiMap":
        """Precompose with the slot permutation sending input i to slot images[i]:
        result(x_1..x_k) = self(x_{images[1]}, ..., x_{images[k]}) (1-based)."""
        return MultiMap(
            self.arity,
            self.dim,
            {
                idx: self.values[tuple(idx[images[pos] - 1] for pos in range(self.arity))]
                for idx in self.values
            },
        )

    def transpose_pair(self) -> "MultiMap":
        if self.arity != 2:
            raise ValueError("needs arity 2")
        return self.permute_inputs((2, 1))

    def skew_part(self) -> "MultiMap":
        return self - self.transpose_pair()

    def sym_part(self) -> "MultiMap":
        return self + self.transpose_pair()

    def is_skew(self) -> bool:
        """Fully antisymmetric under every transposition of adjacent slots."""
        for pos in range(self.arity - 1):
            images = list(range(1, self.arity + 1))
            images[pos], images[pos + 1] = images[pos + 1], images[pos]
            if not (self + self.permute_inputs(tuple(images))).is_zero():
                return False
        return True

    def is_symmetric(self) -> bool:
        for pos in range(self.arity - 1):
            images = list(range(1, self.arity + 1))
            images[pos], images[pos + 1] = images[pos + 1], images[pos]
            if not (self - self.permute_inputs(tuple(images))).is_zero():
                return False
        return True

    def _check_compat(self, other: "MultiMap"):
        if self.arity != other.arity or self.dim != other.dim:
            raise ValueError("shape mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiMap)
            and self.arity == other.arity
            and self.dim == other.dim
            and all(
                all(a == b for a, b in zip(self.values[idx], other.values[idx]))
                for idx in self.values
            )
        )

    def __repr__(self) -> str:
        return f"MultiMap(arity={self.arity}, dim={self.dim})"


def product_map(alg: FinAlg) -> MultiMap:
    return MultiMap.from_function(2, alg.dim, lambda i, j: alg.product(i, j))


def endo_to_map(alg_dim: int, m: Matrix):
    """Column-convention endomorphism: image of e_j is column j."""
    if m.rows != alg_dim or m.cols != alg_dim:
        raise ValueError("endomorphism must be dim x dim")
    return [m.col(j) for j in range(alg_dim)]


# ---------------------------------------------------------------------------
# Identity evaluation.
# ---------------------------------------------------------------------------

def _eval_shape(alg: FinAlg, shape, args):
    """Evaluate a tree shape on coordinate vectors, consuming args left to right."""

    def rec(s):
        if s is LEAF:
            return next(it)
        return alg.mul_vec(rec(s[0]), rec(s[1]))

    it = iter(args)
    return rec(shape)


def evaluate(alg: FinAlg, e: MultilinearIdentity) -> MultiMap:
    """Substitute the algebra product at each internal node; the result is the
    zero tensor iff the algebra satisfies the identity."""
    if e.arity > 5:
        raise ValueError("arity > 5 not supported")
    n = alg.dim
    basis = [alg.basis_vector(i) for i in range(n)]

    def fn(*idx):
        out = [0] * n
        for (shape, labels), q in e.coeffs.items():
            args = [basis[idx[l - 1]] for l in labels]
            val = _eval_shape(alg, shape, args)
            for k in range(n):
                if val[k] != 0:
                    out[k] += q * val[k]
        return tuple(out)

    return MultiMap.from_function(e.arity, n, fn)


# ---------------------------------------------------------------------------
# Property predicates.
# ---------------------------------------------------------------------------

def is_commutative(alg: FinAlg) -> bool:
    n = alg.dim
    return all(alg.c[i][j] == alg.c[j][i] for i in range(n) for j in range(i + 1, n))

def is_anticommutative(alg: FinAlg) -> bool:
    n = alg.dim
    return all(
        all(alg.c[i][j][k] == -alg.c[j][i][k] for k in range(n))
        for i in range(n)
        for j in range(i, n)
    )


def is_associative(alg: FinAlg) -> bool:
    return evaluate(alg, associator()).is_zero()


def is_weakly_associative(alg: FinAlg) -> bool:
    return evaluate(alg, wa_expression()).is_zero()


def is_flexible(alg: FinAlg) -> bool:
    return evaluate(alg, flexibility_expression()).is_zero()


def is_lie_admissible(alg: FinAlg) -> bool:
    return evaluate(alg, lie_admissible_expression()).is_zero()


def jacobi_defect(alg: FinAlg) -> MultiMap:
    """J(x,y,z) = (xy)z + (yz)x + (zx)y for the algebra's own product."""
    n = alg.dim

    def fn(i, j, k):
        t1 = alg.rmul_basis(alg.product(i, j), k)
        t2 = alg.rmul_basis(alg.product(j, k), i)
        t3 = alg.rmul_basis(alg.product(k, i), j)
        return tuple(a + b + c for a, b, c in zip(t1, t2, t3))

    return MultiMap.from_function(3, n, fn)


def satisfies_jacobi(alg: FinAlg) -> bool:
    return jacobi_defect(alg).is_zero()


def is_lie(alg: FinAlg) -> bool:
    return is_anticommutative(alg) and satisfies_jacobi(alg)


def jordan_identity_defect(alg: FinAlg) -> MultiMap:
    """Full multilinearization (valid over Q) of (x y) x^2 - x (y x^2):
    sum over permutations s of the three x-slots of
    (x_{s1} y)(x_{s2} x_{s3}) - x_{s1} (y (x_{s2} x_{s3})), arity 4 with the
    y slot last."""
    n = alg.dim
    perms3 = list(itertools.permutations(range(3)))

    def fn(i1, i2, i3, j):
        xs = (i1, i2, i3)
        out = [0] * n
        y = alg.basis_vector(j)
        for s in perms3:
            a, b, c = xs[s[0]], xs[s[1]], xs[s[2]]
            sq = alg.product(b, c)
            t1 = alg.mul_vec(alg.rmul_basis(alg.basis_vector(a), j), sq)
            t2 = alg.lmul_basis(a, alg.mul_vec(y, sq))
            for k in range(n):
                out[k] += t1[k] - t2[k]
        return tuple(out)

    return MultiMap.from_function(4, n, fn)


def satisfies_jordan_identity(alg: FinAlg) -> bool:
    return jordan_identity_defect(alg).is_zero()


def is_jordan(alg: FinAlg) -> bool:
    """Commutative and satisfying the (linearized) Jordan identity."""
    return is_commutative(alg) and satisfies_jordan_identity(alg)


def is_derivation(alg: FinAlg, f: Matrix) -> bool:
    """f(x)y + x f(y) = f(xy) on all basis pairs; f in column convention."""
    n = alg.dim
    cols = endo_to_map(n, f)
    for i in range(n):
        for j in range(n):
            lhs1 = alg.rmul_basis(cols[i], j)
            lhs2 = alg.lmul_basis(i, cols[j])
            rhs = f.apply(alg.product(i, j))
            if any(a + b != r for a, b, r in zip(lhs1, lhs2, rhs)):
                return False
    return True


def inner_derivation_candidate(alg: FinAlg, i: int) -> Matrix:
    """The endomorphism x -> e_i x - x e_i as a column-convention matrix."""
    n = alg.dim
    cols = []
    for j in range(n):
        l = alg.product(i, j)
        r = alg.product(j, i)
        cols.append(tuple(a - b for a, b in zip(l, r)))
    return Matrix.from_rows([[cols[j][k] for j in range(n)] for k in range(n)])


# ---------------------------------------------------------------------------
# Polarization.
# ---------------------------------------------------------------------------

def polarize(alg: FinAlg) -> tuple[FinAlg, FinAlg]:
    """(bullet, bracket) with x.y = xy + yx and {x,y} = xy - yx."""
    op = alg.opposite()
    return alg.add(op), alg.sub(op)


def depolarize(bullet: FinAlg, bracket: FinAlg) -> FinAlg:
    """Product x*y = x.y + {x,y}; requires a commutative bullet and an
    anticommutative bracket."""
    if not is_commutative(bullet):
        n = bullet.dim
        pair = next(
            (i, j)
            for i in range(n)
            for j in range(n)
            if bullet.c[i][j] != bullet.c[j][i]
        )
        raise ValueError(
            f"bullet product not commutative at basis pair (e{pair[0]+1}, e{pair[1]+1})"
        )
    if not is_anticommutative(bracket):
        n = bracket.dim
        pair = next(
            (i, j)
            for i in range(n)
            for j in range(i, n)
            if any(bracket.c[i][j][k] != -bracket.c[j][i][k] for k in range(n))
        )
        raise ValueError(
            f"bracket not anticommutative at basis pair (e{pair[0]+1}, e{pair[1]+1})"
        )
    return bullet.add(bracket)


def leibniz_defect_pair(bullet: FinAlg, bracket: FinAlg) -> MultiMap:
    """{x.y, z} - x.{y,z} - {x,z}.y on basis triples."""
    n = bullet.dim

    def fn(i, j, k):
        t1 = bracket.rmul_basis(bullet.product(i, j), k)
        t2 = bullet.lmul_basis(i, bracket.product(j, k))
        t3 = bullet.rmul_basis(bracket.product(i, k), j)
        return tuple(a - b - c for a, b, c in zip(t1, t2, t3))

    return MultiMap.from_function(3, n, fn)


def is_nonassociative_poisson(bullet: FinAlg, bracket: FinAlg) -> bool:
    """Commutative bullet, Lie bracket, and the Leibniz identity linking them."""
    return (
        is_commutative(bullet)
        and is_anticommutative(bracket)
        and satisfies_jacobi(bracket)
        and leibniz_defect_pair(bullet, bracket).is_zero()
    )


# ---------------------------------------------------------------------------
# JSON interchange (rationals as "p/q" strings).
# ---------------------------------------------------------------------------

class AlgebraFormatError(ValueError):
    pass


def _json_int(x) -> bool:
    """JSON integers only: `true`/`false` load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _parse_rational(s) -> Fraction:
    if _json_int(s):
        return Fraction(s)
    if not isinstance(s, str):
        raise AlgebraFormatError(f"rational must be a 'p/q' string, got {s!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise AlgebraFormatError(f"malformed rational {s!r}") from exc


def _format_rational(q) -> str:
    q = as_rational(q)
    return f"{q.numerator}/{q.denominator}"


def algebra_from_json(doc) -> FinAlg:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc:
        raise AlgebraFormatError("algebra document must be an object with 'dim'")
    n = doc["dim"]
    if not _json_int(n) or n < 1:
        raise AlgebraFormatError(f"bad dimension {n!r}")
    c = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for entry in doc.get("products", []):
        i, j = entry.get("i"), entry.get("j")
        if not (_json_int(i) and _json_int(j) and 1 <= i <= n and 1 <= j <= n):
            raise AlgebraFormatError(f"product indices out of range: i={i!r} j={j!r}")
        for term in entry.get("out", []):
            k = term.get("k")
            if not (_json_int(k) and 1 <= k <= n):
                raise AlgebraFormatError(f"output index out of range: k={k!r}")
            c[i - 1][j - 1][k - 1] = _parse_rational(term.get("c"))
    return FinAlg(n, c)


def algebra_to_json(alg: FinAlg) -> dict:
    products = []
    n = alg.dim
    for i in range(n):
        for j in range(n):
            out = [
                {"k": k + 1, "c": _format_rational(alg.c[i][j][k])}
                for k in range(n)
                if alg.c[i][j][k] != 0
            ]
            if out:
                products.append({"i": i + 1, "j": j + 1, "out": out})
    return {"dim": n, "products": products}


def multimap_from_json(doc, dim: int, arity: int = 2) -> MultiMap:
    """Nested arrays of 'p/q' strings, indexed input-first then output."""

    def rec(node, depth):
        if depth == arity:
            if not isinstance(node, list) or len(node) != dim:
                raise AlgebraFormatError("output vector has wrong length")
            return [_parse_rational(x) for x in node]
        if not isinstance(node, list) or len(node) != dim:
            raise AlgebraFormatError("tensor level has wrong length")
        return [rec(child, depth + 1) for child in node]

    tensor = rec(doc, 0)
    values = {}
    for idx in itertools.product(range(dim), repeat=arity):
        node = tensor
        for i in idx:
            node = node[i]
        values[idx] = tuple(node)
    return MultiMap(arity, dim, values)


def multimap_to_json(m: MultiMap):
    def rec(prefix):
        if len(prefix) == m.arity:
            return [_format_rational(x) for x in m.values[prefix]]
        return [rec(prefix + (i,)) for i in range(m.dim)]

    return rec(())
