"""Finite-dimensional algebras over Q given by structure constants.

A FinAlg is a dim-n algebra with e_i * e_j = sum_k c[i][j][k] e_k (0-based
indices internally, 1-based in error messages and witnesses), stored as a
dense table.  A MultiMap is a k-linear map stored sparsely: only input tuples
with a nonzero output, and only the nonzero output coordinates, with integral
coefficients kept as ints and the rest as Fractions.  `compose` (partial
composition: one map substituted into one input slot of another) is the one
contraction routine; identity evaluation, the derivation, Jacobi, Jordan and
Leibniz defects, and the coboundary and deformation code of the `cohomology`
and `deform` modules are built from it and `linear_combination`.

Inputs are validated once, by the public `MultiMap` constructor.  The results
of `compose`, `linear_combination` and `permute_inputs` are built from maps
that already hold the invariant, so they are wrapped without a second check
(`_trusted`); their rows may be shared between maps and are never mutated.
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
    """Structure constants c[i][j] = coordinate tuple of e_i * e_j; entries
    must be ints or Fractions (bools, floats and strings are rejected)."""

    __slots__ = ("dim", "c")

    def __init__(self, dim: int, c):
        self.dim = dim
        table = tuple(tuple(tuple(row) for row in plane) for plane in c)
        if len(table) != dim or any(
            len(plane) != dim or any(len(v) != dim for v in plane) for plane in table
        ):
            raise ValueError("structure constant table must be dim x dim x dim")
        entries = itertools.chain.from_iterable(itertools.chain.from_iterable(table))
        bad = set(map(type, entries)) - {int, Fraction}
        if bad:
            names = ", ".join(sorted(t.__name__ for t in bad))
            raise TypeError(f"structure constants must be int or Fraction, not {names}")
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
        q = _exact(q)
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


def _exact(x):
    """An exact coefficient: ints stay ints, a Fraction with denominator 1
    becomes its numerator; bools, floats and anything else are rejected."""
    t = type(x)
    if t is int:
        return x
    if t is Fraction:
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"not an exact rational: {x!r}")


def _check_indices(indices, dim: int, what: str):
    """Every index a plain int in 0..dim-1 (checked in bulk: this runs on
    every MultiMap built)."""
    flat = list(indices)
    if flat and (set(map(type, flat)) != {int} or min(flat) < 0 or max(flat) >= dim):
        raise ValueError(f"{what} outside 0..{dim - 1}")


class MultiMap:
    """Sparse k-linear map A^k -> A: coeffs[input basis tuple] is the output
    as {coordinate: nonzero coefficient}.  Input tuples with zero output are
    absent, and integral coefficients are ints.

    The constructor is the one place that validates; maps computed from other
    maps skip it (`_trusted`) and may share rows, so `coeffs` and its rows are
    read-only."""

    __slots__ = ("arity", "dim", "coeffs")

    def __init__(self, arity: int, dim: int, values: dict):
        """`values` maps input basis tuples (0-based) to output vectors of
        length `dim` or to {coordinate: coefficient} dicts; absent tuples map
        to zero.  Coefficients must be ints or Fractions."""
        self.arity = arity
        self.dim = dim
        if set(map(type, values)) - {tuple} or set(map(len, values)) - {arity}:
            raise ValueError(f"inputs must be tuples of {arity} indices")
        _check_indices(itertools.chain.from_iterable(values), dim, "input index")
        coeffs = {}
        sparse_rows = []
        for idx, out in values.items():
            if isinstance(out, dict):
                sparse_rows.append(out)
                items = out.items()
            elif len(out) != dim:
                raise ValueError(f"output vector at {idx!r} has length {len(out)}, not {dim}")
            else:
                items = enumerate(out)
            row = {}
            for k, x in items:
                if type(x) is not int:
                    x = _exact(x)
                if x:
                    row[k] = x
            if row:
                coeffs[idx] = row
        _check_indices(itertools.chain.from_iterable(sparse_rows), dim, "output coordinate")
        self.coeffs = coeffs

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
        """Output coordinate vector on a tuple of basis inputs."""
        row = self.coeffs.get(idx, {})
        return tuple(row.get(k, 0) for k in range(self.dim))

    def is_zero(self) -> bool:
        return not self.coeffs

    def first_nonzero(self):
        """Smallest input tuple with nonzero output, with its value (or None)."""
        if not self.coeffs:
            return None
        idx = min(self.coeffs)
        return idx, self(*idx)

    def __add__(self, other: "MultiMap") -> "MultiMap":
        return linear_combination(self.arity, self.dim, ((1, self), (1, other)))

    def __sub__(self, other: "MultiMap") -> "MultiMap":
        return linear_combination(self.arity, self.dim, ((1, self), (-1, other)))

    def scale(self, q) -> "MultiMap":
        return linear_combination(self.arity, self.dim, ((q, self),))

    def permute_inputs(self, images: tuple[int, ...]) -> "MultiMap":
        """Precompose with the slot permutation sending input i to slot images[i]:
        result(x_1..x_k) = self(x_{images[1]}, ..., x_{images[k]}) (1-based)."""
        targets = [p - 1 for p in images]
        out = {}
        for idx, row in self.coeffs.items():
            key = [0] * self.arity
            for t, i in zip(targets, idx):
                key[t] = i
            out[tuple(key)] = row
        return _trusted(self.arity, self.dim, out)

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiMap)
            and self.arity == other.arity
            and self.dim == other.dim
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        return f"MultiMap(arity={self.arity}, dim={self.dim})"


def _trusted(arity: int, dim: int, coeffs: dict) -> MultiMap:
    """A MultiMap around `coeffs` without validation: the rows must already
    hold the invariant (exact, nonzero, integral values as ints, indices in
    range), as every result computed from validated maps does."""
    m = object.__new__(MultiMap)
    m.arity = arity
    m.dim = dim
    m.coeffs = coeffs
    return m


def _normalized(row: dict) -> dict:
    """`row` without zero coefficients and with integral Fractions as ints:
    the one cleaning pass over an accumulated row."""
    out = {}
    for k, x in row.items():
        if x:
            if type(x) is Fraction and x.denominator == 1:
                x = x.numerator
            out[k] = x
    return out


def linear_combination(arity: int, dim: int, terms) -> MultiMap:
    """sum of q * m over the (q, m) pairs of `terms`, all of one shape;
    each q must be an int or a Fraction."""
    acc: dict = {}
    for q, m in terms:
        if m.arity != arity or m.dim != dim:
            raise ValueError("shape mismatch")
        q = _exact(q)
        if not q:
            continue
        for idx, row in m.coeffs.items():
            out = acc.get(idx)
            if out is None:
                acc[idx] = {k: q * x for k, x in row.items()}
            else:
                for k, x in row.items():
                    out[k] = out.get(k, 0) + q * x
    coeffs = {}
    for idx, row in acc.items():
        row = _normalized(row)
        if row:
            coeffs[idx] = row
    return _trusted(arity, dim, coeffs)


def compose(outer: MultiMap, slot: int, inner: MultiMap) -> MultiMap:
    """Partial composition: `inner` substituted into input `slot` (0-based)
    of `outer`, with the inputs of `inner` taking that slot's place:

      (x_1 .. x_{k+l-1}) -> outer(x_1 .. x_slot, inner(x_{slot+1} .. x_{slot+l}), ..).

    Every contraction of multilinear maps in the package is this one routine:
    a bilinear map substituted into a slot, an endomorphism (a 1-linear map,
    `endo_to_map`) precomposed into a slot (inner) or applied to the output
    (outer, slot 0), and the product applied on either side of the output
    (`compose(product_map(alg), 1, m)` is x_1 m(x_2 ..)).  Work is
    proportional to the nonzero coefficients that actually meet: the outer
    rows are grouped by their coordinate in `slot`, and each output row is
    summed in one local dict per inner input tuple, then normalized once.
    Both operands are trusted (validated when built); the result is too."""
    if outer.dim != inner.dim:
        raise ValueError("dimension mismatch")
    if not 0 <= slot < outer.arity:
        raise ValueError(f"slot {slot} outside 0..{outer.arity - 1}")
    by_coord: dict = {}
    for idx, row in outer.coeffs.items():
        by_coord.setdefault(idx[slot], []).append(((idx[:slot], idx[slot + 1 :]), row))
    coeffs: dict = {}
    for jdx, inner_row in inner.coeffs.items():
        acc: dict = {}
        for a, c in inner_row.items():
            for pre_post, row in by_coord.get(a, ()):
                out = acc.get(pre_post)
                if out is None:
                    acc[pre_post] = {k: c * x for k, x in row.items()}
                else:
                    for k, x in row.items():
                        out[k] = out.get(k, 0) + c * x
        for (pre, post), row in acc.items():
            row = _normalized(row)
            if row:
                coeffs[pre + jdx + post] = row
    return _trusted(outer.arity + inner.arity - 1, outer.dim, coeffs)


def product_map(alg: FinAlg) -> MultiMap:
    return MultiMap.from_function(2, alg.dim, lambda i, j: alg.product(i, j))


def endo_to_map(alg_dim: int, m: Matrix) -> MultiMap:
    """Column-convention endomorphism as a 1-linear map: e_j -> column j."""
    if m.rows != alg_dim or m.cols != alg_dim:
        raise ValueError("endomorphism must be dim x dim")
    return MultiMap(1, alg_dim, {(j,): m.col(j) for j in range(alg_dim)})


# ---------------------------------------------------------------------------
# Identity evaluation.
# ---------------------------------------------------------------------------

def evaluate(alg: FinAlg, e: MultilinearIdentity) -> MultiMap:
    """Substitute the algebra product at each internal node; the result is the
    zero tensor iff the algebra satisfies the identity."""
    n = alg.dim
    mu = product_map(alg)
    trees: dict = {LEAF: MultiMap(1, n, {(i,): {i: 1} for i in range(n)})}

    def tree(shape) -> MultiMap:
        """The shape's tree of products, inputs in leaf order."""
        if shape not in trees:
            op, left, right = shape
            if op != "m":
                raise ValueError(f"cannot evaluate the formal operation {op!r}")
            m = mu if right is LEAF else compose(mu, 1, tree(right))
            trees[shape] = m if left is LEAF else compose(m, 0, tree(left))
        return trees[shape]

    return linear_combination(
        e.arity,
        n,
        ((q, tree(shape).permute_inputs(labels)) for (shape, labels), q in e.coeffs.items()),
    )


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
    mu = product_map(alg)
    left = compose(mu, 0, mu)
    return left + left.permute_inputs((2, 3, 1)) + left.permute_inputs((3, 1, 2))


def satisfies_jacobi(alg: FinAlg) -> bool:
    return jacobi_defect(alg).is_zero()


def is_lie(alg: FinAlg) -> bool:
    return is_anticommutative(alg) and satisfies_jacobi(alg)


def jordan_identity_defect(alg: FinAlg) -> MultiMap:
    """Full multilinearization (valid over Q) of (x y) x^2 - x (y x^2):
    sum over permutations s of the three x-slots of
    (x_{s1} y)(x_{s2} x_{s3}) - x_{s1} (y (x_{s2} x_{s3})), arity 4 with the
    y slot last."""
    mu = product_map(alg)
    right = compose(mu, 1, mu)
    # Both trees take their inputs as (x_a, y, x_b, x_c).
    defect = compose(right, 0, mu) - compose(mu, 1, right)
    return linear_combination(
        4,
        alg.dim,
        ((1, defect.permute_inputs((a + 1, 4, b + 1, c + 1)))
         for a, b, c in itertools.permutations(range(3))),
    )


def satisfies_jordan_identity(alg: FinAlg) -> bool:
    return jordan_identity_defect(alg).is_zero()


def is_jordan(alg: FinAlg) -> bool:
    """Commutative and satisfying the (linearized) Jordan identity."""
    return is_commutative(alg) and satisfies_jordan_identity(alg)


def derivation_defect(alg: FinAlg, f: Matrix) -> MultiMap:
    """f(x)y + x f(y) - f(xy); f in column convention."""
    mu = product_map(alg)
    fm = endo_to_map(alg.dim, f)
    return linear_combination(
        2, alg.dim, ((1, compose(mu, 0, fm)), (1, compose(mu, 1, fm)), (-1, compose(fm, 0, mu)))
    )


def is_derivation(alg: FinAlg, f: Matrix) -> bool:
    """f(x)y + x f(y) = f(xy) on all basis pairs; f in column convention."""
    return derivation_defect(alg, f).is_zero()


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
    dot, br = product_map(bullet), product_map(bracket)
    return (
        compose(br, 0, dot)
        - compose(dot, 1, br)
        - compose(dot, 0, br).permute_inputs((1, 3, 2))
    )


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


def _parse_rational(s):
    """An int or Fraction from a JSON integer or a 'p/q' string; integral
    values come back as ints."""
    if _json_int(s):
        return s
    if not isinstance(s, str):
        raise AlgebraFormatError(f"rational must be a 'p/q' string, got {s!r}")
    # Plain integers, most entries of a tensor, skip the Fraction parser.
    if s.isascii() and s.removeprefix("-").isdigit():
        return int(s)
    try:
        return _exact(Fraction(s))
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
    c = [[[0] * n for _ in range(n)] for _ in range(n)]
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
            return [_format_rational(x) for x in m(*prefix)]
        return [rec(prefix + (i,)) for i in range(m.dim)]

    return rec(())
