"""Finite-dimensional algebras over Q given by structure constants.

A MultiMap is a k-linear map stored sparsely: only input tuples with a
nonzero output, and only the nonzero output coordinates, with integral
coefficients kept as ints and the rest as Fractions.  A FinAlg is a dim-n
algebra (A, mu) and holds nothing but its product mu, a bilinear MultiMap:
e_i * e_j = mu(i, j) (0-based indices internally, 1-based in error messages
and witnesses).  A coordinate vector is a 0-linear map (`vector_map`), an
endomorphism a 1-linear one.  `contract` (a signed sum of partial
compositions, each one map substituted into one input slot of another) is
the one contraction routine, and `compose` is its one-term case.  Products
of vectors, identity evaluation, the derivation, Jacobi, Jordan and Leibniz
defects, and the coboundary and deformation code of the `cohomology` and
`deform` modules are built from it; terms that also permute their inputs
(`permute_inputs`) are summed by `linear_combination`, which also gives the
sum, difference and multiples of algebras.

`contract` adds whole rows as packed integers (Kronecker substitution): one
slot width per call, from a bound B on the output coefficients cleared of
denominators, so adding a scaled row is one big-integer multiply-add and each
output row is decoded once.

Inputs are validated once, by the public `MultiMap` constructor, which is
also the only check of the `FinAlg` constructor.  The results of `contract`,
`linear_combination` and `permute_inputs` are built from maps that already
hold the invariant, so they are wrapped without a second check (`_trusted`);
their rows may be shared between maps and are never mutated.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
from fractions import Fraction

from .identities import (
    LEAF,
    MultilinearIdentity,
    associator,
    flexibility_expression,
    lie_admissible_expression,
    wa_expression,
)
from .linalg import as_rational


class FinAlg:
    """A dim-n algebra (A, mu): `mu` is the product as a bilinear MultiMap,
    so e_i e_j = mu(i, j) (0-based indices internally, 1-based in error
    messages and witnesses).  `FinAlg(dim, values)` takes what
    `MultiMap(2, dim, values)` takes and is validated by it; `mu` is
    read-only."""

    __slots__ = ("dim", "mu")

    def __init__(self, dim: int, values: dict):
        self.dim = dim
        self.mu = MultiMap(2, dim, values)

    @staticmethod
    def from_map(mu: "MultiMap") -> "FinAlg":
        """The algebra whose product is the (already validated) bilinear map mu."""
        if mu.arity != 2:
            raise ValueError("an algebra product needs arity 2")
        alg = object.__new__(FinAlg)
        alg.dim = mu.dim
        alg.mu = mu
        return alg

    @staticmethod
    def from_products(dim: int, products: dict) -> "FinAlg":
        """products maps (i, j) 1-based pairs to {k: coeff} output dicts."""
        return FinAlg(
            dim,
            {
                (i - 1, j - 1): {k - 1: q for k, q in out.items()}
                for (i, j), out in products.items()
            },
        )

    def basis_vector(self, i: int) -> tuple:
        return tuple(1 if k == i else 0 for k in range(self.dim))

    def opposite(self) -> "FinAlg":
        return FinAlg.from_map(self.mu.transpose_pair())

    def add(self, other: "FinAlg") -> "FinAlg":
        return FinAlg.from_map(self.mu + other.mu)

    def scale(self, q) -> "FinAlg":
        return FinAlg.from_map(self.mu.scale(q))

    def sub(self, other: "FinAlg") -> "FinAlg":
        return FinAlg.from_map(self.mu - other.mu)

    def __eq__(self, other) -> bool:
        return isinstance(other, FinAlg) and self.mu == other.mu

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
        """Smallest input tuple with nonzero output, with that output as its
        sparse row {coordinate: nonzero coefficient} (or None)."""
        if not self.coeffs:
            return None
        idx = min(self.coeffs)
        return idx, self.coeffs[idx]

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


def _scan(m: MultiMap) -> tuple:
    """(D, T, w) of a nonzero map: D the lcm of its denominators, T the
    largest |D x| over its coefficients x and w its widest row."""
    rows = m.coeffs.values()
    values = list(itertools.chain.from_iterable(map(dict.values, rows)))
    den = math.lcm(*set(map(operator.attrgetter("denominator"), values)))
    return den, int(max(map(abs, values)) * den), max(map(len, rows))


def _unpack(v: int, width: int, den: int) -> dict:
    """The row {k: d_k / den} of v = sum d_k 2^(k width), each digit
    balanced (|d_k| < 2^(width - 1)); zero slots are jumped over through
    the lowest set bit."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    row = {}
    k = 0
    while v:
        skip = ((v & -v).bit_length() - 1) // width
        v >>= skip * width
        k += skip
        d = v & mask
        if d >= half:
            d -= mask + 1
        v = (v - d) >> width
        row[k] = d if den == 1 else d // den if d % den == 0 else Fraction(d, den)
        k += 1
    return row


def contract(arity: int, dim: int, terms) -> MultiMap:
    """sum of q * (outer o_slot inner) over the (q, outer, slot, inner) terms
    of `terms`, each a partial composition: `inner` substituted into input
    `slot` (0-based) of `outer`, with the inputs of `inner` taking that
    slot's place:

      (x_1 .. x_{k+l-1}) -> outer(x_1 .. x_slot, inner(x_{slot+1} .. x_{slot+l}), ..).

    Every contraction of multilinear maps in the package is this one routine:
    a bilinear map substituted into a slot, an endomorphism (a 1-linear map)
    precomposed into a slot (inner) or applied to the output
    (outer, slot 0), the product applied on either side of the output
    (`compose(alg.mu, 1, m)` is x_1 m(x_2 ..)), a coordinate vector (a
    0-linear map, `vector_map`) multiplied in on either side
    (`compose(alg.mu, 0, v)` is y -> v y), and the signed sums of such terms
    that make up coboundaries, defects and gauge series.

    Rows are added packed (Kronecker substitution).  With D the lcm of a
    map's denominators and L the common denominator of the term scalars
    q / (D_outer D_inner), each scalar becomes the integer
    s = q L / (D_outer D_inner), and L times an output coefficient is an
    integer of absolute value at most B = sum over terms of
    |s| max|D_outer x| max|D_inner x| (widest inner row).  In slots of width
    W = B.bit_length() + 1 each is a balanced digit, so an outer row packs,
    once per (outer, slot), into sum_k D_outer x_k 2^(k W), and a scaled row
    adds with one big-integer multiply-add.  Outer rows are grouped by their
    coordinate in `slot`, and each distinct (pre, post) of their other
    inputs has a small int position: an inner row sums its scaled packed
    rows per position, then adds each sum to the accumulator entry of the
    output key pre + inner input + post.  Each output row is decoded once,
    at the end.  Each q must be an int or a Fraction; the operands are
    trusted (validated when built), and so is the result."""
    live = []
    stats: dict = {}
    for q, outer, slot, inner in terms:
        if outer.dim != dim or inner.dim != dim:
            raise ValueError("dimension mismatch")
        if outer.arity + inner.arity - 1 != arity:
            raise ValueError("shape mismatch")
        if not 0 <= slot < outer.arity:
            raise ValueError(f"slot {slot} outside 0..{outer.arity - 1}")
        q = _exact(q)
        if q and outer.coeffs and inner.coeffs:
            for m in (outer, inner):
                if id(m) not in stats:
                    stats[id(m)] = _scan(m)
            d_outer, top_outer, _ = stats[id(outer)]
            d_inner, top_inner, wide = stats[id(inner)]
            f = q if d_outer == d_inner == 1 else Fraction(q, d_outer * d_inner)
            live.append((f, outer, slot, inner, top_outer * top_inner * wide))
    den = math.lcm(*(f.denominator for f, *_ in live))
    scalars = [f.numerator * (den // f.denominator) for f, *_ in live]
    bound = sum(abs(s) * reach for s, (*_, reach) in zip(scalars, live))
    width = bound.bit_length() + 1
    packed_groups: dict = {}
    acc: dict = {}
    for s, (_, outer, slot, inner, _) in zip(scalars, live):
        group = packed_groups.get((id(outer), slot))
        if group is None:
            d_outer = stats[id(outer)][0]
            by_coord: dict = {}
            positions: dict = {}
            for idx, row in outer.coeffs.items():
                packed = 0
                for k, x in row.items():
                    if d_outer != 1:
                        x = x.numerator * (d_outer // x.denominator)
                    packed += x << (k * width)
                pos = positions.setdefault((idx[:slot], idx[slot + 1 :]), len(positions))
                by_coord.setdefault(idx[slot], []).append((pos, packed))
            group = packed_groups[(id(outer), slot)] = (by_coord, list(positions))
        by_coord, pre_posts = group
        d_inner = stats[id(inner)][0]
        for jdx, inner_row in inner.coeffs.items():
            local: dict = {}
            for a, c in inner_row.items():
                if d_inner != 1:
                    c = c.numerator * (d_inner // c.denominator)
                c *= s
                for pos, packed in by_coord.get(a, ()):
                    local[pos] = local.get(pos, 0) + c * packed
            for pos, v in local.items():
                pre, post = pre_posts[pos]
                key = pre + jdx + post
                acc[key] = acc.get(key, 0) + v
    coeffs = {key: _unpack(v, width, den) for key, v in acc.items() if v}
    return _trusted(arity, dim, coeffs)


def compose(outer: MultiMap, slot: int, inner: MultiMap) -> MultiMap:
    """Partial composition, the one-term `contract`: `inner` substituted
    into input `slot` (0-based) of `outer`."""
    return contract(outer.arity + inner.arity - 1, outer.dim, ((1, outer, slot, inner),))


def identity_map(dim: int) -> MultiMap:
    """The identity endomorphism as a 1-linear map."""
    return _trusted(1, dim, {(i,): {i: 1} for i in range(dim)})


def vector_map(dim: int, x) -> MultiMap:
    """A coordinate vector (length dim, or {coordinate: coefficient}) as a
    0-linear map, so that products with it are `contract` terms."""
    return MultiMap(0, dim, {(): x})


def endo_to_map(f) -> MultiMap:
    """An endomorphism as a 1-linear map: a 1-linear map is returned as it
    is, and a square column-convention `Matrix` becomes e_j -> column j.
    Endomorphisms are 1-linear maps throughout the package; this is where a
    `Matrix` given by a caller is converted, once, on entry."""
    if isinstance(f, MultiMap):
        if f.arity != 1:
            raise ValueError("an endomorphism is a 1-linear map")
        return f
    if f.rows != f.cols:
        raise ValueError("endomorphism must be dim x dim")
    return MultiMap(1, f.cols, {(j,): f.col(j) for j in range(f.cols)})


# ---------------------------------------------------------------------------
# Identity evaluation.
# ---------------------------------------------------------------------------

def evaluate(alg: FinAlg, e: MultilinearIdentity) -> MultiMap:
    """Substitute the algebra product at each internal node; the result is the
    zero tensor iff the algebra satisfies the identity."""
    n = alg.dim
    mu = alg.mu
    trees: dict = {}

    def tree(shape) -> MultiMap:
        """The shape's tree of products, inputs in leaf order."""
        if shape is LEAF:
            return identity_map(n)
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
    return alg.mu.skew_part().is_zero()


def is_anticommutative(alg: FinAlg) -> bool:
    return alg.mu.sym_part().is_zero()


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
    mu = alg.mu
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
    mu = alg.mu
    right = compose(mu, 1, mu)
    # Both trees take their inputs as (x_a, y, x_b, x_c).
    defect = contract(4, alg.dim, ((1, right, 0, mu), (-1, mu, 1, right)))
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


def derivation_defect(alg: FinAlg, f) -> MultiMap:
    """f(x)y + x f(y) - f(xy) for an endomorphism f (a 1-linear map or a
    column-convention `Matrix`, see `endo_to_map`)."""
    mu = alg.mu
    fm = endo_to_map(f)
    if fm.dim != alg.dim:
        raise ValueError("endomorphism must be dim x dim")
    return contract(2, alg.dim, ((1, mu, 0, fm), (1, mu, 1, fm), (-1, fm, 0, mu)))


def is_derivation(alg: FinAlg, f) -> bool:
    """f(x)y + x f(y) = f(xy) on all basis pairs."""
    return derivation_defect(alg, f).is_zero()


def commutator_endo(alg: FinAlg, x) -> MultiMap:
    """The endomorphism y -> x y - y x of a coordinate vector x, as a
    1-linear map."""
    v = vector_map(alg.dim, x)
    return contract(1, alg.dim, ((1, alg.mu, 0, v), (-1, alg.mu, 1, v)))


def inner_derivation_candidate(alg: FinAlg, i: int) -> MultiMap:
    """The endomorphism x -> e_i x - x e_i as a 1-linear map."""
    return commutator_endo(alg, alg.basis_vector(i))


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
        pair, _ = bullet.mu.skew_part().first_nonzero()
        raise ValueError(
            f"bullet product not commutative at basis pair (e{pair[0]+1}, e{pair[1]+1})"
        )
    if not is_anticommutative(bracket):
        pair, _ = bracket.mu.sym_part().first_nonzero()
        raise ValueError(
            f"bracket not anticommutative at basis pair (e{pair[0]+1}, e{pair[1]+1})"
        )
    return bullet.add(bracket)


def leibniz_defect_pair(bullet: FinAlg, bracket: FinAlg) -> MultiMap:
    """{x.y, z} - x.{y,z} - {x,z}.y on basis triples."""
    dot, br = bullet.mu, bracket.mu
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


def _json_object(node, keys: tuple, what: str):
    """Raise unless `node` is a JSON object whose keys are all in `keys`."""
    if not isinstance(node, dict):
        raise AlgebraFormatError(f"{what} must be an object, not {type(node).__name__}")
    unknown = sorted(map(repr, set(node) - set(keys)))
    if unknown:
        raise AlgebraFormatError(f"unknown key(s) in {what}: {', '.join(unknown)}")


def _json_list(node, what: str) -> list:
    """`node` if it is a JSON array."""
    if not isinstance(node, list):
        raise AlgebraFormatError(f"{what} must be a list, not {type(node).__name__}")
    return node


def algebra_from_json(doc) -> FinAlg:
    """The algebra of a document {"dim": n, "products": [{"i", "j", "out":
    [{"k", "c"}, ..]}, ..]}.  Anything else is an AlgebraFormatError: a
    missing or non-positive dim, a non-object or non-list where the format
    has one, an unknown key, an index out of range, an inexact coefficient,
    or a second entry for the same (i, j, k)."""
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "dim" not in doc:
        raise AlgebraFormatError("algebra document must be an object with 'dim'")
    _json_object(doc, ("dim", "products"), "algebra document")
    n = doc["dim"]
    if not _json_int(n) or n < 1:
        raise AlgebraFormatError(f"bad dimension {n!r}")
    values: dict = {}
    for entry in _json_list(doc.get("products", []), "'products'"):
        _json_object(entry, ("i", "j", "out"), "product entry")
        i, j = entry.get("i"), entry.get("j")
        if not (_json_int(i) and _json_int(j) and 1 <= i <= n and 1 <= j <= n):
            raise AlgebraFormatError(f"product indices out of range: i={i!r} j={j!r}")
        row = values.setdefault((i - 1, j - 1), {})
        for term in _json_list(entry.get("out", []), "'out'"):
            _json_object(term, ("k", "c"), "output term")
            k = term.get("k")
            if not (_json_int(k) and 1 <= k <= n):
                raise AlgebraFormatError(f"output index out of range: k={k!r}")
            if k - 1 in row:
                raise AlgebraFormatError(f"duplicate entry for e{i} e{j} -> e{k}")
            row[k - 1] = _parse_rational(term.get("c"))
    return FinAlg(n, values)


def algebra_to_json(alg: FinAlg) -> dict:
    """The document `algebra_from_json` reads: entries by (i, j), outputs
    by k, zeros left out."""
    products = [
        {
            "i": i + 1,
            "j": j + 1,
            "out": [{"k": k + 1, "c": _format_rational(row[k])} for k in sorted(row)],
        }
        for (i, j), row in sorted(alg.mu.coeffs.items())
    ]
    return {"dim": alg.dim, "products": products}


def multimap_from_json(doc, dim: int, arity: int = 2) -> MultiMap:
    """Nested arrays of 'p/q' strings, indexed input-first then output, read
    in one pass: each level must be a list of length dim, every cell is
    parsed (a malformed zero is rejected too), and each output vector is
    kept as the sparse row of its nonzero coefficients."""
    values = {}

    def rec(node, idx):
        if not isinstance(node, list) or len(node) != dim:
            level = "output vector" if len(idx) == arity else "tensor level"
            raise AlgebraFormatError(f"{level} has wrong length")
        if len(idx) < arity:
            for i, child in enumerate(node):
                rec(child, idx + (i,))
            return
        row = {}
        for k, x in enumerate(node):
            q = _parse_rational(x)
            if q:
                row[k] = q
        if row:
            values[idx] = row

    rec(doc, ())
    return MultiMap(arity, dim, values)


def multimap_to_json(m: MultiMap):
    def rec(prefix):
        if len(prefix) == m.arity:
            return [_format_rational(x) for x in m(*prefix)]
        return [rec(prefix + (i,)) for i in range(m.dim)]

    return rec(())
