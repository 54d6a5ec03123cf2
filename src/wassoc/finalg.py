"""Finite-dimensional algebras over Q given by structure constants.

A MultiMap is a k-linear map stored sparsely: only input tuples with a
nonzero output, and only the nonzero output coordinates, with integral
coefficients kept as ints and the rest as Fractions.  A FinAlg is a dim-n
algebra (A, mu) and holds nothing but its product mu, a bilinear MultiMap:
e_i * e_j = mu(i, j) (0-based indices internally, 1-based in error messages
and witnesses).  A coordinate vector is a 0-linear map (`vector_map`), an
endomorphism a 1-linear one.  `contract` is the one contraction routine: a
signed sum of partial compositions (one map substituted into one input slot
of another), each with its inputs optionally permuted, and the whole sum
optionally symmetrized by a group-algebra element v of `symgroup`;
`compose` is its one-term case.  Products of vectors, identity evaluation,
the derivation, Jacobi, Jordan and Leibniz defects, the action
`MultiMap.apply_group_vector` (the one `identities.apply_group_vector` has
on identities, so `evaluate` commutes with it) and the coboundary and
deformation code of the `cohomology` and `deform` modules are built from
it.  `linear_combination` gives the sum, difference and multiples of maps.

`contract` adds packed integers (Kronecker substitution): one digit width
per call, from a bound on the output coefficients cleared of denominators,
and each output coordinate at the digit of its rank among those in use.
The terms of one layout share one pass over the inner entries, each one
multiply-add per outer row at its coordinate.  The input permutations and v
act on the packed sums, and each output row is decoded once, at the end.

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
from .symgroup import C3, C3SQ, ID3, GroupAlgebraElement, Perm, ga


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

    def basis_vector(self, i: int) -> dict[int, int]:
        """The coordinate row {i: 1} of the basis vector e_(i+1)."""
        return {i: 1}

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

    __slots__ = ("arity", "dim", "coeffs", "_stats")

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
        self._stats = None

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
        result(x_1..x_k) = self(x_{images[1]}, ..., x_{images[k]}) (1-based).
        `images` must be a permutation of 1..arity."""
        getter = _slot_getter(self.arity, images)
        if getter is None:
            return self
        return _trusted(self.arity, self.dim, {getter(idx): row for idx, row in self.coeffs.items()})

    def apply_group_vector(self, v: GroupAlgebraElement) -> "MultiMap":
        """sum over the terms q p of v of q * self.permute_inputs(p.images):
        the action `identities.apply_group_vector` has on identities, so
        `evaluate` commutes with it.  v must have degree `arity`."""
        # The identity on the output coordinates of self, applied after it.
        outputs = set(itertools.chain.from_iterable(self.coeffs.values()))
        ident = _trusted(1, self.dim, {(k,): {k: 1} for k in outputs})
        return contract(self.arity, self.dim, ((1, ident, 0, self),), v)

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
        return all((self + swapped).is_zero() for swapped in self._adjacent_swaps())

    def is_symmetric(self) -> bool:
        return all((self - swapped).is_zero() for swapped in self._adjacent_swaps())

    def _adjacent_swaps(self):
        """self with inputs pos and pos + 1 exchanged, for each pos in turn."""
        for pos in range(self.arity - 1):
            images = list(range(1, self.arity + 1))
            images[pos], images[pos + 1] = images[pos + 1], images[pos]
            yield self.permute_inputs(tuple(images))

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
    m._stats = None
    return m


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
        row = {k: _exact(x) for k, x in row.items() if x}
        if row:
            coeffs[idx] = row
    return _trusted(arity, dim, coeffs)


def _scan(m: MultiMap) -> tuple:
    """(D, T, w) of a nonzero map: D the lcm of its denominators, T the
    largest |D x| over its coefficients x and w its widest row; kept on the
    map, which is immutable."""
    if m._stats is None:
        rows = m.coeffs.values()
        values = list(itertools.chain.from_iterable(map(dict.values, rows)))
        den = math.lcm(*set(map(operator.attrgetter("denominator"), values)))
        m._stats = den, int(max(map(abs, values)) * den), max(map(len, rows))
    return m._stats


def _pack(m: MultiMap, offset: dict) -> dict:
    """{idx: sum_k D x_k 2^offset[k]} over the rows of m, with D the lcm of
    its denominators."""
    den = _scan(m)[0]
    packed = {}
    for idx, row in m.coeffs.items():
        x = 0
        for k, c in row.items():
            if den != 1:
                c = c.numerator * (den // c.denominator)
            x += c << offset[k]
        packed[idx] = x
    return packed


def _unpack(v: int, width: int, den: int, coords) -> dict:
    """The row {coords[k]: d_k / den} of v = sum d_k 2^(k width), each digit
    balanced (|d_k| < 2^(width - 1)); zero digits are jumped over through
    the lowest set bit."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    row = {}
    k = 0
    while v:
        d = v & mask
        if not d:
            skip = ((v & -v).bit_length() - 1) // width
            v >>= skip * width
            k += skip
            d = v & mask
        v >>= width
        if d >= half:
            d -= mask + 1
            v += 1
        row[coords[k]] = d if den == 1 else d // den if d % den == 0 else Fraction(d, den)
        k += 1
    return row


def _slot_getter(arity: int, images):
    """The key map of `MultiMap.permute_inputs(images)`, idx -> the key with
    idx[i] at slot images[i] (1-based), as an itemgetter; None for the
    identity.  `images` must be a permutation of 1..arity."""
    if len(images) != arity or set(images) != set(range(1, arity + 1)):
        raise ValueError(f"not a permutation of 1..{arity}: {images!r}")
    inverse = sorted(range(arity), key=images.__getitem__)
    return None if inverse == list(range(arity)) else operator.itemgetter(*inverse)


def contract(arity: int, dim: int, terms, v: GroupAlgebraElement | None = None) -> MultiMap:
    """sum of q * (outer o_slot inner) over the (q, outer, slot, inner)
    terms of `terms`, each a partial composition: `inner` substituted into
    input `slot` (0-based) of `outer`, its inputs taking that slot's place:

      (x_1 .. x_{k+l-1}) -> outer(x_1 .. x_slot, inner(x_{slot+1} .. x_{slot+l}), ..).

    A term (q, outer, slot, inner, images) has its inputs permuted as by
    `MultiMap.permute_inputs(images)`, at any arity.  A group-algebra element
    v of degree `arity` acts on the whole sum as by
    `MultiMap.apply_group_vector(v)`.

    Rows are added packed (Kronecker substitution).  With D the lcm of a
    map's denominators and L the common denominator of the scalars
    q / (D_outer D_inner), each, summed per (outer, slot, inner, images),
    becomes an integer s, and L times a coefficient of the sum is at most
    B = sum |s| max|D_outer x| max|D_inner x| (widest inner row) in
    absolute value; v, written (1 / D_v) sum c_p p, multiplies B by
    sum |c_p| (1 if v = 0).  Each coefficient is then a balanced digit of
    W = B.bit_length() + 1 bits, and an outer row, packed once per call,
    puts coordinate k at the digit of its rank among the coordinates the
    outer maps use.

    The terms of one layout (slot, outer arity and list of (s, images))
    share one pass over the inner inputs jdx.  Each (pre, post) of outer
    inputs around the slot is a position, and an entry (jdx, a, c) of an
    inner map of the layout is one multiply-add per outer row at a, into a
    list indexed by position.  Only the positions touched are read back:
    each nonzero sum, times each s, goes to the accumulator entry of its
    key pre + jdx + post, permuted.  v acts on the packed accumulator, and
    then each output row is decoded once, so a sum that vanishes is never
    decoded.  Each q must be an int or a Fraction; the operands are trusted
    (validated when built), and so is the result."""
    if v is not None and v.n != arity:
        raise ValueError(f"degree-{v.n} group-algebra element on an arity-{arity} map")
    groups: dict = {}
    getters: dict = {None: None}
    for q, outer, slot, inner, *images in terms:
        if outer.dim != dim or inner.dim != dim:
            raise ValueError("dimension mismatch")
        if outer.arity + inner.arity - 1 != arity:
            raise ValueError("shape mismatch")
        if not 0 <= slot < outer.arity:
            raise ValueError(f"slot {slot} outside 0..{outer.arity - 1}")
        perm = tuple(*images) or None
        if perm not in getters:
            getters[perm] = _slot_getter(arity, perm)
        q = _exact(q)
        if q and outer.coeffs and inner.coeffs:
            d_outer, top_outer, _ = _scan(outer)
            d_inner, top_inner, wide = _scan(inner)
            reach = top_outer * top_inner * wide
            fs = groups.setdefault((id(outer), slot, id(inner)), (outer, slot, inner, reach, {}))[4]
            perm = perm if getters[perm] else None  # identity images are no permutation
            fs[perm] = fs.get(perm, 0) + (q if d_outer == d_inner == 1 else Fraction(q, d_outer * d_inner))
    live = [(f, reach) for *_, reach, fs in groups.values() for f in fs.values() if f]
    den = math.lcm(*(f.denominator for f, _ in live))
    bound = sum(abs(f.numerator) * (den // f.denominator) * reach for f, reach in live)
    d_v = 1
    if v is not None:
        d_v = math.lcm(*(q.denominator for q in v.coeffs.values()))
        v_terms = [(_slot_getter(arity, p.images), int(q * d_v)) for p, q in v.coeffs.items()]
        bound *= max(1, sum(abs(c) for _, c in v_terms))
    width = bound.bit_length() + 1
    layouts: dict = {}
    for outer, slot, inner, _, fs in groups.values():
        scalars = tuple((f.numerator * (den // f.denominator), perm) for perm, f in fs.items() if f)
        if scalars:
            inners = layouts.setdefault((slot, outer.arity, scalars), {})
            inners.setdefault(id(inner), (inner, []))[1].append(outer)
    outers = {id(o): o for inners in layouts.values() for _, os in inners.values() for o in os}
    coords = sorted(set().union(*(row for o in outers.values() for row in o.coeffs.values())))
    offset = {k: r * width for r, k in enumerate(coords)}
    packed: dict = {}
    acc: dict = {}
    for (slot, _, scalars), inners in layouts.items():
        scaled = [(s, getters[perm]) for s, perm in scalars]
        positions: dict = {}
        tables = []
        for inner, outers in inners.values():
            by_a: dict = {}
            for outer in outers:
                if id(outer) not in packed:
                    packed[id(outer)] = _pack(outer, offset)
                for idx, x in packed[id(outer)].items():
                    pos = positions.setdefault((idx[:slot], idx[slot + 1 :]), len(positions))
                    by_a.setdefault(idx[slot], []).append((pos, x))
            tables.append((inner.coeffs, _scan(inner)[0], by_a))
        pre_posts = list(positions)
        local = [0] * len(pre_posts)
        for jdx in dict.fromkeys(itertools.chain.from_iterable(c for c, _, _ in tables)):
            touched = []
            for coeffs, d_inner, by_a in tables:
                for a, c in coeffs.get(jdx, {}).items():
                    if d_inner != 1:
                        c = c.numerator * (d_inner // c.denominator)
                    for pos, x in by_a.get(a, ()):
                        y = local[pos]
                        if not y:
                            touched.append(pos)
                        local[pos] = y + c * x
            for pos in touched:
                x = local[pos]
                if x:
                    local[pos] = 0
                    pre, post = pre_posts[pos]
                    out = pre + jdx + post
                    for s, getter in scaled:
                        key = out if getter is None else getter(out)
                        acc[key] = acc.get(key, 0) + s * x
    if v is not None:
        nonzero = [(out, x) for out, x in acc.items() if x]
        acc = {}
        for getter, c in v_terms:
            for out, x in nonzero:
                key = out if getter is None else getter(out)
                acc[key] = acc.get(key, 0) + c * x
    den *= d_v
    coeffs = {key: _unpack(x, width, den, coords) for key, x in acc.items() if x}
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
    zero tensor iff the algebra satisfies the identity.  Each monomial is one
    `contract` term: its tree's outermost product, inputs permuted by its
    labels."""
    n = alg.dim
    trees: dict = {("m", LEAF, LEAF): alg.mu}

    def root(shape) -> tuple:
        """(outer, slot, inner) with the shape's tree of products, inputs in
        leaf order, equal to outer o_slot inner."""
        if shape is LEAF:
            return identity_map(n), 0, identity_map(n)
        op, left, right = shape
        if op != "m":
            raise ValueError(f"cannot evaluate the formal operation {op!r}")
        if left is LEAF:
            return alg.mu, 1, identity_map(n) if right is LEAF else tree(right)
        return alg.mu if right is LEAF else tree((op, LEAF, right)), 0, tree(left)

    def tree(shape) -> MultiMap:
        if shape not in trees:
            trees[shape] = compose(*root(shape))
        return trees[shape]

    return contract(e.arity, n, ((q, *root(shape), labels) for (shape, labels), q in e.coeffs.items()))


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
    return contract(3, alg.dim, ((1, alg.mu, 0, alg.mu),), ga(3, (1, ID3), (1, C3), (1, C3SQ)))


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
    perms = ga(4, *((1, Perm(4, (a + 1, 4, b + 1, c + 1))) for a, b, c in itertools.permutations(range(3))))
    return contract(4, alg.dim, ((1, right, 0, mu), (-1, mu, 1, right)), perms)


def satisfies_jordan_identity(alg: FinAlg) -> bool:
    return jordan_identity_defect(alg).is_zero()


def is_jordan(alg: FinAlg) -> bool:
    """Commutative and satisfying the (linearized) Jordan identity."""
    return is_commutative(alg) and satisfies_jordan_identity(alg)


def derivation_defect(alg: FinAlg, f) -> MultiMap:
    """f(x)y + x f(y) - f(xy) for an endomorphism f (a 1-linear map, or any
    endomorphism `endo_to_map` converts)."""
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
    return contract(3, bullet.dim, ((1, br, 0, dot), (-1, dot, 1, br), (-1, dot, 0, br, (1, 3, 2))))


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


_DOCUMENT_KEYS = frozenset(("dim", "products"))
_ENTRY_KEYS = frozenset(("i", "j", "out"))
_TERM_KEYS = frozenset(("k", "c"))


def _json_object(node, keys: frozenset, what: str):
    """Raise unless `node` is a JSON object whose keys are all in `keys`."""
    if not isinstance(node, dict):
        raise AlgebraFormatError(f"{what} must be an object, not {type(node).__name__}")
    if not node.keys() <= keys:
        unknown = sorted(map(repr, node.keys() - keys))
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
    _json_object(doc, _DOCUMENT_KEYS, "algebra document")
    n = doc["dim"]
    if not _json_int(n) or n < 1:
        raise AlgebraFormatError(f"bad dimension {n!r}")
    values: dict = {}
    for entry in _json_list(doc.get("products", []), "'products'"):
        _json_object(entry, _ENTRY_KEYS, "product entry")
        i, j = entry.get("i"), entry.get("j")
        if not (_json_int(i) and _json_int(j) and 1 <= i <= n and 1 <= j <= n):
            raise AlgebraFormatError(f"product indices out of range: i={i!r} j={j!r}")
        row = values.setdefault((i - 1, j - 1), {})
        for term in _json_list(entry.get("out", []), "'out'"):
            _json_object(term, _TERM_KEYS, "output term")
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
    in one pass: each level must be a list of length dim, every cell but the
    string "0" is parsed (a malformed zero is rejected too), and each output
    vector is kept as the sparse row of its nonzero coefficients."""
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
            if x != "0":  # most cells of a deformation document
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
