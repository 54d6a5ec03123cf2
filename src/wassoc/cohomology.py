"""Coboundary operators on multilinear maps over a finite-dimensional algebra.

Three families live here:

* the Hochschild-type operator `hochschild_delta` for any product;
* the weakly associative operators `wa_delta0..wa_delta2` (degree 2 is the
  Hochschild operator precomposed with the slot symmetrization Id + c - (12))
  together with the parametric degree-3 operator `wa_delta3`, whose admissible
  coefficient vectors form the kernel of the linear system assembled by
  `build_delta3_system` from `("m", "f")` trees: the formal product and
  cochain symbol, enumerated and grafted by `identities`;
* the Lichnerowicz operator on skew multiderivations of a (possibly
  nonassociative) Poisson pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .finalg import (
    FinAlg,
    MultiMap,
    _exact,
    commutator_endo,
    compose,
    contract,
    derivation_defect,
    is_nonassociative_poisson,
    linear_combination,
    vector_map,
)
from .identities import (
    LEAF,
    MultilinearIdentity,
    apply_group_vector,
    apply_perm,
    consequence_generators,
    graft,
    monomial,
    node_ops,
    shapes,
    wa_expression,
)
from .linalg import Vector, sparse_kernel, sparse_reduce, sparse_rref
from .symgroup import (
    C3,
    T12,
    Perm,
    all_perms,
    cochain3_vectors,
    cochain4_vectors,
    wa_vector,
)


@dataclass(frozen=True)
class CochainContext:
    """Algebra plus, optionally, a verified nonassociative Poisson pair."""

    alg: FinAlg
    bullet: FinAlg | None = None
    bracket: FinAlg | None = None

    def __post_init__(self):
        if (self.bullet is None) != (self.bracket is None):
            raise ValueError("bullet and bracket must be supplied together")
        if self.bullet is not None and not is_nonassociative_poisson(
            self.bullet, self.bracket
        ):
            raise ValueError("bullet/bracket pair is not nonassociative Poisson")


def poisson_context(bullet: FinAlg, bracket: FinAlg) -> CochainContext:
    return CochainContext(alg=bullet, bullet=bullet, bracket=bracket)


# ---------------------------------------------------------------------------
# Hochschild-type operator.
# ---------------------------------------------------------------------------

def hochschild_delta(ctx: CochainContext, phi: MultiMap) -> MultiMap:
    """Alternating-sum coboundary for the context product, both boundary
    terms included: for a k-linear phi,

      (d phi)(x1..x_{k+1}) = x1 phi(x2..x_{k+1})
                             + sum_i (-1)^i phi(.., x_i x_{i+1}, ..)
                             + (-1)^(k+1) phi(x1..x_k) x_{k+1}.
    """
    if phi.arity < 1:
        raise ValueError("needs arity >= 1")
    mu = ctx.alg.mu
    k = phi.arity
    terms = itertools.chain(
        [(1, mu, 1, phi)],
        (((-1) ** (i + 1), phi, i, mu) for i in range(k)),
        [((-1) ** (k + 1), mu, 0, phi)],
    )
    return contract(k + 1, phi.dim, terms)


# ---------------------------------------------------------------------------
# Weakly associative operators.
# ---------------------------------------------------------------------------

def wa_symmetrize3(t: MultiMap) -> MultiMap:
    """Precompose a trilinear map with Id + c - (12):
    t(x,y,z) + t(y,z,x) - t(y,x,z)."""
    if t.arity != 3:
        raise ValueError("needs arity 3")
    return linear_combination(
        3, t.dim, ((1, t), (1, t.permute_inputs(C3.images)), (-1, t.permute_inputs(T12.images)))
    )


def wa_delta0(ctx: CochainContext, x) -> MultiMap:
    """Left-minus-right multiplication by the coordinate vector x, as a
    1-linear map y -> x y - y x."""
    return commutator_endo(ctx.alg, x)


def wa_delta1(ctx: CochainContext, f) -> MultiMap:
    """f(x)y + x f(y) - f(xy) for an endomorphism f (a 1-linear map, or a
    column-convention `Matrix`, see `finalg.endo_to_map`)."""
    return derivation_defect(ctx.alg, f)


def wa_delta2(ctx: CochainContext, phi: MultiMap) -> MultiMap:
    """The degree-2 weakly associative coboundary: the Hochschild image of
    phi symmetrized by Id + c - (12)."""
    if phi.arity != 2:
        raise ValueError("needs arity 2")
    return wa_symmetrize3(hochschild_delta(ctx, phi))


def wa_cocycle2(ctx: CochainContext, phi: MultiMap) -> bool:
    return wa_delta2(ctx, phi).is_zero()


def leibniz_defect(ctx: CochainContext, psi: MultiMap) -> MultiMap:
    """L(psi)(x,y,z) = psi(xy, z) - x psi(y,z) - psi(x,z) y."""
    if psi.arity != 2:
        raise ValueError("needs arity 2")
    mu = ctx.alg.mu
    return (
        compose(psi, 0, mu)
        - compose(mu, 1, psi)
        - compose(mu, 0, psi).permute_inputs((1, 3, 2))
    )


# ---------------------------------------------------------------------------
# Lichnerowicz operator.
# ---------------------------------------------------------------------------

class NotMultiderivation(ValueError):
    def __init__(self, slot: int):
        self.slot = slot
        super().__init__(f"not a derivation in argument {slot}")


def is_multiderivation(ctx: CochainContext, phi: MultiMap) -> bool:
    try:
        _check_multiderivation(ctx, phi)
        return True
    except NotMultiderivation:
        return False


def _check_multiderivation(ctx: CochainContext, phi: MultiMap):
    """Leibniz rule in each slot against the context product:
    phi(.., x_s x_{s+1}, ..) = x_s phi(.., x_{s+1}, ..) + phi(.., x_s, ..) x_{s+1}."""
    mu = ctx.alg.mu
    k = phi.arity
    left = compose(mu, 1, phi)   # (a, y..) -> a phi(y..)
    right = compose(mu, 0, phi)  # (y.., b) -> phi(y..) b
    for s in range(k):
        x_s_left = left.permute_inputs((s + 1,) + tuple(p for p in range(1, k + 2) if p != s + 1))
        x_next_right = right.permute_inputs(
            tuple(p for p in range(1, k + 2) if p != s + 2) + (s + 2,)
        )
        if compose(phi, s, mu) != x_s_left + x_next_right:
            raise NotMultiderivation(s + 1)


def lichnerowicz_delta(ctx: CochainContext, phi: MultiMap) -> MultiMap:
    """Chevalley-Eilenberg style coboundary with the Poisson bracket:

      (d phi)(x0..xk) = sum_i (-1)^i {x_i, phi(.. x_i^ ..)}
                        + sum_{i<j} (-1)^(i+j) phi({x_i,x_j}, .. x_i^ .. x_j^ ..).

    Inputs must be skew multiderivations of the bullet product.
    """
    if ctx.bracket is None:
        raise ValueError("context carries no Poisson pair")
    if not phi.is_skew():
        raise ValueError("cochain must be skew-symmetric")
    _check_multiderivation(ctx, phi)
    br = ctx.bracket.mu
    k = phi.arity
    slots = range(1, k + 2)
    outer = compose(br, 1, phi)  # (a, y..) -> {a, phi(y..)}
    inner = compose(phi, 0, br)  # (a, b, y..) -> phi({a, b}, y..)
    terms = itertools.chain(
        (
            ((-1) ** (i - 1), outer.permute_inputs((i,) + tuple(p for p in slots if p != i)))
            for i in slots
        ),
        (
            ((-1) ** (i + j), inner.permute_inputs((i, j) + tuple(p for p in slots if p not in (i, j))))
            for i in slots
            for j in range(i + 1, k + 2)
        ),
    )
    return linear_combination(k + 1, phi.dim, terms)


def lichnerowicz_delta0(ctx: CochainContext, x) -> MultiMap:
    """Degree-0 case: (d x)(x0) = {x0, x} for an algebra element x."""
    if ctx.bracket is None:
        raise ValueError("context carries no Poisson pair")
    return compose(ctx.bracket.mu, 1, vector_map(ctx.bracket.dim, x))


# ---------------------------------------------------------------------------
# Operadic cochain symmetry checks.
# ---------------------------------------------------------------------------

def _annihilated_by(t: MultiMap, v) -> bool:
    terms = ((q, t.permute_inputs(p.images)) for p, q in v.coeffs.items())
    return linear_combination(t.arity, t.dim, terms).is_zero()


def operadic_cochain3_check(phi3: MultiMap) -> bool:
    """Symmetry defining operadic 3-cochains:
    T(x1,x2,x3) + T(x2,x1,x3) - T(x1,x3,x2) - T(x2,x3,x1) = 0."""
    if phi3.arity != 3:
        raise ValueError("needs arity 3")
    w1, _ = cochain3_vectors()
    return _annihilated_by(phi3, w1)


def operadic_cochain3_full_check(phi3: MultiMap) -> bool:
    """Both annihilator conditions (w1 and w2)."""
    w1, w2 = cochain3_vectors()
    return _annihilated_by(phi3, w1) and _annihilated_by(phi3, w2)


def operadic_cochain4_check(phi4: MultiMap) -> bool:
    """The two symmetry relations on operadic 4-cochains."""
    if phi4.arity != 4:
        raise ValueError("needs arity 4")
    v4, v4p = cochain4_vectors()
    return _annihilated_by(phi4, v4) and _annihilated_by(phi4, v4p)


# ---------------------------------------------------------------------------
# The degree-3 coboundary ansatz: a 120-unknown linear system.
#
# The ansatz is
#   d3 phi3 (x1..x4) = sum_pi a_pi x_{pi(1)} phi3(x_{pi(2)},x_{pi(3)},x_{pi(4)})
#                    + sum_pi b_pi phi3(x_{pi(1)},x_{pi(2)},x_{pi(3)}) x_{pi(4)}
#                    + sum_pi c_pi phi3(x_{pi(1)}x_{pi(2)}, x_{pi(3)}, x_{pi(4)})
#                    + sum_pi d_pi phi3(x_{pi(1)}, x_{pi(2)}x_{pi(3)}, x_{pi(4)})
#                    + sum_pi e_pi phi3(x_{pi(1)}, x_{pi(2)}, x_{pi(3)}x_{pi(4)})
# over all 24 permutations pi, five families, 120 coefficients in total.
# Demanding d3(d2 phi2) = 0 for every bilinear phi2 over every weakly
# associative algebra is a linear condition: the formal expansion, a vector
# over the 360 degree-one monomials of the free two-operation space (product m
# and formal symbol f), must lie in the span of the consequences of the
# weak-associativity relation under a new f node
# (`identities.consequence_generators`).
# ---------------------------------------------------------------------------

FAMILIES = ("a", "b", "c", "d", "e")

# The formal product m(x1, x2) and cochain symbol f(x1, x2).
_M = monomial(("m", LEAF, LEAF), (1, 2))
_F = monomial(("f", LEAF, LEAF), (1, 2))


def _free_basis4() -> list:
    """The 360 monomials: the 15 four-leaf trees with one "f" node and two
    "m" nodes, times the 24 labelings."""
    return [
        (tree, p.images)
        for tree in shapes(4, ("m", "f"))
        if node_ops(tree).count("f") == 1
        for p in all_perms(4)
    ]


def _delta2_formal() -> MultilinearIdentity:
    """The degree-2 coboundary of a formal bilinear symbol f over a formal
    product m: the Hochschild terms x1 f(x2,x3) - f(x1x2,x3) + f(x1,x2x3)
    - f(x1,x2) x3 symmetrized by Id + c - (12)."""
    hochschild = graft(_M, 2, _F) - graft(_F, 1, _M) + graft(_F, 2, _M) - graft(_M, 1, _F)
    return apply_group_vector(hochschild, wa_vector())


def delta3_unknowns() -> list[tuple[str, tuple[int, ...]]]:
    return [(fam, p.images) for fam in FAMILIES for p in all_perms(4)]


def unknown_label(fam: str, images: tuple[int, ...]) -> str:
    if fam == "a":
        return f"a: x{images[0]} * f(x{images[1]},x{images[2]},x{images[3]})"
    if fam == "b":
        return f"b: f(x{images[0]},x{images[1]},x{images[2]}) * x{images[3]}"
    if fam == "c":
        return f"c: f(x{images[0]}x{images[1]}, x{images[2]}, x{images[3]})"
    if fam == "d":
        return f"d: f(x{images[0]}, x{images[1]}x{images[2]}, x{images[3]})"
    return f"e: f(x{images[0]}, x{images[1]}, x{images[2]}x{images[3]})"


def _ansatz_columns() -> list[MultilinearIdentity]:
    """Each ansatz term applied to the formal degree-2 coboundary T, in the
    order of `delta3_unknowns()`: the family's graft (a: x1 T(x2,x3,x4),
    b: T(x1,x2,x3) x4, c/d/e: a product in slot 1/2/3 of T) relabeled by pi."""
    t = _delta2_formal()
    family = {
        "a": graft(_M, 2, t),
        "b": graft(_M, 1, t),
        "c": graft(t, 1, _M),
        "d": graft(t, 2, _M),
        "e": graft(t, 3, _M),
    }
    return [apply_perm(family[fam], p) for fam in FAMILIES for p in all_perms(4)]


@dataclass
class Delta3System:
    """The degree-3 ansatz system: its size as assembled (one equation per
    free monomial, one unknown per ansatz term), the rank of the consequence
    span, and the system reduced modulo that span, as sparse rows
    {unknown: coefficient}, with its kernel."""

    assembled_rows: int                 # 360 free monomials
    columns: int                        # 120 unknowns
    unknowns: list[tuple[str, tuple[int, ...]]]
    monomials: list = field(repr=False)
    consequence_dim: int = 0
    reduced_rows: list[dict[int, Fraction]] = field(default_factory=list, repr=False)
    kernel: list[Vector] = field(default_factory=list)

    @property
    def kernel_dim(self) -> int:
        return len(self.kernel)


def build_delta3_system() -> Delta3System:
    """Assemble the 360-equation, 120-unknown system and reduce it modulo the
    consequence span; the kernel of the reduced rows is the space of
    admissible degree-3 coboundary coefficient vectors."""
    basis = _free_basis4()
    index = {mono: i for i, mono in enumerate(basis)}
    nrows = len(basis)
    unknowns = delta3_unknowns()

    def sparse(e: MultilinearIdentity) -> dict[int, Fraction]:
        return {index[key]: q for key, q in e.coeffs.items()}

    cols = [sparse(e) for e in _ansatz_columns()]
    pivots = sparse_rref(
        (sparse(e) for e in consequence_generators(wa_expression(), "f")), nrows
    )
    # The normal form of each column modulo the consequence span vanishes on
    # the span's pivot coordinates; the reduced system has one row per other
    # coordinate, holding that coordinate of every normal form.
    pivot_set = {next(iter(row)) for row in pivots}
    position = {i: r for r, i in enumerate(i for i in range(nrows) if i not in pivot_set)}
    reduced: list[dict[int, Fraction]] = [{} for _ in position]
    for j, col in enumerate(cols):
        for i, x in sparse_reduce(pivots, col).items():
            reduced[position[i]][j] = x
    return Delta3System(
        assembled_rows=nrows,
        columns=len(cols),
        unknowns=unknowns,
        monomials=basis,
        consequence_dim=len(pivots),
        reduced_rows=reduced,
        kernel=sparse_kernel(sparse_rref(reduced, len(cols)), len(cols)),
    )


def wa_delta3(ctx: CochainContext, phi3: MultiMap, coeffs) -> MultiMap:
    """Degree-3 operator for a chosen coefficient vector (indexed like
    `delta3_unknowns()`); every coefficient must be an int or a Fraction."""
    if phi3.arity != 3:
        raise ValueError("needs arity 3")
    unknowns = delta3_unknowns()
    if len(coeffs) != len(unknowns):
        raise ValueError("coefficient vector must have 120 entries")
    coeffs = [_exact(q) for q in coeffs]
    mu = ctx.alg.mu
    family = {
        "a": compose(mu, 1, phi3),  # x1 f(x2, x3, x4)
        "b": compose(mu, 0, phi3),  # f(x1, x2, x3) x4
        "c": compose(phi3, 0, mu),  # f(x1 x2, x3, x4)
        "d": compose(phi3, 1, mu),  # f(x1, x2 x3, x4)
        "e": compose(phi3, 2, mu),  # f(x1, x2, x3 x4)
    }
    return linear_combination(
        4,
        phi3.dim,
        ((q, family[fam].permute_inputs(pi)) for q, (fam, pi) in zip(coeffs, unknowns) if q),
    )


def delta3_relabel_coeffs(coeffs, s: Perm):
    """Action of precomposing the assembled operator with a slot permutation:
    (fam, pi) -> (fam, s . pi).  Solutions are stable under it."""
    unknowns = delta3_unknowns()
    pos = {u: i for i, u in enumerate(unknowns)}
    out = [0] * len(unknowns)
    for q, (fam, pi) in zip(coeffs, unknowns):
        target = (fam, tuple(s(p) for p in pi))
        out[pos[target]] += q
    return tuple(out)
