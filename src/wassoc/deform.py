"""Truncated formal deformations mu_t = mu + t phi_1 + ... + t^N phi_N.

Everything is truncated at a finite order, so all statements are exact.  The
deformation is weakly associative through order N iff the order-k defect (the
t^k coefficient of the symmetrized associator of mu_t) vanishes for every
k <= N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cohomology import (
    NotMultiderivation,
    lichnerowicz_delta,
    poisson_context,
    wa_symmetrize3,
)
from .finalg import (
    AlgebraFormatError,
    FinAlg,
    MultiMap,
    algebra_from_json,
    algebra_to_json,
    compose,
    endo_to_map,
    is_commutative,
    is_nonassociative_poisson,
    is_weakly_associative,
    leibniz_defect_pair,
    linear_combination,
    multimap_from_json,
    multimap_to_json,
    polarize,
    product_map,
    satisfies_jacobi,
)
from .linalg import Matrix


@dataclass
class TruncatedDeformation:
    base: FinAlg
    terms: list[MultiMap]  # phi_1 .. phi_N

    def __post_init__(self):
        for t in self.terms:
            if t.arity != 2 or t.dim != self.base.dim:
                raise ValueError("deformation terms must be bilinear on the base")

    @property
    def order(self) -> int:
        return len(self.terms)

    def coefficient(self, k: int) -> MultiMap:
        """phi_k with phi_0 = the base product."""
        if k == 0:
            return product_map(self.base)
        if 1 <= k <= self.order:
            return self.terms[k - 1]
        return MultiMap.zero(2, self.base.dim)


def zero_deformation(base: FinAlg, order: int = 3) -> TruncatedDeformation:
    return TruncatedDeformation(
        base, [MultiMap.zero(2, base.dim) for _ in range(order)]
    )


def linear_deformation(base: FinAlg, psi: MultiMap, order: int = 3) -> TruncatedDeformation:
    terms = [MultiMap.zero(2, base.dim) for _ in range(order)]
    terms[0] = psi
    return TruncatedDeformation(base, terms)


def wa_defect(deformation: TruncatedDeformation, k: int) -> MultiMap:
    """Coefficient of t^k in the symmetrized associator of mu_t:
    the weakly associative symmetrization of
    sum_{i+j=k} phi_i(x, phi_j(y,z)) - phi_i(phi_j(x,y), z)  (phi_0 = mu)."""
    if not 1 <= k <= deformation.order:
        raise ValueError(f"order {k} outside 1..{deformation.order}")
    phi = [deformation.coefficient(i) for i in range(k + 1)]
    terms = (
        (sign, compose(phi[i], slot, phi[k - i]))
        for i in range(k + 1)
        if not (phi[i].is_zero() or phi[k - i].is_zero())
        for sign, slot in ((1, 1), (-1, 0))
    )
    return wa_symmetrize3(linear_combination(3, deformation.base.dim, terms))


def is_wa_deformation(deformation: TruncatedDeformation) -> bool:
    if not is_weakly_associative(deformation.base):
        return False
    return all(
        wa_defect(deformation, k).is_zero() for k in range(1, deformation.order + 1)
    )


def first_failing_order(deformation: TruncatedDeformation):
    for k in range(1, deformation.order + 1):
        if not wa_defect(deformation, k).is_zero():
            return k
    return None


# ---------------------------------------------------------------------------
# Quantization extraction.
# ---------------------------------------------------------------------------

@dataclass
class QuantizationReport:
    bullet: FinAlg
    bracket: MultiMap
    bracket_algebra: FinAlg
    wa_orders_checked: int
    jacobi_ok: bool
    leibniz_ok: bool
    poisson_ok: bool
    first_failing_order: int | None
    failure: str | None = None


def quantization(deformation: TruncatedDeformation) -> QuantizationReport:
    """For a weakly associative deformation of a commutative base, the skew
    part of phi_1 is a Poisson bracket for the base product.  The report
    distinguishes a deformation failing weak associativity at some order from
    the (theory-violating) case of a valid deformation whose bracket fails
    the Jacobi or Leibniz identity."""
    base = deformation.base
    if not is_commutative(base):
        raise ValueError("quantization extraction needs a commutative base")
    if not is_weakly_associative(base):
        raise ValueError("base must be weakly associative")
    if deformation.order < 2:
        raise ValueError("need a deformation truncated at order >= 2")
    failing = first_failing_order(deformation)
    psi = deformation.terms[0].skew_part()
    n = base.dim
    bracket_alg = FinAlg(n, [[psi(i, j) for j in range(n)] for i in range(n)])
    jacobi_ok = satisfies_jacobi(bracket_alg)
    leibniz_ok = leibniz_defect_pair(base, bracket_alg).is_zero()
    poisson_ok = is_nonassociative_poisson(base, bracket_alg)
    failure = None
    if failing is not None:
        failure = f"not weakly associative at order {failing}"
    elif not (jacobi_ok and leibniz_ok):
        failure = (
            "VALID deformation with failing bracket identities: "
            f"jacobi={jacobi_ok} leibniz={leibniz_ok}"
        )
    return QuantizationReport(
        bullet=base,
        bracket=psi,
        bracket_algebra=bracket_alg,
        wa_orders_checked=deformation.order,
        jacobi_ok=jacobi_ok,
        leibniz_ok=leibniz_ok,
        poisson_ok=poisson_ok,
        first_failing_order=failing,
        failure=failure,
    )


# ---------------------------------------------------------------------------
# Gauge transformations.
# ---------------------------------------------------------------------------

@dataclass
class GaugeTransform:
    """f_t = Id + t h_1 + ... + t^N h_N, column-convention matrices."""

    h: list[Matrix]

    @property
    def order(self) -> int:
        return len(self.h)

    def inverse_terms(self, order: int) -> list[Matrix]:
        """Terms g_1..g_order of the truncated series inverse of f_t."""
        n = self.h[0].rows if self.h else 0
        if n == 0:
            raise ValueError("empty gauge transform")
        ident = Matrix.identity(n)

        def term(k: int) -> Matrix:
            return self.h[k - 1] if 1 <= k <= len(self.h) else Matrix.zero(n, n)

        g: list[Matrix] = []
        for k in range(1, order + 1):
            acc = term(k).scale(-1)
            for i in range(1, k):
                acc = acc - (term(i) @ g[k - i - 1])
            g.append(acc)
        return g


def identity_gauge(dim: int, order: int = 3) -> GaugeTransform:
    return GaugeTransform([Matrix.zero(dim, dim) for _ in range(order)])


def gauge(deformation: TruncatedDeformation, g: GaugeTransform) -> TruncatedDeformation:
    """mu'_t = f_t . mu_t . (f_t^-1 x f_t^-1), truncated at the deformation
    order.  With g_c the terms of f_t^-1 (g_0 = Id), the t^m part of
    mu_t(f_t^-1 x, f_t^-1 y) is T_m = sum_{b+c+d=m} phi_b(g_c x, g_d y),
    built one input slot at a time; then phi'_k = sum_{a+m=k} h_a(T_m)."""
    n = deformation.base.dim
    order = deformation.order
    if g.order != order:
        raise ValueError("gauge order must match the deformation order")
    # Index 0 is the identity, which is never contracted.
    h = [None] + [endo_to_map(n, m) for m in g.h]
    ginv = [None] + [endo_to_map(n, m) for m in g.inverse_terms(order)]
    phi = [deformation.coefficient(b) for b in range(order + 1)]

    def series(maps, endos, apply):
        """out_m = sum_{j+c=m} apply(maps_j, endos_c), skipping zero terms."""
        out = []
        for m in range(order + 1):
            pairs = ((maps[m - c], endos[c]) for c in range(m + 1))
            terms = (
                (1, t if e is None else apply(t, e))
                for t, e in pairs
                if not (t.is_zero() or (e is not None and e.is_zero()))
            )
            out.append(linear_combination(2, n, terms))
        return out

    first = series(phi, ginv, lambda t, e: compose(t, 0, e))
    both = series(first, ginv, lambda t, e: compose(t, 1, e))
    new = series(both, h, lambda t, e: compose(e, 0, t))
    return TruncatedDeformation(deformation.base, new[1:])


def gauge_compose(outer: GaugeTransform, inner: GaugeTransform) -> GaugeTransform:
    """Truncated composition: gauge(gauge(def, inner), outer) equals
    gauge(def, gauge_compose(outer, inner))."""
    if outer.order != inner.order:
        raise ValueError("orders must match")
    order = outer.order
    n = outer.h[0].rows
    ident = Matrix.identity(n)

    def term(g, k):
        return ident if k == 0 else g.h[k - 1]

    h = []
    for k in range(1, order + 1):
        acc = Matrix.zero(n, n)
        for i in range(0, k + 1):
            acc = acc + (term(outer, i) @ term(inner, k - i))
        h.append(acc)
    return GaugeTransform(h)


# ---------------------------------------------------------------------------
# Polarized deformations and the noncommutative Leibniz identity.
# ---------------------------------------------------------------------------

def polarized_deformation(deformation: TruncatedDeformation):
    """Componentwise polarization: B_k = phi_k - phi_k^op (bracket terms) and
    rho_k = phi_k + phi_k^op (bullet terms)."""
    brackets = [t.skew_part() for t in deformation.terms]
    bullets = [t.sym_part() for t in deformation.terms]
    return brackets, bullets


def ncp_defect(
    bullet: FinAlg, bracket: FinAlg, rho1: MultiMap, b1: MultiMap
) -> MultiMap:
    """Six-term noncommutative Leibniz defect:
    B1(x, y.z) - B1(x,y).z - y.B1(x,z) + {x, rho1(y,z)} - rho1({x,y}, z)
    - rho1(y, {x,z})."""
    if not is_commutative(bullet):
        raise ValueError("bullet must be commutative")
    if not (is_nonassociative_poisson(bullet, bracket) or satisfies_jacobi(bracket)):
        raise ValueError("bracket must be a Lie bracket")
    dot, br = product_map(bullet), product_map(bracket)
    swap12 = (2, 1, 3)  # (x, y, z) -> (y, x, z)
    return linear_combination(
        3,
        bullet.dim,
        (
            (1, compose(b1, 1, dot)),
            (-1, compose(dot, 0, b1)),
            (-1, compose(dot, 1, b1).permute_inputs(swap12)),
            (1, compose(br, 1, rho1)),
            (-1, compose(rho1, 0, br)),
            (-1, compose(rho1, 1, br).permute_inputs(swap12)),
        ),
    )


@dataclass
class BulletPreservingReport:
    all_terms_skew: bool
    non_skew_orders: list[int]
    phi1_multiderivation: bool
    lichnerowicz_cocycle: bool
    detail: str


def bullet_preserving_check(deformation: TruncatedDeformation) -> BulletPreservingReport:
    """For a deformation whose terms are all skew (so the symmetric part of
    the product never moves), the first-order term must be a 2-cocycle of the
    Lichnerowicz complex of the polarized Poisson pair of the base."""
    non_skew = [
        k for k, t in enumerate(deformation.terms, start=1) if not t.is_skew()
    ]
    if non_skew:
        return BulletPreservingReport(
            all_terms_skew=False,
            non_skew_orders=non_skew,
            phi1_multiderivation=False,
            lichnerowicz_cocycle=False,
            detail=f"non-skew terms at orders {non_skew}",
        )
    bullet, bracket = polarize(deformation.base)
    ctx = poisson_context(bullet, bracket)
    phi1 = deformation.terms[0]
    if phi1.is_zero():
        return BulletPreservingReport(True, [], True, True, "zero first-order term")
    try:
        image = lichnerowicz_delta(ctx, phi1)
    except (NotMultiderivation, ValueError) as exc:
        return BulletPreservingReport(
            all_terms_skew=True,
            non_skew_orders=[],
            phi1_multiderivation=False,
            lichnerowicz_cocycle=False,
            detail=str(exc),
        )
    ok = image.is_zero()
    return BulletPreservingReport(
        all_terms_skew=True,
        non_skew_orders=[],
        phi1_multiderivation=True,
        lichnerowicz_cocycle=ok,
        detail="cocycle" if ok else "nonzero Lichnerowicz coboundary",
    )


# ---------------------------------------------------------------------------
# JSON interchange.
# ---------------------------------------------------------------------------

def deformation_from_json(doc) -> TruncatedDeformation:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or "base" not in doc:
        raise AlgebraFormatError("deformation document must carry a base algebra")
    base = algebra_from_json(doc["base"])
    terms = [
        multimap_from_json(t, base.dim, arity=2) for t in doc.get("terms", [])
    ]
    return TruncatedDeformation(base, terms)


def deformation_to_json(deformation: TruncatedDeformation) -> dict:
    return {
        "base": algebra_to_json(deformation.base),
        "terms": [multimap_to_json(t) for t in deformation.terms],
    }
