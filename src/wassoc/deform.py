"""Truncated formal deformations mu_t = mu + t phi_1 + ... + t^N phi_N.

Everything is truncated at a finite order, so all statements are exact.  The
deformation is weakly associative through order N iff the order-k defect (the
t^k coefficient of the symmetrized associator of mu_t) vanishes for every
k <= N.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .cohomology import NotMultiderivation, lichnerowicz_delta, poisson_context
from .finalg import (
    AlgebraFormatError,
    FinAlg,
    MultiMap,
    _json_list,
    _json_object,
    algebra_from_json,
    algebra_to_json,
    contract,
    endo_to_map,
    identity_map,
    is_commutative,
    is_nonassociative_poisson,
    is_weakly_associative,
    leibniz_defect_pair,
    multimap_from_json,
    multimap_to_json,
    polarize,
    satisfies_jacobi,
)
from .symgroup import wa_vector


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
            return self.base.mu
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
        (sign, phi[i], slot, phi[k - i])
        for i in range(k + 1)
        for sign, slot in ((1, 1), (-1, 0))
    )
    return contract(3, deformation.base.dim, terms, wa_vector())


def is_wa_deformation(deformation: TruncatedDeformation) -> bool:
    return is_weakly_associative(deformation.base) and first_failing_order(deformation) is None


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
    return _quantization(deformation)


def _quantization(deformation: TruncatedDeformation) -> QuantizationReport:
    """`quantization` of a deformation whose base is already known to be
    commutative and weakly associative."""
    if deformation.order < 2:
        raise ValueError("need a deformation truncated at order >= 2")
    base = deformation.base
    failing = first_failing_order(deformation)
    psi = deformation.terms[0].skew_part()
    bracket_alg = FinAlg.from_map(psi)
    jacobi_ok = satisfies_jacobi(bracket_alg)
    leibniz_ok = leibniz_defect_pair(base, bracket_alg).is_zero()
    # The base is commutative (checked above) and a skew part is
    # anticommutative, so the pair is nonassociative Poisson exactly when
    # Jacobi and Leibniz hold.
    poisson_ok = jacobi_ok and leibniz_ok
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
    """f_t = Id + t h_1 + ... + t^N h_N.  Each h_i is an endomorphism, held
    as a 1-linear map; any other endomorphism is converted on entry
    (`finalg.endo_to_map`)."""

    h: list[MultiMap]

    def __post_init__(self):
        self.h = [endo_to_map(f) for f in self.h]

    @property
    def order(self) -> int:
        return len(self.h)

    def maps(self) -> list[MultiMap]:
        """Id, h_1 .. h_N."""
        if not self.h:
            raise ValueError("empty gauge transform")
        return [identity_map(self.h[0].dim)] + self.h

    def inverse_maps(self, order: int) -> list[MultiMap]:
        """g_0 = Id, g_1 .. g_order of the truncated series inverse of f_t:
        g_k = -sum_{i=1..k} h_i g_{k-i}, with h_i = 0 beyond the order of
        f_t."""
        h = self.maps()
        n = h[0].dim
        g = h[:1]
        for k in range(1, order + 1):
            terms = ((-1, h[i], 0, g[k - i]) for i in range(1, min(k, self.order) + 1))
            g.append(contract(1, n, terms))
        return g


def identity_gauge(dim: int, order: int = 3) -> GaugeTransform:
    return GaugeTransform([MultiMap.zero(1, dim) for _ in range(order)])


def gauge(deformation: TruncatedDeformation, g: GaugeTransform) -> TruncatedDeformation:
    """mu'_t = f_t . mu_t . (f_t^-1 x f_t^-1), truncated at the deformation
    order.  The t^e part of f_t . mu_t is H_e = sum_{a+b=e} h_a(phi_b)
    (h_0 = Id); with g_c the terms of f_t^-1 (g_0 = Id), phi'_k is
    sum_{e+c+d=k} H_e(g_c x, g_d y), built one input slot at a time.  The
    endomorphisms h_a act first, on the deformation terms as given, which
    are often sparse; the compositions with g_c, which fill the maps in,
    come last."""
    n = deformation.base.dim
    order = deformation.order
    if g.order != order:
        raise ValueError("gauge order must match the deformation order")
    h = g.maps()
    ginv = g.inverse_maps(order)
    phi = [deformation.coefficient(b) for b in range(order + 1)]

    def series(term):
        """out_m = the sum over c = 0..m of the compositions term(m - c, c)."""
        return [contract(2, n, (term(m - c, c) for c in range(m + 1))) for m in range(order + 1)]

    h_phi = series(lambda j, c: (1, h[c], 0, phi[j]))
    first = series(lambda j, c: (1, h_phi[j], 0, ginv[c]))
    new = series(lambda j, c: (1, first[j], 1, ginv[c]))
    return TruncatedDeformation(deformation.base, new[1:])


def gauge_compose(outer: GaugeTransform, inner: GaugeTransform) -> GaugeTransform:
    """Truncated composition: gauge(gauge(def, inner), outer) equals
    gauge(def, gauge_compose(outer, inner)).  Its t^k term is
    sum_{i=0..k} outer_i inner_(k-i), with both 0-th terms the identity."""
    if outer.order != inner.order:
        raise ValueError("orders must match")
    a, b = outer.maps(), inner.maps()
    n = a[0].dim
    return GaugeTransform(
        [contract(1, n, ((1, a[i], 0, b[k - i]) for i in range(k + 1))) for k in range(1, outer.order + 1)]
    )


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
    dot, br = bullet.mu, bracket.mu
    swap12 = (2, 1, 3)  # (x, y, z) -> (y, x, z)
    return contract(3, bullet.dim, (
        (1, b1, 1, dot), (-1, dot, 0, b1), (1, br, 1, rho1), (-1, rho1, 0, br),
        (-1, dot, 1, b1, swap12), (-1, rho1, 1, br, swap12),
    ))


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

_DEFORMATION_KEYS = frozenset(("base", "terms"))


def deformation_from_json(doc) -> TruncatedDeformation:
    if isinstance(doc, (str, bytes)):
        try:
            doc = json.loads(doc)
        except json.JSONDecodeError as exc:
            raise AlgebraFormatError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("base"), dict):
        raise AlgebraFormatError("deformation document must carry a base algebra object")
    _json_object(doc, _DEFORMATION_KEYS, "deformation document")
    base = algebra_from_json(doc["base"])
    terms = [
        multimap_from_json(t, base.dim, arity=2)
        for t in _json_list(doc.get("terms", []), "'terms'")
    ]
    return TruncatedDeformation(base, terms)


def deformation_to_json(deformation: TruncatedDeformation) -> dict:
    return {
        "base": algebra_to_json(deformation.base),
        "terms": [multimap_to_json(t) for t in deformation.terms],
    }
