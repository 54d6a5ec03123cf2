import json
from fractions import Fraction

import pytest
from test_finalg import reference_lmul_basis, reference_rmul_basis, reference_wa_symmetrize3

from wassoc.cohomology import CochainContext, wa_delta1, wa_delta2
from wassoc.corpus import (
    plane_quotient,
    random_endomorphism,
    random_fraction_multimap,
    random_multimap,
    two_dim_family,
)
from wassoc.deform import (
    GaugeTransform,
    TruncatedDeformation,
    bullet_preserving_check,
    deformation_from_json,
    deformation_to_json,
    first_failing_order,
    gauge,
    gauge_compose,
    identity_gauge,
    is_wa_deformation,
    linear_deformation,
    ncp_defect,
    polarized_deformation,
    quantization,
    wa_defect,
    zero_deformation,
)
from wassoc.finalg import (
    FinAlg,
    MultiMap,
    compose,
    identity_map,
    is_associative,
    is_commutative,
    is_nonassociative_poisson,
    polarize,
)
from wassoc.linalg import Matrix


@pytest.fixture(scope="module")
def ring():
    return plane_quotient()


@pytest.fixture(scope="module")
def mu(ring):
    return ring.algebra()


@pytest.fixture(scope="module")
def bracket_map(ring):
    return ring.poisson_bracket((1, 0))


def upper_triangular():
    return FinAlg.from_products(
        3, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 3): {2: 1}, (3, 3): {3: 1}}
    )


def test_order1_defect_is_wa_coboundary(mu, rng):
    n = mu.dim
    phi1 = random_multimap(2, n, rng, 2)
    d = TruncatedDeformation(mu, [phi1, MultiMap.zero(2, n), MultiMap.zero(2, n)])
    ctx = CochainContext(mu)
    assert wa_defect(d, 1) == wa_delta2(ctx, phi1)


def test_zero_deformation_is_wa(mu):
    assert is_wa_deformation(zero_deformation(mu, 3))


def test_linear_quantization_orders_1_to_3(mu, bracket_map):
    d = linear_deformation(mu, bracket_map, order=3)
    for k in (1, 2, 3):
        assert wa_defect(d, k).is_zero()
    assert is_wa_deformation(d)


def test_invalid_first_order_detected(mu, rng):
    phi1 = random_multimap(2, mu.dim, rng, 2)
    d = linear_deformation(mu, phi1, order=3)
    assert not is_wa_deformation(d)
    assert first_failing_order(d) == 1


def test_quantization_of_linear_deformation(mu, bracket_map, ring):
    d = linear_deformation(mu, bracket_map, order=3)
    q = quantization(d)
    assert q.failure is None
    assert q.jacobi_ok and q.leibniz_ok and q.poisson_ok
    # skew first-order term: extracted bracket is twice the term
    assert q.bracket == bracket_map.scale(2)
    assert is_nonassociative_poisson(mu, q.bracket_algebra)


def test_quantization_symmetric_first_order(mu, rng):
    n = mu.dim
    h = random_endomorphism(n, rng, 2)
    g = GaugeTransform([h, Matrix.zero(n, n), Matrix.zero(n, n)])
    d = gauge(zero_deformation(mu, 3), g)
    # over a commutative base the gauged first-order term is symmetric
    assert d.terms[0].is_symmetric()
    q = quantization(d)
    assert q.failure is None
    assert q.bracket.is_zero()
    assert q.poisson_ok  # degenerate bracket is still a valid Poisson pair


def test_quantization_requires_commutative_base():
    alg = two_dim_family(6)
    with pytest.raises(ValueError, match="commutative"):
        quantization(zero_deformation(alg, 2))


def test_quantization_reports_failing_order(mu, rng):
    phi1 = random_multimap(2, mu.dim, rng, 2)
    d = linear_deformation(mu, phi1, order=2)
    q = quantization(d)
    assert q.failure == "not weakly associative at order 1"


def test_identity_gauge_fixes_deformation(mu, bracket_map):
    d = linear_deformation(mu, bracket_map, order=3)
    g = identity_gauge(mu.dim, 3)
    gd = gauge(d, g)
    assert all(gd.terms[k] == d.terms[k] for k in range(3))


def test_gauge_of_zero_deformation_is_coboundary(rng):
    base = two_dim_family(2)  # associative member
    assert is_associative(base)
    n = base.dim
    h = random_endomorphism(n, rng, 2)
    g = GaugeTransform([h, Matrix.zero(n, n), Matrix.zero(n, n)])
    gz = gauge(zero_deformation(base, 3), g)
    ctx = CochainContext(base)
    assert gz.terms[0] == wa_delta1(ctx, h).scale(-1)


def test_gauge_preserves_wa_on_30_seeded_pairs(mu, ring, rng):
    brackets = [ring.poisson_bracket(w) for w in ((1, 0), (0, 1), (1, 1))]
    count = 0
    while count < 30:
        br = brackets[count % 3]
        d = linear_deformation(mu, br, order=3)
        g = GaugeTransform([random_endomorphism(mu.dim, rng, 1) for _ in range(3)])
        gd = gauge(d, g)
        assert is_wa_deformation(gd)
        count += 1


def test_gauge_composition_is_group_action(mu, bracket_map, rng):
    d = linear_deformation(mu, bracket_map, order=3)
    n = mu.dim
    for _ in range(3):
        inner = GaugeTransform([random_endomorphism(n, rng, 1) for _ in range(3)])
        outer = GaugeTransform([random_endomorphism(n, rng, 1) for _ in range(3)])
        lhs = gauge(gauge(d, inner), outer)
        rhs = gauge(d, gauge_compose(outer, inner))
        assert all(lhs.terms[k] == rhs.terms[k] for k in range(3))


def test_defect_bilinearity(mu, rng):
    n = mu.dim
    a = random_multimap(2, n, rng, 2)
    b = random_multimap(2, n, rng, 2)
    d_a = TruncatedDeformation(mu, [a, MultiMap.zero(2, n)])
    d_b = TruncatedDeformation(mu, [b, MultiMap.zero(2, n)])
    d_ab = TruncatedDeformation(mu, [a + b, MultiMap.zero(2, n)])
    assert wa_defect(d_ab, 1) == wa_defect(d_a, 1) + wa_defect(d_b, 1)


def test_polarized_deformation_parts(mu, bracket_map, rng):
    n = mu.dim
    sym = random_multimap(2, n, rng, 2).sym_part()
    d = TruncatedDeformation(mu, [bracket_map + sym, MultiMap.zero(2, n)])
    brackets, bullets = polarized_deformation(d)
    assert brackets[0] == bracket_map.scale(2)
    assert bullets[0] == sym.scale(2)
    skew_only = TruncatedDeformation(mu, [bracket_map])
    _, r = polarized_deformation(skew_only)
    assert all(t.is_zero() for t in r)
    sym_only = TruncatedDeformation(mu, [sym])
    b, _ = polarized_deformation(sym_only)
    assert all(t.is_zero() for t in b)


def test_order1_mixed_leibniz_identity(mu, ring, rng):
    # for every weakly associative deformation the polarized first-order
    # terms satisfy the mixed Leibniz identity
    base_defs = [
        linear_deformation(mu, ring.poisson_bracket((1, 0)), 3),
        gauge(
            linear_deformation(mu, ring.poisson_bracket((0, 1)), 3),
            GaugeTransform([random_endomorphism(mu.dim, rng, 1) for _ in range(3)]),
        ),
    ]
    for d in base_defs:
        assert is_wa_deformation(d)
        bullet, brk = polarize(d.base)
        brackets, bullets = polarized_deformation(d)
        b1, rho1 = brackets[0], bullets[0]
        n = mu.dim
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    lhs = reference_lmul_basis(brk, i, rho1(j, k))
                    lhs = tuple(
                        l
                        - sum(
                            brk.mu(i, k)[a] * rho1(j, a)[t]
                            for a in range(n)
                        )
                        - sum(
                            brk.mu(i, j)[a] * rho1(a, k)[t]
                            for a in range(n)
                        )
                        for t, l in enumerate(lhs)
                    )
                    rhs = tuple(
                        -sum(
                            bullet.mu(j, k)[a] * b1(i, a)[t]
                            for a in range(n)
                        )
                        + reference_lmul_basis(bullet, j, b1(i, k))[t]
                        + reference_rmul_basis(bullet, b1(i, j), k)[t]
                        for t in range(n)
                    )
                    assert lhs == rhs


def test_ncp_defect_associative_deformation(rng):
    ut = upper_triangular()
    assert is_associative(ut) and not is_commutative(ut)
    h = random_endomorphism(3, rng, 2)
    g = GaugeTransform([h, Matrix.zero(3, 3), Matrix.zero(3, 3)])
    adef = gauge(zero_deformation(ut, 3), g)
    assert is_wa_deformation(adef)
    bullet, bracket = polarize(ut)
    rho1 = adef.terms[0].sym_part()
    b1 = adef.terms[0].skew_part()
    assert ncp_defect(bullet, bracket, rho1, b1).is_zero()


def test_ncp_defect_order_zero_identity(mu, ring):
    base = mu.add(ring.bracket_algebra((1, 0)))
    bullet, bracket = polarize(base)
    n = mu.dim
    brmap = MultiMap.from_function(2, n, lambda i, j: bracket.mu(i, j))
    assert ncp_defect(bullet, bracket, MultiMap.zero(2, n), brmap).is_zero()


def test_ncp_defect_random_nonzero_with_witness(mu, ring, rng):
    from wassoc.corpus import random_skew_bilinear, random_symmetric_bilinear

    base = mu.add(ring.bracket_algebra((1, 0)))
    bullet, bracket = polarize(base)
    n = mu.dim
    rho = random_symmetric_bilinear(n, rng, 2)
    b = random_skew_bilinear(n, rng, 2)
    defect = ncp_defect(bullet, bracket, rho, b)
    assert not defect.is_zero()
    witness = defect.first_nonzero()
    assert witness is not None


def test_ncp_defect_matches_six_term_reference(mu, ring, rng):
    """Against the six partial compositions written out one by one."""
    from wassoc.corpus import random_skew_bilinear, random_symmetric_bilinear

    bullet, bracket = polarize(mu.add(ring.bracket_algebra((1, 0))))
    dot, br = bullet.mu, bracket.mu
    n = mu.dim
    for _ in range(3):
        rho1 = random_symmetric_bilinear(n, rng, 2)
        b1 = random_skew_bilinear(n, rng, 2)
        want = (
            compose(b1, 1, dot)
            - compose(dot, 0, b1)
            - compose(dot, 1, b1).permute_inputs((2, 1, 3))
            + compose(br, 1, rho1)
            - compose(rho1, 0, br)
            - compose(rho1, 1, br).permute_inputs((2, 1, 3))
        )
        assert ncp_defect(bullet, bracket, rho1, b1) == want


def test_bullet_preserving_pencil(mu, ring):
    base = mu.add(ring.bracket_algebra((1, 0)))
    n = mu.dim
    pencil = TruncatedDeformation(
        base, [ring.poisson_bracket((2, 0)), MultiMap.zero(2, n), MultiMap.zero(2, n)]
    )
    assert is_wa_deformation(pencil)
    rep = bullet_preserving_check(pencil)
    assert rep.all_terms_skew
    assert rep.phi1_multiderivation
    assert rep.lichnerowicz_cocycle


def test_bullet_preserving_bracket_itself(mu, ring):
    base = mu.add(ring.bracket_algebra((1, 0)))
    n = mu.dim
    d = TruncatedDeformation(
        base, [ring.poisson_bracket((1, 0)), MultiMap.zero(2, n), MultiMap.zero(2, n)]
    )
    assert is_wa_deformation(d)
    rep = bullet_preserving_check(d)
    assert rep.lichnerowicz_cocycle


def test_bullet_preserving_zero_deformation(mu, ring):
    base = mu.add(ring.bracket_algebra((1, 0)))
    rep = bullet_preserving_check(zero_deformation(base, 3))
    assert rep.all_terms_skew and rep.lichnerowicz_cocycle


def test_bullet_preserving_rejects_non_skew(mu, rng):
    sym = random_multimap(2, mu.dim, rng, 2).sym_part()
    d = TruncatedDeformation(mu, [sym])
    rep = bullet_preserving_check(d)
    assert not rep.all_terms_skew
    assert rep.non_skew_orders == [1]


def test_deformation_json_roundtrip(mu, bracket_map):
    d = linear_deformation(mu, bracket_map, order=2)
    doc = deformation_to_json(d)
    back = deformation_from_json(json.dumps(doc))
    assert back.base == d.base
    assert all(a == b for a, b in zip(back.terms, d.terms))


# ---------------------------------------------------------------------------
# Dense reference loops: `gauge` and `wa_defect` as they were written before
# they contracted one input slot at a time through `finalg.compose`.  They
# loop over every basis tuple in Fraction arithmetic and serve as oracles.
# ---------------------------------------------------------------------------

def reference_mixed_associator(f: MultiMap, g: MultiMap) -> MultiMap:
    """f(x, g(y,z)) - f(g(x,y), z)."""
    n = f.dim

    def fn(i, j, k):
        inner, inner2 = g(j, k), g(i, j)
        t1, t2 = [0] * n, [0] * n
        for a in range(n):
            if inner[a] != 0:
                val = f(i, a)
                for t in range(n):
                    t1[t] += inner[a] * val[t]
            if inner2[a] != 0:
                val = f(a, k)
                for t in range(n):
                    t2[t] += inner2[a] * val[t]
        return tuple(x - y for x, y in zip(t1, t2))

    return MultiMap.from_function(3, n, fn)


def reference_wa_defect(deformation: TruncatedDeformation, k: int) -> MultiMap:
    total = MultiMap.zero(3, deformation.base.dim)
    for i in range(k + 1):
        total = total + reference_mixed_associator(
            deformation.coefficient(i), deformation.coefficient(k - i)
        )
    return reference_wa_symmetrize3(total)


def reference_gauge(deformation: TruncatedDeformation, g: GaugeTransform) -> list[MultiMap]:
    """Terms of f_t . mu_t . (f_t^-1 x f_t^-1): one dense n^5 contraction per
    (a, b, c, d) with a + b + c + d = k."""
    n = deformation.base.dim
    order = deformation.order
    ident = Matrix.identity(n)
    h_terms = [ident] + [map_to_endo(h) for h in g.h]
    ginv_terms = [ident] + inverse_terms(g, order)

    def bilinear_endos(t, g1, g2):
        c1 = [g1.col(j) for j in range(n)]
        c2 = [g2.col(j) for j in range(n)]

        def fn(i, j):
            u, v = c1[i], c2[j]
            out = [0] * n
            for a in range(n):
                for b in range(n):
                    q = u[a] * v[b]
                    if q != 0:
                        val = t(a, b)
                        for s in range(n):
                            out[s] += q * val[s]
            return tuple(out)

        return MultiMap.from_function(2, n, fn)

    terms = []
    for k in range(1, order + 1):
        acc = MultiMap.zero(2, n)
        for a in range(k + 1):
            for b in range(k - a + 1):
                for c in range(k - a - b + 1):
                    t = bilinear_endos(
                        deformation.coefficient(b), ginv_terms[c], ginv_terms[k - a - b - c]
                    )
                    acc = acc + MultiMap.from_function(
                        2, n, lambda i, j: h_terms[a].apply(t(i, j))
                    )
        terms.append(acc)
    return terms


def random_fraction_gauge(n, order, rng, zero_orders=()):
    return GaugeTransform(
        [
            Matrix.zero(n, n)
            if k in zero_orders
            else Matrix.from_rows(
                [[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            )
            for k in range(1, order + 1)
        ]
    )


def gauge_cases(ring, rng):
    """(label, deformation, gauge) pairs covering the plane quotient with a
    bracket, non-integral terms and gauges, zero terms, the non-commutative
    upper-triangular base and orders 1-3."""
    mu = ring.algebra()
    n = mu.dim
    ut = upper_triangular()
    return [
        ("plane-bracket", linear_deformation(mu, ring.poisson_bracket((1, 0)), 3),
         GaugeTransform([random_endomorphism(n, rng, 1) for _ in range(3)])),
        ("fractions-order1", TruncatedDeformation(mu, [random_fraction_multimap(2, n, rng)]),
         random_fraction_gauge(n, 1, rng)),
        ("fractions-order2", TruncatedDeformation(
            mu, [random_fraction_multimap(2, n, rng), random_fraction_multimap(2, n, rng)]),
         random_fraction_gauge(n, 2, rng)),
        ("zero-terms", TruncatedDeformation(
            mu, [MultiMap.zero(2, n), random_fraction_multimap(2, n, rng), MultiMap.zero(2, n)]),
         random_fraction_gauge(n, 3, rng, zero_orders=(2,))),
        ("upper-triangular", TruncatedDeformation(
            ut, [random_fraction_multimap(2, 3, rng) for _ in range(3)]),
         random_fraction_gauge(3, 3, rng)),
        ("upper-triangular-zero", zero_deformation(ut, 3),
         GaugeTransform([random_endomorphism(3, rng, 2) for _ in range(3)])),
    ]


def map_to_endo(m: MultiMap) -> Matrix:
    """A 1-linear map as a column-convention matrix: column j is m(e_j)."""
    assert m.arity == 1
    cols = [m(j) for j in range(m.dim)]
    return Matrix.from_rows([[col[k] for col in cols] for k in range(m.dim)])


def inverse_terms(g: GaugeTransform, order: int) -> list[Matrix]:
    """Terms g_1..g_order of the truncated series inverse of f_t, as
    column-convention matrices."""
    return [map_to_endo(m) for m in g.inverse_maps(order)[1:]]


def reference_inverse_terms(g: GaugeTransform, order: int) -> list[Matrix]:
    """The dense Matrix recurrence g_k = -h_k - sum_{i<k} h_i g_{k-i}."""
    h = [map_to_endo(m) for m in g.h]
    n = h[0].rows

    def term(k):
        return h[k - 1] if 1 <= k <= len(h) else Matrix.zero(n, n)

    out = []
    for k in range(1, order + 1):
        acc = term(k).scale(-1)
        for i in range(1, k):
            acc = acc - (term(i) @ out[k - i - 1])
        out.append(acc)
    return out


def test_inverse_series_matches_matrix_recurrence(rng):
    for order in (1, 2, 3, 4):
        for n in (1, 3, 4):
            for g in (
                GaugeTransform([random_endomorphism(n, rng, 2) for _ in range(order)]),
                random_fraction_gauge(n, order, rng),
                random_fraction_gauge(n, order, rng, zero_orders=(1,)),
            ):
                for length in (order, order + 2):
                    assert inverse_terms(g, length) == reference_inverse_terms(g, length)
                maps = g.inverse_maps(order)
                assert maps[0] == identity_map(n)
                assert [map_to_endo(m) for m in maps[1:]] == inverse_terms(g, order)


def test_gauge_and_defect_match_dense_reference(ring, rng):
    for label, d, g in gauge_cases(ring, rng):
        gd = gauge(d, g)
        assert gd.terms == reference_gauge(d, g), label
        for k in range(1, d.order + 1):
            assert wa_defect(d, k) == reference_wa_defect(d, k), (label, k)
            assert wa_defect(gd, k) == reference_wa_defect(gd, k), (label, k)
        assert is_wa_deformation(gd) == is_wa_deformation(d), label


def test_perturbed_gauged_deformation_rejected_by_both(mu, ring, rng):
    n = mu.dim
    d = linear_deformation(mu, ring.poisson_bracket((0, 1)), 3)
    gd = gauge(d, GaugeTransform([random_endomorphism(n, rng, 1) for _ in range(3)]))
    assert is_wa_deformation(gd)
    assert all(reference_wa_defect(gd, k).is_zero() for k in (1, 2, 3))
    bump = MultiMap(2, n, {(1, 2): {0: Fraction(1, 2)}})
    for order in (1, 2):
        terms = list(gd.terms)
        terms[order - 1] = terms[order - 1] + bump
        bad = TruncatedDeformation(mu, terms)
        assert not is_wa_deformation(bad)
        assert first_failing_order(bad) == order
        defect = wa_defect(bad, order)
        assert not defect.is_zero()
        assert defect == reference_wa_defect(bad, order)
