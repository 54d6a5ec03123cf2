"""Every function that hands its permuted terms or its symmetrizing
group-algebra element to `finalg.contract` against the composition it was
before: each partial composition decoded by `reference_compose`, permuted by
`reference_permute`, summed by `reference_linear_combination`, and
symmetrized afterwards.  The inputs are every corpus member and the gauged
plane deformations of the benchmark's `algebras` workload.  Equal maps have
equal `first_nonzero()`, which `wassoc check` prints as its witness; it is
asserted too."""

import random
from fractions import Fraction

from test_finalg import (
    _plane_deformations,
    reference_compose,
    reference_contract,
    reference_jacobi_defect,
    reference_jordan_identity_defect,
    reference_leibniz_defect,
    reference_linear_combination,
    reference_permute,
    reference_symmetrize,
)

from wassoc.cohomology import (
    CochainContext,
    NotMultiderivation,
    delta3_unknowns,
    hochschild_delta,
    is_multiderivation,
    lichnerowicz_delta,
    poisson_context,
    wa_delta1,
    wa_delta2,
    wa_delta3,
)
from wassoc.corpus import (
    non_wa_corpus,
    plane_quotient,
    poisson_corpus,
    random_endomorphism,
    random_fraction_multimap,
    random_group_element,
    random_multimap,
    random_skew_bilinear,
    random_symmetric_bilinear,
    random_vector,
    wa_corpus,
)
from wassoc.deform import linear_deformation, ncp_defect, wa_defect
from wassoc.finalg import (
    FinAlg,
    MultiMap,
    evaluate,
    identity_map,
    jacobi_defect,
    jordan_identity_defect,
    leibniz_defect_pair,
)
from wassoc.identities import (
    LEAF,
    apply_group_vector,
    associator,
    flexibility_expression,
    leibniz_expression,
    lie_admissible_expression,
    monomial,
    shapes,
    wa_expression,
)
from wassoc.symgroup import all_perms, wa_vector


def assert_same(got: MultiMap, want: MultiMap):
    assert got == want
    assert got.first_nonzero() == want.first_nonzero()


def _algebras() -> list[FinAlg]:
    return [alg for _, alg in wa_corpus() + non_wa_corpus()]


def _gauged_products() -> list[FinAlg]:
    """phi_0 .. phi_3 of the gauged dim-6 and dim-10 plane deformations, each
    as the product of an algebra: dense, and all but phi_0 far from any
    identity."""
    return [
        FinAlg.from_map(deformation.coefficient(k))
        for deformation in _plane_deformations(1)
        for k in range(4)
    ]


def reference_evaluate(alg: FinAlg, e) -> MultiMap:
    """`evaluate` before its outermost products became `contract` terms:
    each shape's whole tree decoded, then permuted by its labels and summed."""
    n, mu = alg.dim, alg.mu
    trees: dict = {}

    def tree(shape) -> MultiMap:
        if shape is LEAF:
            return identity_map(n)
        if shape not in trees:
            _, left, right = shape
            m = mu if right is LEAF else reference_compose(mu, 1, tree(right))
            trees[shape] = m if left is LEAF else reference_compose(m, 0, tree(left))
        return trees[shape]

    return reference_linear_combination(
        e.arity, n, ((q, reference_permute(tree(shape), labels)) for (shape, labels), q in e.coeffs.items())
    )


def _identities(rng) -> list:
    """The named identities, a seeded symmetrization of the associator, a
    seeded arity-4 combination of monomials and the arity-6 comb
    difference."""
    arity4 = monomial(shapes(4)[0], (1, 2, 3, 4)).scale(0)
    for _ in range(5):
        labels = rng.choice(all_perms(4)).images
        q = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        arity4 = arity4 + monomial(rng.choice(shapes(4)), labels).scale(q)
    return [
        associator(),
        wa_expression(),
        flexibility_expression(),
        lie_admissible_expression(),
        leibniz_expression(),
        apply_group_vector(associator(), random_group_element(3, rng)),
        arity4,
        monomial(shapes(6)[0], range(1, 7)) - monomial(shapes(6)[-1], range(1, 7)),
    ]


def test_evaluate_matches_decoded_trees():
    rng = random.Random(11)
    identities = _identities(rng)
    for alg in _algebras():
        for e in identities:
            assert_same(evaluate(alg, e), reference_evaluate(alg, e))
    for alg in _gauged_products():
        # The arity-3 identities; at dim 10 the reference takes seconds for
        # each six-term one, so there only the first two.
        for e in identities[:6] if alg.dim <= 6 else identities[:2]:
            assert_same(evaluate(alg, e), reference_evaluate(alg, e))


def test_defects_match_hand_written_sums():
    rng = random.Random(12)
    for alg in _algebras() + _gauged_products():
        assert_same(jacobi_defect(alg), reference_jacobi_defect(alg.mu))
        if alg.dim <= 6:  # the arity-4 reference takes seconds at dim 10
            assert_same(jordan_identity_defect(alg), reference_jordan_identity_defect(alg.mu))
        psi = random_fraction_multimap(2, alg.dim, rng)
        assert_same(leibniz_defect_pair(alg, FinAlg.from_map(psi)), reference_leibniz_defect(alg.mu, psi))
        assert_same(leibniz_defect_pair(FinAlg.from_map(psi), alg), reference_leibniz_defect(psi, alg.mu))


def reference_wa_defect(deformation, k: int) -> MultiMap:
    phi = [deformation.coefficient(i) for i in range(k + 1)]
    terms = [(sign, phi[i], slot, phi[k - i]) for i in range(k + 1) for sign, slot in ((1, 1), (-1, 0))]
    return reference_contract(3, deformation.base.dim, terms, wa_vector())


def test_wa_defect_matches_symmetrized_decoded_sum():
    rng = random.Random(13)
    deformations = _plane_deformations(1) + _plane_deformations(7919, degrees=(2,))
    for alg in _algebras():
        psi = rng.choice((random_fraction_multimap, random_multimap))(2, alg.dim, rng)
        deformations.append(linear_deformation(alg, psi))
    for deformation in deformations:
        for k in range(1, deformation.order + 1):
            assert_same(wa_defect(deformation, k), reference_wa_defect(deformation, k))


def test_wa_delta2_matches_symmetrized_hochschild_image():
    rng = random.Random(14)
    cases = []
    for alg in _algebras():
        ctx = CochainContext(alg)
        cases += [(ctx, random_fraction_multimap(2, alg.dim, rng)), (ctx, random_multimap(2, alg.dim, rng))]
        # d2 d1 f, which vanishes on weakly associative algebras.
        cases.append((ctx, wa_delta1(ctx, random_endomorphism(alg.dim, rng, 2))))
    for deformation in _plane_deformations(1):
        ctx = CochainContext(deformation.base)
        cases += [(ctx, deformation.coefficient(k)) for k in range(1, 4)]
        cases.append((ctx, wa_delta1(ctx, random_endomorphism(deformation.base.dim, rng, 2))))
    for ctx, phi in cases:
        assert_same(wa_delta2(ctx, phi), reference_symmetrize(hochschild_delta(ctx, phi), wa_vector()))


def reference_ncp_defect(bullet, bracket, rho1, b1) -> MultiMap:
    dot, br = bullet.mu, bracket.mu
    swap12 = (2, 1, 3)
    return reference_linear_combination(3, bullet.dim, (
        (1, reference_compose(b1, 1, dot)),
        (-1, reference_compose(dot, 0, b1)),
        (-1, reference_permute(reference_compose(dot, 1, b1), swap12)),
        (1, reference_compose(br, 1, rho1)),
        (-1, reference_compose(rho1, 0, br)),
        (-1, reference_permute(reference_compose(rho1, 1, br), swap12)),
    ))


def test_ncp_defect_matches_six_decoded_terms():
    rng = random.Random(15)
    for _, bullet, bracket in poisson_corpus():
        n = bullet.dim
        for rho1, b1 in (
            (random_symmetric_bilinear(n, rng, 2), random_skew_bilinear(n, rng, 2)),
            (random_fraction_multimap(2, n, rng), random_fraction_multimap(2, n, rng)),
        ):
            assert_same(ncp_defect(bullet, bracket, rho1, b1), reference_ncp_defect(bullet, bracket, rho1, b1))


def reference_lichnerowicz_delta(ctx, phi: MultiMap) -> MultiMap:
    br, k = ctx.bracket.mu, phi.arity
    slots = range(1, k + 2)
    outer = reference_compose(br, 1, phi)
    inner = reference_compose(phi, 0, br)
    terms = [((-1) ** (i - 1), reference_permute(outer, (i, *(p for p in slots if p != i)))) for i in slots]
    terms += [
        ((-1) ** (i + j), reference_permute(inner, (i, j, *(p for p in slots if p not in (i, j)))))
        for i in slots
        for j in range(i + 1, k + 2)
    ]
    return reference_linear_combination(k + 1, phi.dim, terms)


def reference_multiderivation_slot(ctx, phi: MultiMap):
    """The first slot (1-based) where phi breaks the Leibniz rule, or None."""
    mu, k = ctx.alg.mu, phi.arity
    slots = range(1, k + 2)
    left, right = reference_compose(mu, 1, phi), reference_compose(mu, 0, phi)
    for s in range(k):
        x_s_left = reference_permute(left, (s + 1, *(p for p in slots if p != s + 1)))
        x_next_right = reference_permute(right, (*(p for p in slots if p != s + 2), s + 2))
        both = reference_linear_combination(k + 1, phi.dim, ((1, x_s_left), (1, x_next_right)))
        if reference_compose(phi, s, mu) != both:
            return s + 1
    return None


def test_lichnerowicz_delta_and_multiderivation_check_match_decoded_sums():
    rng = random.Random(16)
    ring = plane_quotient()
    for _, bullet, bracket in poisson_corpus():
        ctx = poisson_context(bullet, bracket)
        n = bullet.dim
        cochains = [bracket.mu, MultiMap.zero(2, n)]
        if bullet == ring.algebra():
            derivations = [
                ring.derivation([(0,) + random_vector(n - 1, rng, 2) for _ in range(2)]) for _ in range(3)
            ]
            cochains += derivations + [lichnerowicz_delta(ctx, d) for d in derivations]
            cochains += [ring.poisson_bracket(w) for w in ((1, 0), (2, 0), (0, 1))]
        for phi in cochains:
            assert reference_multiderivation_slot(ctx, phi) is None
            assert_same(lichnerowicz_delta(ctx, phi), reference_lichnerowicz_delta(ctx, phi))
        for phi in (random_skew_bilinear(n, rng, 2), random_endomorphism(n, rng, 2), random_multimap(3, n, rng)):
            want = reference_multiderivation_slot(ctx, phi)
            assert is_multiderivation(ctx, phi) == (want is None)
            if want is not None:
                try:
                    lichnerowicz_delta(ctx, phi)
                except NotMultiderivation as exc:
                    assert exc.slot == want
                except ValueError:
                    assert not phi.is_skew()


def reference_wa_delta3(ctx, phi3: MultiMap, coeffs: dict) -> MultiMap:
    mu = ctx.alg.mu
    family = {
        "a": reference_compose(mu, 1, phi3),
        "b": reference_compose(mu, 0, phi3),
        "c": reference_compose(phi3, 0, mu),
        "d": reference_compose(phi3, 1, mu),
        "e": reference_compose(phi3, 2, mu),
    }
    unknowns = delta3_unknowns()
    return reference_linear_combination(4, phi3.dim, (
        (q, reference_permute(family[unknowns[j][0]], unknowns[j][1])) for j, q in coeffs.items()
    ))


def test_wa_delta3_matches_decoded_families(delta3_system):
    rng = random.Random(17)
    rows = list(delta3_system.kernel)[::4]
    rows.append({j: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for j in rng.sample(range(120), 12)})
    for alg in [alg for alg in _algebras() if alg.dim <= 3]:
        ctx = CochainContext(alg)
        phi3 = random_fraction_multimap(3, alg.dim, rng)
        for coeffs in rows:
            assert_same(wa_delta3(ctx, phi3, coeffs), reference_wa_delta3(ctx, phi3, coeffs))
