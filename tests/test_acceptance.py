"""Acceptance suite: one test per criterion, one printed line per criterion.

All checks are exact rational arithmetic; there are no tolerances anywhere.
Two published values are refuted by the computation: criterion 2's arity-4
dual rank/kernel (published 18/6, computed 16/8) and criterion 6's degree-6
H1 (published 5, computed 3).  Those tests assert the computed values, the
evidence that settles them, and that `verify` still reports the published
values as failing checks; the printed line names both values.  The README
carries the full analysis.
"""

import random

from wassoc.cohomology import (
    CochainContext,
    hochschild_delta,
    leibniz_defect,
    operadic_cochain3_check,
    wa_delta0,
    wa_delta1,
    wa_delta2,
    wa_delta3,
)
from wassoc.corpus import (
    plane_quotient,
    random_endomorphism,
    random_multimap,
    random_skew_bilinear,
)
from wassoc.deform import (
    GaugeTransform,
    TruncatedDeformation,
    bullet_preserving_check,
    gauge,
    is_wa_deformation,
    linear_deformation,
    ncp_defect,
    quantization,
    zero_deformation,
)
from wassoc.finalg import (
    FinAlg,
    MultiMap,
    depolarize,
    is_commutative,
    is_jordan,
    is_nonassociative_poisson,
    is_weakly_associative,
    polarize,
    satisfies_jordan_identity,
)
from wassoc.freewa import build, dimension_sequence, enumerate_unordered_trees
from wassoc.linalg import Matrix, dense_row, in_span, rank
from wassoc.operads import (
    annihilator,
    associativity_relation_space,
    consequences,
    dual_arity4_generators,
    generating_function,
    koszul_composition_check,
    pairing_gram_matrix,
    wa_relation_space,
    wass_dual_arity4,
    word_vector_from_group,
)
from wassoc.report import OMITTED, build_report
from wassoc.symgroup import (
    C3,
    C3SQ,
    ID3,
    T12,
    T13,
    T23,
    dual4_word_vectors,
    ga,
    orbit,
    orbit_span_dim,
    wa_vector,
)

SEED = 97
PRIME = 2**31 - 1


def line(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} ({name}): {status}{' - ' + detail if detail else ''}")
    return ok


def test_criterion_01_orbit_span():
    v = wa_vector()
    dim_ok = orbit_span_dim(v) == 4
    expected = [
        ga(3, (1, ID3), (1, C3), (-1, T12)),
        ga(3, (1, T12), (1, T23), (-1, ID3)),
        ga(3, (1, T13), (1, T12), (-1, C3)),
        ga(3, (1, T23), (1, T13), (-1, C3SQ)),
        ga(3, (1, C3), (1, C3SQ), (-1, T13)),
        ga(3, (1, C3SQ), (1, ID3), (-1, T23)),
    ]
    table_ok = orbit(v) == expected
    ok = line(1, "orbit span", dim_ok and table_ok, f"dim={orbit_span_dim(v)}")
    assert ok


def test_criterion_02_operad_dimensions():
    r = wa_relation_space()
    rp = annihilator(r)
    d4 = wass_dual_arity4()
    dims_ok = r.quotient_dim() == 8 and (12 - rp.dim) == 4
    # published: rank 18, kernel 6; the exact computation gives 16 and 8
    arity4_ok = d4.rank == 16 and d4.dim == 8
    # the relabelings of the two published quartic relations span the whole
    # 16-dimensional relation space, so the published relations themselves
    # give dimension 8
    w1, w2 = dual4_word_vectors()
    relabeled = [word_vector_from_group(u) for w in (w1, w2) for u in orbit(w)]
    span_ok = (
        rank(Matrix.from_rows(relabeled)) == 16
        and rank(Matrix.from_rows(relabeled + dual_arity4_generators()))
        == 16
    )
    rep = build_report(only="operad")
    by_id = {c.id: c for c in rep.checks}
    # the computed tables (1, 2, 8, 48) and (1, 2, 4, 8) compose to zero
    # through order 4; a dual dimension of 6 does not
    f_op = generating_function([1, 2, 8, by_id["operad.arity4-dim"].value], 4)
    residual = koszul_composition_check(
        f_op, generating_function([1, 2, 4, d4.dim], 4), 4
    )
    residual_6 = koszul_composition_check(
        f_op, generating_function([1, 2, 4, 6], 4), 4
    )
    koszul_ok = all(q == 0 for q in residual) and any(q != 0 for q in residual_6)
    # `verify` still reports the published values as refuted
    refuted_ok = [
        (by_id[i].status, by_id[i].value)
        for i in ("operad.dual4-rank", "operad.dual4-kernel")
    ] == [("fail", 16), ("fail", 8)]
    detail = (
        f"operad(3)={r.quotient_dim()}, dual(3)={12 - rp.dim}, "
        f"dual4 published 18/6 refuted: computed {d4.rank}/{d4.dim}"
    )
    ok = dims_ok and arity4_ok and span_ok and koszul_ok and refuted_ok
    line(2, "operad dimensions", ok, detail)
    assert dims_ok
    assert arity4_ok, (
        f"arity-4 dual: rank {d4.rank}, kernel {d4.dim}; expected the "
        "computed 16/8 (the published 18/6 is refuted)"
    )
    assert span_ok, (
        "the relabelings of the published quartic relations do not span the "
        "16-dimensional relation space"
    )
    assert koszul_ok, f"composition residual {residual} with 8, {residual_6} with 6"
    assert refuted_ok, "verify no longer flags the published arity-4 dual values"


def test_criterion_03_duality():
    r = wa_relation_space()
    rp = annihilator(r)
    gram_ok = rank(pairing_gram_matrix()) == 12
    back = annihilator(rp)
    mutual_ok = (
        r.dim + rp.dim == 12
        and back.dim == r.dim
        and all(in_span(dense_row(b, 12), [dense_row(x, 12) for x in r.rows]) for b in back.rows)
    )
    ok = line(3, "quadratic duality", gram_ok and mutual_ok, f"gram rank 12, split {r.dim}+{rp.dim}")
    assert ok


def test_criterion_04_associative_oracle():
    cons = consequences(associativity_relation_space())
    value = 120 - cons.dim
    ok = line(4, "associative arity-4 oracle", value == 24, f"dim={value}")
    assert ok


def test_criterion_05_free_algebra():
    dims = dimension_sequence(8)
    low_ok = dims[1:6] == [1, 1, 1, 2, 3]
    derived_ok = dims[6] == 6 and dims[7] == 11
    trees_ok = all(
        len(enumerate_unordered_trees(d)) == dims[d] for d in range(1, 9)
    )
    basis = build(8)
    built_ok = basis.dims() == dims
    ok = line(
        5,
        "free algebra dimensions",
        low_ok and derived_ok and trees_ok and built_ok,
        f"dims={dims[1:]}",
    )
    assert ok


def rank_mod_p(rows, p=PRIME):
    """Rank over GF(p) of an integer matrix, by plain Gaussian elimination.

    It shares no code with `wassoc.linalg`.  A rank mod p never exceeds the
    rank over Q, so it is an independent lower bound for the exact rank."""
    work = [[x % p for x in row] for row in rows]
    rk = 0
    for col in range(len(work[0])):
        pivot = next((i for i in range(rk, len(work)) if work[i][col]), None)
        if pivot is None:
            continue
        work[rk], work[pivot] = work[pivot], work[rk]
        inv = pow(work[rk][col], -1, p)
        work[rk] = [x * inv % p for x in work[rk]]
        for i in range(len(work)):
            if i != rk and work[i][col]:
                f = work[i][col]
                work[i] = [(x - f * y) % p for x, y in zip(work[i], work[rk])]
        rk += 1
    return rk


def test_criterion_06_homology_table(chain_complex6):
    cc = chain_complex6
    dims = dimension_sequence(6)
    h0 = [cc.homology_dim(0, k) for k in range(7)]
    h1 = [cc.homology_dim(1, k) for k in range(7)]
    h2 = [cc.homology_dim(2, k) for k in (1, 2)]
    comp = cc.composition_vanishing_report()
    c1_ok = all(
        cc.chain_dim(1, m)
        == (4 * dims[m] if m % 2 else 4 * dims[m] - dims[m // 2])
        for m in range(2, 7)
    )
    h0_ok = h0 == dims
    h2_ok = h2 == [1, 2]
    comp_ok = comp["b1b2_zero"] and comp["b2b3wa_zero"]
    # published: H1 = 5 in degree 6; the exact computation gives 3, which
    # continues the pattern H1^k = d_(k-1)
    h1_ok = h1 == [0, 1, 1, 1, 1, 2, 3]
    pattern_ok = all(h1[k] == dims[k - 1] for k in range(1, 7))
    # b1 vanishes in degree 6 (the algebra is commutative), so H1 = 23 minus
    # the rank of b2; an independent mod-p elimination confirms rank 20
    b1, b2 = cc.boundary(1, 6), cc.boundary(2, 6)
    b2_rank = rank(b2)
    b2_mod_p = rank_mod_p([[int(q) for q in row] for row in b2.entries])
    eliminator_ok = (
        all(q == 0 for row in b1.entries for q in row)
        and cc.chain_dim(1, 6) == 23
        and all(q.denominator == 1 for row in b2.entries for q in row)
        and b2_rank == b2_mod_p == 20
    )
    # `verify` still reports the published value as refuted
    check = {c.id: c for c in build_report(only="homology").checks}[
        "homology.h1-degree6"
    ]
    refuted_ok = (check.status, check.value) == ("fail", 3)
    detail = (
        f"H0={h0}, H1={h1}, H2(1,2)={h2}, H1(6) published 5 refuted: "
        f"computed 23 - {b2_rank} = {h1[6]} (rank mod {PRIME} {b2_mod_p})"
    )
    ok = h0_ok and h1_ok and pattern_ok and h2_ok and comp_ok and c1_ok
    ok = ok and eliminator_ok and refuted_ok
    line(6, "homology table", ok, detail)
    assert h0_ok and h2_ok and comp_ok and c1_ok
    assert h1_ok, (
        f"computed H1 = {h1}; expected the computed 3 in degree 6 (the "
        "published 5 is refuted)"
    )
    assert pattern_ok
    assert eliminator_ok, (
        f"degree-6 b2: exact rank {b2_rank}, rank mod {PRIME} {b2_mod_p}"
    )
    assert refuted_ok, "verify no longer flags the published degree-6 value"


def test_criterion_07_delta3_system(delta3_system, wa_members):
    sys_ = delta3_system
    shape_ok = sys_.columns == 120 and sys_.assembled_rows == 360
    rng = random.Random(SEED)
    members = [m for m in wa_members if m[1].dim <= 3][:3]
    comp_ok = True
    for v in sys_.kernel:
        for _, alg in members:
            ctx = CochainContext(alg)
            phi = random_multimap(2, alg.dim, rng, 2)
            if not wa_delta3(ctx, wa_delta2(ctx, phi), v).is_zero():
                comp_ok = False
    ok = line(
        7,
        "degree-3 ansatz system",
        shape_ok and comp_ok,
        f"120 unknowns, 360 equations, kernel dim {sys_.kernel_dim} "
        "(computed; no published value), all kernel vectors compose to zero",
    )
    assert ok


def test_criterion_08_cohomology_property_suite(wa_members, non_wa_members):
    rng = random.Random(SEED + 1)
    assert len(wa_members) >= 10
    assert {alg.dim for _, alg in wa_members} >= {2, 3, 4, 5, 6}
    ok = True
    for _, alg in wa_members:
        n = alg.dim
        ctx = CochainContext(alg)
        for i in range(n):
            if not wa_delta1(ctx, wa_delta0(ctx, alg.basis_vector(i))).is_zero():
                ok = False
        commutative = is_commutative(alg)
        # 100 random cochains per algebra: 34 endomorphisms, 33 bilinear,
        # 33 skew bilinear
        for _ in range(34):
            f = random_endomorphism(n, rng, 2)
            if not wa_delta2(ctx, wa_delta1(ctx, f)).is_zero():
                ok = False
        for _ in range(33):
            phi = random_multimap(2, n, rng, 2)
            if not operadic_cochain3_check(wa_delta2(ctx, phi)):
                ok = False
        for _ in range(33):
            psi = random_skew_bilinear(n, rng, 2)
            if commutative:
                L = leibniz_defect(ctx, psi)
                dH = hochschild_delta(ctx, psi)
                dWA = wa_delta2(ctx, psi)
                shift = L.permute_inputs((2, 3, 1))
                if not (dH + L + shift).is_zero():
                    ok = False
                if not (dWA + shift.scale(2)).is_zero():
                    ok = False
                if not (L.is_zero() == dH.is_zero() == dWA.is_zero()):
                    ok = False
            else:
                if not operadic_cochain3_check(wa_delta2(ctx, psi)):
                    ok = False
    assert len(non_wa_members) >= 5
    for _, alg in non_wa_members:
        ctx = CochainContext(alg)
        if not any(
            not wa_delta1(ctx, wa_delta0(ctx, alg.basis_vector(i))).is_zero()
            for i in range(alg.dim)
        ):
            ok = False
    ok = line(
        8,
        "cohomology operator suite",
        ok,
        f"{len(wa_members)} weakly associative members, 100 random cochains "
        f"each, {len(non_wa_members)} non-members detected",
    )
    assert ok


def test_criterion_09_polarization_theorems(wa_members, poisson_members):
    ok = True
    for _, alg in wa_members:
        bullet, bracket = polarize(alg)
        if not is_nonassociative_poisson(bullet, bracket):
            ok = False
    for _, bullet, bracket in poisson_members:
        if not is_weakly_associative(depolarize(bullet, bracket)):
            ok = False
    seen = set()
    for _, alg in wa_members:
        bullet, _ = polarize(alg)
        lhs, rhs = is_jordan(bullet), satisfies_jordan_identity(alg)
        if lhs != rhs:
            ok = False
        seen.add(lhs)
    both = seen == {True, False}
    ok = line(
        9,
        "polarization theorems",
        ok and both,
        "polarize/depolarize exchange verified, Jordan biconditional with "
        "both truth values",
    )
    assert ok


def test_criterion_10_deformation_suite():
    rng = random.Random(SEED + 2)
    ring = plane_quotient()
    mu = ring.algebra()
    n = mu.dim
    br = ring.poisson_bracket((1, 0))
    lin = linear_deformation(mu, br, order=3)
    quant_ok = is_wa_deformation(lin)
    q = quantization(lin)
    quant_ok = quant_ok and q.poisson_ok and q.failure is None

    gauge_ok = True
    brackets = [ring.poisson_bracket(w) for w in ((1, 0), (0, 1), (1, 1))]
    for trial in range(30):
        d = linear_deformation(mu, brackets[trial % 3], order=3)
        g = GaugeTransform([random_endomorphism(n, rng, 1) for _ in range(3)])
        if not is_wa_deformation(gauge(d, g)):
            gauge_ok = False

    ut = FinAlg.from_products(
        3, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 3): {2: 1}, (3, 3): {3: 1}}
    )
    h = random_endomorphism(3, rng, 2)
    adef = gauge(
        zero_deformation(ut, 3),
        GaugeTransform([h, Matrix.zero(3, 3), Matrix.zero(3, 3)]),
    )
    bullet, bracket = polarize(ut)
    ncp_ok = ncp_defect(
        bullet, bracket, adef.terms[0].sym_part(), adef.terms[0].skew_part()
    ).is_zero()
    base2 = mu.add(ring.bracket_algebra((1, 0)))
    bullet2, bracket2 = polarize(base2)
    brmap = MultiMap.from_function(2, n, lambda i, j: bracket2.mu(i, j))
    ncp_ok = ncp_ok and ncp_defect(
        bullet2, bracket2, MultiMap.zero(2, n), brmap
    ).is_zero()

    pencil = TruncatedDeformation(
        base2,
        [ring.poisson_bracket((2, 0)), MultiMap.zero(2, n), MultiMap.zero(2, n)],
    )
    bp = bullet_preserving_check(pencil)
    lich_ok = is_wa_deformation(pencil) and bp.lichnerowicz_cocycle

    ok = line(
        10,
        "deformation suite",
        quant_ok and gauge_ok and ncp_ok and lich_ok,
        "linear quantization orders 1..3, 30 gauge pairs, noncommutative "
        "Leibniz, Poisson 2-cocycle",
    )
    assert ok


def test_criterion_11_out_of_scope_content_absent():
    rep = build_report(only="freewa")
    claims = " ".join(c.claim for c in rep.checks).lower()
    absent_ok = all(
        phrase not in claims
        for phrase in ("kontsevich", "rigidity", "scheme", "free flexible")
    )
    listed_ok = rep.omitted == OMITTED and len(OMITTED) == 4
    ok = line(
        11,
        "out-of-scope content recorded as absent",
        absent_ok and listed_ok,
        f"{len(OMITTED)} omissions listed explicitly",
    )
    assert ok
