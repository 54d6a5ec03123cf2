"""The claim-by-claim verification suite behind the `verify` command.

Each check records a self-contained mathematical claim, a status and, where
useful, the computed value.  Status meanings:

* ``pass`` / ``fail``: the claim has a stated expected value and the exact
  computation confirms or refutes it;
* ``computed``: the artifact computes and records a value for which no
  published target exists.

Two published values are refuted by the exact computation (the arity-4 dual
relation rank/kernel and the degree-6 chain-degree-1 homology dimension); the
corresponding checks report ``fail`` with the computed values attached, and
`verify` exits nonzero.  See the README for the analysis.
"""

from __future__ import annotations

import functools
import random
from dataclasses import dataclass, field
from fractions import Fraction

from . import corpus
from .cohomology import (
    CochainContext,
    build_delta3_system,
    hochschild_delta,
    leibniz_defect,
    lichnerowicz_delta,
    operadic_cochain3_check,
    poisson_context,
    wa_delta0,
    wa_delta1,
    wa_delta2,
    wa_delta3,
)
from .finalg import (
    MultiMap,
    depolarize,
    is_jordan,
    is_nonassociative_poisson,
    is_weakly_associative,
    polarize,
    satisfies_jordan_identity,
)
from .freewa import dimension_sequence, enumerate_unordered_trees
from .homology import ChainComplex, b1b2_symbolic_identity
from .linalg import sparse_reduce, sparse_rref
from .operads import (
    annihilator,
    associativity_relation_space,
    consequences,
    generating_function,
    koszul_composition_check,
    pairing_gram_matrix,
    r3_syzygies,
    wa_relation_space,
    wass_dual_arity4,
)
from .symgroup import (
    C3,
    C3SQ,
    ID3,
    T12,
    T13,
    T23,
    delta3_reduction_vectors,
    dual4_word_vectors,
    ga,
    in_orbit_span,
    leibniz_vector,
    lie_admissible_vector,
    orbit,
    orbit_span_dim,
    relations_equivalent,
    wa_vector,
)

DEFAULT_SEED = 1789


@dataclass
class Check:
    id: str
    claim: str
    status: str
    value: object = None

    def as_dict(self) -> dict:
        out = {"id": self.id, "claim": self.claim, "status": self.status}
        if self.value is not None:
            out["value"] = self.value
        return out


@dataclass
class Report:
    checks: list[Check] = field(default_factory=list)
    omitted: list[str] = field(default_factory=list)

    def add(self, id: str, claim: str, ok: bool, value=None):
        self.checks.append(Check(id, claim, "pass" if ok else "fail", value))

    def computed(self, id: str, claim: str, value):
        self.checks.append(Check(id, claim, "computed", value))

    @property
    def failed(self) -> list[Check]:
        return [c for c in self.checks if c.status == "fail"]

    def as_dict(self) -> dict:
        return {
            "checks": [c.as_dict() for c in self.checks],
            "omitted": list(self.omitted),
            "failures": len(self.failed),
        }


OMITTED = [
    "existence of deformation quantizations for smooth function algebras "
    "(analytic, outside exact linear algebra)",
    "rigidity and affine-scheme arguments for varieties of finite-dimensional "
    "associative products",
    "identification of the one-generator free algebra with the free flexible "
    "algebra (needs an independent free-flexible construction)",
    "closed-form expansion of the chain-degree-1 homology dimension at "
    "degrees divisible by six (printed form is ambiguous; the degree-6 value "
    "is computed directly instead)",
]


def _orbit_checks(rep: Report):
    v = wa_vector()
    rep.add(
        "orbit.span-dim",
        "the span of the orbit of Id + c - (12) has dimension 4",
        orbit_span_dim(v) == 4,
        orbit_span_dim(v),
    )
    expected = [
        ga(3, (1, ID3), (1, C3), (-1, T12)),
        ga(3, (1, T12), (1, T23), (-1, ID3)),
        ga(3, (1, T13), (1, T12), (-1, C3)),
        ga(3, (1, T23), (1, T13), (-1, C3SQ)),
        ga(3, (1, C3), (1, C3SQ), (-1, T13)),
        ga(3, (1, C3SQ), (1, ID3), (-1, T23)),
    ]
    rep.add(
        "orbit.table",
        "the six translates match the standard table "
        "(third row regenerates as (13) + (12) - c)",
        orbit(v) == expected,
    )
    rows = [w.sparse_row() for w in orbit(v)]
    rep.add(
        "orbit.basis",
        "the first four translates are a basis of the orbit span",
        len(sparse_rref(rows[:4], 6)) == 4,
    )
    u1, u2, u3, u4 = delta3_reduction_vectors()
    W, w = lie_admissible_vector(), leibniz_vector()
    memberships = (
        all(in_orbit_span(x, v) for x in (u1, u2, u3, u4, W, w, W + w))
        and not in_orbit_span(ga(3, (1, ID3)), v)
        and all(in_orbit_span(x, u3) for x in (u1, u2, u4))
    )
    rep.add(
        "orbit.memberships",
        "u1..u4 and the Lie-admissibility and Leibniz vectors lie in the "
        "orbit span, Id does not, and u1, u2, u4 lie in the span of u3",
        memberships,
    )
    alpha = Fraction(-1, 2)
    iv = ga(3, (2, ID3), (1 + alpha, T12), (1, T13), (1, C3), (1 - alpha, C3SQ))
    rep.add(
        "orbit.equivalences",
        "(12) - Id + (23) and the alpha = -1/2 member of the two-parameter "
        "family generate the same relation; plain associativity does not",
        relations_equivalent(v, ga(3, (1, T12), (-1, ID3), (1, T23)))
        and relations_equivalent(v, iv)
        and not relations_equivalent(v, ga(3, (1, ID3))),
    )


def _operad_checks(rep: Report):
    r = wa_relation_space()
    rep.add("operad.relation-dim", "relation span has dimension 4", r.dim == 4, r.dim)
    rep.add(
        "operad.arity3-dim",
        "arity-3 operad component has dimension 8",
        r.quotient_dim() == 8,
        r.quotient_dim(),
    )
    rp = annihilator(r)
    rep.add(
        "operad.dual3-dim",
        "arity-3 dual component has dimension 4",
        12 - rp.dim == 4,
        12 - rp.dim,
    )
    rep.add(
        "operad.gram-rank",
        "the duality pairing is nondegenerate (Gram rank 12)",
        len(sparse_rref(pairing_gram_matrix(), 12)) == 12,
    )
    both = annihilator(rp)
    rep.add(
        "operad.mutual-annihilators",
        "relation span and dual relation span annihilate each other",
        both.rows == r.rows,
    )
    acons = consequences(associativity_relation_space())
    rep.add(
        "operad.associative-oracle",
        "consequence closure of associativity leaves the classical arity-4 "
        "dimension 24",
        120 - acons.dim == 24,
        120 - acons.dim,
    )
    d4 = wass_dual_arity4()
    rep.add(
        "operad.dual4-rank",
        "published claim: the arity-4 dual relation matrix has rank 18 "
        "(exact computation gives 16)",
        d4.rank == 18,
        d4.rank,
    )
    rep.add(
        "operad.dual4-kernel",
        "published claim: the arity-4 dual component has dimension 6 "
        "(exact computation gives 8)",
        d4.dim == 6,
        d4.dim,
    )
    rep.add(
        "operad.dual4-displayed-relations",
        "both displayed quartic relations lie in the computed relation row "
        "space",
        not any(sparse_reduce(d4.rows, w.sparse_row()) for w in dual4_word_vectors()),
    )
    wcons = consequences(r)
    rep.computed(
        "operad.arity4-dim",
        "arity-4 operad component dimension (not stated in the source)",
        120 - wcons.dim,
    )
    series = generating_function([1, 2, 4, 6], 4)
    rep.add(
        "operad.genfun-arithmetic",
        "the series of the dim list (1,2,4,6) is -x + x^2 - (2/3)x^3 + (1/4)x^4",
        series == [Fraction(-1), Fraction(1), Fraction(-2, 3), Fraction(1, 4)],
    )
    f_op = generating_function([1, 2, 8, 120 - wcons.dim], 4)
    f_dual = generating_function([1, 2, 4, d4.dim], 4)
    resid = koszul_composition_check(f_op, f_dual, 4)
    rep.computed(
        "operad.koszul-residual",
        "degree-4 residual of the composition test on the computed dimensions "
        "(no Koszulity assertion either way)",
        [str(q) for q in resid],
    )
    syz = r3_syzygies()
    for i, (name, ok) in enumerate(syz.items(), start=1):
        claim = f"displayed cubic-relation consequence {i}: {name}"
        if not ok:
            claim += " (does not vanish identically as printed)"
        rep.add(f"operad.syzygy-{i}", claim, ok)


def _freewa_checks(rep: Report):
    dims = dimension_sequence(8)
    rep.add(
        "freewa.dims",
        "graded dimensions in degrees 1..5 are 1, 1, 1, 2, 3",
        dims[1:6] == [1, 1, 1, 2, 3],
        dims[1:6],
    )
    rep.add(
        "freewa.d6-d7",
        "recursion gives 6 and 11 in degrees 6 and 7",
        dims[6] == 6 and dims[7] == 11,
        dims[6:8],
    )
    trees = [len(enumerate_unordered_trees(d)) for d in range(1, 9)]
    rep.add(
        "freewa.tree-oracle",
        "recursion matches brute-force unordered-tree counts through degree 8",
        trees == dims[1:9],
        trees,
    )
    from .freewa import GEN, UNIT, multiply

    x = GEN
    x2 = multiply(x, x)
    x3 = multiply(x, x2)
    x41 = multiply(x3, x)
    x42 = multiply(x2, x2)
    products_ok = (
        multiply(x, x2) == multiply(x2, x)
        and x41 != x42
        and multiply(UNIT, x3) == x3
        and multiply(x3, x2) == multiply(x2, x3)
        and len({multiply(x3, x2), multiply(x41, x), multiply(x42, x)}) == 3
    )
    rep.add(
        "freewa.products",
        "degree-4 and degree-5 product identifications hold and distinct "
        "pairings stay distinct",
        products_ok,
    )


def _homology_checks(rep: Report):
    cc = ChainComplex.up_to_degree(6)
    dims = dimension_sequence(6)
    h0 = [cc.homology_dim(0, k) for k in range(7)]
    rep.add(
        "homology.h0",
        "chain-degree-0 homology equals the graded dimensions through "
        "degree 6",
        h0 == dims,
        h0,
    )
    h1 = [cc.homology_dim(1, k) for k in range(7)]
    rep.add(
        "homology.h1-through-5",
        "chain-degree-1 homology is 0, 1, 1, 1, 1, 2 in degrees 0..5",
        h1[:6] == [0, 1, 1, 1, 1, 2],
        h1[:6],
    )
    rep.add(
        "homology.h1-degree6",
        "published claim: chain-degree-1 homology is 5 in degree 6 "
        "(exact computation gives 3)",
        h1[6] == 5,
        h1[6],
    )
    h2 = [cc.homology_dim(2, k) for k in (1, 2)]
    rep.add(
        "homology.h2",
        "chain-degree-2 homology is 1 in degree 1 and 2 in degree 2",
        h2 == [1, 2],
        h2,
    )
    c1 = [cc.chain_dim(1, k) for k in range(7)]
    closed = all(
        c1[k] == (4 * dims[k] if k % 2 else 4 * dims[k] - dims[k // 2])
        for k in range(2, 7)
    )
    rep.add(
        "homology.c1-closed-forms",
        "first-chain dimensions match the closed forms 4 d_(2k+1) and "
        "4 d_(2k) - d_k from degree 2 on (degree 1 is the seeded exception "
        "with explicit basis (X,1), (1,X))",
        closed and c1[1] == 2,
        c1,
    )
    comp = cc.composition_vanishing_report()
    rep.add(
        "homology.compositions",
        "b1 b2 = 0 and b2 b3(wa) = 0 as matrices in every degree through 6",
        comp["b1b2_zero"] and comp["b2b3wa_zero"],
    )
    rep.add(
        "homology.b2-variants",
        "the plain and weakly associative second boundaries coincide on the "
        "commutative free algebra",
        comp["b2_equals_b2wa"],
    )
    rep.add(
        "homology.b1b2-symbolic",
        "the cyclic associator sum equals the symmetrized weak-associativity "
        "expression (symbolic form of b1 b2 = 0)",
        b1b2_symbolic_identity(),
    )
    rep.computed(
        "homology.non-koszul-note",
        "chain-degree-2 homology is nonzero in low degrees, the recorded "
        "obstruction to Koszulity of the one-generator free algebra",
        {"H2": h2},
    )


def _delta3_checks(rep: Report, rng: random.Random, wa_members: list):
    sys = build_delta3_system()
    rep.add(
        "delta3.columns",
        "the coefficient ansatz has 120 unknowns",
        sys.columns == 120,
        sys.columns,
    )
    rep.add(
        "delta3.rows",
        "the assembled system has 360 equations before reduction",
        sys.assembled_rows == 360,
        sys.assembled_rows,
    )
    rep.computed(
        "delta3.kernel-dim",
        "dimension of the admissible coefficient space (not stated in the "
        "source)",
        sys.kernel_dim,
    )
    members = wa_members[:3]
    ok = True
    for v in sys.kernel[:4]:
        for _, alg in members:
            ctx = CochainContext(alg)
            phi = corpus.random_multimap(2, alg.dim, rng, 2)
            if not wa_delta3(ctx, wa_delta2(ctx, phi), v).is_zero():
                ok = False
    rep.add(
        "delta3.composition",
        "sampled kernel vectors give a degree-3 operator annihilating every "
        "degree-2 coboundary on corpus algebras",
        ok,
    )


def _cohomology_checks(rep: Report, rng: random.Random, wa_members: list):
    ok01, ok12, okc3 = True, True, True
    for _, alg in wa_members:
        ctx = CochainContext(alg)
        n = alg.dim
        if not all(
            wa_delta1(ctx, wa_delta0(ctx, alg.basis_vector(i))).is_zero()
            for i in range(n)
        ):
            ok01 = False
        f = corpus.random_endomorphism(n, rng, 2)
        if not wa_delta2(ctx, wa_delta1(ctx, f)).is_zero():
            ok12 = False
        if not operadic_cochain3_check(
            wa_delta2(ctx, corpus.random_multimap(2, n, rng, 2))
        ):
            okc3 = False
    rep.add("cohomology.d1d0", "first two coboundaries compose to zero on the corpus", ok01)
    rep.add("cohomology.d2d1", "second and first coboundaries compose to zero on the corpus", ok12)
    rep.add(
        "cohomology.cochain3",
        "every degree-2 coboundary satisfies the 3-cochain symmetry",
        okc3,
    )
    nonwa_ok = True
    for _, alg in corpus.non_wa_corpus():
        ctx = CochainContext(alg)
        if all(
            wa_delta1(ctx, wa_delta0(ctx, alg.basis_vector(i))).is_zero()
            for i in range(alg.dim)
        ):
            nonwa_ok = False
    rep.add(
        "cohomology.non-wa-detects",
        "on every non weakly associative corpus member some basis element "
        "breaks the composition",
        nonwa_ok,
    )
    ring = corpus.plane_quotient()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    n = alg.dim
    eq_ok = True
    for _ in range(10):
        psi = corpus.random_skew_bilinear(n, rng, 2)
        L = leibniz_defect(ctx, psi)
        dH = hochschild_delta(ctx, psi)
        dWA = wa_delta2(ctx, psi)
        shift = L.permute_inputs((2, 3, 1))
        if not (dH + L + shift).is_zero():
            eq_ok = False
        if not (dWA + shift.scale(2)).is_zero():
            eq_ok = False
        if not (L.is_zero() == dH.is_zero() == dWA.is_zero()):
            eq_ok = False
    br = ring.poisson_bracket((1, 0))
    eq_ok = eq_ok and leibniz_defect(ctx, br).is_zero() and wa_delta2(ctx, br).is_zero()
    rep.add(
        "cohomology.leibniz-equivalence",
        "for skew maps over a commutative product the Leibniz defect, the "
        "Hochschild coboundary and the weakly associative coboundary vanish "
        "together (with the exact tensor identities behind it)",
        eq_ok,
    )
    phi = corpus.random_multimap(2, n, rng, 2)
    d2 = wa_delta2(ctx, phi)
    id_minus_t23 = ga(3, (1, ID3), (-1, T23))
    comm_ok = d2.apply_group_vector(id_minus_t23).is_zero()
    rep.add(
        "cohomology.id-minus-t23-commutative",
        "on a commutative context every degree-2 coboundary is symmetric in "
        "its last two arguments",
        comm_ok,
    )
    nc = alg.add(ring.bracket_algebra((1, 0)))
    ctx2 = CochainContext(nc)
    phi2 = corpus.random_multimap(2, n, rng, 2)
    d22 = wa_delta2(ctx2, phi2)
    rep.computed(
        "cohomology.id-minus-t23-noncommutative",
        "whether the same symmetry survives on a noncommutative weakly "
        "associative context (observed: it does not)",
        d22.apply_group_vector(id_minus_t23).is_zero(),
    )
    pctx = poisson_context(alg, ring.bracket_algebra((1, 0)))
    lich_ok = lichnerowicz_delta(pctx, ring.poisson_bracket((1, 0))).is_zero()
    d1_ok = True
    for _ in range(5):
        p = (0,) + corpus.random_vector(n - 1, rng, 2)
        q = (0,) + corpus.random_vector(n - 1, rng, 2)
        D = ring.derivation([p, q])
        if not lichnerowicz_delta(pctx, lichnerowicz_delta(pctx, D)).is_zero():
            d1_ok = False
    rep.add(
        "cohomology.lichnerowicz",
        "the Poisson coboundary squares to zero on derivations and kills the "
        "bracket itself",
        lich_ok and d1_ok,
    )


def _polarization_checks(rep: Report, wa_members: list):
    to_poisson = all(
        is_nonassociative_poisson(*polarize(alg)) for _, alg in wa_members
    )
    rep.add(
        "polarization.wa-to-poisson",
        "polarizing every weakly associative corpus member yields a "
        "nonassociative Poisson pair",
        to_poisson,
    )
    from_poisson = all(
        is_weakly_associative(depolarize(b, k)) for _, b, k in corpus.poisson_corpus()
    )
    rep.add(
        "polarization.poisson-to-wa",
        "recombining every corpus Poisson pair yields a weakly associative "
        "product",
        from_poisson,
    )
    jordan_ok, seen = True, set()
    for _, alg in wa_members:
        bullet, _ = polarize(alg)
        lhs = is_jordan(bullet)
        rhs = satisfies_jordan_identity(alg)
        seen.add(lhs)
        if lhs != rhs:
            jordan_ok = False
    rep.add(
        "polarization.jordan-biconditional",
        "the symmetrized product is Jordan exactly when the product itself "
        "satisfies the Jordan identity (both truth values occur in the corpus)",
        jordan_ok and seen == {True, False},
    )


def _deform_checks(rep: Report, rng: random.Random):
    from .deform import (
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
    from .finalg import FinAlg

    ring = corpus.plane_quotient()
    mu = ring.algebra()
    n = mu.dim
    br = ring.poisson_bracket((1, 0))
    lin = linear_deformation(mu, br, order=3)
    q = quantization(lin)
    rep.add(
        "deform.linear-quantization",
        "the weighted-bracket linear deformation of the plane quotient is "
        "weakly associative through order 3 and its bracket is Poisson",
        # no failure also means that no order fails weak associativity
        q.poisson_ok and q.failure is None,
    )
    naive = ring.bracket_algebra((0, 0))
    rep.add(
        "deform.naive-seed-rejected",
        "the naive unit-seeded bracket on the plane quotient fails the "
        "Leibniz identity after truncation and is rejected",
        not is_nonassociative_poisson(mu, naive),
    )
    gauge_ok = True
    for _ in range(5):
        g = GaugeTransform([corpus.random_endomorphism(n, rng, 1) for _ in range(3)])
        if not is_wa_deformation(gauge(lin, g)):
            gauge_ok = False
    rep.add(
        "deform.gauge-preserves",
        "sampled gauge transforms preserve weak associativity of the "
        "deformation",
        gauge_ok,
    )
    ut = FinAlg.from_products(
        3, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 3): {2: 1}, (3, 3): {3: 1}}
    )
    h = corpus.random_endomorphism(3, rng, 2)
    g = GaugeTransform([h, MultiMap.zero(1, 3), MultiMap.zero(1, 3)])
    adef = gauge(zero_deformation(ut, 3), g)
    bullet, bracket = polarize(ut)
    ncp_ok = ncp_defect(
        bullet, bracket, adef.terms[0].sym_part(), adef.terms[0].skew_part()
    ).is_zero()
    base2 = mu.add(ring.bracket_algebra((1, 0)))
    bullet2, bracket2 = polarize(base2)
    ncp_ok = ncp_ok and ncp_defect(
        bullet2, bracket2, MultiMap.zero(2, n), bracket2.mu
    ).is_zero()
    rep.add(
        "deform.ncp",
        "the noncommutative Leibniz defect vanishes for first-order terms of "
        "associative deformations of a noncommutative base and for the "
        "order-zero polarized identity",
        ncp_ok,
    )
    pencil = TruncatedDeformation(
        base2,
        [ring.poisson_bracket((2, 0)), MultiMap.zero(2, n), MultiMap.zero(2, n)],
    )
    bp = bullet_preserving_check(pencil)
    rep.add(
        "deform.lichnerowicz-cocycle",
        "a skew, product-symmetric-part-preserving deformation has a "
        "first-order term that is a Poisson 2-cocycle",
        is_wa_deformation(pencil) and bp.lichnerowicz_cocycle,
    )


def build_report(seed: int = DEFAULT_SEED, only: str | None = None) -> Report:
    rng = random.Random(seed)
    rep = Report(omitted=list(OMITTED))
    # Built on first use, so a run of one section that does not need it
    # does not pay for it.
    wa_members = functools.cache(corpus.wa_corpus)
    sections = {
        "orbit": lambda: _orbit_checks(rep),
        "operad": lambda: _operad_checks(rep),
        "freewa": lambda: _freewa_checks(rep),
        "homology": lambda: _homology_checks(rep),
        "delta3": lambda: _delta3_checks(rep, rng, wa_members()),
        "cohomology": lambda: _cohomology_checks(rep, rng, wa_members()),
        "polarization": lambda: _polarization_checks(rep, wa_members()),
        "deform": lambda: _deform_checks(rep, rng),
    }
    for name, fn in sections.items():
        if only is None or name == only:
            fn()
    if only is not None and only not in sections:
        raise ValueError(
            f"unknown section {only!r}; choose from {', '.join(sections)}"
        )
    return rep
