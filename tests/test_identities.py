import copy
from fractions import Fraction

import pytest

from wassoc import operads
from wassoc.corpus import random_group_element, truncated_polynomials, two_dim_family
from wassoc.finalg import FinAlg, evaluate, is_associative
from wassoc.identities import (
    LEAF,
    LEFT_COMB3,
    RIGHT_COMB3,
    MultilinearIdentity,
    apply_group_vector,
    apply_perm,
    associator,
    consequence_generators,
    flexibility_expression,
    graft,
    leibniz_expression,
    lie_admissible_expression,
    monomial,
    monomial_order,
    node_ops,
    shape_str,
    shapes,
    wa_expression,
    zero_identity,
)
from wassoc.linalg import dense_row, sparse_rref
from wassoc.symgroup import (
    C3,
    ID3,
    T12,
    T13,
    act,
    all_perms,
    ga,
    sigma_basis,
    wa_vector,
)


def test_shapes_counts_and_order():
    assert len(shapes(2)) == 1
    assert len(shapes(3)) == 2
    assert len(shapes(4)) == 5
    assert len(shapes(5)) == 14
    assert len(shapes(6)) == 42  # Catalan(5): no arity cap
    assert shapes(3)[0] == LEFT_COMB3  # left comb first
    assert shapes(3) == (("m", ("m", LEAF, LEAF), LEAF), ("m", LEAF, ("m", LEAF, LEAF)))


@pytest.mark.parametrize("n, count", [(2, 1), (3, 4), (4, 15), (5, 56)])
def test_one_f_trees_number_catalan_times_nodes(n, count):
    """Catalan(n-1) shapes times n-1 choices of the one "f" node."""
    tagged = shapes(n, ("m", "f"))
    assert len(tagged) == len(shapes(n)) * 2 ** (n - 1)
    assert len([t for t in tagged if node_ops(t).count("f") == 1]) == count
    assert [t for t in tagged if "f" not in node_ops(t)] == list(shapes(n))


def test_graft_product_into_right_comb():
    # x1((x2x3)x4) from x1(x2x3) with a product in slot 2
    got = graft(monomial(RIGHT_COMB3, (1, 2, 3)), 2, monomial(("m", LEAF, LEAF), (1, 2)))
    assert got == monomial(("m", LEAF, ("m", ("m", LEAF, LEAF), LEAF)), (1, 2, 3, 4))
    assert str(got) == "x1((x2x3)x4)"
    # labels follow the monomial: x3(x1x2) o_1 (x1x2) = x4((x1x2)x3)
    got = graft(monomial(RIGHT_COMB3, (3, 1, 2)), 1, monomial(("m", LEAF, LEAF), (1, 2)))
    assert got == monomial(("m", LEAF, ("m", ("m", LEAF, LEAF), LEAF)), (4, 1, 2, 3))


def test_graft_f_node_into_wa_relation():
    f = monomial(("f", LEAF, LEAF), (1, 2))
    got = graft(wa_expression(), 3, f)
    m = lambda a, b: ("m", a, b)
    fx = ("f", LEAF, LEAF)
    # wa = x1(x2x3) - (x1x2)x3 + x2(x3x1) - (x2x3)x1 - x2(x1x3) + (x2x1)x3,
    # with x3 -> f(x3, x4) and nothing else relabeled
    expected = {
        (m(LEAF, m(LEAF, fx)), (1, 2, 3, 4)): 1,
        (m(m(LEAF, LEAF), fx), (1, 2, 3, 4)): -1,
        (m(LEAF, m(fx, LEAF)), (2, 3, 4, 1)): 1,
        (m(m(LEAF, fx), LEAF), (2, 3, 4, 1)): -1,
        (m(LEAF, m(LEAF, fx)), (2, 1, 3, 4)): -1,
        (m(m(LEAF, LEAF), fx), (2, 1, 3, 4)): 1,
    }
    assert got == MultilinearIdentity(4, expected)
    assert str(got) == (
        "x1(x2f(x3,x4)) - (x1x2)f(x3,x4) + x2(f(x3,x4)x1) - (x2f(x3,x4))x1"
        " - x2(x1f(x3,x4)) + (x2x1)f(x3,x4)"
    )
    # the "f" node in slot 1 shifts every other label up by one
    got = graft(wa_expression(), 1, f)
    assert got.coefficient(m(fx, m(LEAF, LEAF)), (1, 2, 3, 4)) == 1
    assert got.coefficient(m(LEAF, m(LEAF, fx)), (3, 4, 1, 2)) == 1
    with pytest.raises(ValueError):
        graft(wa_expression(), 4, f)
    with pytest.raises(ValueError, match="formal operation"):
        evaluate(two_dim_family(6), got)


def test_arity_six_comb_difference_detects_associativity():
    combs = monomial(shapes(6)[0], range(1, 7)) - monomial(shapes(6)[-1], range(1, 7))
    assoc, non_assoc = truncated_polynomials(3), two_dim_family(6)
    assert is_associative(assoc) and not is_associative(non_assoc)
    assert not evaluate(assoc, monomial(shapes(6)[0], range(1, 7))).is_zero()
    assert evaluate(assoc, combs).is_zero()
    assert not evaluate(non_assoc, combs).is_zero()


def test_associator_coefficients():
    a = associator()
    assert a.arity == 3
    assert a.term_count() == 2
    assert a.coefficient(LEFT_COMB3, (1, 2, 3)) == -1
    assert a.coefficient(RIGHT_COMB3, (1, 2, 3)) == 1
    assert apply_perm(a, ID3) == a


def test_wa_expression_structure():
    wa = wa_expression()
    assert wa.term_count() == 6
    # A(x1,x2,x3) + A(x2,x3,x1) - A(x2,x1,x3), expanded by hand
    expected = (
        associator()
        + apply_perm(associator(), C3)
        - apply_perm(associator(), T12)
    )
    assert wa == expected
    assert wa.coefficient(RIGHT_COMB3, (1, 2, 3)) == 1
    assert wa.coefficient(LEFT_COMB3, (1, 2, 3)) == -1
    assert wa.coefficient(RIGHT_COMB3, (2, 3, 1)) == 1


def test_apply_group_vector_zero_and_linearity():
    from wassoc.symgroup import GroupAlgebraElement

    zero = GroupAlgebraElement(3, {})
    assert apply_group_vector(associator(), zero).is_zero()
    v = ga(3, (2, ID3), (-1, T13))
    lhs = apply_group_vector(associator(), v)
    rhs = apply_perm(associator(), ID3).scale(2) - apply_perm(associator(), T13)
    assert lhs == rhs


def test_apply_consistent_with_act(rng):
    perms = all_perms(3)
    e = associator()
    for _ in range(200):
        v = random_group_element(3, rng, 2)
        s = rng.choice(perms)
        assert apply_perm(apply_group_vector(e, v), s) == apply_group_vector(
            e, act(v, s)
        )


def test_arity_mismatch_rejected():
    from wassoc.symgroup import identity_perm

    with pytest.raises(ValueError):
        apply_group_vector(associator(), ga(4, (1, identity_perm(4))))


def test_leibniz_expression_arity_and_vanishing():
    le = leibniz_expression()
    assert le.arity == 3
    # any commutative associative product with zero bracket kills it
    comm = FinAlg.from_products(2, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 1): {2: 1}})
    assert evaluate(comm, le).is_zero()


def test_flexibility_expression_on_flexible_algebra():
    alg = two_dim_family(6)
    assert evaluate(alg, flexibility_expression()).is_zero()
    # Id + (13) symmetrization of the associator
    flex = associator() + apply_perm(associator(), T13)
    assert flexibility_expression() == flex


def test_pretty_printer():
    a = associator()
    assert shape_str(LEFT_COMB3, (1, 2, 3)) == "(x1x2)x3"
    assert shape_str(RIGHT_COMB3, (1, 2, 3)) == "x1(x2x3)"
    assert str(a) == "-(x1x2)x3 + x1(x2x3)"


def coordinates(e: MultilinearIdentity) -> tuple:
    """The dense `Fraction` vector over `monomial_order` that an identity's
    `sparse_row` replaced: the reference the sparse rows are compared with."""
    index = {key: i for i, key in enumerate(monomial_order(e.arity))}
    out = [Fraction(0)] * len(index)
    for key, q in e.coeffs.items():
        out[index[key]] = q
    return tuple(out)


def test_coordinates_deterministic():
    wa = wa_expression()
    coords = coordinates(wa)
    assert len(coords) == 12
    assert coordinates(wa) == coords
    basis = list(monomial_order(wa.arity))
    assert len(basis) == 12
    rebuilt = MultilinearIdentity(
        3, {key: q for key, q in zip(basis, coords) if q != 0}
    )
    assert rebuilt == wa


def test_wa_and_lie_admissible_cross_relation():
    # W + w = 2 * (orbit element), at the level of identity vectors
    from wassoc.symgroup import C3SQ, leibniz_vector, lie_admissible_vector

    lhs = apply_group_vector(
        associator(), lie_admissible_vector() + leibniz_vector()
    )
    rhs = apply_group_vector(associator(), act(wa_vector(), C3SQ)).scale(2)
    assert lhs == rhs
    assert lie_admissible_expression() == apply_group_vector(
        associator(), lie_admissible_vector()
    )


def identities_under_test(rng) -> list[MultilinearIdentity]:
    """Every identity this module builds, its relabelings, seeded
    group-vector images with rational coefficients, the zero identity and
    arity-4 monomials and sums."""
    image = apply_group_vector(associator(), ga(3, (2, ID3), (-1, T13)))
    named = [
        associator(),
        wa_expression(),
        flexibility_expression(),
        leibniz_expression(),
        lie_admissible_expression(),
        monomial(LEFT_COMB3, (2, 1, 3), Fraction(-3, 7)),
        image,
    ]
    out = [zero_identity(3), zero_identity(4), image - image]
    for e in named:
        out += [apply_perm(e, s) for s in all_perms(3)]
        out.append(apply_group_vector(e, random_group_element(3, rng, 3)).scale(Fraction(5, 3)))
    arity4 = [
        monomial(shape, p.images, rng.randint(-4, 4))
        for shape in shapes(4)
        for p in all_perms(4)[::5]
    ]
    out += arity4
    out.append(sum(arity4[1:], arity4[0]))
    out.append(apply_perm(arity4[3] - arity4[7], all_perms(4)[9]))
    return out


def test_sparse_row_agrees_with_coordinates(rng):
    for e in identities_under_test(rng):
        coords = coordinates(e)
        row = e.sparse_row()
        assert len(coords) == len(monomial_order(e.arity))
        assert all(row.values()) and len(row) == e.term_count()
        assert dense_row(row, len(coords)) == coords
        assert {monomial_order(e.arity)[j]: q for j, q in row.items()} == e.coeffs


def test_monomial_order_is_shared_and_canonical():
    assert monomial_order(4) is monomial_order(4)
    assert len(monomial_order(3)) == 12 and len(monomial_order(4)) == 120
    assert monomial_order(3) == tuple(
        (shape, p.images) for shape in shapes(3) for p in sigma_basis(3)
    )
    assert monomial_order(3)[:2] == ((LEFT_COMB3, (1, 2, 3)), (LEFT_COMB3, (2, 1, 3)))
    assert monomial_order(3)[6] == (RIGHT_COMB3, (1, 2, 3))


# ---------------------------------------------------------------------------
# Consequence spans from coset representatives.
# ---------------------------------------------------------------------------

def reference_consequence_generators(relation, op: str) -> list[MultilinearIdentity]:
    """The naive spanning set that `consequence_generators` replaced: the
    node grafted into each slot of the relation and the relation grafted
    into either slot of the node, each relabeled by every permutation."""
    node = monomial((op, LEAF, LEAF), (1, 2))
    raw = [graft(relation, var, node) for var in range(1, relation.arity + 1)]
    raw += [graft(node, side, relation) for side in (1, 2)]
    return [apply_perm(e, p) for e in raw for p in all_perms(relation.arity + 1)]


def reduced_spans(*families):
    """The sparse RREF of each family of identities over one shared index
    of the monomials they use, so trees with any operations compare."""
    index = {}
    for family in families:
        for e in family:
            for key in e.coeffs:
                index.setdefault(key, len(index))
    return [
        sparse_rref([{index[k]: q for k, q in e.coeffs.items()} for e in family], len(index))
        for family in families
    ]


def basis_identities(space) -> list[MultilinearIdentity]:
    order = monomial_order(space.arity)
    return [MultilinearIdentity(space.arity, {order[j]: q for j, q in row.items()}) for row in space.rows]


def assert_same_consequences(relations, op: str) -> list[MultilinearIdentity]:
    got = consequence_generators(relations, op)
    expected = [c for r in relations for c in reference_consequence_generators(r, op)]
    new, old = reduced_spans(got, expected)
    assert new == old
    return got


@pytest.mark.parametrize(
    "space, rows, dim",
    [
        (operads.wa_relation_space, 80, 72),
        (operads.associativity_relation_space, 120, 96),
        (operads.full_free_space, 240, 120),
        (lambda: operads.annihilator(operads.wa_relation_space()), 160, 112),
    ],
    ids=["wa", "associativity", "full", "annihilator"],
)
def test_consequence_generators_match_reference(space, rows, dim):
    basis = basis_identities(space())
    got = assert_same_consequences(basis, "m")
    assert len(got) == 20 * len(basis) == rows
    assert len(reduced_spans(got)[0]) == dim
    # one relation, or its basis, gives the same span as the whole basis
    assert reduced_spans(consequence_generators(basis[0], "m")) == reduced_spans(
        consequence_generators(basis[:1], "m")
    )


def test_consequence_generators_f_span_is_a_basis():
    wa = wa_expression()
    got = assert_same_consequences([wa], "f")
    assert len(got) == 80
    assert len(reduced_spans(got)[0]) == 80
    assert consequence_generators(wa, "f") == got
    assert all("f" in node_ops(shape) for e in got for shape, _ in e.coeffs)


def random_relations(rng, arity: int, ops: tuple[str, ...]) -> list[MultilinearIdentity]:
    """One to three seeded identities over a few random monomials: spans
    that are in general not stable under relabeling."""
    keys = [(shape, p.images) for shape in shapes(arity, ops) for p in all_perms(arity)]
    return [
        MultilinearIdentity(
            arity,
            {k: Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for k in rng.sample(keys, rng.randint(1, min(4, len(keys))))},
        )
        for _ in range(rng.randint(1, 3))
    ]


@pytest.mark.parametrize("arity, ops", [(3, ("m",)), (2, ("m",)), (2, ("m", "f"))])
def test_consequence_generators_on_non_stable_spaces(rng, arity, ops):
    stable = 0
    for trial in range(6):
        relations = random_relations(rng, arity, ops)
        closure = [apply_perm(r, p) for r in relations for p in all_perms(arity)]
        stable += len(reduced_spans(relations)[0]) == len(reduced_spans(closure)[0])
        for op in ops:
            got = assert_same_consequences(relations, op)
            assert len(got) == (arity + 1) * (arity + 2) * len(reduced_spans(closure)[0])
    assert stable < 6


def test_consequence_generators_edge_cases():
    assert consequence_generators([], "m") == []
    assert consequence_generators([zero_identity(3)], "m") == []
    with pytest.raises(ValueError):
        consequence_generators([associator(), monomial(("m", LEAF, LEAF), (1, 2))], "m")


# ---------------------------------------------------------------------------
# Trusted results and printing.
# ---------------------------------------------------------------------------

def assert_trusted(e: MultilinearIdentity):
    """No zero and only `Fraction` coefficients, and the validating
    constructor (which checks every monomial) rebuilds the same identity."""
    assert all(type(q) is Fraction and q != 0 for q in e.coeffs.values())
    assert MultilinearIdentity(e.arity, dict(e.coeffs)) == e


def reference_apply_perm(e, s):
    acc = {}
    for (shape, labels), q in e.coeffs.items():
        key = (shape, tuple(s(l) for l in labels))
        acc[key] = acc.get(key, 0) + q
    return MultilinearIdentity(e.arity, acc)


def reference_sum(terms, arity):
    acc = {}
    for q, e in terms:
        for k, c in e.coeffs.items():
            acc[k] = acc.get(k, 0) + q * c
    return MultilinearIdentity(arity, acc)


def test_trusted_results_match_validating_constructor(rng):
    es = identities_under_test(rng)
    f = monomial(("f", LEAF, LEAF), (2, 1), Fraction(-1, 2))
    es += [graft(wa_expression(), 2, f), graft(f, 1, associator())]
    before = [copy.deepcopy(e.coeffs) for e in es]
    node = monomial(("m", LEAF, LEAF), (2, 1), 3)
    for e in es:
        perms = all_perms(e.arity) if e.arity > 1 else ()
        cases = [
            (e.scale(Fraction(-2, 3)), reference_sum([(Fraction(-2, 3), e)], e.arity)),
            (e.scale(0), zero_identity(e.arity)),
            (e - e, zero_identity(e.arity)),
            (e + e.scale(-1) + e, e),
        ]
        for s in rng.sample(perms, min(3, len(perms))):
            cases.append((apply_perm(e, s), reference_apply_perm(e, s)))
            cases.append((e - apply_perm(e, s), reference_sum([(1, e), (-1, reference_apply_perm(e, s))], e.arity)))
        if e.arity == 3:
            v = random_group_element(3, rng, 3)
            expected = reference_sum([(q, reference_apply_perm(e, p)) for p, q in v.coeffs.items()], 3)
            cases.append((apply_group_vector(e, v), expected))
        for got, expected in cases:
            assert_trusted(got)
            assert got == expected
        # grafting one monomial is injective on monomials
        grafts = [graft(e, var, node) for var in range(1, e.arity + 1)] + [graft(node, 2, e)]
        for got in grafts:
            assert_trusted(got)
            assert got.term_count() == e.term_count()
    assert [e.coeffs for e in es] == before


def reference_str(e: MultilinearIdentity) -> str:
    """The printer that `__str__` replaced: terms sorted by their position
    in `monomial_order`, other trees last."""
    if not e.coeffs:
        return "0"
    index = {key: i for i, key in enumerate(monomial_order(e.arity))}
    parts = []
    for key in sorted(e.coeffs, key=lambda k: index.get(k, len(index))):
        q = e.coeffs[key]
        mag = abs(q)
        mono = shape_str(*key)
        parts.append(("-" if q < 0 else "+", mono if mag == 1 else f"{mag}*{mono}"))
    out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
    return out + "".join(f" {sign} {term}" for sign, term in parts[1:])


def test_printing_matches_reference_at_arity_3_and_4(rng):
    f = monomial(("f", LEAF, LEAF), (1, 2))
    mixed = graft(wa_expression(), 3, f) + monomial(shapes(4)[2], (4, 3, 2, 1), 2)
    es = identities_under_test(rng) + consequence_generators(wa_expression(), "f")[:20]
    two = monomial(("f", LEAF, LEAF), (2, 1)) - monomial(("m", LEAF, LEAF), (2, 1))
    es += [mixed, apply_perm(mixed, all_perms(4)[7]), two + monomial(("m", LEAF, LEAF), (1, 2), 3)]
    for e in es:
        assert str(e) == reference_str(e)


def test_printing_arity_5_and_7():
    assert str(monomial(shapes(5)[0], range(1, 6))) == "(((x1x2)x3)x4)x5"
    e = (
        monomial(shapes(5)[1], (1, 2, 3, 4, 5))
        - monomial(shapes(5)[0], (2, 1, 3, 4, 5), Fraction(1, 2))
        + monomial(shapes(5)[0], (1, 2, 3, 5, 4))
    )
    assert str(e) == "(((x1x2)x3)x5)x4 - 1/2*(((x2x1)x3)x4)x5 + ((x1(x2x3))x4)x5"
    seven = monomial(shapes(7)[-1], (7, 6, 5, 4, 3, 2, 1), -1)
    assert str(seven) == "-x7(x6(x5(x4(x3(x2x1)))))"
    f = monomial(("f", LEAF, LEAF), (1, 2))
    assert str(graft(seven, 7, f) + monomial(shapes(8)[0], range(1, 9))) == (
        "((((((x1x2)x3)x4)x5)x6)x7)x8 - f(x7,x8)(x6(x5(x4(x3(x2x1)))))"
    )
