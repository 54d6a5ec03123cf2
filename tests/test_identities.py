from fractions import Fraction

import pytest

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
from wassoc.linalg import dense_row
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


def test_coordinates_deterministic():
    wa = wa_expression()
    coords = wa.coordinates()
    assert len(coords) == 12
    assert wa.coordinates() == coords
    basis = wa.monomial_basis()
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
        coords = e.coordinates()
        row = e.sparse_row()
        assert len(coords) == len(monomial_order(e.arity)) == len(e.monomial_basis())
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
    basis = associator().monomial_basis()
    basis.clear()
    assert associator().monomial_basis() == list(monomial_order(3))
