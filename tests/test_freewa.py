import pytest

from wassoc.finalg import is_commutative, is_weakly_associative
from wassoc.freewa import (
    GEN,
    UNIT,
    DegreeOverflowError,
    as_truncated_algebra,
    build,
    dimension_sequence,
    enumerate_unordered_trees,
    multiply,
)
from wassoc.linalg import dense_row


def test_dimensions_through_degree_5():
    assert dimension_sequence(5) == [1, 1, 1, 1, 2, 3]
    basis = build(5)
    assert basis.dims() == [1, 1, 1, 1, 2, 3]


def test_derived_dimensions_6_and_7():
    dims = dimension_sequence(7)
    assert dims[6] == 6  # d1 d5 + d2 d4 + d3 (d3 + 1) / 2 = 3 + 2 + 1
    assert dims[7] == 11  # d1 d6 + d2 d5 + d3 d4 = 6 + 3 + 2


def test_recursion_matches_unordered_tree_enumeration():
    dims = dimension_sequence(8)
    for d in range(1, 9):
        assert len(enumerate_unordered_trees(d)) == dims[d]


def test_symmetric_tensor_count_agrees():
    # independent counting path: pairs of lower-degree elements
    dims = dimension_sequence(8)
    for d in range(2, 9):
        total = 0
        for p in range(1, d // 2 + 1):
            q = d - p
            if p < q:
                total += dims[p] * dims[q]
            else:
                total += dims[p] * (dims[p] + 1) // 2
        assert total == dims[d]


def test_multiplication_identifications():
    x = GEN
    x2 = multiply(x, x)
    x3 = multiply(x, x2)
    assert multiply(x2, x) == x3
    x41 = multiply(x3, x)
    x42 = multiply(x2, x2)
    assert multiply(x, x3) == x41
    assert x41 != x42
    # degree-5 products: three distinct elements as printed
    x51 = multiply(x3, x2)
    x52 = multiply(x41, x)
    x53 = multiply(x42, x)
    assert multiply(x2, x3) == x51
    assert multiply(x, x41) == x52
    assert multiply(x, x42) == x53
    assert len({x51, x52, x53}) == 3


def test_unit_is_two_sided():
    x = GEN
    x2 = multiply(x, x)
    assert multiply(UNIT, x2) == x2
    assert multiply(x2, UNIT) == x2
    assert multiply(UNIT, UNIT) == UNIT


def test_multiply_is_commutative_and_degree_additive(rng):
    basis = build(6)
    labels = basis.all_labels()
    for _ in range(50):
        u, v = rng.choice(labels), rng.choice(labels)
        if u.degree + v.degree > 6:
            continue
        p = multiply(u, v)
        assert p == multiply(v, u)
        assert p.degree == u.degree + v.degree


def test_degree_overflow_reported():
    basis = build(3)
    x3 = basis.elements[3][0]
    with pytest.raises(DegreeOverflowError):
        multiply(x3, GEN, max_degree=3)


def test_truncated_algebra_properties():
    trunc = as_truncated_algebra(build(5))
    assert trunc.algebra.dim == 1 + 1 + 1 + 1 + 2 + 3
    assert is_commutative(trunc.algebra)
    assert is_weakly_associative(trunc.algebra)
    # the unit acts as a genuine unit
    alg = trunc.algebra
    for j in range(alg.dim):
        assert alg.mu(0, j) == dense_row(alg.basis_vector(j), alg.dim)
        assert alg.mu(j, 0) == dense_row(alg.basis_vector(j), alg.dim)


def test_truncated_products_match_free_products():
    trunc = as_truncated_algebra(build(5))
    idx, labels = trunc.index, trunc.labels
    for i, u in enumerate(labels):
        for j, v in enumerate(labels):
            out = trunc.algebra.mu(i, j)
            if u.degree + v.degree <= 5:
                expected = idx[multiply(u, v)]
                assert out == tuple(
                    1 if k == expected else 0 for k in range(len(labels))
                )
            else:
                assert all(x == 0 for x in out)


def test_basis_order_deterministic():
    a = build(6).all_labels()
    b = build(6).all_labels()
    assert a == b
    assert [l.degree for l in a] == sorted(l.degree for l in a)
