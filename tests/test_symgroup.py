import itertools
from fractions import Fraction

import pytest

from wassoc.corpus import random_group_element
from wassoc.linalg import Matrix, dense_row, rank
from wassoc.symgroup import (
    C3,
    C3SQ,
    ID3,
    SIGMA3,
    T12,
    T13,
    T23,
    GroupAlgebraElement,
    Perm,
    act,
    all_perms,
    compose,
    delta3_reduction_vectors,
    dual4_word_vectors,
    cochain3_vectors,
    cochain4_vectors,
    format_perm,
    ga,
    group_product,
    identity_perm,
    in_orbit_span,
    leibniz_vector,
    lie_admissible_vector,
    orbit,
    orbit_span_dim,
    parse_perm,
    relations_equivalent,
    sigma_basis,
    wa_vector,
)


def brute_force_table():
    """Independent composition table over all 36 pairs of S3."""
    table = {}
    for a in all_perms(3):
        for b in all_perms(3):
            images = tuple(a.images[b.images[i] - 1] for i in range(3))
            table[(a, b)] = Perm(3, images)
    return table


def test_compose_against_brute_force_table():
    table = brute_force_table()
    for (a, b), expected in table.items():
        assert compose(a, b) == expected


def test_compose_examples():
    assert compose(T12, T12) == ID3
    assert compose(C3, C3) == C3SQ
    assert compose(T12, C3) in SIGMA3[1:4]  # a transposition
    assert compose(T12, C3) == T23


def test_compose_degree_mismatch():
    with pytest.raises(ValueError):
        compose(T12, identity_perm(4))


def test_all_perms_built_once_and_immutable():
    for n in (2, 3, 4):
        perms = all_perms(n)
        assert isinstance(perms, tuple) and all_perms(n) is perms
        assert [p.images for p in perms] == list(itertools.permutations(range(1, n + 1)))
    assert sigma_basis(4) is all_perms(4)
    assert sigma_basis(3) == SIGMA3 and set(SIGMA3) == set(all_perms(3))
    with pytest.raises(TypeError):
        all_perms(3)[0] = ID3
    with pytest.raises(ValueError):
        all_perms(5)


def test_perm_inverse_and_sign():
    for p in all_perms(4):
        assert compose(p, p.inverse()) == identity_perm(4)
    assert ID3.sign() == 1 and T12.sign() == -1 and C3.sign() == 1


def test_parse_and_format():
    assert parse_perm("Id", 3) == ID3
    assert parse_perm("(12)", 3) == T12
    assert parse_perm("(231)", 3) == C3  # same cycle as (123)
    assert parse_perm("(123)", 3) == C3
    assert parse_perm("c2", 3) == C3SQ
    assert parse_perm("(12)(34)", 4).images == (2, 1, 4, 3)
    assert parse_perm("(1234)", 4).images == (2, 3, 4, 1)
    assert format_perm(C3) == "c"
    assert format_perm(parse_perm("(132)", 4)) == "(132)"
    with pytest.raises(ValueError):
        parse_perm("(15)", 4)
    with pytest.raises(ValueError):
        parse_perm("nonsense", 3)


def test_act_reproduces_standard_table():
    v = wa_vector()
    expected = [
        ga(3, (1, ID3), (1, C3), (-1, T12)),
        ga(3, (1, T12), (1, T23), (-1, ID3)),
        ga(3, (1, T13), (1, T12), (-1, C3)),
        ga(3, (1, T23), (1, T13), (-1, C3SQ)),
        ga(3, (1, C3), (1, C3SQ), (-1, T13)),
        ga(3, (1, C3SQ), (1, ID3), (-1, T23)),
    ]
    assert orbit(v) == expected


def test_act_examples():
    v = wa_vector()
    assert act(v, ID3) == v
    assert act(v, T12) == ga(3, (1, T12), (1, T23), (-1, ID3))
    assert act(v, C3) == ga(3, (1, C3), (1, C3SQ), (-1, T13))


def test_act_degree_mismatch():
    with pytest.raises(ValueError):
        act(wa_vector(), identity_perm(4))


def test_act_composition_500_random_pairs(rng):
    # act translates on the left, so iterated translation composes as
    # act(act(v, a), b) = act(v, compose(b, a)).
    perms = all_perms(3)
    for _ in range(500):
        v = random_group_element(3, rng)
        a, b = rng.choice(perms), rng.choice(perms)
        assert act(act(v, a), b) == act(v, compose(b, a))


def test_orbit_trivialities():
    e = ga(3, (1, ID3))
    orb = orbit(e)
    assert len(orb) == 6
    assert len({frozenset(w.coeffs.items()) for w in orb}) == 6
    zero = GroupAlgebraElement(3, {})
    assert orbit(zero) == [zero] * 6


def test_orbit_span_dims():
    assert orbit_span_dim(wa_vector()) == 4
    assert orbit_span_dim(ga(3, (1, ID3))) == 6
    u3 = delta3_reduction_vectors()[2]
    assert orbit_span_dim(u3) == 4
    assert relations_equivalent(u3, wa_vector())


def test_orbit_span_invariant_under_translation(rng):
    for _ in range(20):
        v = random_group_element(3, rng)
        d = orbit_span_dim(v)
        for s in all_perms(3):
            assert orbit_span_dim(act(v, s)) == d


def to_vector(v: GroupAlgebraElement) -> tuple:
    """The dense `Fraction` vector over `sigma_basis(n)` that `sparse_row`
    replaced: the reference it is compared with."""
    return tuple(v.coeffs.get(p, Fraction(0)) for p in sigma_basis(v.n))


def test_sparse_row_matches_dense_reference(rng):
    named = [wa_vector(), lie_admissible_vector(), leibniz_vector(), *delta3_reduction_vectors(), *dual4_word_vectors()]
    seeded = [random_group_element(n, rng) for n in (2, 3, 4) for _ in range(3)]
    for v in named + seeded:
        for w in orbit(v):
            row = w.sparse_row()
            assert all(row.values())
            assert dense_row(row, len(sigma_basis(w.n))) == to_vector(w)


def test_first_four_translates_form_basis():
    rows = [to_vector(w) for w in orbit(wa_vector())]
    assert rank(Matrix.from_rows(rows[:4])) == 4


def test_span_memberships():
    v = wa_vector()
    u1, u2, u3, u4 = delta3_reduction_vectors()
    for u in (u1, u2, u3, u4):
        assert in_orbit_span(u, v)
    assert in_orbit_span(lie_admissible_vector(), v)
    assert in_orbit_span(leibniz_vector(), v)
    assert in_orbit_span(lie_admissible_vector() + leibniz_vector(), v)
    assert not in_orbit_span(ga(3, (1, ID3)), v)
    for u in (u1, u2, u4):
        assert in_orbit_span(u, u3)


def test_w_plus_lie_vector_is_twice_an_orbit_element():
    v = wa_vector()
    total = lie_admissible_vector() + leibniz_vector()
    assert total == act(v, C3SQ).scale(2)


def test_cochain3_vectors_annihilate_wa_vector():
    w1, w2 = cochain3_vectors()
    assert group_product(w1, wa_vector()).is_zero()
    assert group_product(w2, wa_vector()).is_zero()
    # they span the full right annihilator: the annihilator has dimension
    # 6 - dim(span of left translates) = 2
    rows = [to_vector(group_product(ga(3, (1, s)), wa_vector())) for s in SIGMA3]
    assert rank(Matrix.from_rows(rows)) == 4
    assert rank(Matrix.from_rows([to_vector(w1), to_vector(w2)])) == 2


def test_relations_equivalent_examples():
    v = wa_vector()
    assert relations_equivalent(v, ga(3, (1, T12), (-1, ID3), (1, T23)))
    alpha = Fraction(-1, 2)
    iv = ga(3, (2, ID3), (1 + alpha, T12), (1, T13), (1, C3), (1 - alpha, C3SQ))
    assert relations_equivalent(v, iv)
    assert not relations_equivalent(v, ga(3, (1, ID3)))


def test_relations_equivalent_is_equivalence(rng):
    pool = [random_group_element(3, rng, 2) for _ in range(20)]
    for v in pool:
        assert relations_equivalent(v, v)
    pairs = [(a, b) for a in pool for b in pool]
    for a, b in pairs:
        assert relations_equivalent(a, b) == relations_equivalent(b, a)
    for a in pool[:6]:
        for b in pool[:6]:
            for c in pool[:6]:
                if relations_equivalent(a, b) and relations_equivalent(b, c):
                    assert relations_equivalent(a, c)


def test_group_algebra_arithmetic():
    a = ga(3, (1, ID3), (2, C3))
    b = ga(3, (-1, ID3), (1, T12))
    assert (a + b) == ga(3, (2, C3), (1, T12))
    assert (a - a).is_zero()
    assert a.scale(Fraction(1, 2)) == ga(3, (Fraction(1, 2), ID3), (1, C3))
    assert str(ga(3, (1, ID3), (-1, T12))) == "Id - (12)"


def test_dual4_word_vectors_and_cochain4_vectors_are_inverses():
    r1, r2 = dual4_word_vectors()
    v4, v4p = cochain4_vectors()
    inv1 = GroupAlgebraElement(4, {p.inverse(): q for p, q in r1.coeffs.items()})
    inv2 = GroupAlgebraElement(4, {p.inverse(): q for p, q in r2.coeffs.items()})
    assert inv1 == v4
    assert inv2 == v4p
