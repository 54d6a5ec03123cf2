import itertools
from fractions import Fraction

import pytest
from test_identities import coordinates
from test_linalg import densify

from wassoc import operads
from wassoc.identities import (
    LEFT_COMB3,
    RIGHT_COMB3,
    apply_perm,
    associator,
    flexibility_expression,
    leibniz_expression,
    lie_admissible_expression,
    monomial,
    monomial_order,
    wa_expression,
)
from wassoc.linalg import Matrix, dense_row, in_span, kernel_basis, rank, rref
from wassoc.operads import (
    RelationSpace,
    annihilator,
    associativity_relation_space,
    consequences,
    dual_pairing,
    free_dim,
    full_free_space,
    generating_function,
    koszul_composition_check,
    pairing_gram_matrix,
    r3_syzygies,
    r3_terms,
    reduced_placement_matrix,
    relation_closure,
    span_of,
    wa_relation_space,
    wass_dual_arity4,
    wass_dual_arity4_dim,
    dual_arity4_generators,
)
from wassoc.symgroup import all_perms, dual3_relation_vector, dual4_word_vectors, orbit, sigma_basis


def reference_span_of(vectors, arity: int) -> RelationSpace:
    """The dense route that `span_of` replaced: dense `Fraction`
    coordinates, one `Matrix`, then its RREF rows."""
    coords = [coordinates(v) for v in vectors]
    if not coords:
        return RelationSpace(arity, [])
    rk, red = rref(Matrix.from_rows(coords))
    return RelationSpace(arity, [{j: x for j, x in enumerate(red.row(i)) if x} for i in range(rk)])


def word_vector(terms, letters: int) -> tuple:
    """The dense word vector over `all_perms(letters)` that word rows
    replaced: the reference they are compared with."""
    index = {p.images: i for i, p in enumerate(all_perms(letters))}
    out = [Fraction(0)] * len(index)
    for w, c in terms.items():
        out[index[w]] += c
    return tuple(out)


def word_vector_from_group(v) -> tuple:
    """Group-algebra element -> dense word vector via
    sigma -> x_{sigma(1)}..x_{sigma(n)}."""
    return word_vector({p.images: q for p, q in v.coeffs.items()}, v.n)


def reference_dual_arity4_generators() -> list[tuple]:
    """Every placement of R3 among four letters as a dense word vector, in
    the order of `dual_arity4_generators`."""
    gens = []
    for a, b, c, d in itertools.permutations((1, 2, 3, 4)):
        gens += [r3_terms((a, b), (c,), (d,)), r3_terms((a,), (b, c), (d,)), r3_terms((a,), (b,), (c, d))]
    for a, b, c, d in itertools.permutations((1, 2, 3, 4)):
        outer = r3_terms((b,), (c,), (d,))
        gens += [{(a,) + w: q for w, q in outer.items()}, {w + (a,): q for w, q in outer.items()}]
    return [word_vector(g, 4) for g in gens]


def test_word_rows_match_dense_reference():
    """Dual-4 generators and the orbits of both displayed quartic relations:
    each sparse row is the dense word vector it replaced (for n = 4 the lex
    word order is the `sigma_basis(4)` order, so a group-algebra element's
    `sparse_row` is its word row)."""
    assert [dense_row(row, 24) for row in dual_arity4_generators()] == reference_dual_arity4_generators()
    for w in dual4_word_vectors():
        for u in orbit(w):
            assert dense_row(u.sparse_row(), 24) == word_vector_from_group(u)


def basis(space: RelationSpace) -> list:
    """The RREF rows of a relation space as dense `Fraction` vectors."""
    return [dense_row(row, free_dim(space.arity)) for row in space.rows]


EXPRESSIONS = [
    wa_expression,
    associator,
    flexibility_expression,
    lie_admissible_expression,
    leibniz_expression,
]


@pytest.mark.parametrize("expression", EXPRESSIONS, ids=lambda f: f.__name__)
def test_relation_closure_matches_dense_reference(expression):
    relabeled = [apply_perm(expression(), p) for p in sigma_basis(3)]
    expected = reference_span_of(relabeled, 3)
    assert expected.dim > 0
    assert relation_closure(expression()) == expected
    assert span_of(relabeled, 3) == expected


@pytest.mark.parametrize(
    "space, dim",
    [(wa_relation_space, 72), (associativity_relation_space, 96)],
    ids=["wa", "associativity"],
)
def test_consequences_match_dense_reference(space, dim, monkeypatch):
    r = space()
    with monkeypatch.context() as patched:
        patched.setattr(operads, "span_of", reference_span_of)
        expected = consequences(r)
    cons = consequences(r)
    assert cons.dim == expected.dim == dim
    assert cons == expected
    assert all(type(x) is Fraction for row in basis(cons) for x in row)


def test_span_of_edge_cases():
    assert span_of([], 4) == RelationSpace(4, [])
    assert span_of([associator(), associator().scale(-2)], 3) == reference_span_of(
        [associator()], 3
    )
    with pytest.raises(ValueError):
        span_of([associator()], 4)
    assert full_free_space(4).dim == 120


def test_free_dims():
    assert free_dim(3) == 12
    assert free_dim(4) == 120


def test_wa_relation_space_dims():
    r = wa_relation_space()
    assert r.dim == 4
    assert r.quotient_dim() == 8
    assert r.contains(wa_expression())
    assert r.contains(apply_perm(wa_expression(), all_perms(3)[4]))
    assert not r.contains(associator())


def test_pairing_values():
    left = monomial(LEFT_COMB3, (1, 2, 3))
    right = monomial(RIGHT_COMB3, (1, 2, 3))
    assert dual_pairing(left, left) == 1
    assert dual_pairing(left, right) == 0
    assert dual_pairing(right, right) == -1
    # left combs pair by the sign of the relabeling
    other = monomial(LEFT_COMB3, (2, 1, 3))
    assert dual_pairing(other, other) == -1
    assert dual_pairing(left, other) == 0


def test_pairing_nondegenerate_and_symmetric():
    g = densify(pairing_gram_matrix(), 12)
    assert rank(g) == 12
    assert g == g.transpose()


def test_annihilator_of_wa_relation():
    r = wa_relation_space()
    rp = annihilator(r)
    assert rp.dim == 8
    assert 12 - rp.dim == 4  # the dual arity-3 dimension
    assert rp.contains(associator())
    second = (
        monomial(LEFT_COMB3, (1, 2, 3))
        + monomial(LEFT_COMB3, (3, 2, 1))
        - monomial(LEFT_COMB3, (1, 3, 2))
        - monomial(LEFT_COMB3, (2, 3, 1))
    )
    assert rp.contains(second)


def test_double_annihilator_restores():
    for space in (wa_relation_space(), associativity_relation_space()):
        back = annihilator(annihilator(space))
        assert back.dim == space.dim
        assert all(in_span(b, basis(space)) for b in basis(back))


def test_duality_dimension_split():
    r = wa_relation_space()
    rp = annihilator(r)
    assert r.dim + rp.dim == 12
    # mutual annihilation: every pairing between the two spaces vanishes
    from wassoc.identities import MultilinearIdentity

    basis3 = list(monomial_order(3))

    def to_identity(vec):
        return MultilinearIdentity(
            3, {key: q for key, q in zip(basis3, vec) if q != 0}
        )

    for a in basis(r):
        for b in basis(rp):
            assert dual_pairing(to_identity(a), to_identity(b)) == 0


def test_consequences_oracle_associativity():
    cons = consequences(associativity_relation_space())
    assert cons.dim == 96
    assert 120 - cons.dim == 24


def test_consequences_of_full_space_is_everything():
    cons = consequences(full_free_space(3))
    assert cons.dim == 120


def test_wa_arity4_dimension():
    cons = consequences(wa_relation_space())
    assert cons.dim == 72
    assert 120 - cons.dim == 48


def test_dual_arity4_computation():
    d4 = wass_dual_arity4()
    # published: rank 18 and kernel 6; the exact computation over all
    # placements gives rank 16 and kernel 8, confirmed by the independent
    # tree-space route below and by the orbit span of the published relations
    assert d4.rank == 16
    assert d4.dim == 8
    assert wass_dual_arity4_dim() == 8
    for v in d4.kernel:
        assert all(x == 0 for x in densify(dual_arity4_generators(), 24).apply(dense_row(v, 24)))


def test_dual_arity4_tree_space_agreement():
    rp = annihilator(wa_relation_space())
    cons = consequences(rp)
    assert 120 - cons.dim == wass_dual_arity4_dim()


def test_reduced_placement_square_matrix():
    rows = reduced_placement_matrix()
    assert all(0 <= j < 24 for row in rows for j in row)
    m = densify(rows, 24)
    assert m.rows == 24 and m.cols == 24
    assert rank(m) == 16
    assert len(kernel_basis(m)) == 8


def test_displayed_quartic_relations_lie_in_relation_space():
    d4 = wass_dual_arity4()
    rows = [dense_row(row, 24) for row in d4.rows]
    w1, w2 = dual4_word_vectors()
    assert in_span(word_vector_from_group(w1), rows)
    assert in_span(word_vector_from_group(w2), rows)


def test_displayed_quartic_relations_span_the_full_relation_space():
    from wassoc.symgroup import GroupAlgebraElement, compose

    w1, w2 = dual4_word_vectors()
    rows = []
    for s in all_perms(4):
        for w in (w1, w2):
            rows.append(
                word_vector_from_group(
                    GroupAlgebraElement(
                        4, {compose(s, p): q for p, q in w.coeffs.items()}
                    )
                )
            )
    assert rank(Matrix.from_rows(rows)) == 16


def test_dual3_relation_matches_word_form():
    # abc + cba - acb - bca as words equals the stated degree-3 dual vector
    v = dual3_relation_vector()
    vec = word_vector_from_group(v)
    terms = r3_terms((1,), (2,), (3,))
    assert vec == word_vector(terms, 3)


def test_r3_syzygies():
    syz = r3_syzygies()
    expected = {
        "R3(a,b,c) + R3(a,c,b) = 0": True,
        "R3(a,b,c) + R3(c,a,b) - R3(b,a,c) = 0": True,
        # the third printed consequence does not vanish identically
        "R3(a,bc,d) + R3(a,db,c) - R3(a,cd,b) = 0": False,
        "R3(a,b,c)d - R3(d,bc,a) + R3(d,cb,a) - dR3(a,b,c) = 0": True,
        "eight-term middle-placement relation = 0": True,
    }
    assert syz == expected


def test_generating_functions():
    f = generating_function([1, 2, 4, 6], 4)
    assert f == [Fraction(-1), Fraction(1), Fraction(-2, 3), Fraction(1, 4)]
    g = generating_function([1, 2, 8], 3)
    assert g == [Fraction(-1), Fraction(1), Fraction(-4, 3)]


def test_koszul_composition_associative_self_dual():
    f = generating_function([1, 2, 6, 24], 4)
    resid = koszul_composition_check(f, f, 4)
    assert all(q == 0 for q in resid)


def test_koszul_composition_computed_dimensions():
    # the exact dimensions (8 at arity 3 / 48 at arity 4 for the operad,
    # 4 / 8 for the dual) compose to zero through order 4; the published
    # dual dimension 6 would not
    f_op = generating_function([1, 2, 8, 48], 4)
    f_dual = generating_function([1, 2, 4, 8], 4)
    assert all(q == 0 for q in koszul_composition_check(f_op, f_dual, 4))
    f_bad = generating_function([1, 2, 4, 6], 4)
    assert any(q != 0 for q in koszul_composition_check(f_op, f_bad, 4))


def test_wa_relation_vector_is_wa_expression_up_to_sign():
    r = wa_relation_space()
    assert r.contains(wa_expression())
    assert r.contains(wa_expression().scale(-1))
