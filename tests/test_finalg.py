import json
from fractions import Fraction

import pytest

from wassoc.corpus import (
    abelian,
    flexible_non_wa,
    nonabelian_lie2,
    plane_quotient,
    random_fraction_multimap,
    random_multimap,
    sl2,
    truncated_polynomials,
    two_dim_family,
)
from wassoc.finalg import (
    AlgebraFormatError,
    FinAlg,
    MultiMap,
    _exact,
    _parse_rational,
    algebra_from_json,
    algebra_to_json,
    compose,
    depolarize,
    evaluate,
    inner_derivation_candidate,
    is_associative,
    is_commutative,
    is_derivation,
    is_flexible,
    is_jordan,
    is_lie_admissible,
    is_nonassociative_poisson,
    is_weakly_associative,
    jordan_identity_defect,
    leibniz_defect_pair,
    linear_combination,
    multimap_from_json,
    multimap_to_json,
    polarize,
    satisfies_jacobi,
    satisfies_jordan_identity,
)
from wassoc.identities import associator, wa_expression
from wassoc.linalg import Matrix


# Reference contraction: the accumulation `compose` and `linear_combination`
# used before they built each output row in one place.  Every term goes
# through `_reference_add_scaled`, and the result through the validating
# constructor.

def _reference_add_scaled(acc: dict, key: tuple, c, row: dict):
    out = acc.get(key)
    if out is None:
        acc[key] = {k: c * x for k, x in row.items()}
        return
    for k, x in row.items():
        out[k] = out.get(k, 0) + c * x


def reference_linear_combination(arity: int, dim: int, terms) -> MultiMap:
    acc: dict = {}
    for q, m in terms:
        if q:
            for idx, row in m.coeffs.items():
                _reference_add_scaled(acc, idx, q, row)
    return MultiMap(arity, dim, acc)


def reference_compose(outer: MultiMap, slot: int, inner: MultiMap) -> MultiMap:
    by_coord: dict = {}
    for idx, row in outer.coeffs.items():
        by_coord.setdefault(idx[slot], []).append((idx[:slot], idx[slot + 1 :], row))
    acc: dict = {}
    for jdx, inner_row in inner.coeffs.items():
        for a, c in inner_row.items():
            for pre, post, row in by_coord.get(a, ()):
                _reference_add_scaled(acc, pre + jdx + post, c, row)
    return MultiMap(outer.arity + inner.arity - 1, outer.dim, acc)


def assert_normalized(m: MultiMap):
    """The stored form: no empty row, no zero coefficient, integral values
    as ints."""
    for row in m.coeffs.values():
        assert row
        for x in row.values():
            assert x != 0
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


def test_two_dim_family_wa_and_associativity():
    alg = two_dim_family(6)
    assert is_weakly_associative(alg)
    assert not is_associative(alg)
    assert is_flexible(alg)
    assert is_lie_admissible(alg)
    assert is_associative(two_dim_family(2))
    assert is_associative(two_dim_family(-2))
    assert not is_associative(two_dim_family(0))


def test_two_dim_family_associator_value():
    # A(e1, e1, e2) = -((a^2 - 4) / 16) e2 with the convention
    # A(x, y, z) = x(yz) - (xy)z
    for a in (6, 0, 3):
        alg = two_dim_family(a)
        defect = evaluate(alg, associator())
        expected = -Fraction(a * a - 4, 16)
        assert defect(0, 0, 1) == (0, expected)
        assert defect(1, 0, 0) == (0, -expected)


def test_a6_example_matches_printed_products():
    alg = two_dim_family(6)
    assert alg.product(0, 0) == (3, 0)
    assert alg.product(0, 1) == (0, 2)
    assert alg.product(1, 0) == (0, 1)
    assert alg.product(1, 1) == (0, 0)


def test_commutative_algebras_are_wa():
    for alg in (abelian(3), truncated_polynomials(4), plane_quotient().algebra()):
        assert is_commutative(alg)
        assert evaluate(alg, wa_expression()).is_zero()


def test_lie_algebras_are_wa():
    for alg in (sl2(), nonabelian_lie2()):
        assert satisfies_jacobi(alg)
        assert is_weakly_associative(alg)


def test_zero_algebra_satisfies_everything():
    z = abelian(2)
    assert is_weakly_associative(z) and is_associative(z)
    assert is_flexible(z) and is_lie_admissible(z) and is_jordan(z)


def test_evaluate_is_linear_in_the_identity(rng):
    alg = two_dim_family(6)
    e1, e2 = associator(), wa_expression()
    q = Fraction(rng.randint(-5, 5), rng.randint(1, 5))
    lhs = evaluate(alg, e1 + e2.scale(q))
    rhs = evaluate(alg, e1) + evaluate(alg, e2).scale(q)
    assert lhs == rhs


def test_polarize_trivial_cases():
    comm = truncated_polynomials(3)
    bullet, bracket = polarize(comm)
    assert bullet == comm.scale(2)
    assert all(
        all(x == 0 for x in bracket.product(i, j)) for i in range(3) for j in range(3)
    )
    lie = sl2()
    bullet, bracket = polarize(lie)
    assert bracket == lie.scale(2)
    assert all(
        all(x == 0 for x in bullet.product(i, j)) for i in range(3) for j in range(3)
    )


def test_polarize_depolarize_roundtrip_doubles():
    alg = two_dim_family(6)
    bullet, bracket = polarize(alg)
    back = depolarize(bullet, bracket)
    assert back == alg.scale(2)
    b2, k2 = polarize(depolarize(bullet, bracket))
    assert b2 == bullet.scale(2)
    assert k2 == bracket.scale(2)


def test_depolarize_preconditions():
    noncomm = two_dim_family(6)
    with pytest.raises(ValueError, match="commutative"):
        depolarize(noncomm, abelian(2))
    with pytest.raises(ValueError, match="anticommutative"):
        depolarize(abelian(3), truncated_polynomials(3))


def test_depolarize_lie_bracket_gives_lie_algebra():
    lie = sl2()
    assert depolarize(abelian(3), lie) == lie


def test_nonassociative_poisson_examples():
    alg = two_dim_family(6)
    bullet, bracket = polarize(alg)
    assert is_nonassociative_poisson(bullet, bracket)
    assert is_nonassociative_poisson(truncated_polynomials(3), abelian(3))
    # uniform rescaling preserves Leibniz (it is linear in the bracket), so
    # the breaking perturbation must change the bracket's direction
    scaled = FinAlg.from_products(2, {(1, 2): {2: 2}, (2, 1): {2: -2}})
    assert is_nonassociative_poisson(bullet, scaled)
    tilted = FinAlg.from_products(2, {(1, 2): {1: 1, 2: 1}, (2, 1): {1: -1, 2: -1}})
    assert not is_nonassociative_poisson(bullet, tilted)
    witness = leibniz_defect_pair(bullet, tilted).first_nonzero()
    assert witness is not None and witness[0] == (0, 0, 1)


def test_derivation_predicate():
    alg = two_dim_family(6)
    for i in range(2):
        assert is_derivation(alg, inner_derivation_candidate(alg, i))
    assert is_derivation(alg, Matrix.zero(2, 2))
    bad = FinAlg.from_products(2, {(1, 1): {2: 1}, (1, 2): {1: 1}})
    assert not is_weakly_associative(bad)
    failing = [
        i for i in range(2) if not is_derivation(bad, inner_derivation_candidate(bad, i))
    ]
    assert failing


def test_derivation_iff_wa_across_corpus(wa_members, non_wa_members):
    for _, alg in wa_members:
        for i in range(alg.dim):
            assert is_derivation(alg, inner_derivation_candidate(alg, i))
    for _, alg in non_wa_members:
        assert any(
            not is_derivation(alg, inner_derivation_candidate(alg, i))
            for i in range(alg.dim)
        )


def test_wa_implies_lie_admissible_and_flexible(wa_members):
    for _, alg in wa_members:
        assert is_lie_admissible(alg)
        assert is_flexible(alg)


def test_flexible_does_not_imply_wa():
    alg = flexible_non_wa()
    assert is_flexible(alg)
    assert not is_weakly_associative(alg)


def test_jordan_examples():
    assert is_jordan(truncated_polynomials(4))
    # symmetrized 2x2 matrices
    prods = {}
    idx = {"11": 1, "12": 2, "21": 3, "22": 4}
    for i in "12":
        for j in "12":
            for k in "12":
                for l in "12":
                    if j == k:
                        prods.setdefault((idx[i + j], idx[k + l]), {})[idx[i + l]] = 1
    mat2 = FinAlg.from_products(4, prods)
    bullet, _ = polarize(mat2)
    assert is_jordan(bullet)
    assert not is_jordan(two_dim_family(6))  # not commutative


def test_jordan_biconditional_across_corpus(wa_members):
    seen = set()
    for _, alg in wa_members:
        bullet, _ = polarize(alg)
        lhs = is_jordan(bullet)
        rhs = satisfies_jordan_identity(alg)
        assert lhs == rhs
        seen.add(lhs)
    assert seen == {True, False}


def test_jordan_defect_witness_on_free_algebra():
    from wassoc.freewa import as_truncated_algebra, build

    free4 = as_truncated_algebra(build(4)).algebra
    assert is_commutative(free4)
    defect = jordan_identity_defect(free4)
    assert not defect.is_zero()


# ---------------------------------------------------------------------------
# JSON interchange.
# ---------------------------------------------------------------------------

def test_algebra_json_roundtrip():
    alg = two_dim_family(6)
    doc = algebra_to_json(alg)
    back = algebra_from_json(json.dumps(doc))
    assert back == alg


def test_algebra_json_example_format():
    doc = {"dim": 2, "products": [{"i": 1, "j": 2, "out": [{"k": 2, "c": "3/1"}]}]}
    alg = algebra_from_json(doc)
    assert alg.product(0, 1) == (0, 3)
    assert alg.product(1, 0) == (0, 0)


def test_algebra_json_rejects_bad_indices():
    with pytest.raises(AlgebraFormatError):
        algebra_from_json({"dim": 2, "products": [{"i": 3, "j": 1, "out": []}]})
    with pytest.raises(AlgebraFormatError):
        algebra_from_json(
            {"dim": 2, "products": [{"i": 1, "j": 1, "out": [{"k": 5, "c": "1/1"}]}]}
        )


def test_algebra_json_rejects_malformed_rationals():
    with pytest.raises(AlgebraFormatError):
        algebra_from_json(
            {"dim": 1, "products": [{"i": 1, "j": 1, "out": [{"k": 1, "c": "x/y"}]}]}
        )
    with pytest.raises(AlgebraFormatError):
        algebra_from_json(
            {"dim": 1, "products": [{"i": 1, "j": 1, "out": [{"k": 1, "c": "1/0"}]}]}
        )
    with pytest.raises(AlgebraFormatError):
        algebra_from_json("{not json")


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": True},
        {"dim": 2, "products": [{"i": True, "j": 1, "out": []}]},
        {"dim": 1, "products": [{"i": 1, "j": 1, "out": [{"k": True, "c": "1/1"}]}]},
        {"dim": 1, "products": [{"i": 1, "j": 1, "out": [{"k": 1, "c": True}]}]},
    ],
    ids=["dim", "index", "output-index", "coefficient"],
)
def test_algebra_json_rejects_booleans(doc):
    with pytest.raises(AlgebraFormatError):
        algebra_from_json(json.dumps(doc))


def test_multimap_json_roundtrip(rng):
    m = random_multimap(2, 3, rng)
    doc = multimap_to_json(m)
    back = multimap_from_json(doc, 3, arity=2)
    assert back == m


def test_multimap_permute_inputs():
    m = MultiMap.from_function(2, 2, lambda i, j: (i, j))
    t = m.permute_inputs((2, 1))
    assert t(0, 1) == m(1, 0)
    sk = m.skew_part()
    assert sk.is_skew()
    sym = m.sym_part()
    assert sym.is_symmetric()


@pytest.mark.parametrize(
    "values, error",
    [
        ({(0, 2): (1, 0)}, ValueError),  # index out of range
        ({(-1, 0): (1, 0)}, ValueError),
        ({(0,): (1, 0)}, ValueError),  # wrong arity
        ({(0, 0, 0): (1, 0)}, ValueError),
        ({0: (1, 0)}, ValueError),  # not a tuple
        ({(True, 0): (1, 0)}, ValueError),
        ({(0, 0): (1,)}, ValueError),  # output vector too short
        ({(0, 0): (1, 0, 0)}, ValueError),  # too long
        ({(0, 0): {2: 1}}, ValueError),  # output coordinate out of range
        ({(0, 0): (0.5, 0)}, TypeError),
        ({(0, 0): (True, 0)}, TypeError),
        ({(0, 0): {1: 1.0}}, TypeError),
        ({(0, 0): ("1/2", 0)}, TypeError),
    ],
    ids=[
        "index-high", "index-negative", "arity-short", "arity-long", "key-not-tuple",
        "key-bool", "vector-short", "vector-long", "coordinate-high", "float",
        "bool", "float-in-dict", "string",
    ],
)
def test_multimap_constructor_rejects_bad_input(values, error):
    with pytest.raises(error):
        MultiMap(2, 2, values)


@pytest.mark.parametrize("entry", [0.1, True, "1"], ids=["float", "bool", "string"])
def test_finalg_constructor_rejects_inexact_entries(entry):
    with pytest.raises(TypeError):
        FinAlg(1, [[[entry]]])
    with pytest.raises(TypeError):
        FinAlg(2, [[[1, 0], [0, 0]], [[0, 0], [0, entry]]])


def test_finalg_constructor_accepts_int_and_fraction():
    alg = FinAlg(2, [[[1, 0], [0, Fraction(1, 2)]], [[0, Fraction(-3)], [0, 0]]])
    assert alg.product(0, 1) == (0, Fraction(1, 2))
    assert alg.product(1, 0) == (0, -3)
    assert FinAlg(0, []).dim == 0


def test_multimap_storage_is_sparse_and_integral():
    m = MultiMap(2, 3, {(0, 1): (Fraction(4, 2), 0, Fraction(1, 3)), (1, 1): (0, 0, 0)})
    assert m.coeffs == {(0, 1): {0: 2, 2: Fraction(1, 3)}}
    assert type(m.coeffs[(0, 1)][0]) is int
    assert m(0, 1) == (2, 0, Fraction(1, 3))
    assert m(2, 2) == (0, 0, 0)
    assert MultiMap(2, 3, {(0, 1): {0: 2, 2: Fraction(1, 3)}}) == m
    assert m.scale(Fraction(3)).coeffs == {(0, 1): {0: 6, 2: 1}}
    assert (m - m).coeffs == {} and (m - m).is_zero()
    with pytest.raises(TypeError):
        m.scale(0.5)


def test_compose_matches_slot_substitution(rng):
    dim = 3
    for outer_arity, inner_arity in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 2), (2, 3)):
        f = random_fraction_multimap(outer_arity, dim, rng)
        g = random_fraction_multimap(inner_arity, dim, rng)
        for slot in range(outer_arity):

            def substituted(*idx):
                inner = g(*idx[slot : slot + inner_arity])
                out = [0] * dim
                for a, c in enumerate(inner):
                    pre, post = idx[:slot], idx[slot + inner_arity :]
                    for t, x in enumerate(f(*pre, a, *post)):
                        out[t] += c * x
                return tuple(out)

            expected = MultiMap.from_function(outer_arity + inner_arity - 1, dim, substituted)
            assert compose(f, slot, g) == expected
    with pytest.raises(ValueError):
        compose(f, 2, g)
    with pytest.raises(ValueError):
        compose(f, 0, MultiMap.zero(1, dim + 1))


def test_json_rationals_keep_integers_as_int():
    doc = {"dim": 2, "products": [{"i": 1, "j": 2, "out": [{"k": 1, "c": "4/2"}, {"k": 2, "c": "1/2"}]}]}
    alg = algebra_from_json(doc)
    assert alg.c[0][1] == (2, Fraction(1, 2))
    assert [type(x) for x in alg.c[0][1]] == [int, Fraction]
    assert type(alg.c[1][1][0]) is int
    m = multimap_from_json([[["3/1", "0/5"], ["-1/3", "2"]], [["0/1", "0/1"], ["6/4", "1/1"]]], 2)
    assert m.coeffs == {(0, 0): {0: 3}, (0, 1): {0: Fraction(-1, 3), 1: 2}, (1, 1): {0: Fraction(3, 2), 1: 1}}


def _cancelling_outer(arity: int, slot: int, dim: int, rng) -> MultiMap:
    """A map whose rows at coordinate 1 of `slot` are half those at
    coordinate 0, so an inner value (.., 1, -2, ..) cancels them exactly."""
    raw = random_fraction_multimap(arity, dim, rng)

    def value(*idx):
        if idx[slot] != 1:
            return raw(*idx)
        base = raw(*idx[:slot], 0, *idx[slot + 1 :])
        return tuple(x * Fraction(1, 2) for x in base)

    return MultiMap.from_function(arity, dim, value)


def test_contraction_matches_reference(rng):
    dim = 3
    for outer_arity in (1, 2, 3):
        for inner_arity in (1, 2, 3):
            g = random_fraction_multimap(inner_arity, dim, rng)
            g_cancel = MultiMap.from_function(
                inner_arity, dim, lambda *idx: (Fraction(1, 3), Fraction(-2, 3), idx[0] % 2)
            )
            for slot in range(outer_arity):
                f = random_fraction_multimap(outer_arity, dim, rng)
                f_cancel = _cancelling_outer(outer_arity, slot, dim, rng)
                for outer, inner in ((f, g), (f_cancel, g_cancel), (f_cancel, g)):
                    got = compose(outer, slot, inner)
                    assert got.coeffs == reference_compose(outer, slot, inner).coeffs
                    assert_normalized(got)
                q = Fraction(rng.randint(-4, 4) or 1, rng.randint(1, 5))
                h = random_fraction_multimap(outer_arity, dim, rng)
                for terms in (
                    [(1, f), (-1, f)],
                    [(q, f), (1, h), (-q, f)],
                    [(Fraction(1, 2), f), (Fraction(1, 2), f), (-1, h), (3, f_cancel)],
                    [(Fraction(4, 2), h), (0, f)],
                    [],
                ):
                    got = linear_combination(outer_arity, dim, terms)
                    want = reference_linear_combination(outer_arity, dim, terms)
                    assert got.coeffs == want.coeffs
                    assert_normalized(got)
                assert linear_combination(outer_arity, dim, [(1, f), (-1, f)]).is_zero()


@pytest.mark.parametrize("q", [0.0, False, True, 0.5, "1"], ids=["zero-float", "false", "true", "float", "string"])
def test_scale_rejects_inexact_scalars(q):
    m = MultiMap(2, 2, {(0, 1): (1, Fraction(1, 2))})
    with pytest.raises(TypeError):
        m.scale(q)
    with pytest.raises(TypeError):
        linear_combination(2, 2, [(1, m), (q, m)])
    with pytest.raises(TypeError):
        two_dim_family(6).scale(q)
    assert m.scale(0).is_zero()
    assert two_dim_family(6).scale(Fraction(2)) == two_dim_family(6).add(two_dim_family(6))


def _outcome(parse, s):
    try:
        x = parse(s)
    except (ValueError, ZeroDivisionError):
        return "rejected"
    return type(x), x


@pytest.mark.parametrize(
    "s",
    ["0", "-0", "00", "+3", " 3", "1_000", "\u0663", "3/1", "1e2", "1.5", "- 3", "", "-", "--1",
     "12", "-7", "4/6"],
)
def test_parse_rational_integer_fast_path_matches_fraction(s):
    """The plain-integer shortcut accepts and returns exactly what the
    Fraction path does on the running interpreter."""
    assert _outcome(_parse_rational, s) == _outcome(lambda t: _exact(Fraction(t)), s)
