import copy
import itertools
import json
import random
import tracemalloc
from fractions import Fraction

import pytest

from wassoc.corpus import (
    abelian,
    flexible_non_wa,
    nonabelian_lie2,
    plane_quotient,
    random_fraction_multimap,
    random_group_element,
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
    contract,
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
    jacobi_defect,
    jordan_identity_defect,
    leibniz_defect_pair,
    linear_combination,
    multimap_from_json,
    multimap_to_json,
    polarize,
    satisfies_jacobi,
    satisfies_jordan_identity,
    vector_map,
)
from wassoc.identities import apply_group_vector, associator, wa_expression
from wassoc.linalg import Matrix
from wassoc.symgroup import (
    ID3,
    T13,
    GroupAlgebraElement,
    Perm,
    all_perms,
    ga,
    identity_perm,
    leibniz_vector,
    lie_admissible_vector,
    transposition,
    wa_vector,
)


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


def reference_permute(m: MultiMap, images: tuple[int, ...]) -> MultiMap:
    """`MultiMap.permute_inputs` as it was written before it shared the key
    maps of `contract`: each key rebuilt slot by slot."""
    targets = [p - 1 for p in images]
    out = {}
    for idx, row in m.coeffs.items():
        key = [0] * m.arity
        for t, i in zip(targets, idx):
            key[t] = i
        out[tuple(key)] = row
    return MultiMap(m.arity, m.dim, out)


def reference_symmetrize(m: MultiMap, v) -> MultiMap:
    """sum over the terms q p of v of q times m with inputs permuted by p."""
    return reference_linear_combination(
        m.arity, m.dim, ((q, reference_permute(m, p.images)) for p, q in v.coeffs.items())
    )


def reference_contract(arity: int, dim: int, terms, v=None) -> MultiMap:
    """What `contract` computed before it permuted and symmetrized inside
    its packed accumulator: every composition decoded, permuted, re-added,
    and the sum symmetrized by v afterwards."""
    total = reference_linear_combination(arity, dim, (
        (q, reference_permute(reference_compose(outer, slot, inner), *images) if images
         else reference_compose(outer, slot, inner))
        for q, outer, slot, inner, *images in terms
    ))
    return total if v is None else reference_symmetrize(total, v)


def assert_normalized(m: MultiMap):
    """The stored form: no empty row, no zero coefficient, integral values
    as ints."""
    for row in m.coeffs.values():
        assert row
        for x in row.values():
            assert x != 0
            assert type(x) is int or (type(x) is Fraction and x.denominator != 1)


# Reference products of coordinate vectors: the loops `FinAlg` ran over its
# dense dim x dim x dim structure-constant table before an algebra became its
# bilinear map alone.  The table is read off `alg.mu` one basis pair at a time.

def reference_table(alg: FinAlg) -> list:
    return [[alg.mu(i, j) for j in range(alg.dim)] for i in range(alg.dim)]


def reference_mul_vec(alg: FinAlg, u, v) -> tuple:
    """Product of two coordinate vectors."""
    n = alg.dim
    c = reference_table(alg)
    out = [0] * n
    for a in range(n):
        if u[a] == 0:
            continue
        for b in range(n):
            if v[b] == 0:
                continue
            q = u[a] * v[b]
            for k in range(n):
                if c[a][b][k] != 0:
                    out[k] += q * c[a][b][k]
    return tuple(out)


def reference_lmul_basis(alg: FinAlg, i: int, v) -> tuple:
    """e_i * v for a coordinate vector v."""
    n = alg.dim
    ci = reference_table(alg)[i]
    out = [0] * n
    for b in range(n):
        if v[b] != 0:
            for k in range(n):
                if ci[b][k] != 0:
                    out[k] += v[b] * ci[b][k]
    return tuple(out)


def reference_rmul_basis(alg: FinAlg, v, j: int) -> tuple:
    """v * e_j for a coordinate vector v."""
    n = alg.dim
    c = reference_table(alg)
    out = [0] * n
    for a in range(n):
        if v[a] != 0:
            for k in range(n):
                if c[a][j][k] != 0:
                    out[k] += v[a] * c[a][j][k]
    return tuple(out)


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
    assert alg.mu(0, 0) == (3, 0)
    assert alg.mu(0, 1) == (0, 2)
    assert alg.mu(1, 0) == (0, 1)
    assert alg.mu(1, 1) == (0, 0)


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
        all(x == 0 for x in bracket.mu(i, j)) for i in range(3) for j in range(3)
    )
    lie = sl2()
    bullet, bracket = polarize(lie)
    assert bracket == lie.scale(2)
    assert all(
        all(x == 0 for x in bullet.mu(i, j)) for i in range(3) for j in range(3)
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
    assert alg.mu(0, 1) == (0, 3)
    assert alg.mu(1, 0) == (0, 0)


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


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"dim": 1, "products": [], "zeta": 1, "alpha": 2}, "unknown key(s) in algebra document: 'alpha', 'zeta'"),
        ({"dim": 1, "products": [{"i": 1, "j": 1, "out": [], "c": 0, 7: 1}]},
         "unknown key(s) in product entry: 'c', 7"),
        ({"dim": 1, "products": [{"i": 1, "j": 1, "out": [{"k": 1, "c": "1", "i": 1}]}]},
         "unknown key(s) in output term: 'i'"),
        ({"dim": 1, "products": [[1, 1]]}, "product entry must be an object, not list"),
        ({"dim": 1, "products": [{"i": 1, "j": 1, "out": ["k"]}]}, "output term must be an object, not str"),
        ({"base": {"dim": 1}, "terms": [], "order": 2}, "unknown key(s) in deformation document: 'order'"),
    ],
    ids=["document", "entry", "term", "entry-list", "term-string", "deformation"],
)
def test_json_objects_name_their_unknown_keys_in_order(doc, message):
    """The message lists the keys outside the format, sorted by repr."""
    from wassoc.deform import deformation_from_json

    parse = deformation_from_json if "base" in doc else algebra_from_json
    with pytest.raises(AlgebraFormatError) as exc:
        parse(doc)
    assert str(exc.value) == message


def test_multimap_json_roundtrip(rng):
    m = random_multimap(2, 3, rng)
    doc = multimap_to_json(m)
    back = multimap_from_json(doc, 3, arity=2)
    assert back == m


def reference_multimap_from_json(doc, dim: int, arity: int = 2) -> MultiMap:
    """The dense route `multimap_from_json` replaced: a nested tensor of
    parsed cells, then every index tuple as a dense output vector."""

    def rec(node, depth):
        if depth == arity:
            if not isinstance(node, list) or len(node) != dim:
                raise AlgebraFormatError("output vector has wrong length")
            return [_parse_rational(x) for x in node]
        if not isinstance(node, list) or len(node) != dim:
            raise AlgebraFormatError("tensor level has wrong length")
        return [rec(child, depth + 1) for child in node]

    tensor = rec(doc, 0)
    values = {}
    for idx in itertools.product(range(dim), repeat=arity):
        node = tensor
        for i in idx:
            node = node[i]
        values[idx] = tuple(node)
    return MultiMap(arity, dim, values)


def _json_outcome(read, doc, dim, arity):
    try:
        m = read(doc, dim, arity)
    except AlgebraFormatError as exc:
        return "error", str(exc)
    return "map", m.coeffs


def test_multimap_from_json_matches_dense_reference(rng):
    docs = []
    for arity, dim in ((0, 3), (1, 2), (2, 3), (3, 2)):
        for _ in range(3):
            doc = multimap_to_json(random_fraction_multimap(arity, dim, rng)) if arity else [
                rng.choice(["0/1", "-3/4", "2/1", "0"]) for _ in range(dim)
            ]
            docs.append((doc, dim, arity))
    # a malformed zero, a short output vector and a short tensor level
    docs.append(([["0/1", "0/x"], ["1/1", "0/1"]], 2, 1))
    docs.append(([["0/1", "1/1"], ["1/1"]], 2, 1))
    docs.append(([[["1/1", "0/1"], ["0/1", "0/1"]]], 2, 2))
    docs.append(([["0/1", 0.0], ["1/1", "0/1"]], 2, 1))
    # The literal "0" cells the reader skips, beside zeros it must still
    # parse: other spellings of zero are read, malformed ones rejected, as
    # the reference reads them.
    docs.append(([["0", "0"], ["0", "0"]], 2, 1))
    docs.append(([["0", "-0"], ["00", "0/5"], [0, "0"]], 2, 1))
    docs.append(([["0", "3/2", "0"], ["0", "0", "-1"], ["0", "0", "0"]], 3, 1))
    for bad in ("0/0", 0.0, True, False, None, "0/", " 0", "0.0"):
        docs.append(([["0", "0"], ["0", bad]], 2, 1))
    for doc, dim, arity in docs:
        want = _json_outcome(reference_multimap_from_json, doc, dim, arity)
        assert _json_outcome(multimap_from_json, doc, dim, arity) == want
        if want[0] == "map":
            assert all(row and all(row.values()) for row in want[1].values())
    for bad in ("0/0", 0.0, True, None, "0/"):
        with pytest.raises(AlgebraFormatError):
            multimap_from_json([["0", "0"], [bad, "0"]], 2, 1)


def _three_row_map() -> MultiMap:
    """Keys (0,1,0) and (1,1,0) differ only in slot 1, so images that send
    slots 1 and 2 to one place would merge them."""
    return MultiMap(3, 2, {(0, 1, 0): {0: 1}, (1, 1, 0): {1: 2}, (0, 0, 1): {0: 5}})


def test_multimap_permute_inputs():
    m = MultiMap.from_function(2, 2, lambda i, j: (i, j))
    t = m.permute_inputs((2, 1))
    assert t(0, 1) == m(1, 0)
    sk = m.skew_part()
    assert sk.is_skew()
    sym = m.sym_part()
    assert sym.is_symmetric()
    swapped = _three_row_map().permute_inputs((2, 1, 3))
    assert swapped.coeffs == {(1, 0, 0): {0: 1}, (1, 1, 0): {1: 2}, (0, 0, 1): {0: 5}}


@pytest.mark.parametrize("images", [(1, 1, 3), (2, 1), (1, 2, 3, 4), (0, 1, 2), (2, 3, 4)])
def test_permute_inputs_rejects_non_permutations(images):
    with pytest.raises(ValueError, match="not a permutation of 1..3"):
        _three_row_map().permute_inputs(images)


# The hand-written permuted sums that `MultiMap.apply_group_vector` replaced,
# kept as oracles.

def reference_wa_symmetrize3(t: MultiMap) -> MultiMap:
    """Precompose a trilinear map with Id + c - (12):
    t(x,y,z) + t(y,z,x) - t(y,x,z)."""
    if t.arity != 3:
        raise ValueError("needs arity 3")
    return reference_linear_combination(
        3, t.dim, ((1, t), (1, reference_permute(t, (2, 3, 1))), (-1, reference_permute(t, (2, 1, 3))))
    )


def reference_leibniz_defect(dot: MultiMap, br: MultiMap) -> MultiMap:
    """{x.y, z} - x.{y,z} - {x,z}.y on basis triples."""
    return reference_linear_combination(3, dot.dim, (
        (1, reference_compose(br, 0, dot)),
        (-1, reference_compose(dot, 1, br)),
        (-1, reference_permute(reference_compose(dot, 0, br), (1, 3, 2))),
    ))


def reference_jacobi_defect(mu: MultiMap) -> MultiMap:
    """(xy)z + (yz)x + (zx)y."""
    left = reference_compose(mu, 0, mu)
    return reference_linear_combination(
        3, mu.dim, ((1, left), (1, reference_permute(left, (2, 3, 1))), (1, reference_permute(left, (3, 1, 2))))
    )


def reference_jordan_identity_defect(mu: MultiMap) -> MultiMap:
    """The six permuted copies of (x_a y)(x_b x_c) - x_a (y (x_b x_c))."""
    right = reference_compose(mu, 1, mu)
    defect = reference_linear_combination(
        4, mu.dim, ((1, reference_compose(right, 0, mu)), (-1, reference_compose(mu, 1, right)))
    )
    return reference_linear_combination(
        4,
        mu.dim,
        ((1, reference_permute(defect, (a + 1, 4, b + 1, c + 1)))
         for a, b, c in itertools.permutations(range(3))),
    )


def test_evaluate_commutes_with_the_group_action(wa_members, non_wa_members, rng):
    """Evaluating a symmetrized associator equals symmetrizing the evaluated
    associator, for the named vectors and seeded random K[S3] elements."""
    flexibility_vector = ga(3, (1, ID3), (1, T13))
    vectors = [wa_vector(), lie_admissible_vector(), leibniz_vector(), flexibility_vector]
    vectors += [random_group_element(3, rng) for _ in range(3)]
    for _, alg in wa_members + non_wa_members:
        assoc = evaluate(alg, associator())
        for v in vectors:
            assert evaluate(alg, apply_group_vector(associator(), v)) == assoc.apply_group_vector(v)


def test_apply_group_vector_rejects_wrong_degree(rng):
    t = random_multimap(3, 2, rng)
    for v in (ga(2, (1, Perm(2, (2, 1)))), random_group_element(4, rng)):
        with pytest.raises(ValueError, match=f"degree-{v.n} group-algebra element"):
            t.apply_group_vector(v)
    with pytest.raises(ValueError, match="on an arity-2 map"):
        random_multimap(2, 2, rng).apply_group_vector(wa_vector())


def test_group_action_matches_hand_written_sums(wa_members, non_wa_members, rng):
    for _ in range(5):
        for t in (random_multimap(3, 3, rng), random_fraction_multimap(3, 3, rng)):
            assert t.apply_group_vector(wa_vector()) == reference_wa_symmetrize3(t)
    for _, alg in wa_members + non_wa_members:
        psi = random_fraction_multimap(2, alg.dim, rng)
        assert leibniz_defect_pair(alg, FinAlg.from_map(psi)) == reference_leibniz_defect(alg.mu, psi)
        assert jacobi_defect(alg) == reference_jacobi_defect(alg.mu)
        assert jordan_identity_defect(alg) == reference_jordan_identity_defect(alg.mu)


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
        FinAlg(1, {(0, 0): (entry,)})
    with pytest.raises(TypeError):
        FinAlg(2, {(0, 0): (1, 0), (0, 1): (0, 0), (1, 0): (0, 0), (1, 1): (0, entry)})


@pytest.mark.parametrize(
    "products",
    [
        {(0, 1): {1: 1}},  # used to read as e2 e1 = e1
        {(1, 0): {1: 1}},
        {(1, 1): {0: 1}},  # used to read as e1 e1 = e2
        {(3, 1): {1: 1}},  # used to raise a bare IndexError
        {(1, 3): {1: 1}},
        {(1, 1): {3: 1}},
        {(-1, 1): {1: 1}},
    ],
    ids=["i-zero", "j-zero", "k-zero", "i-high", "j-high", "k-high", "i-negative"],
)
def test_from_products_rejects_indices_outside_1_to_dim(products):
    with pytest.raises(ValueError):
        FinAlg.from_products(2, products)


def test_finalg_constructor_accepts_int_and_fraction():
    alg = FinAlg(2, {(0, 0): (1, 0), (0, 1): (0, Fraction(1, 2)), (1, 0): (0, Fraction(-3)), (1, 1): (0, 0)})
    assert alg.mu(0, 1) == (0, Fraction(1, 2))
    assert alg.mu(1, 0) == (0, -3)
    assert FinAlg(0, {}).dim == 0


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
    assert alg.mu(0, 1) == (2, Fraction(1, 2))
    assert [type(x) for x in alg.mu(0, 1)] == [int, Fraction]
    assert type(alg.mu(1, 1)[0]) is int
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


def _contract_terms(arity: int, dim: int, rng) -> list:
    """(q, outer, slot, inner) terms of every outer/inner arity pair (1-3)
    and slot that give `arity` inputs, mixed in one list: random Fraction
    maps under a random (possibly zero) q, an inner row (1/3, -2/3, ..) that
    cancels its outer rows exactly, and two halves of one integer term whose
    sum is integral."""
    terms = []
    for outer_arity in (1, 2, 3):
        inner_arity = arity + 1 - outer_arity
        if not 1 <= inner_arity <= 3:
            continue
        g = random_fraction_multimap(inner_arity, dim, rng)
        g_int = random_multimap(inner_arity, dim, rng)
        g_cancel = MultiMap.from_function(
            inner_arity, dim, lambda *idx: (Fraction(1, 3), Fraction(-2, 3), idx[0] % 2)
        )
        for slot in range(outer_arity):
            f = random_fraction_multimap(outer_arity, dim, rng)
            f_int = MultiMap.from_function(
                outer_arity, dim, lambda *idx: tuple(2 * rng.randint(-2, 2) + 1 for _ in range(dim))
            )
            q = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
            terms += [
                (q, f, slot, g),
                (1, _cancelling_outer(outer_arity, slot, dim, rng), slot, g_cancel),
                (0, f, slot, g_int),
                (Fraction(1, 2), f_int, slot, g_int),
                (Fraction(1, 2), f_int, slot, g_int),
                (-1, MultiMap.zero(outer_arity, dim), slot, g),
            ]
    return terms


def test_contract_matches_reference(rng):
    dim = 3
    for arity in range(1, 6):
        terms = _contract_terms(arity, dim, rng)
        negated = [(-q, outer, slot, inner) for q, outer, slot, inner in terms]
        thirds = [(Fraction(1, 3),) + terms[0][1:]] * 3 + [(-1,) + terms[0][1:]]
        before = copy.deepcopy([(outer.coeffs, inner.coeffs) for _, outer, slot, inner in terms])
        for case in (
            terms,
            terms + negated,
            terms + negated[::2],
            thirds,
            terms[3:5],
            [],
        ):
            got = contract(arity, dim, case)
            want = reference_linear_combination(
                arity, dim, ((q, reference_compose(o, slot, i)) for q, o, slot, i in case)
            )
            assert got.coeffs == want.coeffs
            assert_normalized(got)
        assert contract(arity, dim, terms + negated).is_zero()
        assert contract(arity, dim, thirds).is_zero()
        halves = contract(arity, dim, terms[3:5])
        assert all(type(x) is int for row in halves.coeffs.values() for x in row.values())
        assert [(outer.coeffs, inner.coeffs) for _, outer, slot, inner in terms] == before
    # A coordinate vector is a 0-linear inner map: substituted into one slot
    # it lowers the arity by one, down to a 0-linear result.
    for outer_arity in (1, 2, 3):
        outer = random_fraction_multimap(outer_arity, dim, rng)
        vectors = [
            vector_map(dim, tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(dim))),
            vector_map(dim, {2: 3}),
            MultiMap.zero(0, dim),
        ]
        case = [
            (q, outer, slot, v)
            for slot in range(outer_arity)
            for q, v in zip((1, Fraction(-2, 3), 5), vectors)
        ]
        got = assert_contract_matches_reference(outer_arity - 1, dim, case)
        assert got.arity == outer_arity - 1 and not got.is_zero()


def test_contract_rejects_shape_mismatch(rng):
    f, g = random_fraction_multimap(2, 3, rng), random_fraction_multimap(2, 3, rng)
    for arity, dim, terms in (
        (2, 3, [(1, f, 0, g)]),
        (3, 4, [(1, f, 0, g)]),
        (3, 3, [(1, f, 1, g), (1, f, 2, g)]),
        (3, 3, [(1, f, 1, g), (1, f, 0, MultiMap.zero(2, 4))]),
    ):
        with pytest.raises(ValueError):
            contract(arity, dim, terms)
    with pytest.raises(TypeError):
        contract(3, 3, [(0.0, f, 0, g)])


def assert_contract_matches_reference(arity: int, dim: int, terms) -> MultiMap:
    got = contract(arity, dim, terms)
    want = reference_linear_combination(
        arity, dim, ((q, reference_compose(o, slot, i)) for q, o, slot, i in terms)
    )
    assert got.coeffs == want.coeffs
    assert_normalized(got)
    return got


def test_contract_coefficients_and_denominators_above_2_64(rng):
    dim = 3
    big = 2**64

    def huge_map(arity):
        return MultiMap.from_function(arity, dim, lambda *idx: tuple(
            Fraction(rng.randint(-(big**2), big**2), rng.randint(big, 4 * big))
            if rng.random() < 0.5
            else rng.choice((0, rng.randint(-(big**3), big**3)))
            for _ in range(dim)
        ))

    for outer_arity, inner_arity in ((1, 1), (2, 1), (1, 2), (2, 2)):
        arity = outer_arity + inner_arity - 1
        maps = [(huge_map(outer_arity), huge_map(inner_arity)) for _ in range(3)]
        scalars = [Fraction(big + 1, 3**45), -(big**2) - 7, Fraction(-1, big * 5 + 3)]
        terms = [
            (q, outer, slot, inner)
            for q, (outer, inner) in zip(scalars, maps)
            for slot in range(outer_arity)
        ]
        got = assert_contract_matches_reference(arity, dim, terms)
        assert any(
            type(x) is Fraction and x.denominator > big
            for row in got.coeffs.values()
            for x in row.values()
        )
        negated = [(-q, o, slot, i) for q, o, slot, i in terms]
        assert contract(arity, dim, terms + negated).is_zero()


def test_contract_negative_last_coordinate_and_zero_interior_slots(rng):
    """Rows whose only nonzero entry is a negative last coordinate (the sign
    of the top digit of a packed row), and rows whose interior coordinates
    are zero, so decoding must step over empty slots."""
    dim = 5
    last_only = MultiMap.from_function(
        2, dim, lambda i, j: (0,) * (dim - 1) + (-rng.randint(1, 9),)
    )
    ends_only = MultiMap.from_function(
        2, dim,
        lambda i, j: (rng.randint(-9, 9),) + (0,) * (dim - 2) + (Fraction(-rng.randint(1, 9), 7),),
    )
    last_inner = MultiMap.from_function(1, dim, lambda i: (0,) * (dim - 1) + (-1,))
    mixed = random_fraction_multimap(2, dim, rng)
    for outer, inner in (
        (last_only, last_inner),
        (last_only, mixed),
        (ends_only, last_inner),
        (ends_only, mixed),
        (mixed, last_only),
        (mixed, ends_only),
    ):
        arity = outer.arity + inner.arity - 1
        for slot in range(outer.arity):
            got = assert_contract_matches_reference(arity, dim, [(1, outer, slot, inner)])
            assert not got.is_zero()
        assert_contract_matches_reference(
            arity, dim, [(3, outer, 0, inner), (Fraction(-5, 2), outer, 1, inner)]
        )
    got = compose(last_only, 0, last_inner)
    assert all(list(row) == [dim - 1] and row[dim - 1] > 0 for row in got.coeffs.values())


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
def test_contract_digit_reaches_the_width_bound(sign):
    """Constant full rows and scalars of one sign: every output coefficient,
    cleared of the common denominator L, equals +-B, the bound the slot
    width is sized from (B = sum |s| max|outer| max|inner| widest row)."""
    dim = 3
    outer = MultiMap.from_function(2, dim, lambda i, j: (Fraction(5, 2),) * dim)
    inner = MultiMap.from_function(1, dim, lambda i: (7,) * dim)
    terms = [(sign * Fraction(1, 3), outer, 0, inner), (sign * 2, outer, 1, inner)]
    got = assert_contract_matches_reference(2, dim, terms)
    # D_outer = 2, D_inner = 1, so L = 6 and the scalars are s = 1 and 6.
    bound = (1 + 6) * 5 * 7 * dim
    assert got.coeffs == {
        (i, j): {k: sign * Fraction(bound, 6) for k in range(dim)}
        for i in range(dim)
        for j in range(dim)
    }
    # Bounds of 2^64 - 1 and 2^64: the largest digit is 2^(W - 1) - 1 in the
    # first case and 2^(W - 2) in the second.
    one = MultiMap(1, 1, {(0,): (1,)})
    for q in (2**64 - 1, 2**64):
        got = assert_contract_matches_reference(1, 1, [(sign * q, one, 0, one)])
        assert got.coeffs == {(0,): {0: sign * q}}


def test_contract_in_dimension_one(rng):
    def one_entry(arity):
        q = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))
        return MultiMap(arity, 1, {(0,) * arity: (q,)})

    for arity in range(1, 6):
        terms = [
            (Fraction(rng.randint(-4, 4), rng.randint(1, 5)), one_entry(outer_arity), slot,
             one_entry(arity + 1 - outer_arity))
            for outer_arity in range(1, arity + 1)
            for slot in range(outer_arity)
        ]
        terms.append((1, MultiMap.zero(1, 1), 0, one_entry(arity)))
        negated = [(-q, o, slot, i) for q, o, slot, i in terms]
        assert_contract_matches_reference(arity, 1, terms)
        assert_contract_matches_reference(arity, 1, terms + negated[::2])
        assert contract(arity, 1, terms + negated).is_zero()


# Permuted terms and the symmetrization by a group-algebra element v, against
# `reference_contract`: each composition decoded, permuted and re-added, and v
# applied to the decoded sum.

def _permuted_terms(arity: int, dim: int, rng) -> list:
    """Terms of every outer/inner arity pair giving `arity` inputs, each
    (outer, slot, inner) once plain and under random images, so that one
    composition carries several permutations (identity first in one, last
    in the next), with Fraction scalars, Fraction and integer maps."""
    terms = []
    for outer_arity in range(1, arity + 1):
        inner_arity = arity + 1 - outer_arity
        outer = random_fraction_multimap(outer_arity, dim, rng)
        inner = rng.choice((random_fraction_multimap, random_multimap))(inner_arity, dim, rng)
        slot = rng.randrange(outer_arity)
        images = [tuple(rng.sample(range(1, arity + 1), arity)) for _ in range(2)]
        scalars = [Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)]
        group = [(scalars[0], outer, slot, inner, images[0]), (scalars[1], outer, slot, inner)]
        group.append((scalars[2], outer, slot, inner, images[1]))
        terms += group if outer_arity % 2 else group[::-1]
    return terms


def _fraction_element(n: int, rng) -> GroupAlgebraElement:
    return GroupAlgebraElement(
        n, {p: Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for p in all_perms(n)}
    )


def test_permuted_terms_match_reference(rng):
    for arity in range(1, 7):
        dim = 3 if arity <= 4 else 2
        terms = _permuted_terms(arity, dim, rng)
        negated = [(-q, *rest) for q, *rest in terms]
        for case in (terms, terms + negated[::2], terms[:1], []):
            got = contract(arity, dim, case)
            assert got == reference_contract(arity, dim, case)
            assert_normalized(got)
        assert contract(arity, dim, terms + negated).is_zero()
        # The same composition under every permutation of its inputs, plus and
        # minus: the sum vanishes although no two terms share a key map.
        _, outer, slot, inner, *_ = terms[0]
        perms = [p.images for p in all_perms(arity)] if 2 <= arity <= 4 else [tuple(range(1, arity + 1))]
        every = [(sign, outer, slot, inner, images) for images in perms for sign in (1, -1)]
        assert contract(arity, dim, every).is_zero()


def test_symmetrization_matches_reference(rng):
    for arity in (2, 3, 4):
        dim = 3
        terms = _permuted_terms(arity, dim, rng)
        half_id_t12 = GroupAlgebraElement(
            arity, {identity_perm(arity): Fraction(1, 2), transposition(arity, 1, 2): Fraction(1, 2)}
        )
        vectors = [half_id_t12, _fraction_element(arity, rng), random_group_element(arity, rng),
                   GroupAlgebraElement(arity, {})]
        if arity == 3:
            vectors += [wa_vector(), lie_admissible_vector(), leibniz_vector()]
        for v in vectors:
            for case in (terms, terms[:2], []):
                got = contract(arity, dim, case, v)
                assert got == reference_contract(arity, dim, case, v)
                assert_normalized(got)
        # A sum symmetric in inputs 1 and 2 vanishes under Id - (12).
        _, outer, slot, inner, *_ = terms[1]
        swap = (2, 1) + tuple(range(3, arity + 1))
        symmetric = [(Fraction(2, 3), outer, slot, inner), (Fraction(2, 3), outer, slot, inner, swap)]
        id_minus_t12 = ga(arity, (1, identity_perm(arity)), (-1, transposition(arity, 1, 2)))
        assert not contract(arity, dim, symmetric).is_zero()
        assert contract(arity, dim, symmetric, id_minus_t12).is_zero()
        assert contract(arity, dim, symmetric, half_id_t12) == contract(arity, dim, symmetric)


def test_symmetrization_with_coefficients_above_2_64(rng):
    dim = 3
    big = 2**64

    def huge_map(arity):
        return MultiMap.from_function(arity, dim, lambda *idx: tuple(
            Fraction(rng.randint(-(big**2), big**2), rng.randint(big, 4 * big))
            if rng.random() < 0.5
            else rng.choice((0, rng.randint(-(big**3), big**3)))
            for _ in range(dim)
        ))

    outer, inner = huge_map(2), huge_map(2)
    terms = [(Fraction(big + 1, 3**45), outer, 0, inner), (-(big**2) - 7, outer, 1, inner, (3, 1, 2))]
    v = ga(3, (Fraction(big + 1, 3), ID3), (Fraction(-(2**70), 7), T13), (big**2, Perm(3, (2, 3, 1))))
    got = contract(3, dim, terms, v)
    assert got == reference_contract(3, dim, terms, v)
    assert_normalized(got)
    assert any(type(x) is Fraction and x.denominator > big for row in got.coeffs.values() for x in row.values())
    negated = [(-q, *rest) for q, *rest in terms]
    assert contract(3, dim, terms + negated, v).is_zero()


def test_inner_row_position_cancels_and_refills():
    """Rows at coordinates 0 and 1 of slot 0 are equal, so the inner row
    (1, -1, 1) takes each position to zero and back: the row must be read
    once, as the row at coordinate 2; the row (1, -1, 0) leaves zero."""
    dim = 3
    same = {j: (j + 1, -2, Fraction(1, 3)) for j in range(dim)}
    outer = MultiMap.from_function(2, dim, lambda a, j: same[j] if a < 2 else (0, j, 5))
    for inner_row, want in (((1, -1, 1), lambda j: (0, j, 5)), ((1, -1, 0), lambda j: (0, 0, 0))):
        inner = MultiMap.from_function(1, dim, lambda i: inner_row)
        got = contract(2, dim, [(1, outer, 0, inner), (2, outer, 0, inner, (2, 1))])
        assert got == reference_contract(2, dim, [(1, outer, 0, inner), (2, outer, 0, inner, (2, 1))])
        assert compose(outer, 0, inner) == MultiMap.from_function(2, dim, lambda i, j: want(j))


def test_symmetrized_paths_allocate_nothing_sized_by_dim():
    """One product entry in dimension 100000, commutative and nilpotent:
    identity evaluation, the symmetrized defects, the degree-2 coboundary and
    the group action stay within the size of the input (an identity map on
    the whole space alone would take tens of MB)."""
    from wassoc.cohomology import CochainContext, wa_delta2

    alg = FinAlg.from_products(100000, {(1, 1): {2: 1}})
    tracemalloc.start()
    try:
        for check in (is_associative, is_weakly_associative, is_flexible, is_lie_admissible, is_jordan,
                      satisfies_jacobi):
            assert check(alg)
        assert leibniz_defect_pair(alg, alg).is_zero()
        assert wa_delta2(CochainContext(alg), alg.mu).is_zero()
        assert evaluate(alg, associator()).apply_group_vector(wa_vector()).is_zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_contract_rejects_bad_permutations_and_group_elements(rng):
    f, g = random_fraction_multimap(2, 3, rng), random_fraction_multimap(2, 3, rng)
    for images in [(1, 1, 3), (1, 2), (0, 1, 2), (1, 2, 3, 4), (2, 3, 4)]:
        for q, outer in ((1, f), (0, f), (1, MultiMap.zero(2, 3))):
            with pytest.raises(ValueError, match="not a permutation of 1..3"):
                contract(3, 3, [(q, outer, 0, g, images)])
    for v in (ga(2, (1, Perm(2, (2, 1)))), random_group_element(4, rng)):
        with pytest.raises(ValueError, match=f"degree-{v.n} group-algebra element on an arity-3 map"):
            contract(3, 3, [(1, f, 0, g)], v)
        with pytest.raises(ValueError, match=f"degree-{v.n} group-algebra element"):
            contract(3, 3, [], v)


# Terms that share one pass over the inner entries: a layout is the slot, the
# outer arity and the (scalar, key map) list of an (outer, slot, inner); outer
# rows are summed by position, packed by the rank of their output coordinates.

def _sparse_map(arity: int, dim: int, rng, rows: int, coords, fractions: bool = False) -> MultiMap:
    """`rows` random inputs and 1-3 output coordinates per row, all drawn
    from `coords`, with small int or Fraction coefficients."""
    values = {}
    for _ in range(rows):
        idx = tuple(rng.choice(coords) for _ in range(arity))
        values[idx] = {
            k: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4) if fractions else 1)
            for k in rng.sample(coords, rng.randint(1, 3))
        }
    return MultiMap(arity, dim, values)


def test_terms_of_several_layouts_match_reference(rng):
    """Terms of one layout (same slot, scalar and key map) over several
    inner maps whose outputs share keys, mixed with terms of other slots,
    scalars and key maps, with and without v."""
    dim = 4
    f1, f2, g1, g2 = (random_multimap(2, dim, rng) for _ in range(4))
    h = random_fraction_multimap(2, dim, rng)
    one_layout = [(2, f1, 1, g1), (2, f2, 1, g2), (2, g2, 1, f1)]
    others = [
        (-1, f1, 0, g1), (-1, f2, 0, g2), (Fraction(2, 3), h, 1, g1),
        (2, f1, 1, g2, (2, 1, 3)), (2, f2, 1, g1, (3, 1, 2)), (1, h, 0, h, (3, 1, 2)),
    ]
    for case in (one_layout, one_layout + others, others[::-1] + one_layout):
        got = contract(3, dim, case)
        assert got == reference_contract(3, dim, case)
        assert_normalized(got)
        for v in (wa_vector(), lie_admissible_vector(), _fraction_element(3, rng)):
            assert contract(3, dim, case, v) == reference_contract(3, dim, case, v)
    negated = [(-q, *rest) for q, *rest in one_layout + others]
    assert contract(3, dim, one_layout + others + negated).is_zero()


def test_positions_in_several_chunks_match_reference(rng):
    """Tens of positions around the slot, several outer rows at one inner
    coordinate and positions touched by several inner entries; inner rows
    with one entry and with several."""
    for arity_outer, slot, dim in ((2, 0, 70), (3, 1, 9), (2, 1, 40)):
        coords = list(range(dim))
        outer = _sparse_map(arity_outer, dim, rng, 3 * dim, coords)
        other = _sparse_map(arity_outer, dim, rng, 2 * dim, coords, fractions=True)
        for inner in (
            _sparse_map(2, dim, rng, dim, coords),
            _sparse_map(1, dim, rng, dim, coords, fractions=True),
            MultiMap(1, dim, {(i,): {k: 1 for k in rng.sample(coords, 6)} for i in range(dim)}),
        ):
            arity = arity_outer + inner.arity - 1
            terms = [(1, outer, slot, inner), (1, other, slot, inner), (Fraction(-5, 3), outer, 0, inner)]
            got = contract(arity, dim, terms)
            assert got == reference_contract(arity, dim, terms)
            assert_normalized(got)


def test_coordinates_near_dim_match_reference(rng):
    """Inputs and output coordinates at both ends of a dimension of 10^5:
    rows are packed by coordinate rank, so their size follows the
    coordinates in use."""
    dim = 10**5
    coords = [0, 1, 2, dim - 3, dim - 2, dim - 1]
    for fractions in (False, True):
        f = _sparse_map(2, dim, rng, 20, coords, fractions)
        g = _sparse_map(2, dim, rng, 20, coords, fractions)
        e = _sparse_map(1, dim, rng, 5, coords, fractions)
        for arity, terms in (
            (3, [(1, f, 0, g), (-1, f, 1, g), (Fraction(1, 7), g, 1, f, (2, 3, 1))]),
            (2, [(3, f, 0, e), (-2, e, 0, g), (1, f, 1, e, (2, 1))]),
            (1, [(1, e, 0, e)]),
        ):
            got = contract(arity, dim, terms)
            assert got == reference_contract(arity, dim, terms)
            assert_normalized(got)
        assert contract(3, dim, [(1, f, 0, g)], wa_vector()) == reference_contract(3, dim, [(1, f, 0, g)], wa_vector())


def test_fraction_scalars_match_reference(rng):
    dim = 3
    f, g = random_fraction_multimap(2, dim, rng), random_fraction_multimap(2, dim, rng)
    n = random_multimap(2, dim, rng)
    terms = [
        (Fraction(1, 3), f, 0, g), (Fraction(-7, 4), f, 1, g), (Fraction(5, 6), n, 0, g),
        (Fraction(2, 9), n, 1, n, (3, 2, 1)), (Fraction(1, 3), g, 0, f, (2, 1, 3)),
    ]
    for v in (None, wa_vector(), _fraction_element(3, rng)):
        got = contract(3, dim, terms, v)
        assert got == reference_contract(3, dim, terms, v)
        assert_normalized(got)


def test_empty_group_element_gives_the_zero_map(rng):
    """v = 0 makes the width bound 0; the sum before v is still sized by
    its own bound."""
    zero3 = GroupAlgebraElement(3, {})
    f, g = random_multimap(2, 3, rng, bound=9), random_fraction_multimap(2, 3, rng)
    for terms in ([(1, f, 0, g), (5, f, 1, f)], [(Fraction(1, 2), g, 0, g, (3, 1, 2))], []):
        got = contract(3, 3, terms, zero3)
        assert got.is_zero() and got.arity == 3
        assert got == reference_contract(3, 3, terms, zero3)
    assert f.apply_group_vector(GroupAlgebraElement(2, {})).is_zero()


def _traced_peak(fn, *args):
    """fn(*args) and the peak of traced memory while it runs, in bytes."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_contract_memory_on_diagonal_and_star_algebras():
    """Outer rows at 2000 positions: e_i e_i = e_i (one row per position)
    and e_1 e_i = e_i e_1 = e_i (2000 rows at one coordinate).  The bounds
    are the peaks of one multiply-add per outer row (4.8 and 11.0 MB) plus
    a few percent; summing all positions of an inner row into one packed
    integer takes about twice as much."""
    n = 2000
    diagonal = FinAlg.from_products(n, {(i, i): {i: 1} for i in range(1, n + 1)})
    star = FinAlg.from_products(
        n, {**{(1, i): {i: 1} for i in range(1, n + 1)}, **{(i, 1): {i: 1} for i in range(1, n + 1)}}
    )
    held, peak = _traced_peak(is_weakly_associative, diagonal)
    assert held and peak < 5_200_000
    held, peak = _traced_peak(is_flexible, star)
    assert held and peak < 11_600_000


def test_contract_memory_follows_the_coordinates_in_use():
    """e1 e1 = e1 e2 = e_dim and e_r e_r = e_(dim - r) for r = 2..21 in
    dimension 10^5: 21 output coordinates in use, the largest near dim."""
    n = 10**5
    products = {(1, 1): {n: 1}, (1, 2): {n: 1}, **{(r, r): {n - r: 1} for r in range(2, 22)}}
    held, peak = _traced_peak(is_weakly_associative, FinAlg.from_products(n, products))
    assert held and peak < 2**19


def _int_matrix(rng, n, bound):
    cells = rng.sample(range(n * n), (2 * n * n) // 3)
    flat = [0] * (n * n)
    for c in cells:
        flat[c] = rng.choice([q for q in range(-bound, bound + 1) if q])
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def _plane_deformations(seed: int, degrees=(2, 3)):
    """The gauged plane deformations of the benchmark's `algebras`
    workload: mu + t {,} on K[x, y]/m^(D+1), basis x^a y^(d-a) by degree d
    and decreasing a, with {u, v} = scale * x^w (u_x v_y - u_y v_x), gauged
    by three {-1, 0, 1} matrices two thirds nonzero; weight, scale and
    matrices are drawn from random.Random(seed) in the workload's order,
    one endomorphism draw following each degree."""
    from wassoc.deform import GaugeTransform, TruncatedDeformation, gauge

    rng = random.Random(seed)
    out = []
    for maxdeg in degrees:
        weight = rng.choice(((1, 0), (0, 1)))
        scale = rng.choice((-2, -1, 1, 2))
        monos = [(a, d - a) for d in range(maxdeg + 1) for a in range(d, -1, -1)]
        index = {m: i for i, m in enumerate(monos)}
        n = len(monos)
        mu: dict = {}
        br: dict = {}
        for i, a in enumerate(monos):
            for j, b in enumerate(monos):
                prod = (a[0] + b[0], a[1] + b[1])
                if sum(prod) <= maxdeg:
                    mu[(i, j)] = {index[prod]: 1}
                row = br.setdefault((i, j), {})
                for sign, da, db in ((1, 0, 1), (-1, 1, 0)):
                    mono = [weight[0] + a[0] + b[0], weight[1] + a[1] + b[1]]
                    mono[da] -= 1
                    mono[db] -= 1
                    if a[da] and b[db] and sum(mono) <= maxdeg:
                        k = index[tuple(mono)]
                        row[k] = row.get(k, 0) + sign * scale * a[da] * b[db]
        zero = MultiMap.zero(2, n)
        deformation = TruncatedDeformation(FinAlg(n, mu), [MultiMap(2, n, br), zero, zero])
        g = GaugeTransform([Matrix.from_rows(_int_matrix(rng, n, 1)) for _ in range(3)])
        _int_matrix(rng, n, 2)
        out.append(gauge(deformation, g))
    return out


def test_contract_on_gauged_plane_deformations():
    """The weak associativity defects of the benchmark's gauged dim-6,
    dim-10 and dim-15 deformations (seed 1), whose phi_1..phi_3 are dense;
    dim 15 is the densest contraction of the `algebras` workload."""
    dims = []
    for deformation in _plane_deformations(1, (2, 3, 4)):
        n = deformation.base.dim
        dims.append(n)
        phi = [deformation.coefficient(i) for i in range(4)]
        assert len(phi[3].coeffs) > n * n // 2
        for k in range(1, 4):
            terms = [
                (sign, phi[i], slot, phi[k - i])
                for i in range(k + 1)
                for sign, slot in ((1, 1), (-1, 0))
            ]
            got = assert_contract_matches_reference(3, n, terms)
            assert got.apply_group_vector(wa_vector()).is_zero()
    assert dims == [6, 10, 15]


def test_product_map_matches_validating_constructor(wa_members, non_wa_members):
    halves = FinAlg(2, {
        (0, 0): (Fraction(4, 2), Fraction(1, 2)), (0, 1): (0, Fraction(0, 3)),
        (1, 0): (Fraction(-6, 3), 1), (1, 1): (Fraction(3, 6), 0),
    })
    for alg in [alg for _, alg in wa_members + non_wa_members] + [halves]:
        got = alg.mu
        want = MultiMap.from_function(2, alg.dim, lambda i, j: alg.mu(i, j))
        assert got.coeffs == want.coeffs
        assert_normalized(got)
    assert halves.mu.coeffs == {
        (0, 0): {0: 2, 1: Fraction(1, 2)}, (1, 0): {0: -2, 1: 1}, (1, 1): {0: Fraction(1, 2)}
    }


def test_product_map_is_built_once_per_algebra(wa_members):
    for _, alg in wa_members:
        mu = alg.mu
        assert alg.mu is mu
        want = MultiMap.from_function(2, alg.dim, lambda i, j: alg.mu(i, j))
        assert mu.coeffs == want.coeffs
    fresh = FinAlg(2, {(0, 0): (1, 0), (0, 1): (0, 1), (1, 0): (0, 1), (1, 1): (0, 0)})
    assert fresh.mu is not FinAlg(2, fresh.mu.coeffs).mu


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
