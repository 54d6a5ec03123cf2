import itertools
from fractions import Fraction

import pytest
from test_finalg import reference_lmul_basis, reference_mul_vec, reference_rmul_basis
from test_identities import reference_consequence_generators
from test_linalg import densify, pivot_columns, reference_kernel_basis, reference_rref

from wassoc import cohomology
from wassoc.cohomology import (
    CochainContext,
    NotMultiderivation,
    delta3_relabel_coeffs,
    delta3_unknowns,
    hochschild_delta,
    is_multiderivation,
    leibniz_defect,
    lichnerowicz_delta,
    lichnerowicz_delta0,
    operadic_cochain3_check,
    operadic_cochain3_full_check,
    operadic_cochain4_check,
    poisson_context,
    unknown_label,
    wa_cocycle2,
    wa_delta0,
    wa_delta1,
    wa_delta2,
    wa_delta3,
)
from wassoc.corpus import (
    plane_quotient,
    random_endomorphism,
    random_fraction_multimap,
    random_multimap,
    random_skew_bilinear,
    random_symmetric_bilinear,
    random_vector,
    space_quotient_square,
    truncated_polynomials,
    two_dim_family,
)
from wassoc.finalg import FinAlg, MultiMap, evaluate
from wassoc.identities import associator, wa_expression
from wassoc.linalg import Matrix, in_span, vector


def test_hochschild_square_zero_on_associative(rng):
    alg = truncated_polynomials(4)
    ctx = CochainContext(alg)
    for _ in range(50):
        f = random_multimap(1, alg.dim, rng, 2)
        assert hochschild_delta(ctx, hochschild_delta(ctx, f)).is_zero()


def test_hochschild_of_product_is_twice_associator():
    for alg in (two_dim_family(6), two_dim_family(0)):
        ctx = CochainContext(alg)
        d = hochschild_delta(ctx, alg.mu)
        assert d == evaluate(alg, associator()).scale(2)
    assoc = truncated_polynomials(3)
    ctx = CochainContext(assoc)
    assert hochschild_delta(ctx, assoc.mu).is_zero()


def test_hochschild_leibniz_equivalence_for_skew(rng):
    ring = plane_quotient()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    br = ring.poisson_bracket((1, 0))
    assert leibniz_defect(ctx, br).is_zero()
    assert hochschild_delta(ctx, br).is_zero()
    for _ in range(10):
        psi = random_skew_bilinear(alg.dim, rng, 2)
        assert leibniz_defect(ctx, psi).is_zero() == hochschild_delta(
            ctx, psi
        ).is_zero()


def test_wa_delta0_delta1_composition(wa_members):
    for _, alg in wa_members:
        ctx = CochainContext(alg)
        for i in range(alg.dim):
            d0 = wa_delta0(ctx, alg.basis_vector(i))
            assert wa_delta1(ctx, d0).is_zero()


def test_wa_delta1_delta2_composition(wa_members, rng):
    for _, alg in wa_members:
        ctx = CochainContext(alg)
        for _ in range(3):
            f = random_endomorphism(alg.dim, rng, 2)
            assert wa_delta2(ctx, wa_delta1(ctx, f)).is_zero()


def test_non_wa_breaks_delta1_delta0(non_wa_members):
    for _, alg in non_wa_members:
        ctx = CochainContext(alg)
        assert any(
            not wa_delta1(ctx, wa_delta0(ctx, alg.basis_vector(i))).is_zero()
            for i in range(alg.dim)
        )


def test_three_way_equivalence_and_tensor_identities(rng):
    ring = plane_quotient()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    n = alg.dim
    for _ in range(10):
        psi = random_skew_bilinear(n, rng, 2)
        L = leibniz_defect(ctx, psi)
        dH = hochschild_delta(ctx, psi)
        dWA = wa_delta2(ctx, psi)
        shift = L.permute_inputs((2, 3, 1))
        # exact commutative-context identities (coefficient 1, not 2, on the
        # Hochschild side)
        assert (dH + L + shift).is_zero()
        assert (dWA + shift.scale(2)).is_zero()
        assert L.is_zero() == dH.is_zero() == dWA.is_zero()
    br = ring.poisson_bracket((1, 0))
    assert wa_cocycle2(ctx, br)
    assert leibniz_defect(ctx, br).is_zero()


def test_symmetric_maps_are_wa_cocycles(rng):
    ring = plane_quotient()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    for _ in range(5):
        rho = random_symmetric_bilinear(alg.dim, rng, 2)
        assert wa_delta2(ctx, rho).is_zero()
        dh = hochschild_delta(ctx, rho)
        assert (dh + dh.permute_inputs((3, 2, 1))).is_zero()


def test_leibniz_defect_of_zero():
    alg = plane_quotient().algebra()
    ctx = CochainContext(alg)
    assert leibniz_defect(ctx, MultiMap.zero(2, alg.dim)).is_zero()


def test_last_two_argument_symmetry_of_delta2(rng):
    # commutative context: always symmetric in the last two slots;
    # noncommutative weakly associative context: observed to fail
    ring = plane_quotient()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    phi = random_multimap(2, alg.dim, rng, 2)
    d2 = wa_delta2(ctx, phi)
    assert (d2 - d2.permute_inputs((1, 3, 2))).is_zero()
    nc = alg.add(ring.bracket_algebra((1, 0)))
    ctx2 = CochainContext(nc)
    phi2 = random_multimap(2, alg.dim, rng, 2)
    d22 = wa_delta2(ctx2, phi2)
    assert not (d22 - d22.permute_inputs((1, 3, 2))).is_zero()


# ---------------------------------------------------------------------------
# Operadic cochain symmetries.
# ---------------------------------------------------------------------------

def test_delta2_image_satisfies_cochain3_symmetry(wa_members, rng):
    for _, alg in wa_members:
        ctx = CochainContext(alg)
        phi = random_multimap(2, alg.dim, rng, 2)
        d2 = wa_delta2(ctx, phi)
        assert operadic_cochain3_check(d2)
        assert operadic_cochain3_full_check(d2)


def test_symmetric_trilinear_passes_cochain3():
    sym = MultiMap.from_function(3, 2, lambda i, j, k: (1 + i + j + k, 0))
    assert operadic_cochain3_check(sym)


def test_random_trilinear_fails_cochain3(rng):
    t = random_multimap(3, 2, rng)
    assert not operadic_cochain3_check(t)


def test_cochain4_projection(rng):
    from wassoc.symgroup import cochain4_vectors

    dim = 2
    t = random_multimap(4, dim, rng)
    assert not operadic_cochain4_check(t)
    v4, v4p = cochain4_vectors()
    coords = list(itertools.product(range(dim), repeat=5))
    pos = {c: i for i, c in enumerate(coords)}
    rows = []
    for v in (v4, v4p):
        for idx in itertools.product(range(dim), repeat=4):
            for out in range(dim):
                row = [0] * len(coords)
                for p, q in v.coeffs.items():
                    src = tuple(idx[p.images[s] - 1] for s in range(4))
                    row[pos[src + (out,)]] += q
                rows.append(row)
    from wassoc.linalg import kernel_basis, rref

    kern = kernel_basis(Matrix.from_rows(rows))
    assert len(kern) == 16
    tv = [t(*c[:4])[c[4]] for c in coords]
    gram = [[sum(a * b for a, b in zip(r1, r2)) for r2 in kern] for r1 in kern]
    rhs = [sum(a * b for a, b in zip(r1, tv)) for r1 in kern]
    rk, red = rref(Matrix.from_rows([g + [r] for g, r in zip(gram, rhs)]))
    sol = [red.entries[i][-1] for i in range(len(kern))]
    proj = [
        sum(sol[i] * kern[i][j] for i in range(len(kern)))
        for j in range(len(coords))
    ]
    vals = {}
    for c, val in zip(coords, proj):
        vals.setdefault(c[:4], [0] * dim)[c[4]] = val
    projected = MultiMap(4, dim, {k: tuple(v) for k, v in vals.items()})
    assert not projected.is_zero()
    assert operadic_cochain4_check(projected)


# ---------------------------------------------------------------------------
# Lichnerowicz complex.
# ---------------------------------------------------------------------------

def test_lichnerowicz_delta0():
    ring = plane_quotient()
    ctx = poisson_context(ring.algebra(), ring.bracket_algebra((1, 0)))
    x = (1, 2, 0, 3, 0, 1)
    d0 = lichnerowicz_delta0(ctx, x)
    br = ctx.bracket
    for i in range(6):
        assert d0(i) == reference_mul_vec(br, br.basis_vector(i), x)


def _fraction_vector(n, rng):
    return tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(n))


def test_wa_delta0_matches_reference_mul_vec(wa_members, non_wa_members, rng):
    for _, alg in wa_members + non_wa_members:
        n = alg.dim
        for x in [_fraction_vector(n, rng) for _ in range(2)] + [alg.basis_vector(n - 1)]:
            d0 = wa_delta0(CochainContext(alg), x)
            for j in range(n):
                e = alg.basis_vector(j)
                want = tuple(
                    a - b
                    for a, b in zip(reference_mul_vec(alg, x, e), reference_mul_vec(alg, e, x))
                )
                assert d0(j) == want


def test_lichnerowicz_delta0_matches_reference_mul_vec(poisson_members, rng):
    for _, bullet, bracket in poisson_members:
        ctx = poisson_context(bullet, bracket)
        n = bracket.dim
        for x in (_fraction_vector(n, rng), _fraction_vector(n, rng)):
            d0 = lichnerowicz_delta0(ctx, x)
            for i in range(n):
                assert d0(i) == reference_mul_vec(bracket, bracket.basis_vector(i), x)


def reference_derivation_matrix(ring, images) -> Matrix:
    """`TruncatedPolynomialRing.derivation` as it was written over
    dense vector products: D(x^a) = sum_i a_i x^(a - e_i) * D(x_i)."""
    alg = ring.algebra()
    cols = []
    for mono in ring.monomials:
        vec = [Fraction(0)] * ring.dim
        for var in range(ring.nvars):
            if mono[var] == 0:
                continue
            rest = tuple(m - (v == var) for v, m in enumerate(mono))
            rest_vec = tuple(mono[var] if m == rest else 0 for m in ring.monomials)
            term = reference_mul_vec(alg, rest_vec, images[var])
            vec = [a + b for a, b in zip(vec, term)]
        cols.append(tuple(vec))
    return Matrix.from_rows([[cols[j][k] for j in range(ring.dim)] for k in range(ring.dim)])


def test_derivation_matrix_matches_reference(rng):
    for ring in (plane_quotient(), plane_quotient(3), space_quotient_square()):
        n = ring.dim
        for _ in range(3):
            images = [(0,) + _fraction_vector(n - 1, rng) for _ in range(ring.nvars)]
            D, want = ring.derivation(images), reference_derivation_matrix(ring, images)
            assert [D(j) for j in range(n)] == [want.col(j) for j in range(n)]


def test_ring_algebra_is_built_once():
    ring = plane_quotient()
    assert ring.algebra() is ring.algebra()


def test_lichnerowicz_square_zero_on_derivations(rng):
    ring = plane_quotient()
    ctx = poisson_context(ring.algebra(), ring.bracket_algebra((1, 0)))
    n = ring.dim
    for _ in range(20):
        p = (0,) + random_vector(n - 1, rng, 2)
        q = (0,) + random_vector(n - 1, rng, 2)
        one = ring.derivation([p, q])
        assert is_multiderivation(ctx, one)
        image = lichnerowicz_delta(ctx, one)
        assert image.is_skew()
        assert lichnerowicz_delta(ctx, image).is_zero()


def test_lichnerowicz_kills_compatible_brackets():
    ring = plane_quotient()
    ctx = poisson_context(ring.algebra(), ring.bracket_algebra((1, 0)))
    assert lichnerowicz_delta(ctx, ring.poisson_bracket((1, 0))).is_zero()
    assert lichnerowicz_delta(ctx, ring.poisson_bracket((2, 0))).is_zero()
    assert lichnerowicz_delta(ctx, ring.poisson_bracket((0, 1))).is_zero()


def test_lichnerowicz_zero_cochain():
    ring = plane_quotient()
    ctx = poisson_context(ring.algebra(), ring.bracket_algebra((1, 0)))
    assert lichnerowicz_delta(ctx, MultiMap.zero(2, ring.dim)).is_zero()


def test_lichnerowicz_rejects_non_multiderivation():
    ring = plane_quotient()
    ctx = poisson_context(ring.algebra(), ring.bracket_algebra((1, 0)))
    n = ring.dim
    bad = ring.poisson_bracket((1, 0)) + MultiMap(
        2, n, {(1, 2): (1,) + (0,) * 5, (2, 1): (-1,) + (0,) * 5}
    )
    assert bad.is_skew()
    assert not is_multiderivation(ctx, bad)
    with pytest.raises(NotMultiderivation) as info:
        lichnerowicz_delta(ctx, bad)
    assert info.value.slot == 1


def test_lichnerowicz_requires_poisson_pair():
    alg = two_dim_family(6)
    ctx = CochainContext(alg)
    with pytest.raises(ValueError):
        lichnerowicz_delta(ctx, MultiMap.zero(2, 2))


def test_multiderivation_3cocycle_example():
    # K[x,y,z] / m^2 with the skew trilinear map sending (x, y, z) to x:
    # a nonzero skew 3-multiderivation whose Hochschild coboundary vanishes
    ring = space_quotient_square()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    n = alg.dim  # 1, x, y, z
    from wassoc.symgroup import Perm

    def fn(i, j, k):
        if sorted((i, j, k)) == [1, 2, 3]:
            s = Perm(3, _positions((i, j, k))).sign()
            return tuple(s if t == 1 else 0 for t in range(n))
        return (0,) * n

    def _positions(tup):
        return tuple(tup.index(v) + 1 for v in (1, 2, 3))

    psi = MultiMap.from_function(3, n, fn)
    assert not psi.is_zero()
    assert psi.is_skew()
    assert is_multiderivation(ctx, psi)
    assert hochschild_delta(ctx, psi).is_zero()
    # corrupting a low-degree entry destroys the multiderivation property
    bad = psi + MultiMap(
        3,
        n,
        {
            (1, 2, 3): (1,) + (0,) * (n - 1),
            (2, 1, 3): (-1,) + (0,) * (n - 1),
            (2, 3, 1): (1,) + (0,) * (n - 1),
            (3, 2, 1): (-1,) + (0,) * (n - 1),
            (3, 1, 2): (1,) + (0,) * (n - 1),
            (1, 3, 2): (-1,) + (0,) * (n - 1),
        },
    )
    assert bad.is_skew()
    assert not is_multiderivation(ctx, bad)


def test_multiderivation_failure_reports_slot():
    ring = plane_quotient()
    alg = ring.algebra()
    ctx = CochainContext(alg)
    n = alg.dim
    asym = MultiMap(2, n, {(1, 1): (1,) + (0,) * (n - 1)})
    assert not is_multiderivation(ctx, asym)


# ---------------------------------------------------------------------------
# The degree-3 ansatz system.
# ---------------------------------------------------------------------------

def test_delta3_system_shape(delta3_system):
    assert delta3_system.columns == 120
    assert delta3_system.assembled_rows == 360
    assert len(delta3_system.unknowns) == 120
    assert len(delta3_system.monomials) == 360


def reference_delta3_reduction() -> tuple[int, Matrix]:
    """The dense reduction that `build_delta3_system` replaced, on the dense
    reference elimination: the 120 ansatz columns and the naive consequence
    rows (`reference_consequence_generators`) as `Fraction` matrices, each column reduced modulo the RREF of the
    consequences, and the rows at non-pivot coordinates kept.  Returns the
    consequence rank and the reduced matrix."""
    basis = cohomology._free_basis4()
    index = {mono: i for i, mono in enumerate(basis)}
    nrows = len(basis)
    cols = []
    for expr in cohomology._ansatz_columns():
        col = [0] * nrows
        for key, c in expr.coeffs.items():
            col[index[key]] += c
        cols.append(col)
    conseq = []
    for gen in reference_consequence_generators(wa_expression(), "f"):
        row = [0] * nrows
        for key, c in gen.coeffs.items():
            row[index[key]] += c
        conseq.append(row)
    rk, red = reference_rref(Matrix.from_rows(conseq))
    pivots = pivot_columns(red, rk)
    normals = []
    for col in cols:
        out = list(vector(col))
        for r, p in enumerate(pivots):
            f = out[p]
            if f:
                out = [x - f * y for x, y in zip(out, red.row(r))]
        normals.append(out)
    free = [i for i in range(nrows) if i not in set(pivots)]
    return rk, Matrix.from_rows([[n[i] for n in normals] for i in free])


def test_delta3_system_matches_dense_reference(delta3_system):
    rk, reduced = reference_delta3_reduction()
    assert delta3_system.consequence_dim == rk
    assert (reduced.rows, reduced.cols) == (360 - rk, 120)
    assert densify(delta3_system.reduced_rows, 120) == reduced
    assert all(type(x) is Fraction for row in delta3_system.reduced_rows for x in row.values())
    kernel = reference_kernel_basis(reduced)
    assert delta3_system.kernel == kernel and len(kernel) == 48


def test_delta3_kernel_reported(delta3_system):
    assert delta3_system.kernel_dim == 48
    reduced = densify(delta3_system.reduced_rows, 120)
    assert reduced.cols == 120
    for v in delta3_system.kernel[:8]:
        assert all(x == 0 for x in reduced.apply(v))


def test_delta3_kernel_is_relabeling_stable(delta3_system, rng):
    from wassoc.symgroup import all_perms

    kernel = [list(v) for v in delta3_system.kernel]
    perms = all_perms(4)
    for v in kernel[:6]:
        for s in (perms[1], perms[7], perms[23]):
            w = delta3_relabel_coeffs(v, s)
            assert in_span(w, kernel)


def test_delta3_composition_vanishes_on_corpus(delta3_system, wa_members, rng):
    members = [m for m in wa_members if m[1].dim <= 3][:3]
    for v in delta3_system.kernel[:6]:
        for _, alg in members:
            ctx = CochainContext(alg)
            phi = random_multimap(2, alg.dim, rng, 2)
            assert wa_delta3(ctx, wa_delta2(ctx, phi), v).is_zero()


def test_delta3_image_satisfies_cochain4_symmetry(delta3_system, rng):
    # the degree-3 coboundary of a degree-2 coboundary is zero, so the
    # symmetry holds trivially there; check it on the image of a plain
    # 3-cochain for a kernel vector as well
    alg = two_dim_family(6)
    ctx = CochainContext(alg)
    zero = MultiMap.zero(3, alg.dim)
    for v in delta3_system.kernel[:2]:
        assert wa_delta3(ctx, zero, v).is_zero()


def test_delta3_zero_coefficients_give_zero_operator(rng):
    alg = two_dim_family(6)
    ctx = CochainContext(alg)
    phi3 = random_multimap(3, alg.dim, rng, 2)
    assert wa_delta3(ctx, phi3, [0] * 120).is_zero()


@pytest.mark.parametrize("zero", [0.0, False], ids=["float", "bool"])
def test_delta3_rejects_inexact_zero_coefficients(zero, rng):
    alg = two_dim_family(6)
    phi3 = random_multimap(3, alg.dim, rng, 2)
    with pytest.raises(TypeError):
        wa_delta3(CochainContext(alg), phi3, [zero] * 120)


def test_delta3_unknown_labels():
    unknowns = delta3_unknowns()
    assert len(unknowns) == 120
    labels = [unknown_label(f, p) for f, p in unknowns]
    assert len(set(labels)) == 120
    assert labels[0] == "a: x1 * f(x2,x3,x4)"


# ---------------------------------------------------------------------------
# Dense reference: `hochschild_delta` as a loop over every basis tuple in
# Fraction arithmetic, as it was written before it was assembled from
# `finalg.compose`.
# ---------------------------------------------------------------------------

def reference_hochschild_delta(ctx: CochainContext, phi: MultiMap) -> MultiMap:
    alg = ctx.alg
    n = alg.dim
    k = phi.arity

    def fn(*idx):
        out = list(reference_lmul_basis(alg, idx[0], phi(*idx[1:])))
        sign = -1
        for i in range(k):
            merged = alg.mu(idx[i], idx[i + 1])
            for a in range(n):
                if merged[a] != 0:
                    val = phi(*idx[:i], a, *idx[i + 2 :])
                    for t in range(n):
                        out[t] += sign * merged[a] * val[t]
            sign = -sign
        last = reference_rmul_basis(alg, phi(*idx[:-1]), idx[-1])
        for t in range(n):
            out[t] += sign * last[t]
        return tuple(out)

    return MultiMap.from_function(k + 1, n, fn)


def test_hochschild_matches_dense_reference(rng):
    ring = plane_quotient()
    upper = FinAlg.from_products(
        3, {(1, 1): {1: 1}, (1, 2): {2: 1}, (2, 3): {2: 1}, (3, 3): {3: 1}}
    )
    contexts = [
        ring.algebra(),
        ring.algebra().add(ring.bracket_algebra((1, 0))),  # plane quotient with a bracket
        upper,  # associative, not commutative
        two_dim_family(Fraction(5, 2)),
    ]
    for alg in contexts:
        ctx = CochainContext(alg)
        n = alg.dim
        maps = [random_fraction_multimap(arity, n, rng) for arity in (1, 2, 3)]
        maps += [MultiMap.zero(2, n), alg.mu, random_skew_bilinear(n, rng, 2)]
        for phi in maps:
            assert hochschild_delta(ctx, phi) == reference_hochschild_delta(ctx, phi)
