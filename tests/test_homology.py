import tracemalloc
from fractions import Fraction

import pytest
from test_acceptance import rank_mod_p

from wassoc.freewa import as_truncated_algebra, build, dimension_sequence, multiply
from wassoc.homology import ChainComplex, _composite_is_zero, b1b2_symbolic_identity
from wassoc.linalg import Matrix, rank


def reference_terms(n: int, chain: tuple[int, ...], variant: str, prod) -> list:
    """b_n (or its wa variant) on one chain as (coeff, target chain) terms,
    with `prod(i, j)` the index of a product, or None where the product is
    zero."""

    def raw_terms(chain):
        m, rest = chain[0], list(chain[1:])
        out = []
        p = prod(m, rest[0])
        if p is not None:
            out.append((1, tuple([p] + rest[1:])))
        sign = -1
        for i in range(len(rest) - 1):
            p = prod(rest[i], rest[i + 1])
            if p is not None:
                out.append((sign, tuple([m] + rest[:i] + [p] + rest[i + 2 :])))
            sign = -sign
        p = prod(rest[-1], m)
        if p is not None:
            out.append((sign, tuple([p] + rest[:-1])))
        return out

    if variant == "plain" or n == 1:
        return raw_terms(chain)
    if n == 2:
        m, a2, a3 = chain
        return [
            (coeff * c, t)
            for coeff, src in ((1, (m, a2, a3)), (1, (a2, a3, m)), (-1, (a2, m, a3)))
            for c, t in raw_terms(src)
        ]
    m, a2, a3, a4 = chain
    return raw_terms((m, a2, a3, a4)) + raw_terms((m, a4, a3, a2))


def reference_boundary(cc: ChainComplex, n: int, k: int, variant: str = "plain") -> Matrix:
    """The dense boundary `ChainComplex.boundary` replaced: products are read
    from the n x n x n structure-constant table of the truncated free algebra
    by scanning for the one nonzero coordinate, and every cell of the matrix
    is a `Fraction`."""
    trunc = as_truncated_algebra(build(cc.max_degree))

    def prod(i, j):
        hits = [t for t, q in enumerate(trunc.algebra.mu(i, j)) if q != 0]
        return hits[0] if hits else None

    src = cc.chain_basis(n, k)
    dst = cc.chain_basis(n - 1, k)
    dst_index = {c: i for i, c in enumerate(dst)}
    cols = []
    for chain in src:
        col = [Fraction(0)] * len(dst)
        for coeff, target in reference_terms(n, chain, variant, prod):
            col[dst_index[target]] += coeff
        cols.append(col)
    return Matrix.from_rows([[cols[j][i] for j in range(len(src))] for i in range(len(dst))])


def reference_chain_basis(cc: ChainComplex, n: int, k: int) -> list[tuple[int, ...]]:
    """The recursive enumerator the level-by-level one replaced: depth first
    over the n + 1 slots, each slot drawing the labels of every degree that
    still fits, degree by degree, and a chain kept when the degrees sum to k."""
    by_degree: dict[int, list[int]] = {}
    for i, l in enumerate(cc.labels):
        by_degree.setdefault(l.degree, []).append(i)
    out = []

    def rec(prefix, remaining, slots):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            for i in by_degree.get(d, []):
                rec(prefix + [i], remaining - d, slots - 1)

    rec([], k, n + 1)
    return out


def reference_columns(cc: ChainComplex, n: int, k: int, variant: str) -> list[dict[int, int]]:
    """The sparse columns with every product computed by `multiply` on each
    use and looked up in the label index, over the reference chain bases."""

    def prod(i, j):
        return cc.index[multiply(cc.labels[i], cc.labels[j])]

    dst_index = {c: i for i, c in enumerate(reference_chain_basis(cc, n - 1, k))}
    cols = []
    for chain in reference_chain_basis(cc, n, k):
        col: dict[int, int] = {}
        for coeff, target in reference_terms(n, chain, variant, prod):
            t = dst_index[target]
            col[t] = col.get(t, 0) + coeff
        cols.append({t: c for t, c in col.items() if c})
    return cols


@pytest.fixture(scope="module")
def complex11():
    return ChainComplex.up_to_degree(11)


def test_chain_basis_matches_recursive_reference(complex11):
    for n in range(4):
        for k in range(10 if n == 3 else 12):
            assert complex11.chain_basis(n, k) == reference_chain_basis(complex11, n, k), (n, k)


@pytest.mark.parametrize("variant", ["plain", "wa"])
def test_columns_match_multiply_reference(complex11, variant):
    cases = [(n, k) for n in (1, 2, 3) for k in range(9)]
    # the frontier boundaries b1 and b2 in degrees 9-11
    cases += [(n, k) for n in (1, 2) for k in (9, 10, 11)]
    for n, k in cases:
        assert complex11._columns(n, k, variant) == reference_columns(complex11, n, k, variant), (
            n,
            k,
        )


def test_h0_equals_graded_dimensions(chain_complex6):
    dims = dimension_sequence(6)
    for k in range(7):
        assert chain_complex6.homology_dim(0, k) == dims[k]


def test_b1_vanishes_on_commutative_algebra(chain_complex6):
    for k in range(7):
        assert chain_complex6.boundary(1, k).is_zero()


def test_b2_on_unit_triple(chain_complex6):
    b2 = chain_complex6.boundary(2, 0)
    # C_2^0 = {(1,1,1)}, C_1^0 = {(1,1)}: b2(1,1,1) = (1,1)
    assert b2.rows == 1 and b2.cols == 1
    assert b2[0, 0] == 1


def test_b3_wa_low_degree_values(chain_complex6):
    cc = chain_complex6
    # degree-1 chains: find (1,U,1,1) with U the generator
    src = cc.chain_basis(3, 1)
    dst = cc.chain_basis(2, 1)
    mat = cc.boundary(3, 1, "wa")
    gen = 1  # index of the generator label
    col_a = src.index((0, gen, 0, 0))
    col_b = src.index((0, 0, 0, gen))
    image_a = tuple(mat[i, col_a] for i in range(len(dst)))
    image_b = tuple(mat[i, col_b] for i in range(len(dst)))
    assert image_a == image_b
    expected = {
        dst.index((0, 0, gen)): 1,
        dst.index((0, gen, 0)): -1,
    }
    for i, val in enumerate(image_a):
        assert val == expected.get(i, 0)
    # and b3wa(U,1,1,1) = b3wa(1,1,U,1) = 0
    for chain in ((gen, 0, 0, 0), (0, 0, gen, 0)):
        col = src.index(chain)
        assert all(mat[i, col] == 0 for i in range(len(dst)))


def test_h1_through_degree_5(chain_complex6):
    values = [chain_complex6.homology_dim(1, k) for k in range(6)]
    assert values == [0, 1, 1, 1, 1, 2]


def test_h1_degree_6_computed_value(chain_complex6):
    # published value is 5; the exact rank computation (cross-checked with an
    # independent mod-p eliminator in the criterion-06 acceptance test) gives
    # 3, continuing the pattern H1^k = d_(k-1)
    assert chain_complex6.homology_dim(1, 6) == 3
    dims = dimension_sequence(6)
    for k in range(1, 7):
        assert chain_complex6.homology_dim(1, k) == dims[k - 1]


def test_h2_values(chain_complex6):
    assert chain_complex6.homology_dim(2, 1) == 1
    assert chain_complex6.homology_dim(2, 2) == 2


def test_ker_b2_degree1_dimension(chain_complex6):
    b2 = chain_complex6.boundary(2, 1)
    assert b2.cols == 3
    assert b2.cols - rank(b2) == 2


def test_c1_dimension_closed_forms(chain_complex6):
    dims = dimension_sequence(8)
    cc8 = ChainComplex.up_to_degree(8)
    for m in range(2, 9):
        expected = 4 * dims[m] if m % 2 else 4 * dims[m] - dims[m // 2]
        assert cc8.chain_dim(1, m) == expected
    # degree 1 is the seeded exception: the basis is (X,1), (1,X)
    assert cc8.chain_dim(1, 1) == 2


def test_chain_dims_by_enumeration(chain_complex6):
    dims = dimension_sequence(6)
    for k in range(7):
        direct = sum(
            dims[p] * dims[q] for p in range(k + 1) for q in range(k + 1) if p + q == k
        )
        assert chain_complex6.chain_dim(1, k) == direct


def test_compositions_vanish(chain_complex6):
    rep = chain_complex6.composition_vanishing_report()
    assert rep["b1b2_zero"]
    assert rep["b2b3wa_zero"]
    assert rep["b2_equals_b2wa"]
    for k in range(7):
        row = rep["per_degree"][k]
        assert row["b1b2"] and row["b2b3wa"] and row["b2_eq_b2wa"]


def test_symbolic_b1b2_identity():
    assert b1b2_symbolic_identity()


def test_truncation_stability():
    small = ChainComplex.up_to_degree(4)
    large = ChainComplex.up_to_degree(5)
    for n in range(3):
        for k in range(5):
            assert small.homology_dim(n, k) == large.homology_dim(n, k)


def test_degree_beyond_bound_rejected(chain_complex6):
    with pytest.raises(ValueError, match="trusted bound"):
        chain_complex6.homology_dim(1, 7)
    with pytest.raises(ValueError):
        chain_complex6.chain_basis(1, 9)


def test_table_shape(chain_complex6):
    table = chain_complex6.table()
    assert len(table) == 21  # n = 0..2, k = 0..6
    by_key = {(r["n"], r["k"]): r for r in table}
    assert by_key[(1, 5)]["dimH"] == 2
    assert by_key[(2, 2)]["dimH"] == 2
    assert by_key[(0, 6)]["dimH"] == 6


@pytest.mark.parametrize("variant", ["plain", "wa"])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_boundary_matches_dense_reference(n, variant):
    cc = ChainComplex.up_to_degree(7)
    for k in range(8):
        b = cc.boundary(n, k, variant)
        assert b == reference_boundary(cc, n, k, variant), (n, k, variant)
        assert all(type(x) is Fraction for row in b.entries for x in row)


def test_boundary_rejects_bad_arguments(chain_complex6):
    with pytest.raises(ValueError, match="chain length"):
        chain_complex6.boundary(4, 2)
    with pytest.raises(ValueError, match="variant"):
        chain_complex6.boundary(2, 2, "associative")
    with pytest.raises(ValueError, match="homology implemented"):
        chain_complex6.homology_dim(3, 2)


@pytest.fixture(scope="module")
def complex13():
    return ChainComplex.up_to_degree(13)


def test_h1_equals_previous_dimension_through_degree_13(complex13):
    cc = complex13
    dims = dimension_sequence(13)
    assert [cc.homology_dim(1, k) for k in range(1, 14)] == dims[:13]


def test_homology_closed_forms_through_degree_13(complex13):
    """H1^k = d_(k-1) and H2^k = sum_{i=0..k} d_i d_(k-i) - d_k, with d the
    Wedderburn-Etherington numbers and d_0 = 1, for k = 1..13; the ranks of
    b2 and b3^wa behind them agree with `rank_mod_p` through degree 10."""
    cc, d = complex13, dimension_sequence(13)
    for k in range(1, 14):
        h2 = sum(d[i] * d[k - i] for i in range(k + 1)) - d[k]
        assert (cc.homology_dim(1, k), cc.homology_dim(2, k)) == (d[k - 1], h2), k
    assert cc.homology_dim(2, 13) == 2949
    for k in range(1, 11):
        for n, variant in ((2, "plain"), (3, "wa")):
            dim = cc.chain_dim(n - 1, k)
            dense = [[col.get(i, 0) for i in range(dim)] for col in cc._columns(n, k, variant)]
            assert rank_mod_p(dense) == cc._rank(n, k), (n, k)


def test_table_and_report_build_each_degree_once(monkeypatch):
    """`table` builds b1, b2, b2^wa and b3^wa once per degree on one set of
    chain lists; the composition report after it builds nothing, and
    agrees with a report on a fresh complex."""
    built = []
    chains, columns = ChainComplex._chains, ChainComplex._columns
    monkeypatch.setattr(ChainComplex, "_chains", lambda cc, n, k: built.append((n, k)) or chains(cc, n, k))
    monkeypatch.setattr(
        ChainComplex, "_columns",
        lambda cc, n, k, variant, shared=None: built.append((n, k, variant)) or columns(cc, n, k, variant, shared),
    )
    cc = ChainComplex.up_to_degree(6)
    cc.table()
    def degree(k):  # b1 builds C0 and C1, b2 adds C2, b3^wa adds C3
        return [(1, k, "plain"), (0, k), (1, k), (2, k, "plain"), (2, k), (2, k, "wa"), (3, k, "wa"), (3, k)]

    assert built == [call for k in range(7) for call in degree(k)]
    built.clear()
    report = cc.composition_vanishing_report()
    assert built == []
    assert report == ChainComplex.up_to_degree(6).composition_vanishing_report()


def test_report_homology_section_builds_each_boundary_once(monkeypatch):
    """verify's homology section runs the composition pass first, so its
    homology dimensions read recorded ranks: b1, b2, b2^wa and b3^wa once
    in each degree 0..6, 28 builds with none repeated."""
    from wassoc import report

    built = []
    columns = ChainComplex._columns
    monkeypatch.setattr(
        ChainComplex, "_columns",
        lambda cc, n, k, variant, shared=None: built.append((n, k, variant)) or columns(cc, n, k, variant, shared),
    )
    rep = report.Report()
    report._homology_checks(rep)
    boundaries = ((1, "plain"), (2, "plain"), (2, "wa"), (3, "wa"))
    assert sorted(built) == sorted((n, k, v) for k in range(7) for n, v in boundaries)
    assert [c.id for c in rep.failed] == ["homology.h1-degree6"]


def test_complex_keeps_no_chains_or_columns():
    """With the complex alive after the frontier homology (H0 and H1 in
    degrees 9-11), its traced memory is its labels, product table, chain
    dimensions and ranks: under 1 MB, where keeping every chain list and
    boundary column took about 1.8 MB."""
    tracemalloc.start()
    try:
        cc = ChainComplex.up_to_degree(11)
        dims = [(cc.homology_dim(0, k), cc.homology_dim(1, k)) for k in (9, 10, 11)]
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dims == [(46, 23), (98, 46), (207, 98)]
    assert current < 2**20, current
    assert cc.chain_dim(2, 11) == 2430


def test_h2_computed_values_with_mod_p_ranks():
    # only H2 in degrees 1 and 2 is published; the rest pins the computation
    cc = ChainComplex.up_to_degree(8)
    h2 = [cc.homology_dim(2, k) for k in range(1, 9)]
    assert h2 == [1, 2, 3, 5, 9, 17, 33, 67]
    for k in range(1, 9):
        b2, b3 = cc.boundary(2, k), cc.boundary(3, k, "wa")
        ranks = [rank_mod_p([[int(q) for q in row] for row in m.entries]) for m in (b2, b3)]
        assert ranks == [rank(b2), rank(b3)], k
        assert h2[k - 1] == cc.chain_dim(2, k) - ranks[0] - ranks[1]


def test_sparse_composite_matches_dense_product(chain_complex6):
    # b2 b3 (plain b3) is nonzero from degree 4 on, so both answers occur
    cc = chain_complex6
    seen = set()
    for k in range(7):
        for (n, outer), (m, inner) in (
            ((1, "plain"), (2, "plain")),
            ((2, "plain"), (3, "plain")),
            ((2, "plain"), (3, "wa")),
        ):
            dense = (cc.boundary(n, k, outer) @ cc.boundary(m, k, inner)).is_zero()
            sparse = _composite_is_zero(cc._columns(n, k, outer), cc._columns(m, k, inner))
            assert sparse == dense, (k, n, m)
            seen.add(dense)
    assert seen == {True, False}


def test_compositions_vanish_through_degree_10():
    rep = ChainComplex.up_to_degree(10).composition_vanishing_report()
    assert rep["b1b2_zero"] and rep["b2b3wa_zero"] and rep["b2_equals_b2wa"]
    assert all(all(row.values()) for row in rep["per_degree"].values())
    assert sorted(rep["per_degree"]) == list(range(11))
