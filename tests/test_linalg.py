import copy
import pickle
from fractions import Fraction
from math import gcd

import pytest

from wassoc import cohomology, identities, linalg, operads
from wassoc.cohomology import build_delta3_system
from wassoc.homology import ChainComplex
from wassoc.linalg import (
    Matrix,
    as_rational,
    dense_row,
    in_span,
    kernel_basis,
    rank,
    rref,
    sparse_kernel,
    sparse_rank,
    sparse_reduce,
    sparse_rref,
    vector,
)
from wassoc.operads import consequences, wa_relation_space


def reference_rref(m: Matrix) -> tuple[int, Matrix]:
    """Dense Gauss-Jordan elimination in `Fraction` arithmetic, pivoting on
    the first nonzero entry of each column: the slow reference that
    `linalg.rref` must agree with."""
    rows = [list(r) for r in m.entries]
    nrows, ncols = m.rows, m.cols
    piv = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(piv, nrows):
            if rows[r][col] != 0:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[piv], rows[pivot_row] = rows[pivot_row], rows[piv]
        pv = rows[piv][col]
        if pv != 1:
            inv = Fraction(1) / pv
            rows[piv] = [x * inv for x in rows[piv]]
        prow = rows[piv]
        for r in range(nrows):
            if r != piv and rows[r][col] != 0:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], prow)]
        piv += 1
        if piv == nrows:
            break
    return piv, Matrix.from_rows(rows)


def pivot_columns(reduced: Matrix, rk: int) -> list[int]:
    """The pivot column of each of the first rk rows of a dense RREF."""
    pivots = []
    col = 0
    for r in range(rk):
        while reduced[r, col] == 0:
            col += 1
        pivots.append(col)
        col += 1
    return pivots


def reduce_modulo(reduced: Matrix, rk: int, v) -> tuple:
    """Dense normal form of v modulo a dense RREF of rank rk: v minus the
    combination of its rows that clears every pivot coordinate."""
    normal = list(vector(v))
    for r, p in enumerate(pivot_columns(reduced, rk)):
        f = normal[p]
        normal = [x - f * y for x, y in zip(normal, reduced.row(r))]
    return tuple(normal)


def same_span(a, b) -> bool:
    """Two families of vectors span the same subspace iff their RREFs, as
    `sparse_rref` rows, are equal."""
    cols = len(a[0])
    return sparse_rref([dict(enumerate(x)) for x in a], cols) == sparse_rref(
        [dict(enumerate(x)) for x in b], cols
    )


def assert_agrees_with_reference(m: Matrix, expected: tuple[int, Matrix] | None = None):
    """Same rank, same RREF with `Fraction` entries, and the same kernel basis
    as the one read off the reference RREF (`expected`, when the caller has
    already computed `reference_rref(m)`)."""
    if expected is None:
        expected = reference_rref(m)
    rk, red = rref(m)
    assert (rk, red) == expected
    assert rank(m) == rk
    assert all(type(x) is Fraction for row in red.entries for x in row)
    assert kernel_basis(m) == reference_kernel_basis(m, expected)


def densify(rows, cols: int) -> Matrix:
    return Matrix.from_rows([[row.get(j, 0) for j in range(cols)] for row in rows])


def rref_inputs(monkeypatch, build) -> list[Matrix]:
    """Every set of rows `build()` hands to `sparse_rref`, the elimination
    behind `rref`, as a dense matrix, in call order."""
    seen = []

    def recording(rows, cols):
        rows = list(rows)
        seen.append(densify(rows, cols))
        return sparse_rref(rows, cols)

    with monkeypatch.context() as patched:
        for module in (linalg, identities, operads, cohomology):
            patched.setattr(module, "sparse_rref", recording)
        build()
    return seen


def test_rref_identity():
    m = Matrix.identity(3)
    rk, red = rref(m)
    assert rk == 3
    assert red == m


def test_rref_proportional_rows():
    m = Matrix.from_rows([[1, 2, 3], [2, 4, 6]])
    rk, red = rref(m)
    assert rk == 1
    assert red.row(0) == vector([1, 2, 3])
    assert all(x == 0 for x in red.row(1))


def test_rref_idempotent(rng):
    for _ in range(20):
        m = Matrix.from_rows(
            [[rng.randint(-4, 4) for _ in range(5)] for _ in range(4)]
        )
        _, red = rref(m)
        assert rref(red)[1] == red


def test_rank_nullity(rng):
    for _ in range(20):
        rows = rng.randint(1, 6)
        cols = rng.randint(1, 6)
        m = Matrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        )
        assert rank(m) == cols - len(kernel_basis(m))


def test_kernel_vectors_annihilate(rng):
    for _ in range(20):
        m = Matrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(6)] for _ in range(4)]
        )
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.apply(v))


def test_kernel_trivial_cases():
    assert kernel_basis(Matrix.identity(4)) == []
    zero = Matrix.zero(2, 5)
    basis = kernel_basis(zero)
    assert len(basis) == 5


def test_in_span_trivialities():
    basis = [vector([1, 0, 2]), vector([0, 1, 1])]
    assert in_span([0, 0, 0], basis)
    assert in_span(basis[0], basis)
    assert in_span([1, 1, 3], basis)
    assert not in_span([0, 0, 1], basis)
    assert not in_span([1, 0, 0], [])
    assert in_span([0, 0, 0], [])


def test_in_span_matches_rank_criterion(rng):
    for _ in range(30):
        basis = [
            vector([rng.randint(-2, 2) for _ in range(4)]) for _ in range(3)
        ]
        v = vector([rng.randint(-2, 2) for _ in range(4)])
        direct = in_span(v, basis)
        b = Matrix.from_rows(basis)
        stacked = Matrix.from_rows(list(basis) + [v])
        assert direct == (rank(b) == rank(stacked))


def test_fraction_entries_exact():
    m = Matrix.from_rows([[Fraction(1, 3), Fraction(1, 6)], [1, 2]])
    rk, red = rref(m)
    assert rk == 2
    assert red == Matrix.identity(2)


def test_matmul_and_apply():
    a = Matrix.from_rows([[1, 2], [3, 4]])
    b = Matrix.from_rows([[0, 1], [1, 0]])
    assert (a @ b) == Matrix.from_rows([[2, 1], [4, 3]])
    assert a.apply([1, 1]) == vector([3, 7])


def naive_matmul(a: Matrix, b: Matrix) -> Matrix:
    """The dense product `Matrix.__matmul__` replaced: every cell, zeros
    included."""
    if a.cols != b.rows:
        raise ValueError("shape mismatch")
    cols = [b.col(j) for j in range(b.cols)]
    return Matrix.from_rows([[sum(x * y for x, y in zip(r, c)) for c in cols] for r in a.entries])


def random_sparse_matrix(rng, rows, cols, zero_rows=(), zero_cols=()):
    """Fractions with denominators up to 6, about half the cells zero; built
    directly so that 0 x k and n x 0 shapes keep their other dimension."""
    return Matrix(
        rows,
        cols,
        tuple(
            vector(
                0
                if i in zero_rows or j in zero_cols or rng.random() < 0.5
                else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
                for j in range(cols)
            )
            for i in range(rows)
        ),
    )


@pytest.mark.parametrize(
    "shape", [(0, 0, 0), (0, 3, 2), (2, 0, 3), (3, 2, 0), (1, 1, 1), (4, 5, 3), (7, 7, 7)]
)
def test_matmul_and_apply_match_dense_product(shape, rng):
    n, k, m = shape
    for trial in range(10):
        zero_rows = {0} if n and trial % 2 else set()
        zero_cols = {k - 1} if k and trial % 3 == 0 else set()
        a = random_sparse_matrix(rng, n, k, zero_rows, zero_cols)
        b = random_sparse_matrix(rng, k, m, zero_cols={0} if m and trial % 2 else ())
        product = a @ b
        assert product == naive_matmul(a, b)
        assert all(type(x) is Fraction for row in product.entries for x in row)
        v = random_sparse_matrix(rng, 1, k).entries[0] if k else ()
        applied = a.apply(v)
        assert applied == tuple(sum(x * y for x, y in zip(r, v)) for r in a.entries)
        assert all(type(x) is Fraction for x in applied)
    with pytest.raises(ValueError):
        Matrix.zero(2, 3) @ Matrix.zero(2, 3)
    with pytest.raises(ValueError):
        Matrix.zero(2, 3).apply([1, 2])


def test_same_span():
    a = [vector([1, 0, 0]), vector([0, 1, 0])]
    b = [vector([1, 1, 0]), vector([1, -1, 0])]
    assert same_span(a, b)
    assert not same_span(a, [vector([0, 0, 1])])


def test_row_space_basis_is_reduced():
    m = Matrix.from_rows([[2, 4], [1, 2], [0, 1]])
    basis = [linalg.dense_row(row, 2) for row in sparse_rref([dict(enumerate(r)) for r in m.entries], 2)]
    assert basis == [vector([1, 0]), vector([0, 1])]


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        Matrix.from_rows([[1, 2], [1]])


def test_rref_matches_reference_on_wa_consequences(monkeypatch):
    (m,) = [
        m for m in rref_inputs(monkeypatch, lambda: consequences(wa_relation_space()))
        if (m.rows, m.cols) == (80, 120)
    ]
    assert_agrees_with_reference(m)


def test_rref_matches_reference_on_delta3_system(monkeypatch, delta3_system):
    closure, conseq, reduced = rref_inputs(monkeypatch, build_delta3_system)
    assert (closure.rows, rank(closure)) == (6, 4)
    assert (conseq.rows, conseq.cols) == (80, 360)
    assert rank(conseq) == delta3_system.consequence_dim
    assert reduced == densify(delta3_system.reduced_rows, 120)
    assert_agrees_with_reference(closure)
    assert_agrees_with_reference(conseq)
    assert_agrees_with_reference(reduced)


@pytest.fixture(scope="module")
def homology_b2():
    """b2 of the degree-9 complex in degrees 6 and 9, each with its
    reference RREF, computed once for the two tests below."""
    complex9 = ChainComplex.up_to_degree(9)
    b2s = [complex9.boundary(2, k, "plain") for k in (6, 9)]
    return [(b2, reference_rref(b2)) for b2 in b2s]


def test_rref_matches_reference_on_homology_b2(homology_b2):
    for b2, expected in homology_b2:
        assert_agrees_with_reference(b2, expected)


def integer_rows(m: Matrix) -> list[dict[int, int]]:
    return [{j: int(x) for j, x in enumerate(row) if x} for row in m.entries]


def test_sparse_rank_matches_reference_on_homology_b2(homology_b2):
    for b2, (expected, _) in homology_b2:
        assert sparse_rank(integer_rows(b2)) == expected
        assert sparse_rank(integer_rows(b2.transpose())) == expected


def test_sparse_rank_matches_reference_on_random_integer_rows(rng):
    for trial in range(40):
        cols = rng.randint(1, 9)
        dense = [
            [0 if rng.random() < 0.6 else rng.randint(-10**6, 10**6) for _ in range(cols)]
            for _ in range(rng.randint(1, 9))
        ]
        dense.append([0] * cols)
        dense.append(list(dense[rng.randrange(len(dense))]))
        rng.shuffle(dense)
        # explicit zero entries and empty rows are allowed in the input
        rows = [{j: x for j, x in enumerate(r) if x or rng.random() < 0.3} for r in dense]
        rows.append({})
        snapshot = [list(row.items()) for row in rows]
        expected = reference_rref(Matrix.from_rows(dense))[0]
        assert sparse_rank(rows) == expected, trial
        assert sparse_rank(iter(rows)) == expected
        assert sparse_rank([{j: x for j, x in row.items() if x} for row in rows]) == expected
        # the caller's rows, explicit zeros included, are left as they were
        assert [list(row.items()) for row in rows] == snapshot, trial
    assert sparse_rank([]) == 0
    assert sparse_rank([{}, {3: 0}]) == 0


BAD_ROWS = [{0: 0.5}, {0: True}, {0: Fraction(1, 2)}, {0: "1"}, {"0": 1}, {1.0: 1}]


@pytest.mark.parametrize("row", BAD_ROWS)
def test_sparse_rank_rejects_non_integer_rows(row):
    with pytest.raises(TypeError):
        sparse_rank([{1: 1}, row])


@pytest.mark.parametrize("row", BAD_ROWS)
def test_sparse_rank_rejects_a_late_bad_row_from_a_generator(row):
    good = [{j: j + 1, j + 1: -1} for j in range(1000)]
    with pytest.raises(TypeError):
        sparse_rank(r for r in good + [row])


def test_rref_matches_reference_on_random_rationals(rng):
    def entry():
        if rng.random() < 0.3:
            return 0
        return Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**12))

    for _ in range(40):
        rows, cols, inner = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 3)
        a = Matrix.from_rows([[entry() for _ in range(inner)] for _ in range(rows)])
        b = Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(inner)])
        low_rank = a @ b
        assert rank(low_rank) <= inner
        assert_agrees_with_reference(low_rank)
        full = Matrix.from_rows([[entry() for _ in range(cols)] for _ in range(rows)])
        assert_agrees_with_reference(full)


@pytest.mark.parametrize(
    "m",
    [Matrix(0, 0, ()), Matrix.zero(0, 5), Matrix.from_rows([[], [], []]), Matrix.zero(3, 4)],
    ids=["0x0", "zero-row", "zero-column", "all-zero"],
)
def test_rref_matches_reference_on_empty_shapes(m):
    assert_agrees_with_reference(m)
    assert rank(m) == 0


def test_reduce_modulo_clears_pivots_and_stays_in_coset(rng):
    for _ in range(20):
        basis = [vector([rng.randint(-3, 3) for _ in range(6)]) for _ in range(3)]
        v = vector([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)])
        rk, red = rref(Matrix.from_rows(basis))
        normal = reduce_modulo(red, rk, v)
        assert all(normal[p] == 0 for p in pivot_columns(red, rk))
        assert in_span([x - y for x, y in zip(v, normal)], basis)
        assert (not any(normal)) == in_span(v, basis)


def test_in_span_takes_one_rref_and_checks_lengths(monkeypatch):
    answers = []
    basis = [[1, 0, 2], [0, 1, 1]]
    (m,) = rref_inputs(monkeypatch, lambda: answers.append(in_span([1, 1, 3], basis)))
    assert answers == [True] and m == Matrix.from_rows(basis)
    with pytest.raises(ValueError):
        in_span([1, 0], [[1, 0, 0]])


def test_sparse_rref_matches_reference_on_sparse_rationals(rng):
    for _ in range(40):
        cols = rng.randint(1, 9)
        rows = []
        for _ in range(rng.randint(0, 9)):
            row = {}
            for j in range(cols):
                r = rng.random()
                if r < 0.2:
                    row[j] = 0  # explicit zeros are allowed
                elif r < 0.5:
                    row[j] = rng.randint(-10**6, 10**6)
                elif r < 0.7:
                    row[j] = Fraction(rng.randint(-10**9, 10**9), rng.randint(1, 10**12))
            rows.append(row)
        if rows:
            rows.append(dict(rows[rng.randrange(len(rows))]))
        reduced = sparse_rref(rows, cols)
        expected_rank, expected = reference_rref(densify(rows, cols)) if rows else (0, None)
        assert len(reduced) == expected_rank
        for i, row in enumerate(reduced):
            assert all(type(x) is Fraction and x for x in row.values())
            assert list(row) == sorted(row) and row[min(row)] == 1
            assert linalg.dense_row(row, cols) == expected.row(i)


def test_sparse_rref_rejects_bad_rows():
    assert sparse_rref([], 3) == [] and sparse_rref([{}, {1: 0}], 3) == []
    for bad in ({0: 1.5}, {0: True}, {0: "1"}):
        with pytest.raises(TypeError):
            sparse_rref([bad], 2)
    for bad in ({2: 1}, {-1: 1}, {True: 1}, {"0": 1}):
        with pytest.raises(ValueError):
            sparse_rref([bad], 2)


def test_sparse_reduce_matches_dense_normal_form(rng):
    for _ in range(20):
        basis = [vector([rng.randint(-3, 3) for _ in range(6)]) for _ in range(3)]
        v = vector([Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(6)])
        rk, red = rref(Matrix.from_rows(basis))
        pivots = sparse_rref([dict(enumerate(b)) for b in basis], 6)
        sparse = sparse_reduce(pivots, dict(enumerate(v)))
        assert all(sparse.values())
        assert linalg.dense_row(sparse, 6) == reduce_modulo(red, rk, v)


def test_booleans_are_not_rationals():
    with pytest.raises(TypeError):
        as_rational(True)
    with pytest.raises(TypeError):
        Matrix.from_rows([[True, 0]])


def test_strings_are_not_rationals():
    for parse in (lambda: as_rational("1/2"), lambda: vector(["3"]), lambda: Matrix.from_rows([["1/2"]])):
        with pytest.raises(TypeError):
            parse()
    with pytest.raises(TypeError):
        Matrix.from_rows([["1/2", " 3"], [0, "1_0"]])


def reference_kernel_basis(m: Matrix, reference: tuple[int, Matrix] | None = None) -> list:
    """The dense null-space read-off that `sparse_kernel` replaced, on the
    reference RREF (`reference`, when already computed)."""
    rk, red = reference_rref(m) if reference is None else reference
    pivots = pivot_columns(red, rk)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -red[r, f]
        basis.append(tuple(v))
    return basis


def test_sparse_kernel_matches_dense_reference(rng, delta3_system):
    d3_reduced = densify(delta3_system.reduced_rows, delta3_system.columns)
    d4_relations = densify(operads.dual_arity4_generators(), 24)
    cases = [d3_reduced, d4_relations, Matrix.zero(2, 3)]
    for _ in range(30):
        cols = rng.randint(1, 7)
        cases.append(Matrix.from_rows(
            [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.5 else 0 for _ in range(cols)]
             for _ in range(rng.randint(1, 6))]
        ))
    references = []
    for m in cases:
        expected = reference_kernel_basis(m)
        references.append(expected)
        sparse = [{j: x for j, x in enumerate(row) if x} for row in m.entries]
        kernel = sparse_kernel(sparse_rref(sparse, m.cols), m.cols)
        assert [dense_row(v, m.cols) for v in kernel] == expected
        assert kernel_basis(m) == expected
        assert all(type(x) is Fraction for v in expected for x in v)
    d3_reference, d4_reference = references[:2]
    assert [dense_row(v, 120) for v in delta3_system.kernel] == d3_reference
    d4 = operads.wass_dual_arity4()
    assert (d4.rank, [dense_row(v, 24) for v in d4.kernel]) == (16, d4_reference)


def test_sparse_kernel_rows_are_sparse_in_column_order(rng):
    """Each kernel row holds only its nonzero `Fraction` entries, keyed in
    column order: 1 at its free column, and that is its last key."""
    for _ in range(30):
        cols = rng.randint(1, 7)
        rows = [
            {j: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for j in range(cols) if rng.random() < 0.5}
            for _ in range(rng.randint(1, 6))
        ]
        reduced = sparse_rref(rows, cols)
        kernel = sparse_kernel(reduced, cols)
        pivots = {next(iter(row)) for row in reduced}
        assert [max(v) for v in kernel] == [f for f in range(cols) if f not in pivots]
        for v in kernel:
            assert list(v) == sorted(v) and v[max(v)] == 1
            assert all(type(x) is Fraction and x for x in v.values())
            assert all(sum(x * row.get(j, 0) for j, x in v.items()) == 0 for row in rows)


def reference_echelon(rows):
    """The forward elimination `_echelon` replaced: rows taken in the order
    given, each reduced on its leading column until that column has no pivot
    yet, with no peeling and no reordering."""
    pivots = {}
    for row in rows:
        row = linalg._primitive(row)
        while row:
            lead = min(row)
            pivot = pivots.get(lead)
            if pivot is None:
                pivots[lead] = row
                break
            row = linalg._eliminate(row, pivot, lead)
    return pivots


def assert_kernel_matches_reference_echelon(monkeypatch, rows, cols):
    """`sparse_rref` and `sparse_rank` on `rows` agree with the same routines
    run on `reference_echelon`; the rows are left as they were, and two runs
    of `_echelon` return identical pivots in identical order."""
    integral = [linalg._cleared(row.items()) for row in rows]
    snapshot = [list(row.items()) for row in rows + integral]
    with monkeypatch.context() as patched:
        patched.setattr(linalg, "_echelon", reference_echelon)
        expected = sparse_rref(rows, cols)
    assert sparse_rref(rows, cols) == expected
    assert sparse_rank(integral) == len(expected) == len(reference_echelon(filter(None, integral)))
    runs = [list(linalg._echelon(filter(None, integral)).items()) for _ in range(2)]
    assert runs[0] == runs[1]
    assert all(min(row) == lead and gcd(*row.values()) == 1 for lead, row in runs[0])
    assert [list(row.items()) for row in rows + integral] == snapshot


def test_echelon_peels_singletons_in_cascade_then_takes_shortest_rows_first():
    """Peeling column 2 leaves row 1 a singleton, peeling column 1 leaves
    row 0 one; each peeled column gets the pivot {j: 1}.  Of the rows left,
    the two-entry rows are reduced before the three-entry one, and the two
    that tie on columns 6 and 7 in the order given."""
    rows = [
        {0: 3, 1: 5}, {1: -2, 2: 7}, {2: 4}, {0: 6, 3: 9, 4: 1, 5: 1}, {3: 2, 4: 2},
        {6: 1, 7: 2}, {6: 3, 7: 1},
    ]
    snapshot = [dict(row) for row in rows]
    assert list(linalg._echelon(rows).items()) == [
        (2, {2: 1}), (1, {1: 1}), (0, {0: 1}),
        (3, {3: 1, 4: 1}), (6, {6: 1, 7: 2}), (7, {7: -1}), (4, {4: -8, 5: 1}),
    ]
    assert rows == snapshot


def test_kernel_matches_reference_echelon_on_homology_boundaries(monkeypatch):
    """b2 in degrees up to 11 and b3^wa in degrees up to 10, as the columns
    handed to `sparse_rank`."""
    cc = ChainComplex.up_to_degree(11)
    for n, variant, top in ((2, "plain", 11), (3, "wa", 10)):
        for k in range(top + 1):
            rows = cc._columns(n, k, variant)
            assert_kernel_matches_reference_echelon(monkeypatch, rows, cc.chain_dim(n - 1, k))


def test_kernel_matches_reference_echelon_on_delta3_and_consequences(monkeypatch):
    systems = rref_inputs(monkeypatch, build_delta3_system)
    systems += rref_inputs(monkeypatch, lambda: consequences(wa_relation_space()))
    assert len(systems) >= 4
    for m in systems:
        rows = [{j: x for j, x in enumerate(r) if x} for r in m.entries]
        assert_kernel_matches_reference_echelon(monkeypatch, rows, m.cols)


def test_kernel_matches_reference_echelon_on_planted_singletons(monkeypatch, rng):
    """Random integer rows with planted singleton rows, duplicate rows and
    chains of rows that become singletons only once an earlier singleton's
    column is peeled off them."""
    for trial in range(60):
        cols = rng.randint(2, 12)
        rows = [
            {j: rng.randint(-10**3, 10**3) for j in range(cols) if rng.random() < 0.4}
            for _ in range(rng.randint(0, 8))
        ]
        for _ in range(rng.randint(1, 3)):
            chain = rng.sample(range(cols), rng.randint(1, cols))
            rows.append({chain[0]: rng.choice([-7, -1, 1, 3])})
            rows += [{a: rng.randint(-9, 9) or 1, b: rng.randint(-9, 9) or 1} for a, b in zip(chain, chain[1:])]
        rows += [dict(rows[rng.randrange(len(rows))]) for _ in range(rng.randint(0, 3))]
        rows.append({})
        rng.shuffle(rows)
        assert_kernel_matches_reference_echelon(monkeypatch, rows, cols)
        dense = [[row.get(j, 0) for j in range(cols)] for row in rows]
        assert sparse_rank(rows) == reference_rref(Matrix.from_rows(dense))[0], trial


def test_matrix_copies_and_pickles_as_a_value():
    """`Matrix` is frozen and slotted; copy, deepcopy and pickle rebuild it
    through its constructor and give an equal, still frozen matrix."""
    m = Matrix.from_rows([[1, Fraction(1, 2)], [0, -3]])
    for twin in (copy.copy(m), copy.deepcopy(m), pickle.loads(pickle.dumps(m))):
        assert twin == m and hash(twin) == hash(m) and repr(twin) == repr(m)
        with pytest.raises(AttributeError):
            twin.rows = 3
    assert copy.deepcopy({"d": [m]}) == {"d": [m]}
