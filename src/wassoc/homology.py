"""Degree-graded chain complexes over the free one-generator algebra.

Chains of length n are (n+1)-tuples of basis labels, graded by total degree;
the boundary maps are

  b_n(m, a1, .., an) = (m a1, a2, .., an)
                       + sum_{i=1}^{n-1} (-1)^i (m, a1, .., a_i a_{i+1}, .., an)
                       + (-1)^n (a_n m, a1, .., a_{n-1})

with the weakly associative variants
  b2^wa = b2 + b2 . cyclic - b2 . swap12  and  b3^wa = b3 + b3 . swap24.

The complex is built from the labels of `freewa.build`.  Its product table
is built once, on first use: for every pair of labels whose degrees sum to at
most the bound, the index of `multiply(u, v)` in the label index, keyed by
one int (i * len(labels) + j); the boundaries read products from it.  Every
product in a degree-k boundary stays in degree k, so homology in degree k is
exact as soon as the degree bound is at least k.  Chains are grown one slot
at a time from the labels grouped by degree.  A boundary is filled one term
of its formula at a time over the whole source basis, the wa variants being
signed sums of b_n on reordered chains, and is kept as sparse integer
columns `{target chain index: coefficient}`; ranks are taken on those
columns with `linalg.sparse_rank`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import itemgetter

from .freewa import Label, build, multiply
from .linalg import Matrix, sparse_rank


@dataclass
class ChainComplex:
    """Chains on the labels of degree at most `max_degree` (`index` maps a
    label to its position in `labels`).  The labels grouped by degree, the
    product table, chain bases, boundaries and ranks are computed once and
    kept."""

    labels: list[Label]
    index: dict[Label, int]
    max_degree: int
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @staticmethod
    def up_to_degree(max_degree: int) -> "ChainComplex":
        labels = build(max_degree).all_labels()
        return ChainComplex(labels, {l: i for i, l in enumerate(labels)}, max_degree)

    def _cached(self, key, compute):
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = compute()
        return value

    def _check_degree(self, k: int):
        if k > self.max_degree:
            raise ValueError(
                f"degree {k} beyond the trusted bound {self.max_degree}"
            )

    def _basis(self, n: int, k: int) -> list[tuple[int, ...]]:
        self._check_degree(k)
        return self._cached(("basis", n, k), lambda: self._enumerate_chains(n, k))

    def _enumerate_chains(self, n: int, k: int) -> list[tuple[int, ...]]:
        """Grow the prefixes one slot at a time, each slot drawing the
        labels of every degree that still fits, degree by degree; the last
        slot takes exactly the remaining degree.  Lex order in the labels."""
        by_degree = self._cached("by_degree", self._labels_by_degree)
        prefixes = [((), k)]
        for _ in range(n):
            prefixes = [
                (prefix + (i,), remaining - d)
                for prefix, remaining in prefixes
                for d in range(remaining + 1)
                for i in by_degree.get(d, ())
            ]
        return [
            prefix + (i,)
            for prefix, remaining in prefixes
            for i in by_degree.get(remaining, ())
        ]

    def _labels_by_degree(self) -> dict[int, list[int]]:
        by_degree: dict[int, list[int]] = {}
        for i, l in enumerate(self.labels):
            by_degree.setdefault(l.degree, []).append(i)
        return by_degree

    def chain_basis(self, n: int, k: int) -> list[tuple[int, ...]]:
        """Index tuples (m, a1..an) with degrees summing to k, lex order."""
        return list(self._basis(n, k))

    def chain_dim(self, n: int, k: int) -> int:
        return len(self._basis(n, k))

    def _products(self) -> dict[int, int]:
        """Product table: the index of labels i * j under the key
        i * len(labels) + j, for every pair whose degrees sum to at most
        `max_degree`.  The product is commutative, so each pair is
        multiplied once."""
        by_degree = self._cached("by_degree", self._labels_by_degree)
        labels, index, width = self.labels, self.index, len(self.labels)
        table: dict[int, int] = {}
        for d, left in by_degree.items():
            for e, right in by_degree.items():
                if d > e or d + e > self.max_degree:
                    continue
                for i in left:
                    for j in right:
                        p = index[multiply(labels[i], labels[j])]
                        table[i * width + j] = table[j * width + i] = p
        return table

    @staticmethod
    def _sources(n: int, variant: str) -> tuple[tuple[int, tuple[int, ...]], ...]:
        """b_n or its wa variant as (coefficient, slot order) pairs: the
        image of a chain c is the sum of coefficient * b_n(c[order])."""
        if variant == "plain" or n == 1:
            return ((1, tuple(range(n + 1))),)
        if n == 2:  # b2^wa = b2 + b2 . cyclic - b2 . swap12
            return ((1, (0, 1, 2)), (1, (1, 2, 0)), (-1, (1, 0, 2)))
        return ((1, (0, 1, 2, 3)), (1, (0, 3, 2, 1)))  # b3^wa = b3 + b3 . swap24

    def _faces(self, n: int, chains: list[tuple[int, ...]], prod: dict[int, int]):
        """The terms of b_n on a list of chains in C_n, one term at a time:
        (sign, targets) with targets yielding the target chain of each chain
        in turn, and products read from the table `prod` of `_products`."""
        w = len(self.labels)
        yield 1, ((prod[c[0] * w + c[1]],) + c[2:] for c in chains)
        for i in range(1, n):
            yield (-1) ** i, (
                c[:i] + (prod[c[i] * w + c[i + 1]],) + c[i + 2 :] for c in chains
            )
        yield (-1) ** n, ((prod[c[n] * w + c[0]],) + c[1:n] for c in chains)

    def _columns(self, n: int, k: int, variant: str) -> list[dict[int, int]]:
        """b_n (or its wa variant) on C_n^k as sparse integer columns: one
        {index in C_(n-1)^k: coefficient} per source chain, zeros dropped.
        The columns are filled one term of the formula at a time."""
        if n not in (1, 2, 3):
            raise ValueError("chain length must be 1, 2 or 3")
        if variant not in ("plain", "wa"):
            raise ValueError(f"unknown variant {variant!r}")

        def compute():
            dst_index = {c: i for i, c in enumerate(self._basis(n - 1, k))}
            prod = self._cached("products", self._products)
            basis = self._basis(n, k)
            identity = tuple(range(n + 1))
            cols: list[dict[int, int]] = [{} for _ in basis]
            for coeff, order in self._sources(n, variant):
                chains = basis if order == identity else list(map(itemgetter(*order), basis))
                for sign, targets in self._faces(n, chains, prod):
                    q = coeff * sign
                    for col, t in zip(cols, map(dst_index.__getitem__, targets)):
                        col[t] = col.get(t, 0) + q
            return [
                col if all(col.values()) else {t: c for t, c in col.items() if c}
                for col in cols
            ]

        return self._cached(("boundary", n, k, variant), compute)

    def boundary(self, n: int, k: int, variant: str = "plain") -> Matrix:
        """Matrix of b_n (or its wa variant) from C_n^k to C_(n-1)^k."""
        cols = self._columns(n, k, variant)
        zero = Fraction(0)
        entries = [[zero] * len(cols) for _ in range(self.chain_dim(n - 1, k))]
        for j, col in enumerate(cols):
            for i, c in col.items():
                entries[i][j] = Fraction(c)
        return Matrix(len(entries), len(cols), tuple(map(tuple, entries)))

    def _rank(self, n: int, k: int) -> int:
        """Rank in degree k of the boundary b_n that homology uses: b1, b2
        and b3^wa."""
        variant = "wa" if n == 3 else "plain"
        return self._cached(("rank", n, k), lambda: sparse_rank(self._columns(n, k, variant)))

    def homology_dim(self, n: int, k: int) -> int:
        """H_0 = C_0 / im b_1;  H_1 = ker b_1 / im b_2;  H_2 = ker b_2 / im b_3^wa."""
        self._check_degree(k)
        if n not in (0, 1, 2):
            raise ValueError("homology implemented for chain degrees 0, 1, 2")
        kernel = self.chain_dim(n, k) - (self._rank(n, k) if n else 0)
        return kernel - self._rank(n + 1, k)

    def table(self, max_degree: int | None = None) -> list[dict]:
        """Rows {n, k, dimC, rank, dimH} for n = 0..2, k = 0..bound."""
        bound = self.max_degree if max_degree is None else max_degree
        return [
            {
                "n": n,
                "k": k,
                "dimC": self.chain_dim(n, k),
                "rank": self._rank(n + 1, k),
                "dimH": self.homology_dim(n, k),
            }
            for n in range(0, 3)
            for k in range(0, bound + 1)
        ]

    def composition_vanishing_report(self, max_degree: int | None = None) -> dict:
        """Checks on the sparse columns: b1 b2 = 0 and b2 b3^wa = 0 in every
        degree up to the bound, plus agreement of b2 with its wa variant (the
        algebra is commutative, so the two boundaries coincide)."""
        bound = self.max_degree if max_degree is None else max_degree
        b1b2 = []
        b2b3 = []
        b2_variants_equal = []
        for k in range(0, bound + 1):
            b2 = self._columns(2, k, "plain")
            b1b2.append(_composite_is_zero(self._columns(1, k, "plain"), b2))
            b2b3.append(_composite_is_zero(b2, self._columns(3, k, "wa")))
            b2_variants_equal.append(b2 == self._columns(2, k, "wa"))
        return {
            "b1b2_zero": all(b1b2),
            "b2b3wa_zero": all(b2b3),
            "b2_equals_b2wa": all(b2_variants_equal),
            "per_degree": {
                k: {
                    "b1b2": b1b2[k],
                    "b2b3wa": b2b3[k],
                    "b2_eq_b2wa": b2_variants_equal[k],
                }
                for k in range(bound + 1)
            },
        }


def _composite_is_zero(outer: list[dict[int, int]], inner: list[dict[int, int]]) -> bool:
    """True iff outer . inner = 0, both maps given as sparse columns."""
    for col in inner:
        acc: dict[int, int] = {}
        for t, c in col.items():
            for s, d in outer[t].items():
                acc[s] = acc.get(s, 0) + c * d
        if any(acc.values()):
            return False
    return True


def b1b2_symbolic_identity() -> bool:
    """A(x,y,z) + A(y,z,x) + A(z,x,y) equals the weak-associativity
    expression symmetrized by Id + (12) + c2, as identity vectors."""
    from .identities import apply_group_vector, associator, wa_expression
    from .symgroup import C3, C3SQ, ID3, T12, ga

    cyclic = apply_group_vector(associator(), ga(3, (1, ID3), (1, C3), (1, C3SQ)))
    wa_sym = apply_group_vector(wa_expression(), ga(3, (1, ID3), (1, T12), (1, C3SQ)))
    return cyclic == wa_sym
