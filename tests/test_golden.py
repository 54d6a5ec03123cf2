"""Byte-for-byte regression test of the report outputs of the CLI.

The files under `golden/` are the outputs of the commands below, written
before the elimination kernel was replaced (`freewa.json` before `freewa`
stopped building the structure-constant table).  A refactor must leave them
unchanged; regenerate a file only for an intended change of output, e.g.

    python -m wassoc delta3 --kernel --format json > tests/golden/delta3_kernel.json

`tensors.json` pins exact tensor values of the deformation layer (the terms
of a gauged deformation and the order-1..3 weak associativity defects of a
deformation with non-integral coefficients that fails weak associativity),
written with `multimap_to_json` before the contraction routine was fused.
`algebras.json` pins, through `algebra_to_json`, every algebra the corpora
build (the weakly associative, Poisson and non weakly associative members,
the truncated polynomials and the degree-4 free truncation) and the
polarization and depolarization of the plane quotient with a bracket,
written before `FinAlg` stopped storing a dense structure-constant table.
`spans.json` pins, as sparse rows {column: "p/q"} that do not depend on how
a span is stored, the RREF rows of the arity-3 relation spaces with their
annihilators, double annihilators and consequences, the arity-4 dual
relations and their kernel, and four orbit spans; and, through
`multimap_to_json`, the endomorphisms `wa_delta0` of a noncommutative plane
algebra, a derivation of the plane quotient, a gauge inverse series and a
gauge composition.  It was written before spans stopped being dense `Matrix`
rows and endomorphisms stopped being matrices.
Regenerate the three with `python tests/test_golden.py`.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wassoc.cli import main
from wassoc.cohomology import CochainContext, wa_delta0
from wassoc.corpus import (
    non_wa_corpus,
    plane_quotient,
    poisson_corpus,
    truncated_polynomials,
    wa_corpus,
)
from wassoc.deform import GaugeTransform, TruncatedDeformation, gauge, gauge_compose, wa_defect
from wassoc.finalg import MultiMap, algebra_to_json, depolarize, multimap_to_json, polarize
from wassoc.freewa import as_truncated_algebra, build
from wassoc.linalg import Matrix
from wassoc.operads import (
    annihilator,
    associativity_relation_space,
    consequences,
    full_free_space,
    wa_relation_space,
    wass_dual_arity4,
)
from wassoc.symgroup import (
    delta3_reduction_vectors,
    leibniz_vector,
    lie_admissible_vector,
    orbit_span,
    wa_vector,
)

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("verify.json", ["verify", "--format", "json", "--seed", "1"], 1),
    ("operad.json", ["operad", "--format", "json"], 0),
    ("homology.json", ["homology", "--format", "json"], 0),
    ("delta3_kernel.json", ["delta3", "--kernel", "--format", "json"], 0),
    ("freewa.json", ["freewa", "--max-degree", "6", "--format", "json"], 0),
]


@pytest.mark.parametrize("name, argv, code", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(name, argv, code, capsys):
    assert main(argv) == code
    assert capsys.readouterr().out.encode("utf-8") == (GOLDEN / name).read_bytes()


def tensor_document() -> str:
    """Gauge and weak associativity defects of a fixed order-3 deformation of
    K[x]/(x^3) whose terms have non-integral coefficients."""

    def term(k):
        return MultiMap.from_function(2, 3, lambda i, j: tuple(
            Fraction((i - 2 * j + l + k) % 5 - 2, 1 + (i + j + l * k) % 4) if (i + j + l + k) % 3 else 0
            for l in range(3)
        ))

    def endo(k):
        return Matrix.from_rows(
            [[Fraction((r * c + k) % 5 - 2, k + 1) for c in range(3)] for r in range(3)]
        )

    d = TruncatedDeformation(truncated_polynomials(3), [term(k) for k in (1, 2, 3)])
    g = GaugeTransform([endo(k) for k in (1, 2, 3)])
    doc = {
        "gauge": [multimap_to_json(t) for t in gauge(d, g).terms],
        "wa_defect": [multimap_to_json(wa_defect(d, k)) for k in (1, 2, 3)],
    }
    return json.dumps(doc) + "\n"


def test_tensor_values_match_golden():
    assert tensor_document().encode("utf-8") == (GOLDEN / "tensors.json").read_bytes()


def algebra_document() -> str:
    """Every corpus algebra, the truncated polynomials K[x]/(x^4), the
    degree-4 free truncation, and the polarization of the plane quotient with
    the x-weighted bracket together with its depolarization."""
    ring = plane_quotient()
    bullet, bracket = polarize(ring.algebra().add(ring.bracket_algebra((1, 0))))
    doc = {
        "wa_corpus": [[name, algebra_to_json(alg)] for name, alg in wa_corpus()],
        "poisson_corpus": [
            [name, algebra_to_json(dot), algebra_to_json(br)] for name, dot, br in poisson_corpus()
        ],
        "non_wa_corpus": [[name, algebra_to_json(alg)] for name, alg in non_wa_corpus()],
        "truncated_polynomials_4": algebra_to_json(truncated_polynomials(4)),
        "free_truncation_4": algebra_to_json(as_truncated_algebra(build(4)).algebra),
        "polarize": [algebra_to_json(bullet), algebra_to_json(bracket)],
        "depolarize": algebra_to_json(depolarize(bullet, bracket)),
    }
    return json.dumps(doc) + "\n"


def test_algebras_match_golden():
    assert algebra_document().encode("utf-8") == (GOLDEN / "algebras.json").read_bytes()


def _sparse_json(row) -> dict:
    """A sparse row {column: q}, or the nonzero entries of a dense vector,
    as {"column": "p/q"} in column order."""
    items = sorted(row.items()) if isinstance(row, dict) else enumerate(row)
    return {str(j): f"{Fraction(x).numerator}/{Fraction(x).denominator}" for j, x in items if x}


def spans_document() -> str:
    """Relation spaces, the arity-4 dual relations and orbit spans as sparse
    RREF rows, and endomorphisms and gauge series as 1-linear maps."""

    def rows(rs):
        return [_sparse_json(r) for r in rs]

    spaces = {
        "wa": wa_relation_space(),
        "associativity": associativity_relation_space(),
        "free3": full_free_space(3),
    }
    d4 = wass_dual_arity4()
    vectors = {
        "wa": wa_vector(),
        "u3": delta3_reduction_vectors()[2],
        "lie_admissible": lie_admissible_vector(),
        "leibniz": leibniz_vector(),
    }
    ring = plane_quotient()
    alg = ring.algebra().add(ring.bracket_algebra((1, 0)))
    ctx = CochainContext(alg)
    images = [(0, 1, 0, Fraction(1, 2), 0, -1), (0, 0, 2, 0, Fraction(-1, 3), 0)]

    def endo(k):
        """e_j -> (((r j + k) mod 5) - 2) / (k + 1) in coordinate r."""
        return MultiMap.from_function(
            1, 3, lambda j: tuple(Fraction((r * j + k) % 5 - 2, k + 1) for r in range(3))
        )

    outer = GaugeTransform([endo(k) for k in (1, 2, 3)])
    inner = GaugeTransform([endo(k) for k in (4, 5, 6)])
    doc = {
        "relation_spaces": {
            name: {
                "rows": rows(r.rows),
                "annihilator": rows(annihilator(r).rows),
                "double_annihilator": rows(annihilator(annihilator(r)).rows),
                "consequences": rows(consequences(r).rows),
            }
            for name, r in spaces.items()
        },
        "dual_arity4": {"rows": rows(d4.rows), "kernel": rows(d4.kernel)},
        "orbit_spans": {name: rows(orbit_span(v)) for name, v in vectors.items()},
        "wa_delta0": [multimap_to_json(wa_delta0(ctx, alg.basis_vector(i))) for i in range(alg.dim)],
        "derivation": multimap_to_json(ring.derivation(images)),
        "inverse_maps": [multimap_to_json(g) for g in outer.inverse_maps(4)],
        "gauge_compose": [multimap_to_json(h) for h in gauge_compose(outer, inner).h],
    }
    return json.dumps(doc) + "\n"


def test_spans_match_golden():
    assert spans_document().encode("utf-8") == (GOLDEN / "spans.json").read_bytes()


if __name__ == "__main__":
    (GOLDEN / "tensors.json").write_text(tensor_document(), encoding="utf-8")
    (GOLDEN / "algebras.json").write_text(algebra_document(), encoding="utf-8")
    (GOLDEN / "spans.json").write_text(spans_document(), encoding="utf-8")
