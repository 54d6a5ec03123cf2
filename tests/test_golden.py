"""Byte-for-byte regression test of the report outputs of the CLI.

The files under `golden/` are the outputs of the commands below, written
before the elimination kernel was replaced (`freewa.json` before `freewa`
stopped building the structure-constant table).  A refactor must leave them
unchanged; regenerate a file only for an intended change of output, e.g.

    python -m wassoc delta3 --kernel --format json > tests/golden/delta3_kernel.json

`tensors.json` pins exact tensor values of the deformation layer (the terms
of a gauged deformation and the order-1..3 weak associativity defects of a
deformation with non-integral coefficients that fails weak associativity),
written with `multimap_to_json` before the contraction routine was fused;
regenerate it with `python tests/test_golden.py`.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wassoc.cli import main
from wassoc.corpus import truncated_polynomials
from wassoc.deform import GaugeTransform, TruncatedDeformation, gauge, wa_defect
from wassoc.finalg import MultiMap, multimap_to_json
from wassoc.linalg import Matrix

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


if __name__ == "__main__":
    (GOLDEN / "tensors.json").write_text(tensor_document(), encoding="utf-8")
