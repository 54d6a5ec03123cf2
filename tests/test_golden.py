"""Byte-for-byte regression test of the report outputs of the CLI.

The files under `golden/` are the outputs of the commands below, written
before the elimination kernel was replaced (`freewa.json` before `freewa`
stopped building the structure-constant table).  A refactor must leave them
unchanged; regenerate a file only for an intended change of output, e.g.

    python -m wassoc delta3 --kernel --format json > tests/golden/delta3_kernel.json
"""

from pathlib import Path

import pytest

from wassoc.cli import main

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
