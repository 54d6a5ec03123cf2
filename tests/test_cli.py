import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from wassoc import cli, finalg
from wassoc.cli import PROPERTIES, main
from wassoc.corpus import two_dim_family
from wassoc import deform
from wassoc.deform import deformation_to_json, linear_deformation, wa_defect
from wassoc.finalg import FinAlg, algebra_to_json
from wassoc.corpus import plane_quotient


@pytest.fixture()
def a6_file(tmp_path):
    path = tmp_path / "a6.json"
    path.write_text(json.dumps(algebra_to_json(two_dim_family(6))))
    return str(path)


def test_check_weakly_associative_passes(a6_file, capsys):
    code = main(["check", "--algebra", a6_file, "--property", "weakly-associative"])
    assert code == 0
    assert "holds" in capsys.readouterr().out


def test_check_associative_fails_with_witness(a6_file, capsys):
    code = main(["check", "--algebra", a6_file, "--property", "associative"])
    assert code == 1
    out = capsys.readouterr().out
    assert "fails at (e1, e1, e2)" in out


def test_check_commutative_witness(a6_file, capsys):
    code = main(["check", "--algebra", a6_file, "--property", "commutative"])
    assert code == 1


def _algebra_file(tmp_path, alg):
    path = tmp_path / "alg.json"
    path.write_text(json.dumps(algebra_to_json(alg)))
    return str(path)


@pytest.mark.parametrize(
    "alg, prop, line",
    [
        (two_dim_family(6), "associative", "associative: fails at (e1, e1, e2) with value {e2: -2}"),
        (two_dim_family(3), "associative", "associative: fails at (e1, e1, e2) with value {e2: -5/16}"),
        # the defect e1 e2 - e2 e1, not e1 e2 alone
        (two_dim_family(6), "commutative", "commutative: fails at (e1, e2) with value {e2: 1}"),
        (
            FinAlg.from_products(2, {(2, 1): {1: Fraction(1, 2)}}),
            "commutative",
            "commutative: fails at (e1, e2) with value {e1: -1/2}",
        ),
        (
            FinAlg.from_products(2, {(1, 1): {2: 1}, (1, 2): {1: 1}, (2, 1): {1: 1}}),
            "jordan",
            "jordan: fails at (e1, e1, e1, e1) with value {e2: -6}",
        ),
        # only the nonzero coordinates of the defect are printed
        (
            FinAlg.from_products(100000, {(1, 2): {1: 1}}),
            "associative",
            "associative: fails at (e1, e2, e2) with value {e1: -1}",
        ),
    ],
    ids=[
        "associative",
        "associative-fraction",
        "commutative",
        "commutative-zero-product",
        "jordan",
        "associative-dim100000",
    ],
)
def test_check_prints_witness_as_rationals(tmp_path, capsys, alg, prop, line):
    code = main(["check", "--algebra", _algebra_file(tmp_path, alg), "--property", prop])
    assert code == 1
    assert capsys.readouterr().out == line + "\n"


def test_check_malformed_json_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["check", "--algebra", str(bad), "--property", "associative"])
    assert code == 2


def test_check_missing_file_exits_2(tmp_path):
    code = main(
        ["check", "--algebra", str(tmp_path / "nope.json"), "--property", "jordan"]
    )
    assert code == 2


def test_check_unknown_property_exits_2(a6_file, capsys):
    with pytest.raises(SystemExit) as info:
        main(["check", "--algebra", a6_file, "--property", "magic"])
    assert info.value.code == 2


def test_freewa_command(capsys):
    code = main(["freewa", "--max-degree", "5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "[1, 1, 1, 1, 2, 3]" in out


def test_freewa_json(capsys):
    code = main(["freewa", "--max-degree", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["dims"] == [1, 1, 1, 1, 2]


def test_homology_command(capsys):
    code = main(["homology", "--max-degree", "4", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    rows = {(r["n"], r["k"]): r["dimH"] for r in doc["table"]}
    assert rows[(1, 4)] == 1
    assert rows[(2, 2)] == 2
    assert doc["compositions"]["b1b2_zero"] is True


def test_operad_command(capsys):
    code = main(["operad", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["operad_dims"]["3"] == 8
    assert doc["dual_dims"]["3"] == 4
    assert doc["dual_dims"]["4"] == 8
    assert doc["dual4_relation_rank"] == 16
    assert doc["associative_oracle_dim4"] == 24
    assert doc["koszul_residual_order4"] == ["0", "0", "0", "0"]


def test_delta3_command(capsys):
    code = main(["delta3", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["unknowns"] == 120
    assert doc["equations_before_reduction"] == 360
    assert doc["kernel_dim"] == 48
    assert len(doc["unknown_labels"]) == 120


def test_delta3_kernel_text_reads_back_as_json_kernel(capsys):
    """`delta3 --kernel` prints one line per kernel vector, its nonzero
    entries as `position: p/q` with positions indexing `unknown_labels`."""
    assert main(["delta3", "--kernel", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["delta3", "--kernel"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header == "unknowns: 120  equations: 360  kernel dim: 48"
    kernel = []
    for i, line in enumerate(lines, start=1):
        head, body = line.split(": ", 1)
        assert head == f"kernel vector {i}" and body.startswith("{") and body.endswith("}")
        row = [Fraction(0)] * len(doc["unknown_labels"])
        for entry in body[1:-1].split(", "):
            position, q = entry.split(": ")
            assert "/" in q and Fraction(q) != 0
            row[int(position)] = Fraction(q)
        kernel.append(row)
    assert kernel == [[Fraction(x) for x in v] for v in doc["kernel"]]


def test_deform_command(tmp_path, capsys):
    ring = plane_quotient()
    d = linear_deformation(ring.algebra(), ring.poisson_bracket((1, 0)), order=3)
    path = tmp_path / "def.json"
    path.write_text(json.dumps(deformation_to_json(d)))
    code = main(["deform", "--file", str(path), "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["weakly_associative"] is True
    assert doc["quantization"]["poisson"] is True


def test_deform_computes_each_order_once(tmp_path, capsys, monkeypatch):
    ring = plane_quotient()
    d = linear_deformation(ring.algebra(), ring.poisson_bracket((1, 0)), order=3)
    path = tmp_path / "def.json"
    path.write_text(json.dumps(deformation_to_json(d)))
    orders = []

    def counting(deformation, k):
        orders.append(k)
        return wa_defect(deformation, k)

    monkeypatch.setattr(deform, "wa_defect", counting)
    assert main(["deform", "--file", str(path), "--format", "json"]) == 0
    assert orders == [1, 2, 3]
    assert json.loads(capsys.readouterr().out) == {
        "order": 3,
        "base_dim": ring.algebra().dim,
        "weakly_associative": True,
        "quantization": {"jacobi": True, "leibniz": True, "poisson": True, "failure": None},
    }


def test_deform_checks_the_base_once(tmp_path, capsys, monkeypatch):
    ring = plane_quotient()
    d = linear_deformation(ring.algebra(), ring.poisson_bracket((1, 0)), order=3)
    path = tmp_path / "def.json"
    path.write_text(json.dumps(deformation_to_json(d)))
    calls = []

    def counting(alg):
        calls.append(alg.dim)
        return is_weakly_associative(alg)

    is_weakly_associative = finalg.is_weakly_associative
    monkeypatch.setattr(finalg, "is_weakly_associative", counting)
    monkeypatch.setattr(deform, "is_weakly_associative", counting)
    assert main(["deform", "--file", str(path), "--format", "json"]) == 0
    assert calls == [ring.algebra().dim]
    assert json.loads(capsys.readouterr().out)["quantization"]["poisson"] is True


SRC = Path(__file__).resolve().parents[1] / "src"


def _fresh(argv, **kwargs):
    """`python -m wassoc` with `argv` in a new interpreter."""
    return subprocess.Popen(
        [sys.executable, "-m", "wassoc", *argv],
        env=dict(os.environ, PYTHONPATH=str(SRC)), text=True, **kwargs,
    )


def test_main_builds_its_parser_once_and_dispatches_by_name(a6_file, capsys, monkeypatch):
    """Two subcommands in one process print what two fresh processes print;
    the parser is built once, and a replaced command is the one called."""
    runs = (
        ["check", "--algebra", a6_file, "--property", "weakly-associative"],
        ["freewa", "--max-degree", "3", "--format", "json"],
        ["check", "--algebra", a6_file, "--property", "associative"],
    )
    fresh = []
    for argv in runs:
        proc = _fresh(argv, stdout=subprocess.PIPE)
        fresh.append((proc.communicate()[0], proc.returncode))
    assert [(main(argv), capsys.readouterr().out)[::-1] for argv in runs] == fresh
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "cmd_freewa", lambda args: 7)
    assert main(["freewa"]) == 7


@pytest.mark.parametrize(
    "argv, code",
    [(["delta3", "--kernel", "--format", "json"], 0), (["verify", "--format", "json"], 1)],
    ids=["delta3-kernel", "verify"],
)
def test_closed_stdout_keeps_the_exit_code(argv, code):
    """A reader that stops after the first line, "{": the command ends with
    its own exit code and prints no traceback.  The delta3 JSON is larger
    than a pipe's buffer, so its writer finds the pipe closed."""
    proc = _fresh(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert os.read(proc.stdout.fileno(), 2) == b"{\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == code
    assert proc.stderr.read() == ""
    proc.stderr.close()


def test_deform_invalid_deformation_exits_1(tmp_path, capsys):
    ring = plane_quotient()
    d = linear_deformation(ring.algebra(), ring.poisson_bracket((0, 0)), order=2)
    path = tmp_path / "bad_def.json"
    path.write_text(json.dumps(deformation_to_json(d)))
    code = main(["deform", "--file", str(path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "first_failing_order: 1" in out


def test_deform_malformed_exits_2(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("[]")
    assert main(["deform", "--file", str(path)]) == 2


def test_verify_subset_orbit(capsys):
    code = main(["verify", "--only", "orbit", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failures"] == 0
    ids = {c["id"] for c in doc["checks"]}
    assert "orbit.span-dim" in ids


def test_verify_unknown_section_exits_2(capsys):
    assert main(["verify", "--only", "nonsense"]) == 2


def test_verify_freewa_deterministic(capsys):
    main(["verify", "--only", "freewa", "--format", "json"])
    first = capsys.readouterr().out
    main(["verify", "--only", "freewa", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_operad_records_published_discrepancies(capsys):
    code = main(["verify", "--only", "operad", "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    failed = {c["id"] for c in doc["checks"] if c["status"] == "fail"}
    assert failed == {
        "operad.dual4-rank",
        "operad.dual4-kernel",
        "operad.syzygy-3",
    }
    by_id = {c["id"]: c for c in doc["checks"]}
    assert by_id["operad.dual4-rank"]["value"] == 16
    assert by_id["operad.dual4-kernel"]["value"] == 8


def test_verify_homology_records_published_discrepancy(capsys):
    code = main(["verify", "--only", "homology", "--format", "json"])
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    failed = [c for c in doc["checks"] if c["status"] == "fail"]
    assert [(c["id"], c["value"]) for c in failed] == [("homology.h1-degree6", 3)]
    assert doc["failures"] == 1


# Malformed input documents: each must exit 2 with an `error:` line and no
# traceback, through `check` (algebra documents) and `deform` (the algebra
# as the base of a deformation, and malformed deformation documents).
GOOD_ALGEBRA = {"dim": 2, "products": [{"i": 1, "j": 2, "out": [{"k": 2, "c": "3/1"}]}]}
GOOD_TERM = [[["0/1", "1/1"], ["0/1", "0/1"]], [["1/2", "0/1"], ["0/1", "-1/1"]]]

MALFORMED_ALGEBRAS = [
    {"dim": 2, "products": [[0, 0, 0, 0.5]]},
    {"dim": 2, "products": "x"},
    {"dim": 2, "products": {"i": 1, "j": 1, "out": []}},
    {"dim": 2, "products": None},
    {"dim": 3, "nonzero": [1]},
    {"dim": 2, "products": [{"i": 1, "j": 1, "out": "x"}]},
    {"dim": 2, "products": [{"i": 1, "j": 1, "out": [[1, "1/1"]]}]},
    {"dim": 2, "products": [{"i": 1, "j": 1, "extra": 0, "out": []}]},
    {"dim": 2, "products": [{"i": 1, "j": 1, "out": [{"k": 1, "c": "1/1", "note": "x"}]}]},
    {"dim": 2, "products": [{"i": 1, "j": 1, "out": [{"k": 1}]}]},
    {"dim": 2, "products": [{"i": 1, "j": 1, "out": [{"k": 1, "c": 0.5}]}]},
    {"dim": 2, "products": [
        {"i": 1, "j": 1, "out": [{"k": 1, "c": "1/1"}, {"k": 1, "c": "2/1"}]},
    ]},
    {"dim": 2, "products": [
        {"i": 2, "j": 1, "out": [{"k": 2, "c": "1/1"}]},
        {"i": 2, "j": 1, "out": [{"k": 1, "c": "1/1"}, {"k": 2, "c": "1/1"}]},
    ]},
    {"dim": "2"},
    {"dim": 0},
    {"products": []},
    [],
    "x",
    3,
]

MALFORMED_DEFORMATIONS = [
    {"base": GOOD_ALGEBRA, "terms": "x"},
    {"base": GOOD_ALGEBRA, "terms": 5},
    {"base": GOOD_ALGEBRA, "terms": {}},
    {"base": GOOD_ALGEBRA, "terms": [[["1/1"]]]},
    {"base": GOOD_ALGEBRA, "terms": [GOOD_TERM, {"0": GOOD_TERM}]},
    {"base": GOOD_ALGEBRA, "terms": [GOOD_TERM], "order": 1},
    {"base": json.dumps(GOOD_ALGEBRA), "terms": []},
    {"base": [GOOD_ALGEBRA], "terms": []},
    {"terms": [GOOD_TERM]},
] + [{"base": doc, "terms": []} for doc in MALFORMED_ALGEBRAS]

# Options that do not fit a valid one-term deformation document.
MALFORMED_DEFORM_OPTIONS = [
    ["--order", "-1"],
    ["--order", "-3"],
    ["--order", "2"],
]

# Wrong-typed values for each kind of node of a valid document.
WRONG_VALUES = {
    dict: [[], "x", 2, None, True],
    list: [{"0": 1}, "x", 1.5, 7, None],
    str: [0.5, [], {}, None, True],
    int: ["1", 1.0, [], None, True],
}


def _nodes(doc, path=()):
    """(path, node) for every node below the root of a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def _seeded_corruptions(doc, rng):
    """One copy of `doc` per node, that node replaced by a value of a type
    the format never has there, chosen by `rng`."""
    out = []
    for path, node in _nodes(doc):
        bad = json.loads(json.dumps(doc))
        parent = bad
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = rng.choice(WRONG_VALUES[type(node)])
        out.append(bad)
    return out


def _assert_usage_error(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2, (argv, captured)
    assert captured.err.startswith("error: "), captured.err
    assert "Traceback" not in captured.err + captured.out


def test_malformed_documents_exit_2(tmp_path, capsys, rng):
    path = tmp_path / "doc.json"
    algebras = MALFORMED_ALGEBRAS + _seeded_corruptions(GOOD_ALGEBRA, rng)
    deformations = MALFORMED_DEFORMATIONS + _seeded_corruptions(
        {"base": GOOD_ALGEBRA, "terms": [GOOD_TERM]}, rng
    )
    assert len(algebras) > 25 and len(deformations) > 50
    for doc in algebras:
        path.write_text(json.dumps(doc))
        for prop in ("weakly-associative", "commutative"):
            _assert_usage_error(["check", "--algebra", str(path), "--property", prop], capsys)
    for doc in deformations:
        path.write_text(json.dumps(doc))
        _assert_usage_error(["deform", "--file", str(path)], capsys)
    for doc in (GOOD_ALGEBRA, {"base": GOOD_ALGEBRA, "terms": [GOOD_TERM]}):
        path.write_text(json.dumps(doc))
        argv = ["deform", "--file", str(path)] if "base" in doc else [
            "check", "--algebra", str(path), "--property", "commutative"]
        assert main(argv) in (0, 1)
    for options in MALFORMED_DEFORM_OPTIONS:
        _assert_usage_error(["deform", "--file", str(path)] + options, capsys)
    # order 0 checks only the base
    assert main(["deform", "--file", str(path), "--order", "0", "--format", "json"]) in (0, 1)
    assert json.loads(capsys.readouterr().out)["order"] == 0


def test_malformed_seed_environment_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("WASSOC_SEED", "abc")
    for argv in (["verify", "--only", "orbit"], ["verify", "--only", "orbit", "--seed", "3"]):
        _assert_usage_error(argv, capsys)
    monkeypatch.setenv("WASSOC_SEED", "3")
    assert main(["verify", "--only", "orbit"]) == 0


def test_seed_belongs_to_verify(tmp_path, a6_file, monkeypatch, capsys):
    """Only `verify` draws random numbers: a malformed WASSOC_SEED changes
    no other command's output or exit code, and no other command takes
    --seed."""
    deformation = tmp_path / "deform.json"
    deformation.write_text(json.dumps({"base": GOOD_ALGEBRA, "terms": [GOOD_TERM]}))
    commands = [
        ["check", "--algebra", a6_file, "--property", "associative"],
        ["freewa", "--max-degree", "4"],
        ["homology", "--max-degree", "3"],
        ["operad"],
        ["delta3"],
        ["deform", "--file", str(deformation)],
    ]
    for argv in commands:
        monkeypatch.delenv("WASSOC_SEED", raising=False)
        plain = main(argv), capsys.readouterr()
        monkeypatch.setenv("WASSOC_SEED", "abc")
        assert (main(argv), capsys.readouterr()) == plain, argv
    for argv in (["homology", "--seed", "1"], commands[0] + ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


# One product entry in dimension 100000: the algebra is A (dim 2) plus
# 99998 basis vectors that multiply to zero with everything, so each
# property holds or fails exactly as on A, with the same output line (a
# witness prints only its nonzero coordinates).  A dense dim^3 table would
# take 10^15 cells.
LARGE_DIM = 100000
LARGE_DIM_CASES = {
    # e1 e2 = e1: only lie-admissible holds.
    "e1e2=e1": ({"i": 1, "j": 2, "out": [{"k": 1, "c": "1/1"}]}, {
        "associative": 1, "commutative": 1, "flexible": 1, "jordan": 1,
        "lie-admissible": 0, "weakly-associative": 1,
    }),
    # e1 e1 = e2: commutative and nilpotent, so every property holds.
    "e1e1=e2": ({"i": 1, "j": 1, "out": [{"k": 2, "c": "1/1"}]}, {
        "associative": 0, "commutative": 0, "flexible": 0, "jordan": 0,
        "lie-admissible": 0, "weakly-associative": 0,
    }),
}


@pytest.mark.parametrize("case", sorted(LARGE_DIM_CASES))
def test_check_large_dim_without_dense_table(tmp_path, capsys, case):
    entry, expected = LARGE_DIM_CASES[case]
    assert sorted(expected) == sorted(PROPERTIES)
    for prop in sorted(PROPERTIES):
        lines = {}
        for dim in (2, LARGE_DIM):
            path = tmp_path / f"dim{dim}.json"
            path.write_text(json.dumps({"dim": dim, "products": [entry]}))
            assert main(["check", "--algebra", str(path), "--property", prop]) == expected[prop]
            captured = capsys.readouterr()
            assert captured.err == ""
            lines[dim] = captured.out
        assert lines[LARGE_DIM] == lines[2]
        assert lines[2].startswith(f"{prop}: {'holds' if expected[prop] == 0 else 'fails'}")
