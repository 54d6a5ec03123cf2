import json
from fractions import Fraction

import pytest

from wassoc.cli import main
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
        (two_dim_family(6), "associative", "associative: fails at (e1, e1, e2) with value [0, -2]"),
        (two_dim_family(3), "associative", "associative: fails at (e1, e1, e2) with value [0, -5/16]"),
        # the defect e1 e2 - e2 e1, not e1 e2 alone
        (two_dim_family(6), "commutative", "commutative: fails at (e1, e2) with value [0, 1]"),
        (
            FinAlg.from_products(2, {(2, 1): {1: Fraction(1, 2)}}),
            "commutative",
            "commutative: fails at (e1, e2) with value [-1/2, 0]",
        ),
        (
            FinAlg.from_products(2, {(1, 1): {2: 1}, (1, 2): {1: 1}, (2, 1): {1: 1}}),
            "jordan",
            "jordan: fails at (e1, e1, e1, e1) with value [0, -6]",
        ),
    ],
    ids=["associative", "associative-fraction", "commutative", "commutative-zero-product", "jordan"],
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
