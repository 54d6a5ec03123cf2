"""The lazy package namespace and the import footprint of the package.

`import wassoc` loads no submodule; each exported name is imported from its
defining module on first access.  The footprint tests run fresh `python -S`
interpreters with only `src/` on the path, so nothing a previous test
imported is already in `sys.modules`.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wassoc

SRC = Path(__file__).resolve().parents[1] / "src"

# The names the package exported before its namespace became lazy, by
# defining module, plus the sparse elimination kernel of `linalg`.
EXPORTS = {
    "linalg": [
        "Matrix", "Rational", "in_span", "kernel_basis", "rank", "rref",
        "sparse_kernel", "sparse_rank", "sparse_reduce", "sparse_rref",
    ],
    "symgroup": [
        "GroupAlgebraElement", "Perm", "act", "compose", "in_orbit_span", "orbit",
        "orbit_span_dim", "parse_perm", "relations_equivalent", "wa_vector",
    ],
    "identities": [
        "MultilinearIdentity", "apply_group_vector", "apply_perm", "associator",
        "leibniz_expression", "wa_expression",
    ],
    "finalg": [
        "FinAlg", "MultiMap", "depolarize", "evaluate", "is_associative",
        "is_commutative", "is_derivation", "is_flexible", "is_jordan",
        "is_lie_admissible", "is_nonassociative_poisson", "is_weakly_associative",
        "polarize", "satisfies_jacobi",
    ],
    "cohomology": [
        "CochainContext", "build_delta3_system", "hochschild_delta", "is_multiderivation",
        "leibniz_defect", "lichnerowicz_delta", "operadic_cochain3_check",
        "operadic_cochain4_check", "poisson_context", "wa_cocycle2", "wa_delta0",
        "wa_delta1", "wa_delta2", "wa_delta3",
    ],
    "operads": [
        "annihilator", "consequences", "dual_pairing", "generating_function",
        "koszul_composition_check", "wa_relation_space", "wass_dual_arity4",
        "wass_dual_arity4_dim",
    ],
    "freewa": ["GradedBasis", "as_truncated_algebra", "build", "multiply"],
    "homology": ["ChainComplex"],
    "deform": [
        "GaugeTransform", "TruncatedDeformation", "gauge", "is_wa_deformation",
        "ncp_defect", "polarized_deformation", "quantization", "wa_defect",
    ],
}
SUBMODULES = [
    "cli", "cohomology", "corpus", "deform", "finalg", "freewa", "homology",
    "identities", "linalg", "operads", "report", "symgroup",
]


def run_fresh(code: str) -> dict:
    """Run `code` in a fresh `python -S` interpreter with only `src/` on the
    path; the code prints one JSON document, which is returned."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = "sorted(m for m in sys.modules if m == 'wassoc' or m.startswith('wassoc.'))"


def test_bare_import_loads_no_submodule():
    doc = run_fresh(f"import json, sys; import wassoc; print(json.dumps({LOADED}))")
    assert doc == ["wassoc"]


def test_chain_complex_loads_only_linalg_and_freewa():
    """...and neither `dataclasses` nor the `inspect` module it imports."""
    code = f"""
import json, sys
import wassoc.homology
print(json.dumps({{"wassoc": {LOADED}, "stdlib": [m for m in ("dataclasses", "inspect") if m in sys.modules]}}))
"""
    doc = run_fresh(code)
    assert doc["wassoc"] == ["wassoc", "wassoc.freewa", "wassoc.homology", "wassoc.linalg"]
    assert doc["stdlib"] == []


def test_verify_imports_nothing_after_cli():
    """`verify` is timed after `import wassoc.cli`; every module it uses is
    already loaded by then."""
    code = f"""
import contextlib, io, json, sys
import wassoc.cli
before = {LOADED}
with contextlib.redirect_stdout(io.StringIO()):
    rc = wassoc.cli.main(["verify", "--format", "json", "--seed", "1"])
print(json.dumps({{"rc": rc, "before": before, "after": {LOADED}}}))
"""
    doc = run_fresh(code)
    assert doc["rc"] == 1
    assert doc["after"] == doc["before"]
    assert doc["before"] == sorted(["wassoc"] + [f"wassoc.{m}" for m in SUBMODULES])


def test_submodules_reachable_after_bare_import():
    code = f"""
import json, sys
import wassoc
print(json.dumps([getattr(wassoc, m) is sys.modules["wassoc." + m] for m in {SUBMODULES!r}]))
"""
    assert run_fresh(code) == [True] * len(SUBMODULES)


def test_all_is_the_pinned_export_list():
    names = [name for module_names in EXPORTS.values() for name in module_names]
    assert len(names) == len(set(names)) == 75
    assert sorted(wassoc.__all__) == sorted(names)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_defining_module_object(module):
    mod = importlib.import_module(f"wassoc.{module}")
    for name in EXPORTS[module]:
        assert getattr(wassoc, name) is getattr(mod, name)
        assert vars(wassoc)[name] is getattr(mod, name)


def test_star_import_and_dir_list_every_name():
    namespace = {}
    exec("from wassoc import *", namespace)
    assert set(wassoc.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(wassoc, name) for name in wassoc.__all__)
    listed = dir(wassoc)
    assert set(wassoc.__all__) | set(SUBMODULES) <= set(listed)
    assert listed == sorted(listed)
    assert wassoc.__version__ == "0.1.0"


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match=r"^module 'wassoc' has no attribute 'no_such_name'$"):
        wassoc.no_such_name
    assert not hasattr(wassoc, "sparse_rank_")
    with pytest.raises(ImportError):
        exec("from wassoc import no_such_name", {})
