"""Exact-arithmetic toolkit for weakly associative algebras.

The package namespace is lazy: `import wassoc` loads no submodule.  Each
exported name is resolved on first access by importing the module that
defines it (module-level `__getattr__`, PEP 562) and is then cached in this
module's globals, so `wassoc.rank is wassoc.linalg.rank`.  Submodules are
reachable as attributes too: `wassoc.homology` after a bare `import wassoc`
imports `wassoc.homology`, which needs only `linalg` and `freewa`.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

_EXPORTS = {
    "linalg": (
        "Matrix", "Rational", "in_span", "kernel_basis", "rank", "rref",
        "sparse_kernel", "sparse_rank", "sparse_reduce", "sparse_rref",
    ),
    "symgroup": (
        "GroupAlgebraElement", "Perm", "act", "compose", "in_orbit_span", "orbit",
        "orbit_span_dim", "parse_perm", "relations_equivalent", "wa_vector",
    ),
    "identities": (
        "MultilinearIdentity", "apply_group_vector", "apply_perm", "associator",
        "leibniz_expression", "wa_expression",
    ),
    "finalg": (
        "FinAlg", "MultiMap", "depolarize", "evaluate", "is_associative",
        "is_commutative", "is_derivation", "is_flexible", "is_jordan",
        "is_lie_admissible", "is_nonassociative_poisson", "is_weakly_associative",
        "polarize", "satisfies_jacobi",
    ),
    "cohomology": (
        "CochainContext", "build_delta3_system", "hochschild_delta", "is_multiderivation",
        "leibniz_defect", "lichnerowicz_delta", "operadic_cochain3_check",
        "operadic_cochain4_check", "poisson_context", "wa_cocycle2", "wa_delta0",
        "wa_delta1", "wa_delta2", "wa_delta3",
    ),
    "operads": (
        "annihilator", "consequences", "dual_pairing", "generating_function",
        "koszul_composition_check", "wa_relation_space", "wass_dual_arity4",
        "wass_dual_arity4_dim",
    ),
    "freewa": ("GradedBasis", "as_truncated_algebra", "build", "multiply"),
    "homology": ("ChainComplex",),
    "deform": (
        "GaugeTransform", "TruncatedDeformation", "gauge", "is_wa_deformation",
        "ncp_defect", "polarized_deformation", "quantization", "wa_defect",
    ),
}

_SUBMODULES = (
    "cli", "cohomology", "corpus", "deform", "finalg", "freewa", "homology",
    "identities", "linalg", "operads", "report", "symgroup",
)

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(_import_module(f".{module}", __name__), name)
    elif name in _SUBMODULES:
        value = _import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__) | set(_SUBMODULES))
