"""Command-line front end.

Exit codes, stable for CI use: 0 every claim holds, 1 at least one claim
fails, 2 usage or input error.  A command's output is printed when it
returns, so a reader that closes the pipe early changes what is printed and
nothing else: no traceback, and the command's own exit code.

Each value is set in one place: only `verify` draws random numbers, so only
it takes `--seed` and reads `WASSOC_SEED`, and `operad` prints the values
of the checks of verify's `operad` section.

`report` is imported at module level, and it imports every module the
commands use: `verify` would otherwise compile `report` and its imports
inside its own run.  The commands' function-local imports find their
modules already loaded.
"""

from __future__ import annotations

import argparse
import functools
import io
import json
import os
import sys

from .finalg import (
    AlgebraFormatError,
    algebra_from_json,
    evaluate,
    is_commutative,
    jordan_identity_defect,
)
from .identities import (
    associator,
    flexibility_expression,
    lie_admissible_expression,
    wa_expression,
)
from .linalg import as_rational, dense_row
from .report import DEFAULT_SEED, build_report

USAGE_ERROR = 2
CLAIM_FAILED = 1


def _emit(doc, fmt: str):
    if fmt == "json":
        print(json.dumps(doc, indent=2, sort_keys=True, default=str))
        return
    for check in doc.get("checks", []):
        status = check["status"].upper()
        value = f"  [{check['value']}]" if "value" in check else ""
        print(f"{status:9s} {check['id']}: {check['claim']}{value}")
    if doc.get("omitted"):
        print("\nnot reproduced here (recorded as out of computational scope):")
        for item in doc["omitted"]:
            print(f"  - {item}")
    if "failures" in doc:
        print(f"\nfailures: {doc['failures']}")


def cmd_verify(args) -> int:
    env_seed = os.environ.get("WASSOC_SEED")
    try:
        seed = DEFAULT_SEED if env_seed is None else int(env_seed)
    except ValueError:
        raise ValueError(f"WASSOC_SEED must be an integer, not {env_seed!r}") from None
    rep = build_report(seed=seed if args.seed is None else args.seed, only=args.only)
    _emit(rep.as_dict(), args.format)
    return CLAIM_FAILED if rep.failed else 0


# Each property's defect map: the property holds iff it is zero, and its
# first nonzero entry is the witness of a failure.
PROPERTIES = {
    "weakly-associative": lambda alg: evaluate(alg, wa_expression()),
    "associative": lambda alg: evaluate(alg, associator()),
    "flexible": lambda alg: evaluate(alg, flexibility_expression()),
    "lie-admissible": lambda alg: evaluate(alg, lie_admissible_expression()),
    "commutative": lambda alg: alg.mu.skew_part(),
    "jordan": jordan_identity_defect,
}


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise AlgebraFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise AlgebraFormatError(f"invalid JSON in {path}: {exc}") from exc


def cmd_check(args) -> int:
    try:
        alg = algebra_from_json(_load_json(args.algebra))
    except AlgebraFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.property == "jordan" and not is_commutative(alg):
        print(f"{args.property}: fails (product is not commutative)")
        return CLAIM_FAILED
    defect = PROPERTIES[args.property](alg)
    if defect.is_zero():
        print(f"{args.property}: holds")
        return 0
    idx, row = defect.first_nonzero()
    names = ", ".join(f"e{i + 1}" for i in idx)
    coords = ", ".join(f"e{k + 1}: {as_rational(row[k])}" for k in sorted(row))
    print(f"{args.property}: fails at ({names}) with value {{{coords}}}")
    return CLAIM_FAILED


def cmd_freewa(args) -> int:
    from .freewa import build, multiply

    basis = build(args.max_degree)
    labels = basis.all_labels()
    doc = {
        "max_degree": args.max_degree,
        "dims": basis.dims(),
        "labels": [str(l) for l in labels],
    }
    table = []
    for i, u in enumerate(labels):
        for j, v in enumerate(labels):
            if i <= j and 0 < u.degree and 0 < v.degree and u.degree + v.degree <= args.max_degree:
                table.append(f"{u} * {v} = {multiply(u, v)}")
    doc["products"] = table
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print("dims by degree:", doc["dims"])
        print("basis:", ", ".join(doc["labels"]))
        for line in table:
            print(" ", line)
    return 0


def cmd_homology(args) -> int:
    from .homology import ChainComplex

    cc = ChainComplex.up_to_degree(args.max_degree)
    doc = {
        "max_degree": args.max_degree,
        "table": cc.table(),
        "compositions": cc.composition_vanishing_report(),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=str))
    else:
        print(" n  k  dimC  rank  dimH")
        for row in doc["table"]:
            print(
                f"{row['n']:2d} {row['k']:2d} {row['dimC']:5d} "
                f"{row['rank']:5d} {row['dimH']:5d}"
            )
        comp = doc["compositions"]
        print(
            "b1b2 = 0:", comp["b1b2_zero"],
            "| b2 b3wa = 0:", comp["b2b3wa_zero"],
            "| b2 == b2wa:", comp["b2_equals_b2wa"],
        )
    return 0


def cmd_operad(args) -> int:
    from .operads import r3_syzygies

    value = {check.id: check.value for check in build_report(only="operad").checks}
    doc = {
        "checks": [],
        "relation_dim": value["operad.relation-dim"],
        "operad_dims": {"1": 1, "2": 2, "3": value["operad.arity3-dim"], "4": value["operad.arity4-dim"]},
        "dual_dims": {"1": 1, "2": 2, "3": value["operad.dual3-dim"], "4": value["operad.dual4-kernel"]},
        "dual4_relation_rank": value["operad.dual4-rank"],
        "associative_oracle_dim4": value["operad.associative-oracle"],
        "koszul_residual_order4": value["operad.koszul-residual"],
        "syzygies": r3_syzygies(),
    }
    if args.format == "json":
        print(json.dumps(doc, indent=2, default=str))
    else:
        for key, value in doc.items():
            if key != "checks":
                print(f"{key}: {value}")
    return 0


def cmd_delta3(args) -> int:
    from .cohomology import build_delta3_system, unknown_label

    sys_ = build_delta3_system()
    doc = {
        "unknowns": sys_.columns,
        "equations_before_reduction": sys_.assembled_rows,
        "consequence_dim": sys_.consequence_dim,
        "kernel_dim": sys_.kernel_dim,
        "unknown_labels": [unknown_label(f, p) for f, p in sys_.unknowns],
    }
    if args.kernel:
        doc["kernel"] = [[str(x) for x in dense_row(v, sys_.columns)] for v in sys_.kernel]
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        print(
            f"unknowns: {doc['unknowns']}  equations: "
            f"{doc['equations_before_reduction']}  kernel dim: {doc['kernel_dim']}"
        )
        if args.kernel:  # positions index unknown_labels
            for i, v in enumerate(sys_.kernel, start=1):
                entries = ", ".join(f"{j}: {q.numerator}/{q.denominator}" for j, q in sorted(v.items()))
                print(f"kernel vector {i}: {{{entries}}}")
    return 0


def cmd_deform(args) -> int:
    from .deform import _quantization, deformation_from_json, first_failing_order
    from .finalg import is_weakly_associative

    try:
        deformation = deformation_from_json(_load_json(args.file))
    except AlgebraFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if args.order is not None:
        if args.order < 0:
            print(f"error: --order must be nonnegative, not {args.order}", file=sys.stderr)
            return USAGE_ERROR
        if args.order > deformation.order:
            print(
                f"error: file carries only {deformation.order} orders",
                file=sys.stderr,
            )
            return USAGE_ERROR
        deformation.terms[:] = deformation.terms[: args.order]
    doc = {"order": deformation.order, "base_dim": deformation.base.dim}
    base = deformation.base
    base_ok = is_weakly_associative(base)
    # The base is checked here once, and the quantization finds the first
    # failing order itself; neither is computed twice.
    q = None
    if base_ok and is_commutative(base) and deformation.order >= 2:
        q = _quantization(deformation)
    failing = q.first_failing_order if q is not None else first_failing_order(deformation)
    ok = base_ok and failing is None
    doc["weakly_associative"] = ok
    if not ok:
        doc["first_failing_order"] = failing
    if ok and q is not None:
        doc["quantization"] = {
            "jacobi": q.jacobi_ok,
            "leibniz": q.leibniz_ok,
            "poisson": q.poisson_ok,
            "failure": q.failure,
        }
    if args.format == "json":
        print(json.dumps(doc, indent=2))
    else:
        for key, value in doc.items():
            print(f"{key}: {value}")
    return 0 if ok else CLAIM_FAILED


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process."""
    parser = argparse.ArgumentParser(
        prog="wassoc",
        description="exact computations with weakly associative algebras",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "verify", parents=[common], help="run the full claim-verification suite"
    )
    p.add_argument("--only", help="restrict to one section (orbit, operad, ...)")
    p.add_argument(
        "--seed",
        type=int,
        help=f"seed for randomized property checks (default: env WASSOC_SEED, else {DEFAULT_SEED})",
    )

    p = sub.add_parser(
        "check", parents=[common], help="check a property of an algebra file"
    )
    p.add_argument("--algebra", required=True, help="algebra JSON file")
    p.add_argument("--property", required=True, choices=sorted(PROPERTIES))

    p = sub.add_parser(
        "freewa", parents=[common], help="free one-generator algebra tables"
    )
    p.add_argument("--max-degree", type=int, default=5)

    p = sub.add_parser("homology", parents=[common], help="graded homology table")
    p.add_argument("--max-degree", type=int, default=6)

    sub.add_parser("operad", parents=[common], help="operad dimension report")

    p = sub.add_parser(
        "delta3", parents=[common], help="degree-3 coboundary ansatz system"
    )
    p.add_argument("--kernel", action="store_true", help="include kernel vectors")

    p = sub.add_parser("deform", parents=[common], help="check a deformation file")
    p.add_argument("--file", required=True, help="deformation JSON file")
    p.add_argument("--order", type=int, default=None)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    out, sys.stdout = sys.stdout, io.StringIO()
    try:
        return globals()[f"cmd_{args.command}"](args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    finally:
        text, sys.stdout = sys.stdout.getvalue(), out
        try:
            out.write(text)
            out.flush()
        except BrokenPipeError:
            # The reader is gone: what is left, and the interpreter's final
            # flush, go to the null device.
            os.dup2(os.open(os.devnull, os.O_WRONLY), out.fileno())


if __name__ == "__main__":
    sys.exit(main())
