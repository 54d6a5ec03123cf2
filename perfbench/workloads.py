"""Inputs, operations and expected results of the benchmark workloads.

Each workload has a `prepare(seed, workdir)` step (the set-up: it imports the
package and generates the inputs from the seed) and a `run(state)` step (the
timed region).  `run` returns one `(op, ok, detail)` triple per operation; an
operation fails when it raises or when its output differs from the value
fixed here before the run.  Nothing in this module imports `wassoc` at module
level, so `run.py` can read the workload table without loading the
package.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


def _failed_all(names, exc):
    return [(name, False, f"{type(exc).__name__}: {exc}") for name in names]


# ---------------------------------------------------------------------------
# verify: the paper-reproduction run, `wassoc verify --format json --seed S`.
# ---------------------------------------------------------------------------

def _verify_expected():
    with open(os.path.join(HERE, "verify_expected.json"), encoding="utf-8") as fh:
        return json.load(fh)


def prepare_verify(seed, workdir):
    from wassoc import cli

    return {"cli": cli, "argv": ["verify", "--format", "json", "--seed", str(seed)],
            "expected": _verify_expected()}


def run_verify(state):
    expected = state["expected"]
    ids = [c[0] for c in expected["checks"]]
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = state["cli"].main(state["argv"])
        got = {c["id"]: [c["id"], c["status"], c.get("value")]
               for c in json.loads(buf.getvalue())["checks"]}
    except Exception as exc:  # a crash fails every check of the run
        return _failed_all(ids, exc)
    out = []
    for want in expected["checks"]:
        have = got.pop(want[0], None)
        ok = have == want and rc == expected["exit_code"]
        out.append((want[0], ok, "" if ok else f"exit {rc}, got {have}, want {want}"))
    # A check the seed commit did not have is a changed entry as well.
    out.extend((extra, False, "unexpected check") for extra in got)
    return out


# ---------------------------------------------------------------------------
# frontier: homology of the free one-generator algebra in degrees 9..11.
# ---------------------------------------------------------------------------

FRONTIER_DEGREE = 11
# H0^k = d_k and H1^k = d_(k-1), with d the Wedderburn-Etherington numbers.
FRONTIER_EXPECTED = {9: (46, 23), 10: (98, 46), 11: (207, 98)}


def prepare_frontier(seed, workdir):
    from wassoc import homology

    return {"homology": homology}


def run_frontier(state):
    names = [f"frontier.k{k}" for k in FRONTIER_EXPECTED]
    try:
        cc = state["homology"].ChainComplex.up_to_degree(FRONTIER_DEGREE)
    except Exception as exc:  # MemoryError under the address-space limit
        return _failed_all(names, exc)
    out = []
    for name, (k, want) in zip(names, FRONTIER_EXPECTED.items()):
        try:
            have = (cc.homology_dim(0, k), cc.homology_dim(1, k))
        except Exception as exc:
            out.extend(_failed_all([name], exc))
            continue
        out.append((name, have == want, f"(H0, H1) = {have}, want {want}"))
    return out


# ---------------------------------------------------------------------------
# algebras: seeded user inputs K[x,y]/m^(D+1), D = 2, 3, 4 (dims 6, 10, 15).
# ---------------------------------------------------------------------------

ALGEBRA_DEGREES = (2, 3, 4)
CHECK_PROPERTIES = ("weakly-associative", "flexible", "lie-admissible")


def _monomials(maxdeg):
    return [(a, d - a) for d in range(maxdeg + 1) for a in range(d, -1, -1)]


def _plane_input(maxdeg, weight, scale):
    """Structure constants of K[x,y]/m^(D+1) and of the Poisson bracket
    {u, v} = scale * x^w (du/dx dv/dy - du/dy dv/dx).  The bracket is
    Poisson for every weight of positive degree, so the linear deformation
    mu + t{,} is weakly associative through every order and the product
    mu + {,} is weakly associative, flexible and Lie-admissible."""
    monos = _monomials(maxdeg)
    index = {m: i for i, m in enumerate(monos)}
    n = len(monos)
    mu = [[[0] * n for _ in range(n)] for _ in range(n)]
    br = [[[0] * n for _ in range(n)] for _ in range(n)]
    for i, a in enumerate(monos):
        for j, b in enumerate(monos):
            prod = (a[0] + b[0], a[1] + b[1])
            if sum(prod) <= maxdeg:
                mu[i][j][index[prod]] = 1
            for sign, da, db in ((1, 0, 1), (-1, 1, 0)):
                if a[da] == 0 or b[db] == 0:
                    continue
                mono = [weight[0] + a[0] + b[0], weight[1] + a[1] + b[1]]
                mono[da] -= 1
                mono[db] -= 1
                if sum(mono) <= maxdeg:
                    br[i][j][index[tuple(mono)]] += sign * scale * a[da] * b[db]
    return n, mu, br


def _algebra_doc(n, table):
    products = []
    for i in range(n):
        for j in range(n):
            out = [{"k": k + 1, "c": str(Fraction(q))} for k, q in enumerate(table[i][j]) if q]
            if out:
                products.append({"i": i + 1, "j": j + 1, "out": out})
    return {"dim": n, "products": products}


def _tensor_doc(table):
    return [[[str(Fraction(q)) for q in vec] for vec in plane] for plane in table]


def _int_matrix(rng, n, bound):
    """n x n integers in [-bound, bound] with exactly 2/3 of them nonzero, so
    the cost of the exact arithmetic barely depends on the seed."""
    cells = rng.sample(range(n * n), (2 * n * n) // 3)
    flat = [0] * (n * n)
    for c in cells:
        flat[c] = rng.choice([q for q in range(-bound, bound + 1) if q])
    return [flat[i * n:(i + 1) * n] for i in range(n)]


def prepare_algebras(seed, workdir):
    # Modules, not functions: the tracer rebinds module attributes, so every
    # call below goes through the module at run time.
    from wassoc import cli, cohomology, deform, finalg, linalg

    rng = random.Random(seed)
    inputs = []
    for maxdeg in ALGEBRA_DEGREES:
        weight = rng.choice(((1, 0), (0, 1)))
        scale = rng.choice((-2, -1, 1, 2))
        n, mu, br = _plane_input(maxdeg, weight, scale)
        zero = [[[0] * n for _ in range(n)] for _ in range(n)]
        deformation = {"base": _algebra_doc(n, mu), "terms": [_tensor_doc(t) for t in (br, zero, zero)]}
        wa_product = [[[x + y for x, y in zip(u, v)] for u, v in zip(pu, pv)] for pu, pv in zip(mu, br)]
        paths = {}
        for kind, doc in (("deform", deformation), ("algebra", _algebra_doc(n, wa_product))):
            paths[kind] = os.path.join(workdir, f"{kind}-d{maxdeg}.json")
            with open(paths[kind], "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
        inputs.append({
            "dim": n,
            "paths": paths,
            "gauge": [_int_matrix(rng, n, 1) for _ in range(3)],
            "endo": _int_matrix(rng, n, 2),
        })
    return {"inputs": inputs, "cli": cli, "cohomology": cohomology, "deform": deform,
            "finalg": finalg, "linalg": linalg}


def _cli(state, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = state["cli"].main(argv)
    return rc, buf.getvalue()


def _gauge_step(s, inp):
    deform, matrix = s["deform"], s["linalg"].Matrix
    with open(inp["paths"]["deform"], encoding="utf-8") as fh:
        deformation = deform.deformation_from_json(json.load(fh))
    g = deform.GaugeTransform([matrix.from_rows(h) for h in inp["gauge"]])
    ok = deform.is_wa_deformation(deform.gauge(deformation, g))
    return ok, f"gauged deformation weakly associative: {ok}"


def _deform_step(s, inp):
    rc, text = _cli(s, ["deform", "--file", inp["paths"]["deform"], "--format", "json"])
    want = {"order": 3, "base_dim": inp["dim"], "weakly_associative": True,
            "quantization": {"jacobi": True, "leibniz": True, "poisson": True, "failure": None}}
    have = json.loads(text)
    return rc == 0 and have == want, f"exit {rc}, {have}"


def _check_step(prop):
    def step(s, inp):
        rc, text = _cli(s, ["check", "--algebra", inp["paths"]["algebra"], "--property", prop])
        return rc == 0 and text == f"{prop}: holds\n", f"exit {rc}, {text.strip()}"
    return step


def _d2d1_step(s, inp):
    coh = s["cohomology"]
    with open(inp["paths"]["algebra"], encoding="utf-8") as fh:
        alg = s["finalg"].algebra_from_json(json.load(fh))
    ctx = coh.CochainContext(alg)
    f = s["linalg"].Matrix.from_rows(inp["endo"])
    ok = coh.wa_delta2(ctx, coh.wa_delta1(ctx, f)).is_zero()
    return ok, f"d2 d1 f = 0: {ok}"


ALGEBRA_STEPS = [("gauge", _gauge_step), ("deform", _deform_step)] + [
    (f"check-{p}", _check_step(p)) for p in CHECK_PROPERTIES
] + [("d2d1", _d2d1_step)]


def run_algebras(state):
    out = []
    for inp in state["inputs"]:
        for step_name, step in ALGEBRA_STEPS:
            name = f"algebras.dim{inp['dim']}.{step_name}"
            try:
                ok, detail = step(state, inp)
            except Exception as exc:
                out.extend(_failed_all([name], exc))
                continue
            out.append((name, ok, detail))
    return out


# name -> (prepare, run, operations per run)
WORKLOADS = {
    "verify": (prepare_verify, run_verify, 55),
    "frontier": (prepare_frontier, run_frontier, len(FRONTIER_EXPECTED)),
    "algebras": (prepare_algebras, run_algebras, len(ALGEBRA_DEGREES) * len(ALGEBRA_STEPS)),
}
