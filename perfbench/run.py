"""Benchmark runner for wassoc.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 40 --trace 0

Run from the repository root.  The runner is a single process with no
threads: it starts one child process (`child.py`) at a time, each of which
imports the package from `src/`, generates the workload's inputs from the
seed, runs the workload once and reports.  Before the timed loop it starts
one warm-up child (fills the bytecode cache; not counted) and SETUP_PROBES
set-up-only children.  Children are then started one after another until
the next one would end after `--seconds`; at least one always runs.

With `--trace 0` the last line of standard output is the JSON result with
the end-to-end metrics (medians over the children of the run).  With
`--trace 1` traced and untraced children alternate and the result carries
the per-layer metrics of the traced ones plus the tracing overhead.  Every
child's operations are checked against the expected values in
`workloads.py`; a child that crashes or times out fails all its operations.
The exit code is 0 whenever a result is printed and nonzero when the
package cannot be set up at all.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUTDIR = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402  (needs HERE on sys.path)

SETUP_PROBES = 5
# Whole-run deadline: a run must end within 180 s even if a child hangs.
RUN_DEADLINE_S = 170.0

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))

PER_LAYER_UNITS = {
    "calls": "count", "s": "s", "cells": "cells", "max_cells": "cells",
    "rank_ratio": "ratio", "entries": "count", "rss_growth_mb": "MB",
    "density": "ratio", "allocs": "count", "spans": "count",
    "bookkeeping_s": "s", "overhead_frac": "ratio",
}


class SetupError(RuntimeError):
    """The package cannot be imported or the inputs cannot be generated."""


def spawn(workload: str, seed: int, mode: str, timeout: float):
    """Run one child to completion; returns (result or None, error text)."""
    os.makedirs(OUTDIR, exist_ok=True)
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), workload, str(seed),
         repr(spawned_at), mode, OUTDIR],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"child timed out after {timeout:.0f} s"
    finally:
        if proc.poll() is None:  # interrupted: never leave a child behind
            proc.kill()
            proc.wait()
    lines = out.decode(errors="replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, err.decode(errors="replace").strip()[-2000:] or f"exit {proc.returncode}"
    return json.loads(lines[-1]), ""


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    """One run of one workload: returns the result object for that workload."""
    expected_ops = WORKLOADS[workload][2]
    result, err = spawn(workload, seed, "setup", deadline - perf_counter())
    if result is None:
        raise SetupError(f"{workload}: set-up failed: {err}")
    setups = []
    for _ in range(SETUP_PROBES):
        result, err = spawn(workload, seed, "setup", deadline - perf_counter())
        if result is None:
            raise SetupError(f"{workload}: set-up failed: {err}")
        setups.append(result["setup_s"])

    children = []  # (mode, result or None)
    durations = []
    start = perf_counter()
    while True:
        mode = "trace" if trace and len(children) % 2 == 0 else "run"
        began = perf_counter()
        result, err = spawn(workload, seed, mode, deadline - began)
        durations.append(perf_counter() - began)
        if result is None:
            print(f"{workload}: child failed: {err}", file=sys.stderr)
        children.append((mode, result))
        if trace and len(children) < 2:
            continue
        now = perf_counter()
        if now - start + statistics.median(durations) > seconds or now >= deadline:
            break

    attempted = failed = 0
    failures = []
    for _, res in children:
        if res is None:
            attempted += expected_ops
            failed += expected_ops
            continue
        attempted += max(res["ops"], expected_ops)
        failed += len(res["failures"]) + max(expected_ops - res["ops"], 0)
        failures.extend(res["failures"])
        setups.append(res["setup_s"])
    for name, detail in failures[:10]:
        print(f"{workload}: FAILED {name}: {detail}", file=sys.stderr)

    plain = [res for mode, res in children if mode == "run" and res is not None]
    traced = [res for mode, res in children if mode == "trace" and res is not None]
    out = {"correct": failed == 0 and bool(plain), "attempted": attempted, "failed": failed,
           "children": len(children)}
    metrics = {}
    if plain:
        samples = {"setup_s": setups,
                   "wall_s": [r["wall_s"] for r in plain],
                   "peak_rss_mb": [r["peak_rss_mb"] for r in plain]}
        if not trace:
            for name, unit in END_TO_END:
                metrics[name] = {"value": statistics.median(samples[name]), "unit": unit}
            out["samples"] = samples
    if trace and traced and plain:
        for name in traced[0]["layers"]:
            value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": PER_LAYER_UNITS[name.rsplit(".", 1)[1]]}
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    / statistics.median(r["wall_s"] for r in plain) - 1)
        metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    out["metrics"] = metrics
    return out


def summary(workload: str, res: dict) -> list[str]:
    frac = res["failed"] / res["attempted"]
    lines = [f"{workload}: {res['children']} children, ops {res['attempted']}, "
             f"failed {res['failed']}, ops_failed_frac {frac:g} (ops {res['attempted']})"]
    for name, m in res["metrics"].items():
        line = f"  {name:34s} {m['value']:.6g} {m['unit']}"
        if name in res.get("samples", {}):
            values = res["samples"][name]
            line += f"  (median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})"
        lines.append(line)
    return lines


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measuring time per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "wassoc", "__init__.py")):
        print(f"error: no package source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    begin = perf_counter()
    results = {}
    try:
        for name in names:
            deadline = begin + RUN_DEADLINE_S * (len(results) + 1)
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, res in results.items():
        print("\n".join(summary(name, res)))
    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
