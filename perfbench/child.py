"""One measured process: set up one workload, run it once, print one JSON line.

    python3 perfbench/child.py WORKLOAD SEED SPAWNED_AT MODE OUTDIR

`run.py` starts it.  SPAWNED_AT is the parent's `time.perf_counter()` just
before the process was started (the monotonic clock is shared by all
processes), so `setup_s` covers interpreter start, import and input
generation.  MODE is `setup` (stop once the inputs are ready), `run` (time
the workload) or `trace` (time it with the per-layer tracer installed).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import tempfile
from time import perf_counter

# Address-space cap, set in this process only: a memory regression on the
# frontier workload (1.1 GB at degree 11) becomes a MemoryError, which fails
# the operation instead of exhausting the machine.
ADDRESS_SPACE_LIMIT = 3 * 2**30

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main(argv) -> dict:
    workload, seed, spawned_at, mode, outdir = argv
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE_LIMIT, ADDRESS_SPACE_LIMIT))
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    prepare, run, _ = WORKLOADS[workload]
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=outdir)
    try:
        state = prepare(int(seed), workdir)
        import wassoc

        if not os.path.abspath(wassoc.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"wassoc imported from {wassoc.__file__}, not from {SRC}")
        result = {"setup_s": perf_counter() - float(spawned_at)}
        if mode != "setup":
            tracer = None
            if mode == "trace":
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
            start = perf_counter()
            try:
                ops = run(state)
            finally:
                result["wall_s"] = perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
            result["ops"] = len(ops)
            result["failures"] = [[name, detail] for name, ok, detail in ops if not ok]
            if tracer is not None:
                result["layers"] = tracer.metrics()
                tracer.write(os.path.join(outdir, f"trace-{workload}.json"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
