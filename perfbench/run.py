"""vineshap benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload ratio-par-m8 --seed 1 --seconds 10 --trace 0

Run it from the root of a source checkout: it imports ``vineshap`` from
``src/`` and starts the CLI from there, so nothing needs installing.
With ``--trace 0`` the last line of standard output holds the
end-to-end metrics of BENCHMARK.json; with ``--trace 1`` it holds the
per-layer metrics of a separate traced run.  The line before it holds
the run's provenance.  Span traces and full results are written under
``.perfbench_out/`` in the checkout.  See perfbench/METRICS.md for what
each workload and metric is for.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# One BLAS/OpenMP thread per process: never more threads than cores,
# and no thread-count noise between runs.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: the self-test's M=3, one-row size")
    ap.add_argument("--poison", action="store_true",
                    help="self-test: the predictor returns NaN, so every row must fail")
    return ap.parse_args(argv)


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
        if sha.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True,
                                timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def provenance(args, seeds):
    import numpy as np
    import scipy

    sha, dirty = git_state()
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "stream_seeds": seeds,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_sha": sha, "git_dirty": dirty,
    }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "vineshap" / "__init__.py").is_file():
        print(f"error: no vineshap sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(SRC))

    import workloads  # after the thread pinning: it imports numpy

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           args.size, args.poison, ROOT, OUT_DIR)
    prov = provenance(args, result.pop("stream_seeds"))
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"result-{tag}.json", "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, **result}, fh, indent=1, sort_keys=True)
    print("info " + json.dumps(result["info"], sort_keys=True))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
