"""Burr analytic-mean response as a ``cmd:`` predictor, standard library only.

Reads the ``vineshap explain`` predictor protocol (CSV with a header on
stdin) and writes one prediction per line.  The response is the study's
noise-free mean, computed from the analytic Burr marginal cdfs exactly
as ``vineshap.simstudy.analytic_mean_predictor`` does, so Shapley
errors are comparable with the in-process workloads.

    python3 predict_burr.py --p 0.5 --b 2,4,6,2 --r 1,3,5,1 [--count FILE] [--nan]

``--count FILE`` appends the number of rows of each call to FILE, which
gives the benchmark exact predictor call and row counts.  ``--nan``
prints ``nan`` for every row; the benchmark's self-test uses it to check
that its correctness gate trips.
"""

import argparse
import math
import sys


def burr_cdf(x, p, b, r):
    u = -math.expm1(-p * math.log1p(r * max(x, 0.0) ** b))
    return min(max(u, 1e-12), 1.0 - 1e-12)


def response_mean(u):
    u = list(u) + [0.0] * (10 - len(u))
    return (u[0] * u[1] * math.exp(1.8 * u[2] * u[3])
            + u[4] * u[5] * math.exp(1.8 * u[6] * u[7])
            + u[8] * math.exp(1.8 * u[9]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--p", type=float, required=True)
    ap.add_argument("--b", required=True)
    ap.add_argument("--r", required=True)
    ap.add_argument("--count")
    ap.add_argument("--nan", action="store_true")
    args = ap.parse_args()
    b = [float(t) for t in args.b.split(",")]
    r = [float(t) for t in args.r.split(",")]

    lines = sys.stdin.read().splitlines()[1:]
    out = []
    for line in lines:
        if not line.strip():
            continue
        x = [float(t) for t in line.split(",")]
        u = [burr_cdf(x[m], args.p, b[m], r[m]) for m in range(len(b))]
        out.append("nan" if args.nan else repr(response_mean(u)))
    sys.stdout.write("\n".join(out) + "\n")
    if args.count:
        with open(args.count, "a", encoding="utf-8") as fh:
            fh.write(f"{len(out)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
