"""Command-line front-end: fit, explain, simulate, bench.

CSV in, JSON/CSV out.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric failure.
"""

import argparse
import csv
import json
import shlex
import subprocess
import sys
import time

import numpy as np

from . import simstudy
from .dvine import DVineModel, NonparametricMode, ParametricMode, fit_dvine
from .errors import DataError, InvalidInputError, NumericError, VineShapError
from .explain import (GaussianCopulaEstimator, GaussianEstimator,
                      VineCondSimEstimator, VineRatioEstimator, shapley)
from .marginals import EmpiricalMarginal
from .structure import CoverPlan, greedy_cover

BUNDLE_FORMAT = "vineshap-bundle"
BUNDLE_VERSION = 2
FIT_METHODS = ("vine-parametric", "vine-nonparametric", "gaussian", "gaussian-copula")
MAX_COLUMNS = 20


def read_csv(path):
    """Read a numeric CSV with a header row; errors name the bad cell."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file")
            header = [h.strip() for h in header]
            if len(set(header)) != len(header):
                raise DataError(f"{path}: duplicate column names")
            rows = []
            for i, row in enumerate(reader, start=2):
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if len(row) != len(header):
                    raise DataError(
                        f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
                vals = []
                for j, cell in enumerate(row):
                    try:
                        v = float(cell)
                    except ValueError:
                        raise DataError(
                            f"{path}: row {i}, column {header[j]!r}: "
                            f"non-numeric cell {cell!r}")
                    if not np.isfinite(v):
                        raise DataError(
                            f"{path}: row {i}, column {header[j]!r}: non-finite value")
                    vals.append(v)
                rows.append(vals)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(v) if isinstance(v, float) else v for v in row])


# ----------------------------------------------------------------------
# predictors

def parse_predictor(spec):
    """Split a predictor spec into (kind, argument).

    const:<c>            constant prediction
    linear:<a1,a2,...>   dot product with the feature vector
    cmd:<shell command>  child process: CSV on stdin, one float per line out
    """
    kind, _, arg = spec.partition(":")
    try:
        if kind == "const":
            return kind, float(arg)
        if kind == "linear":
            return kind, np.array([float(t) for t in arg.split(",")])
    except ValueError:
        raise InvalidInputError(f"non-numeric value in predictor spec {spec!r}")
    if kind == "cmd":
        return kind, arg
    raise InvalidInputError(
        f"unknown predictor spec {spec!r}; use const:, linear: or cmd:")


def make_predictor(spec, columns):
    """Predictor from a spec string (see :func:`parse_predictor`)."""
    kind, arg = parse_predictor(spec)
    if kind == "const":
        return lambda x: np.full(np.atleast_2d(x).shape[0], arg)
    if kind == "linear":
        if len(arg) != len(columns):
            raise DataError(
                f"linear predictor needs {len(columns)} coefficients, got {len(arg)}")
        return lambda x: np.atleast_2d(x) @ arg
    return _subprocess_predictor(arg, columns)


def _subprocess_predictor(command, columns):
    def g(x):
        x = np.atleast_2d(x)
        lines = [",".join(columns)]
        lines += [",".join(repr(float(v)) for v in row) for row in x]
        proc = subprocess.run(
            shlex.split(command), input="\n".join(lines) + "\n",
            capture_output=True, text=True)
        if proc.returncode != 0:
            raise NumericError(
                f"predictor command failed (exit {proc.returncode}): "
                f"{proc.stderr.strip()[:500]}")
        out = [ln for ln in proc.stdout.splitlines() if ln.strip()]
        if len(out) != x.shape[0]:
            raise DataError(
                f"predictor protocol violation: sent {x.shape[0]} rows, "
                f"received {len(out)} predictions")
        try:
            return np.array([float(v) for v in out])
        except ValueError as exc:
            raise DataError(f"predictor returned a non-numeric line: {exc}")
    return g


# ----------------------------------------------------------------------
# fit

def cmd_fit(args):
    columns, data = read_csv(args.train_csv)
    n, m = data.shape
    if m > MAX_COLUMNS:
        raise DataError(f"{args.train_csv}: {m} columns exceeds the {MAX_COLUMNS} cap")
    if m < 2:
        raise DataError(f"{args.train_csv}: need at least 2 feature columns")
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    bundle = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "manifest": {"method": args.method, "shap_method": args.shap_method,
                     "M": m, "N": n, "seed": args.seed, "columns": columns},
        "train": data.tolist(),
    }
    # the Gaussian baselines need only `train`; vines add their plan and pairs
    if args.method in ("vine-parametric", "vine-nonparametric"):
        mode = (ParametricMode() if args.method == "vine-parametric"
                else NonparametricMode(grid_size=args.grid_size))
        plan = greedy_cover(m, args.shap_method, B=args.cover_batch, rng=rng)
        marginals = [EmpiricalMarginal(data[:, j]) for j in range(m)]
        models = [fit_dvine(data, order, mode, marginals=marginals)
                  for order in plan.orders]
        bundle["plan"] = plan.to_dict()
        bundle["models"] = [mod.to_dict() for mod in models]
    seconds = time.perf_counter() - t0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bundle, fh, sort_keys=True)
        fh.write("\n")
    # wall time goes to stderr so the bundle is byte-identical across reruns
    print(f"fit: method={args.method} M={m} N={n} seed={args.seed} "
          f"seconds={seconds:.3f} -> {args.out}", file=sys.stderr)
    return 0


def load_bundle(path):
    try:
        with open(path, encoding="utf-8") as fh:
            bundle = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise DataError(f"cannot read model bundle {path}: {exc}")
    if bundle.get("format") != BUNDLE_FORMAT or bundle.get("version") != BUNDLE_VERSION:
        raise DataError(f"{path}: not a version-{BUNDLE_VERSION} vineshap model bundle; "
                        "refit it with `vineshap fit`")
    return bundle


def estimator_from_bundle(bundle, predictor, K, rng):
    manifest = bundle["manifest"]
    train = np.asarray(bundle["train"], dtype=float)
    method = manifest["method"]
    if method in ("vine-parametric", "vine-nonparametric"):
        # one set of marginals, rebuilt from `train`, shared by every vine
        marginals = [EmpiricalMarginal(train[:, j]) for j in range(train.shape[1])]
        plan = CoverPlan.from_dict(bundle["plan"])
        models = [DVineModel.from_dict(d, marginals) for d in bundle["models"]]
        if manifest["shap_method"] == "condsim":
            return VineCondSimEstimator(train, predictor, models, plan, K=K, rng=rng)
        return VineRatioEstimator(train, predictor, models, plan, K=K, rng=rng,
                                  marginals=marginals)
    if method == "gaussian":
        return GaussianEstimator(train, predictor, K=K, rng=rng)
    if method == "gaussian-copula":
        return GaussianCopulaEstimator(train, predictor, K=K, rng=rng)
    raise DataError(f"bundle has unknown method {method!r}")


def cmd_explain(args):
    bundle = load_bundle(args.model)
    columns, test = read_csv(args.test_csv)
    want = bundle["manifest"]["columns"]
    if columns != want:
        raise DataError(
            f"{args.test_csv}: columns {columns} do not match model columns {want}")
    predictor = make_predictor(args.predictor, columns)
    rng = np.random.default_rng(args.seed)
    est = estimator_from_bundle(bundle, predictor, args.k, rng)
    records = []
    for i, x in enumerate(test):
        expl = shapley(est, x)
        records.append({
            "row_id": i,
            "phi0": expl.phi0,
            "phi": expl.phi.tolist(),
            "method": f"{bundle['manifest']['method']}"
                      f"/{bundle['manifest']['shap_method']}",
            "K": args.k,
            "seed": args.seed,
        })
        if args.diagnostics:
            records[-1]["values"] = {str(k): v for k, v in sorted(expl.values.items())}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"columns": columns, "explanations": records}, fh, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_simulate(args):
    try:
        b = [float(t) for t in args.b.split(",")]
        r = [float(t) for t in args.r.split(",")]
        params = simstudy.BurrParams(p=args.p, b=b, r=r)
    except (ValueError, InvalidInputError) as exc:
        raise DataError(f"invalid Burr parameters: {exc}")
    rng = np.random.default_rng(args.seed)
    x = simstudy.burr_sample(params, args.n, rng)
    header = [f"x{j + 1}" for j in range(params.M)]
    write_csv(args.out, header, [list(map(float, row)) for row in x])
    return 0


BENCH_KEYS = {"p", "m", "n_train", "n_test", "reps", "k", "k_oracle",
              "methods", "predictor", "seed", "noise_scale"}


def parse_bench_config(path):
    kv = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"{path}: line {i}: expected key=value")
                key, _, val = line.partition("=")
                key = key.strip().lower()
                if key not in BENCH_KEYS:
                    raise DataError(f"{path}: line {i}: unknown key {key!r}")
                kv[key] = val.strip()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")

    def number(key, default, kind=int, low=-np.inf):
        """kv[key] as a finite `kind` >= low; else a DataError naming the key."""
        text = kv.get(key, default)
        try:
            value = kind(text)
        except ValueError:
            value = np.nan
        if not -np.inf < value < np.inf or value < low:
            raise DataError(f"{path}: {key} must be a finite {kind.__name__} "
                            f">= {low}, got {text!r}")
        return value

    methods = kv.get("methods", "independence,gaussian-copula,vine-ratio-par")
    try:
        config = simstudy.ExperimentConfig(
            burr=simstudy.study_params(number("p", "0.5", float), M=number("m", "4")),
            n_train=number("n_train", "1000", low=50),
            n_test=number("n_test", "20", low=1),
            repetitions=number("reps", "5", low=1),
            K=number("k", "1000", low=1),
            K_oracle=number("k_oracle", "10000", low=1000),
            methods=tuple(t.strip() for t in methods.split(",")),
            predictor=kv.get("predictor", "analytic-mean"),
            noise_scale=number("noise_scale", "0.5", float, low=0),
            seed=number("seed", "0", low=0),
        )
        config.validate()
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}")
    return config, kv


def cmd_bench(args):
    import os
    config, kv = parse_bench_config(args.config)
    os.makedirs(args.out_dir, exist_ok=True)
    report = simstudy.run_experiment(config, workers=args.threads)
    write_csv(os.path.join(args.out_dir, "results.csv"),
              ["method", "repetition", "mae"],
              [[m, r, float(v)] for m, r, v in report.rows])
    write_csv(os.path.join(args.out_dir, "summary.csv"),
              ["method", "mean_mae", "stderr"],
              [[m, float(v), float(s)] for m, v, s in report.summary])
    # timings are inherently non-deterministic, so they live in their own file
    write_csv(os.path.join(args.out_dir, "timing.csv"),
              ["method", "repetition", "seconds"],
              [[m, r, float(s)] for m, r, s in report.timings])
    with open(os.path.join(args.out_dir, "manifest.txt"), "w", encoding="utf-8") as fh:
        fh.write(f"p={config.burr.p}\nm={config.burr.M}\n"
                 f"n_train={config.n_train}\nn_test={config.n_test}\n"
                 f"reps={config.repetitions}\nk={config.K}\n"
                 f"k_oracle={config.K_oracle}\n"
                 f"methods={','.join(config.methods)}\n"
                 f"predictor={config.predictor}\n"
                 f"noise_scale={config.noise_scale}\nseed={config.seed}\n")
    return 0


# ----------------------------------------------------------------------
# argument types: a malformed value is a usage error (exit 2)

def predictor_arg(spec):
    """A --predictor spec that :func:`parse_predictor` accepts."""
    try:
        parse_predictor(spec)
    except InvalidInputError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    return spec


def int_at_least(low):
    def integer(text):
        value = int(text)  # argparse reports a ValueError as an invalid value
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return integer


def build_parser():
    p = argparse.ArgumentParser(
        prog="vineshap",
        description="Shapley-value explanations under dependent features "
                    "via D-vine copulas")
    sub = p.add_subparsers(dest="command", required=True)

    f = sub.add_parser("fit", help="fit a model bundle from a training CSV")
    f.add_argument("train_csv")
    f.add_argument("--method", choices=FIT_METHODS, default="vine-parametric")
    f.add_argument("--shap-method", dest="shap_method",
                   choices=("condsim", "ratio"), default="ratio")
    f.add_argument("--seed", type=int, default=0)
    f.add_argument("--grid-size", type=int_at_least(2), default=64)
    f.add_argument("--cover-batch", type=int_at_least(1), default=100)
    f.add_argument("--out", required=True)
    f.set_defaults(func=cmd_fit)

    e = sub.add_parser("explain", help="compute Shapley values for test rows")
    e.add_argument("model")
    e.add_argument("test_csv")
    e.add_argument("--predictor", required=True, type=predictor_arg,
                   help="const:<c> | linear:<a1,..> | cmd:<command>")
    e.add_argument("--k", type=int_at_least(1), default=1000)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--diagnostics", action="store_true")
    e.add_argument("--out", required=True)
    e.set_defaults(func=cmd_explain)

    s = sub.add_parser("simulate", help="draw multivariate Burr samples")
    s.add_argument("--p", type=float, required=True)
    s.add_argument("--b", required=True, help="comma-separated shape parameters")
    s.add_argument("--r", required=True, help="comma-separated rate parameters")
    s.add_argument("--n", type=int_at_least(0), required=True)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_simulate)

    b = sub.add_parser("bench", help="run the simulation-study benchmark")
    b.add_argument("config")
    b.add_argument("--threads", type=int_at_least(1), default=1)
    b.add_argument("--out-dir", required=True)
    b.set_defaults(func=cmd_bench)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (InvalidInputError, VineShapError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
