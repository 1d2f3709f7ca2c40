"""Command-line front-end: fit, explain, simulate, bench.

CSV in, JSON/CSV out.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 numeric failure.
"""

import argparse
import csv
import functools
import json
import operator
import shlex
import subprocess
import sys
import tempfile
import time

import numpy as np

from . import simstudy
from .dvine import MIN_FIT_ROWS, DVineModel, NonparametricMode, ParametricMode, fit_vines
from .errors import DataError, InvalidInputError, NumericError, VineShapError
from .explain import (PREDICT_CELLS, GaussianCopulaEstimator, GaussianEstimator,
                      VineCondSimEstimator, VineRatioEstimator, shapley_rows)
from .marginals import EmpiricalMarginal
from .structure import MAX_FEATURES, CoverPlan, greedy_cover

BUNDLE_FORMAT = "vineshap-bundle"
BUNDLE_VERSION = 3
FIT_METHODS = ("vine-parametric", "vine-nonparametric", "gaussian", "gaussian-copula")
PREDICTOR_TIMEOUT_S = 600.0  # default seconds a `cmd:` call may take
CMD_PREDICT_CELLS = 1 << 20  # matrix cells per `cmd:` call in `explain`: each call is a process


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
    cmd:<command>        child process: CSV on stdin, one float per line out;
                         the command is split as a shell would, but no shell runs it
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
        try:
            argv = shlex.split(arg)
        except ValueError as exc:
            raise InvalidInputError(f"cannot parse predictor command {arg!r}: {exc}")
        if not argv:
            raise InvalidInputError("empty predictor command")
        return kind, argv
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
        return lambda x: np.einsum("ij,j->i", np.atleast_2d(x), arg)
    return _subprocess_predictor(arg, columns)


def _subprocess_predictor(argv, columns):
    """g(x, timeout): one child run per call; a child still running after
    `timeout` seconds is killed and the call raises NumericError."""
    def g(x, timeout=PREDICTOR_TIMEOUT_S):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        m, step = x.shape[1], max(1, PREDICT_CELLS // x.shape[1])
        # the rows go through a file, not a pipe, written one chunk at a
        # time, so no call holds them all as text
        with tempfile.TemporaryFile("w+", encoding="utf-8") as stdin:
            stdin.write(",".join(columns) + "\n")
            for start in range(0, len(x), step):
                cells = map(repr, x[start:start + step].ravel().tolist())
                stdin.write("\n".join(map(",".join, zip(*[cells] * m))) + "\n")
            stdin.seek(0)
            try:
                proc = subprocess.run(argv, stdin=stdin, capture_output=True, timeout=timeout)
            except OSError as exc:
                raise NumericError(f"cannot run predictor command {argv[0]!r}: {exc}")
            except subprocess.TimeoutExpired:  # run() has killed the child
                raise NumericError(
                    f"predictor command {argv[0]!r} timed out after {timeout:g} s")
        if proc.returncode != 0:
            stderr = proc.stderr.decode("utf-8", "replace")
            raise NumericError(
                f"predictor command failed (exit {proc.returncode}): {stderr.strip()[:500]}")
        try:
            stdout = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"predictor protocol violation: output is not UTF-8 ({exc})")
        out = [ln for ln in stdout.splitlines() if ln.strip()]
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
    if m > MAX_FEATURES:
        raise DataError(f"{args.train_csv}: {m} columns exceeds the {MAX_FEATURES} cap")
    if m < 2:
        raise DataError(f"{args.train_csv}: need at least 2 feature columns")
    if n < MIN_FIT_ROWS:
        raise DataError(f"{args.train_csv}: need at least {MIN_FIT_ROWS} rows, got {n}")
    t0 = time.perf_counter()
    rng = np.random.default_rng(args.seed)
    bundle = {
        "format": BUNDLE_FORMAT,
        "version": BUNDLE_VERSION,
        "manifest": {"method": args.method, "shap_method": args.shap_method,
                     "M": m, "N": n, "seed": args.seed, "columns": columns},
        "train": data.tolist(),
    }
    # the Gaussian baselines need only `train`; vines add their orders and pairs
    if args.method in ("vine-parametric", "vine-nonparametric"):
        mode = (ParametricMode() if args.method == "vine-parametric"
                else NonparametricMode(grid_size=args.grid_size))
        plan = greedy_cover(m, args.shap_method, B=args.cover_batch, rng=rng)
        bundle["models"] = [mod.to_dict() for mod in fit_vines(data, plan.orders, mode)]
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
    if (not isinstance(bundle, dict) or bundle.get("format") != BUNDLE_FORMAT
            or bundle.get("version") != BUNDLE_VERSION):
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
        models = [DVineModel.from_dict(d, marginals) for d in bundle.get("models", [])]
        plan = CoverPlan(len(marginals), manifest["shap_method"],
                         [m.order for m in models])
        if manifest["shap_method"] == "condsim":
            return VineCondSimEstimator(train, predictor, models, plan, K=K, rng=rng)
        return VineRatioEstimator(train, predictor, models, plan, K=K, rng=rng)
    if method == "gaussian":
        return GaussianEstimator(train, predictor, K=K, rng=rng)
    if method == "gaussian-copula":
        return GaussianCopulaEstimator(train, predictor, K=K, rng=rng)
    raise DataError(f"bundle has unknown method {method!r}")


def cmd_explain(args):
    bundle = load_bundle(args.model)
    columns, test = read_csv(args.test_csv)
    predictor = make_predictor(args.predictor, columns)
    cells = None  # shapley_rows' default, explain.PREDICT_CELLS
    if parse_predictor(args.predictor)[0] == "cmd":
        predictor = functools.partial(predictor, timeout=args.predictor_timeout)
        cells = CMD_PREDICT_CELLS
    rng = np.random.default_rng(args.seed)
    try:
        manifest = bundle["manifest"]
        want, label = manifest["columns"], f"{manifest['method']}/{manifest['shap_method']}"
        est = estimator_from_bundle(bundle, predictor, args.k, rng)
    except (AttributeError, LookupError, TypeError, ValueError, VineShapError) as exc:
        raise DataError(f"{args.model}: malformed model bundle ({type(exc).__name__}: "
                        f"{exc}); refit it with `vineshap fit`")
    if columns != want:
        raise DataError(
            f"{args.test_csv}: columns {columns} do not match model columns {want}")
    records = []
    for i, expl in enumerate(shapley_rows(est, test, cells)):
        records.append({
            "row_id": i,
            "phi0": expl.phi0,
            "phi": expl.phi.tolist(),
            "method": label,
            "K": args.k,
            "seed": args.seed,
        })
        if args.diagnostics:
            records[-1]["values"] = {str(k): v for k, v in sorted(expl.values.items())}
            for key in ("ess_min", "ridge_flagged"):
                if key in expl.diagnostics:
                    records[-1][key] = expl.diagnostics[key]
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


#: each `bench` config key, in manifest order: the ExperimentConfig field it
#: sets (p and M of its `burr`) and the type its text is read as
BENCH_FIELDS = {
    "p": ("burr.p", float), "m": ("burr.M", int), "n_train": ("n_train", int),
    "n_test": ("n_test", int), "reps": ("repetitions", int), "k": ("K", int),
    "k_oracle": ("K_oracle", int),
    "methods": ("methods", lambda text: tuple(t.strip() for t in text.split(","))),
    "predictor": ("predictor", str), "noise_scale": ("noise_scale", float),
    "seed": ("seed", int)}


def parse_bench_config(path):
    """The ExperimentConfig of a key=value file; a key it leaves out takes the
    field's default there, and p and m, for which `burr` has none, 0.5 and 4."""
    fields = {"burr.p": 0.5, "burr.M": 4}
    try:
        with open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise DataError(f"{path}: line {i}: expected key=value")
                key, _, text = line.partition("=")
                key, text = key.strip().lower(), text.strip()
                if key not in BENCH_FIELDS:
                    raise DataError(f"{path}: line {i}: unknown key {key!r}")
                field, kind = BENCH_FIELDS[key]
                try:
                    fields[field] = value = kind(text)
                    if field in simstudy.CONFIG_BOUNDS:
                        simstudy.check_field(field, value)
                except (ValueError, InvalidInputError) as exc:
                    raise DataError(f"{path}: {key}={text}: {exc}")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}")
    try:
        burr = simstudy.study_params(fields.pop("burr.p"), fields.pop("burr.M"))
        config = simstudy.ExperimentConfig(burr, **fields)
        config.validate()
    except InvalidInputError as exc:
        raise DataError(f"{path}: {exc}")
    return config


def cmd_bench(args):
    import os
    config = parse_bench_config(args.config)
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
        for key, (field, _) in BENCH_FIELDS.items():
            value = operator.attrgetter(field)(config)
            fh.write(f"{key}={','.join(value) if key == 'methods' else value}\n")
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


def positive_seconds(text):
    """A finite number of seconds above 0."""
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < value < np.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number of seconds, got {text}")
    return value


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
    e.add_argument("--predictor-timeout", dest="predictor_timeout", metavar="SECONDS",
                   type=positive_seconds, default=PREDICTOR_TIMEOUT_S,
                   help="kill a cmd: predictor call that runs longer (exit 4); "
                        f"default {PREDICTOR_TIMEOUT_S:g}")
    e.add_argument("--diagnostics", action="store_true",
                   help="also write each row's v(S) table and, for vine-ratio, its ess_min")
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
    except VineShapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except np.linalg.LinAlgError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
