"""The benchmark's workloads, correctness gate and metrics.

A run is a sequence of *cycles*.  One cycle is what a user does: set up
an estimator from training data in memory (cover, vine fits, estimator
construction; on ``cli-cmd-m4`` a ``vineshap fit`` process), then
explain a few query rows (on ``cli-cmd-m4`` a ``vineshap explain``
process with a ``cmd:`` predictor).  The oracle then scores the rows.

A run draws several independent datasets from its seed and cycles
through them round-robin.  The fitted pair-copula families, and so the
cost of a row, depend on the data; averaging over several datasets in
each run keeps that dependence from spreading the results of different
seeds.  Every dataset runs at least once and the first at least twice;
a repeat must give byte-identical output, or its rows count as failed.

A shared machine's speed drifts by tens of percent over seconds and
minutes.  A short reference slice of fixed numpy work runs before and
after each timed phase, and each phase's time is scaled by the
machine's slowness around it: the timings read as seconds on the
reference machine.

Inputs come from ``--seed`` through four ``SeedSequence`` spawns: data
(training and query rows), oracle, fit (cover plan) and explain
(estimator sampling), each spawned again once per dataset.  A change to
the estimator's random use therefore leaves the data and the oracle's
truth unchanged.
"""

import hashlib
import json
import os
import resource
import shlex
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import vineshap
from vineshap import cli, dvine, explain, simstudy, structure

from tracer import COPULA_FAMILIES, KERNEL_METHODS, Tracer

BURR_P = 0.5                # strong dependence: pairwise Kendall tau = 0.5
EFFICIENCY_RTOL = 1e-8
CHILD_DEADLINE_S = 160.0    # children still running this long into a run are killed
ORACLE_MIN_S = 0.5          # timing window of the oracle in each cycle
PREDICTOR = Path(__file__).resolve().parent / "predict_burr.py"

# Machine-speed reference: fixed numpy work that shares no code with
# vineshap.  REF_NOMINAL_S is its median time on the machine the bounds
# were set on (a shared 2-vCPU Intel Xeon VM at 2.1 GHz).
REF_NOMINAL_S = 0.07
REF_ITERS = 3000
_REF_U, _REF_V = np.random.default_rng(0).uniform(0.01, 0.99, (2, 1000))


def reference_slice():
    """Seconds of the reference work, now."""
    t0 = time.perf_counter()
    for _ in range(REF_ITERS):
        t = _REF_U ** -2.0 + _REF_V ** -2.0 - 1.0
        np.exp(-3.0 * np.log(_REF_V) - 1.5 * np.log(t))
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Workload:
    name: str
    method: str             # "ratio", "condsim" or "gausscop"
    M: int
    rows: int               # query rows explained per cycle
    datasets: int           # independent datasets per run
    cli: bool = False


WORKLOADS = {w.name: w for w in (
    Workload("ratio-par-m8", "ratio", 8, rows=1, datasets=4),
    Workload("condsim-par-m8", "condsim", 8, rows=1, datasets=3),
    Workload("cli-cmd-m4", "ratio", 4, rows=3, datasets=2, cli=True),
    Workload("gausscop-m8", "gausscop", 8, rows=2, datasets=4),
)}


@dataclass(frozen=True)
class Size:
    N: int
    K: int
    K_oracle: int
    M: int = 0              # 0: the workload's own M, rows and datasets
    rows: int = 0
    datasets: int = 0


SIZES = {"full": Size(N=1000, K=1000, K_oracle=10000),
         "tiny": Size(N=200, K=200, K_oracle=1000, M=3, rows=1, datasets=2)}

E2E_UNITS = {
    "setup_s": "s", "explain_row_s": "s", "total_s": "s", "oracle_row_s": "s",
    "predict_calls_per_row": "count", "predict_rows_per_row": "count",
    "peak_rss_mb": "MB", "bundle_bytes": "bytes",
}


def _layer_units():
    units = {}
    for meth in KERNEL_METHODS:
        units.update({f"bicop.{meth}.s": "s", f"bicop.{meth}.points": "count",
                      f"bicop.{meth}.points_per_s": "1/s"})
    for fam in ("clayton", "gaussian"):
        for meth in KERNEL_METHODS:
            units.update({f"bicop.{fam}.{meth}.s": "s", f"bicop.{fam}.{meth}.points": "count"})
    units["bicop.hfunc.points_per_inverse_row"] = "count"
    units.update({"bicop.fit_parametric.s": "s", "bicop.fit_parametric.calls": "count"})
    for fam in ("clayton", "gaussian", "independence"):
        units[f"dvine.pairs.{fam}"] = "count"
    units.update({
        "dvine.copula_log_density.s": "s", "dvine.copula_log_density.rows": "count",
        "dvine.marginal_copula_log_density.s": "s",
        "dvine.marginal_copula_log_density.rows": "count",
        "dvine.inverse_rosenblatt.s": "s", "dvine.inverse_rosenblatt.rows": "count",
        "dvine.rosenblatt.s": "s",
        "dvine.conditional_sample.s": "s", "dvine.conditional_sample.calls": "count",
        "dvine.fit_dvine.s": "s", "dvine.fit_dvine.calls": "count",
        "dvine.model_bytes": "bytes",
        "structure.greedy_cover.s": "s", "structure.orders": "count",
        "structure.cover_efficiency": "ratio",
        "marginals.cdf.s": "s", "marginals.cdf.points": "count",
        "marginals.quantile.s": "s", "marginals.quantile.points": "count",
        "predictor.calls": "count", "predictor.rows": "count", "predictor.s": "s",
        "explain.shapley.s": "s", "explain.contribution.s": "s",
        "explain.contribution.calls": "count", "explain.shapley_from_values.s": "s",
        "explain.ratio_ess_frac": "ratio", "explain.ratio_fallbacks": "count",
        "explain.ridge_flags": "count", "explain.phi_mae": "response",
        "simstudy.true_shapley.s": "s",
        "cli.import_s": "s", "cli.read_csv.s": "s", "cli.load_bundle.s": "s",
        "cli.estimator_from_bundle.s": "s", "cli.fit.s": "s", "cli.explain.s": "s",
        "trace.overhead_frac": "ratio", "trace.unattributed_frac": "ratio",
    })
    return units


LAYER_UNITS = _layer_units()


# ----------------------------------------------------------------------
# inputs

@dataclass
class Dataset:
    index: int
    train: np.ndarray
    test: np.ndarray
    seeds: dict             # stream name -> SeedSequence
    fit_seed: int           # integer seeds for the CLI, drawn from the same streams
    explain_seed: int


@dataclass
class Inputs:
    workload: Workload
    M: int
    K: int
    K_oracle: int
    params: object
    g: object               # the analytic-mean response, the oracle's and gate's reference
    g_model: object         # the model the estimators explain (g, or NaN when poisoned)
    poison: bool
    datasets: list


STREAMS = ("data", "oracle", "fit", "explain")


def make_inputs(wl, size, seed, poison):
    M = size.M or wl.M
    rows = size.rows or wl.rows
    n_sets = size.datasets or wl.datasets
    params = simstudy.study_params(BURR_P, M)
    streams = [s.spawn(n_sets) for s in np.random.SeedSequence(seed).spawn(len(STREAMS))]
    datasets = []
    for i in range(n_sets):
        seeds = {name: children[i] for name, children in zip(STREAMS, streams)}
        rng = np.random.default_rng(seeds["data"])
        train = simstudy.burr_sample(params, size.N, rng)
        test = simstudy.burr_sample(params, rows, rng)
        datasets.append(Dataset(i, train, test, seeds,
                                int(seeds["fit"].generate_state(1)[0]),
                                int(seeds["explain"].generate_state(1)[0])))
    g = simstudy.analytic_mean_predictor(params)
    g_model = (lambda x: np.full(np.atleast_2d(x).shape[0], np.nan)) if poison else g
    return Inputs(wl, M, size.K, size.K_oracle, params, g, g_model, poison, datasets)


def stream_seeds(seed, inp):
    return {"workload_seed": seed,
            "spawn_keys": {f"{name}/{ds.index}": list(s.spawn_key)
                           for ds in inp.datasets for name, s in ds.seeds.items()},
            "cli_seeds": [[ds.fit_seed, ds.explain_seed] for ds in inp.datasets]}


class CountingPredictor:
    """Counts calls and rows at the predictor boundary of an untraced run."""

    def __init__(self, g):
        self.g = g
        self.calls = 0
        self.rows = 0

    def __call__(self, x):
        self.calls += 1
        self.rows += np.atleast_2d(x).shape[0]
        return self.g(x)


@dataclass
class Cycle:
    dataset: Dataset
    setup_s: float
    explain_s: float
    phis: list                  # per row: [phi0, phi_1..phi_M], or None if it failed
    calls: int = 0
    rows: int = 0
    est: object = None
    extra_digest: str = ""      # the bundle, on the CLI workload
    bundle_bytes: int = 0
    truths: np.ndarray = None   # the oracle's phi per row
    oracle_s: float = 0.0       # oracle seconds per row
    ref: list = None            # reference slices before set-up, explain, oracle, and after

    def speed(self, phase):
        """Slowness of the machine around a phase (0 set-up, 1 explain, 2
        oracle), from the reference slices on either side of it."""
        return (self.ref[phase] + self.ref[phase + 1]) / (2 * REF_NOMINAL_S)

    @property
    def total_s(self):
        return self.setup_s + self.explain_s

    @property
    def scaled_total_s(self):
        return self.setup_s / self.speed(0) + self.explain_s / self.speed(1)

    @property
    def digest(self):
        h = hashlib.sha256(self.extra_digest.encode())
        for phi in self.phis:
            h.update(b"failed" if phi is None else np.asarray(phi, dtype="<f8").tobytes())
        h.update(np.asarray(self.truths, dtype="<f8").tobytes())
        return h.hexdigest()


# ----------------------------------------------------------------------
# library workloads

def build_estimator(inp, ds, g):
    wl = inp.workload
    rng_fit = np.random.default_rng(ds.seeds["fit"])
    rng_explain = np.random.default_rng(ds.seeds["explain"])
    if wl.method == "gausscop":
        return explain.GaussianCopulaEstimator(ds.train, g, K=inp.K, rng=rng_explain)
    plan = structure.greedy_cover(inp.M, wl.method, rng=rng_fit)
    models = [dvine.fit_dvine(ds.train, order, dvine.ParametricMode())
              for order in plan.orders]
    cls = explain.VineRatioEstimator if wl.method == "ratio" else explain.VineCondSimEstimator
    return cls(ds.train, g, models, plan, K=inp.K, rng=rng_explain)


def library_cycle(inp, ds, g):
    ref = [reference_slice()]
    t0 = time.perf_counter()
    est = build_estimator(inp, ds, g)
    setup_s = time.perf_counter() - t0
    ref.append(reference_slice())
    t1 = time.perf_counter()
    phis = []
    for x in ds.test:
        try:
            e = explain.shapley(est, x)
            phis.append(np.concatenate(([e.phi0], e.phi)))
        except Exception:  # a failed row counts as failed; the run goes on
            traceback.print_exc()
            phis.append(None)
    explain_s = time.perf_counter() - t1
    ref.append(reference_slice())
    return Cycle(ds, setup_s, explain_s, phis, est=est, ref=ref)


def counted_library_cycle(inp, ds):
    pred = CountingPredictor(inp.g_model)
    c = library_cycle(inp, ds, pred)
    c.calls, c.rows = pred.calls, pred.rows
    return c


def cli_fit_bytes(inp, ds, work):
    """Size of the bundle ``vineshap fit`` writes for one dataset."""
    train_csv, _ = write_inputs(inp.M, ds, work)
    bundle = work / "bundle.json"
    method = "gaussian-copula" if inp.workload.method == "gausscop" else "vine-parametric"
    shap = "ratio" if inp.workload.method == "gausscop" else inp.workload.method
    rc = cli.main(["fit", str(train_csv), "--method", method, "--shap-method", shap,
                   "--seed", str(ds.fit_seed), "--out", str(bundle)])
    return bundle.stat().st_size if rc == 0 else 0


# ----------------------------------------------------------------------
# CLI workload

def write_inputs(M, ds, work):
    header = ",".join(f"x{j + 1}" for j in range(M))
    paths = []
    for name, table in (("train.csv", ds.train), ("test.csv", ds.test)):
        path = work / name
        path.write_text(header + "\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in table))
        paths.append(path)
    return paths


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in JSON output")


def read_explanations(path, rows):
    """Shapley rows from ``vineshap explain`` output; a JSON parser that rejects NaN."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), parse_constant=_reject_constant)
        phis = [np.array([r["phi0"], *r["phi"]], dtype=float) for r in doc["explanations"]]
    except (OSError, ValueError, KeyError, TypeError) as exc:
        print(f"explain output rejected: {exc}", file=sys.stderr)
        return [None] * rows
    return phis if len(phis) == rows else [None] * rows


def read_counts(path):
    """(calls, rows) appended by the ``cmd:`` predictor, one line per call."""
    try:
        lines = path.read_text(encoding="utf-8").split()
    except OSError:
        return 0, 0
    return len(lines), sum(int(v) for v in lines)


class CliRunner:
    """Argument lists of one fit + explain cycle, run as children or in process."""

    def __init__(self, inp, ds, root, work, deadline):
        self.inp, self.ds, self.root, self.deadline = inp, ds, root, deadline
        work.mkdir()
        train_csv, test_csv = write_inputs(inp.M, ds, work)
        self.bundle = work / "bundle.json"
        self.out = work / "explanations.json"
        self.count = work / "predict_count.txt"
        p = inp.params
        predictor = [sys.executable, str(PREDICTOR), "--p", repr(p.p),
                     "--b", ",".join(map(repr, p.b)), "--r", ",".join(map(repr, p.r)),
                     "--count", str(self.count)] + (["--nan"] if inp.poison else [])
        self.fit_argv = ["fit", str(train_csv), "--method", "vine-parametric",
                         "--shap-method", inp.workload.method,
                         "--seed", str(ds.fit_seed), "--out", str(self.bundle)]
        self.explain_argv = ["explain", str(self.bundle), str(test_csv),
                             "--predictor", "cmd:" + shlex.join(predictor),
                             "--k", str(inp.K), "--seed", str(ds.explain_seed),
                             "--out", str(self.out)]

    def _child(self, argv):
        cmd = [sys.executable, "-m", "vineshap.cli"] + argv
        with subprocess.Popen(cmd, cwd=self.root, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True,
                              start_new_session=True) as proc:
            try:
                _, err = proc.communicate(
                    timeout=max(1.0, self.deadline - time.perf_counter()))
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)  # the predictor children too
                proc.communicate()
                print(f"killed after the deadline: {argv[0]}", file=sys.stderr)
                return -signal.SIGKILL
        if proc.returncode != 0:
            print(err[-2000:], file=sys.stderr)
        return proc.returncode

    @staticmethod
    def _in_process(argv):
        try:
            return cli.main(argv)
        except Exception:  # an uncaught CLI error fails the cycle, not the run
            traceback.print_exc()
            return 1

    def cycle(self, in_process=False):
        run = self._in_process if in_process else self._child
        for path in (self.bundle, self.out, self.count):
            path.unlink(missing_ok=True)
        ref = [reference_slice()]
        t0 = time.perf_counter()
        rc_fit = run(self.fit_argv)
        t1 = time.perf_counter()
        ref.append(reference_slice())
        t2 = time.perf_counter()
        rc_explain = run(self.explain_argv) if rc_fit == 0 else None
        t3 = time.perf_counter()
        ref.append(reference_slice())
        rows = len(self.ds.test)
        phis = read_explanations(self.out, rows) if rc_explain == 0 else [None] * rows
        calls, n_rows = read_counts(self.count)
        bundle = self.bundle.read_bytes() if rc_fit == 0 else b""
        return Cycle(self.ds, t1 - t0, t3 - t2, phis, calls=calls, rows=n_rows,
                     extra_digest=hashlib.sha256(bundle).hexdigest(),
                     bundle_bytes=len(bundle), ref=ref)


# ----------------------------------------------------------------------
# correctness gate and oracle

def run_oracle(inp, ds):
    """(truths, seconds per row).  Cheap oracles repeat until ORACLE_MIN_S
    have passed; every repeat must reproduce the first, or the truths
    become NaN and the gate fails the rows."""
    passes, t0 = [], time.perf_counter()
    while not passes or time.perf_counter() - t0 < ORACLE_MIN_S:
        rng = np.random.default_rng(ds.seeds["oracle"])
        passes.append(np.array([simstudy.true_shapley(inp.params, inp.g, x, inp.K_oracle,
                                                      rng).phi for x in ds.test]))
    seconds = (time.perf_counter() - t0) / (len(passes) * len(ds.test))
    if any(not np.array_equal(p, passes[0]) for p in passes):
        return np.full_like(passes[0], np.nan), seconds
    return passes[0], seconds


def row_ok(phi, x, inp, truth):
    """Finite, efficient, and closer to the oracle than the all-zero answer."""
    if phi is None or not np.all(np.isfinite(phi)):
        return False
    gx = float(inp.g(x[None, :])[0])
    if abs(float(np.sum(phi)) - gx) > EFFICIENCY_RTOL * max(1.0, abs(gx)):
        return False
    return float(np.sum(np.abs(phi[1:] - truth))) < float(np.sum(np.abs(truth)))


def gate(cycles, inp):
    """(attempted, failed): bad rows, plus every row of a cycle whose output
    differs from the first cycle on the same dataset."""
    ref = {}
    attempted = failed = 0
    for c in cycles:
        same = ref.setdefault(c.dataset.index, c.digest) == c.digest
        for phi, x, truth in zip(c.phis, c.dataset.test, c.truths):
            attempted += 1
            if not same or not row_ok(phi, x, inp, truth):
                failed += 1
    return attempted, failed


def phi_mae(cycle):
    errs = [np.abs(phi[1:] - t) for phi, t in zip(cycle.phis, cycle.truths)
            if phi is not None and np.all(np.isfinite(phi))]
    return float(np.mean(errs)) if errs else 0.0


# ----------------------------------------------------------------------
# traced-run diagnostics

def estimator_diagnostics(est, test):
    """Ratio ESS, fallback and ridge counts, read after the traced region.

    ``effective_sample_size`` re-evaluates the weights, on a fresh shared
    subsample per query row."""
    out = {"explain.ratio_fallbacks": len(getattr(est, "fallback_flagged", ())),
           "explain.ridge_flags": len(getattr(est, "ridge_flagged", ())),
           "explain.ratio_ess_frac": 0.0}
    if isinstance(est, explain.VineRatioEstimator):
        M = est.M
        fracs = []
        for x in test:
            est.begin_explanation(x)
            for mask in range(1, (1 << M) - 1):
                features = frozenset(j for j in range(M) if mask >> j & 1)
                fracs.append(est.effective_sample_size(features, x) / est.K)
        out["explain.ratio_ess_frac"] = float(np.mean(fracs))
    return out


def model_metrics(est):
    models = getattr(est, "models", [])
    plan = getattr(est, "plan", None)
    out = {f"dvine.pairs.{fam}": 0 for fam in ("clayton", "gaussian", "independence")}
    for model in models:
        for row in model.pairs:
            for pc in row:
                out[f"dvine.pairs.{pc.family}"] += 1
    out["dvine.model_bytes"] = sum(len(json.dumps(m.to_dict())) for m in models)
    out["structure.orders"] = len(plan.orders) if plan else 0
    out["structure.cover_efficiency"] = (
        len(structure.required_sets(plan.M, plan.method))
        / (len(plan.orders) * len(structure.covered_sets(plan.orders[0], plan.method)))
        if plan else 0.0)
    return out


def import_seconds(root, reps=3):
    """Median wall time of a cold ``import vineshap`` in a fresh interpreter."""
    code = "import time; t = time.perf_counter(); import vineshap; print(time.perf_counter() - t)"
    vals = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], cwd=root, capture_output=True,
                              text=True, timeout=60, check=True)
        vals.append(float(proc.stdout))
    return statistics.median(vals)


def layer_metrics(tr, tr_oracle):
    spans = tr.span_totals()
    kernels = tr.kernel_totals()

    def span(name, i):
        return spans.get(name, [0.0, 0, 0])[i]

    m = {}
    for meth in KERNEL_METHODS:
        recs = [kernels.get(f"bicop.{fam}.{meth}", [0, 0, 0.0]) for _, fam in COPULA_FAMILIES]
        s, pts = sum(r[2] for r in recs), sum(r[1] for r in recs)
        m.update({f"bicop.{meth}.s": s, f"bicop.{meth}.points": pts,
                  f"bicop.{meth}.points_per_s": pts / s if s > 0 else 0.0})
        for fam in ("clayton", "gaussian"):
            _, pts, s = kernels.get(f"bicop.{fam}.{meth}", [0, 0, 0.0])
            m.update({f"bicop.{fam}.{meth}.s": s, f"bicop.{fam}.{meth}.points": pts})
    inv_rows = span("dvine.inverse_rosenblatt", 2)
    inv_h = sum(r[1] for name, r in tr.kernel_totals("dvine.inverse_rosenblatt").items()
                if name.endswith(".hfunc"))
    m["bicop.hfunc.points_per_inverse_row"] = inv_h / inv_rows if inv_rows else 0.0
    for q in ("cdf", "quantile"):
        _, pts, s = kernels.get(f"marginals.{q}", [0, 0, 0.0])
        m.update({f"marginals.{q}.s": s, f"marginals.{q}.points": pts})
    for name in ("bicop.fit_parametric", "dvine.fit_dvine", "dvine.conditional_sample",
                 "explain.contribution"):
        m.update({f"{name}.s": span(name, 0), f"{name}.calls": span(name, 1)})
    for name in ("dvine.copula_log_density", "dvine.marginal_copula_log_density",
                 "dvine.inverse_rosenblatt"):
        m.update({f"{name}.s": span(name, 0), f"{name}.rows": span(name, 2)})
    for name in ("dvine.rosenblatt", "structure.greedy_cover", "explain.shapley",
                 "explain.shapley_from_values", "cli.read_csv", "cli.load_bundle",
                 "cli.estimator_from_bundle", "cli.fit", "cli.explain"):
        m[f"{name}.s"] = span(name, 0)
    m.update({"predictor.calls": span("predictor", 1), "predictor.rows": span("predictor", 2),
              "predictor.s": span("predictor", 0)})
    m["simstudy.true_shapley.s"] = tr_oracle.span_totals().get(
        "simstudy.true_shapley", [0.0])[0]
    return m


# ----------------------------------------------------------------------
# runs

def run(name, seed, seconds, trace, size_name, poison, root, out_dir):
    """Run one workload; returns correct/attempted/failed/metrics plus info."""
    start = time.perf_counter()
    src = Path(vineshap.__file__).resolve().parent
    if src != (root / "src" / "vineshap").resolve():
        raise RuntimeError(f"vineshap imported from {src}, not from the checkout")
    wl = WORKLOADS[name]
    inp = make_inputs(wl, SIZES[size_name], seed, poison)
    work = Path(tempfile.mkdtemp(prefix=f"work-{name}-", dir=out_dir))
    try:
        if trace:
            result = traced_run(inp, root, work, out_dir / f"trace-{name}-seed{seed}.jsonl",
                                start + CHILD_DEADLINE_S)
        else:
            result = timed_run(inp, seconds, root, work, start + CHILD_DEADLINE_S)
    finally:
        shutil.rmtree(work)
    result["stream_seeds"] = stream_seeds(seed, inp)
    result["info"]["run_s"] = time.perf_counter() - start
    return result


def timed_run(inp, seconds, root, work, deadline):
    """Cycles round-robin over the datasets until ``seconds`` have passed,
    and until every dataset has run and the first has run twice.

    The oracle runs in every cycle, after the explain timing, so that
    its samples spread over the same window of machine noise."""
    sets = inp.datasets
    runners = ([CliRunner(inp, ds, root, work / f"d{ds.index}", deadline) for ds in sets]
               if inp.workload.cli else None)
    cycles = []
    t0 = time.perf_counter()
    while len(cycles) <= len(sets) or time.perf_counter() - t0 < seconds:
        ds = sets[len(cycles) % len(sets)]
        c = runners[ds.index].cycle() if runners else counted_library_cycle(inp, ds)
        c.truths, c.oracle_s = run_oracle(inp, ds)
        c.ref.append(reference_slice())
        cycles.append(c)
    if runners:
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        bundle_bytes = cycles[0].bundle_bytes
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        bundle_bytes = cli_fit_bytes(inp, sets[0], work)
    attempted, failed = gate(cycles, inp)
    rows = sum(len(c.dataset.test) for c in cycles)
    values = {
        "setup_s": statistics.median(c.setup_s / c.speed(0) for c in cycles),
        "explain_row_s": sum(c.explain_s / c.speed(1) for c in cycles) / rows,
        "total_s": statistics.mean(c.scaled_total_s for c in cycles),
        "oracle_row_s": statistics.mean(c.oracle_s / c.speed(2) for c in cycles),
        "predict_calls_per_row": statistics.median(c.calls / len(c.dataset.test) for c in cycles),
        "predict_rows_per_row": statistics.median(c.rows / len(c.dataset.test) for c in cycles),
        "peak_rss_mb": peak_kb / 1024.0,
        "bundle_bytes": bundle_bytes,
    }
    first = cycles[:len(sets)]
    info = {"cycles": len(cycles), "datasets": len(sets), "digest": cycles[0].digest,
            "run_digest": hashlib.sha256("".join(c.digest for c in first).encode()).hexdigest(),
            "phi_mae": statistics.mean(phi_mae(c) for c in first),
            "failed_frac": failed / attempted,
            "setup_s_all": [c.setup_s for c in cycles],
            "explain_s_all": [c.explain_s for c in cycles],
            "oracle_s_all": [c.oracle_s for c in cycles],
            "ref_s_all": [c.ref for c in cycles]}
    return _result(values, E2E_UNITS, attempted, failed, info)


def traced_run(inp, root, work, trace_path, deadline):
    """One untraced and one traced cycle on the first dataset."""
    ds = inp.datasets[0]
    if inp.workload.cli:
        runner = CliRunner(inp, ds, root, work / "d0", deadline)
        untraced = runner.cycle(in_process=True)
        with Tracer() as tr:
            traced = runner.cycle(in_process=True)
        est = tr.captured.get("cli.estimator_from_bundle")
    else:
        untraced = counted_library_cycle(inp, ds)
        with Tracer() as tr:
            traced = library_cycle(inp, ds, tr.predictor(inp.g_model))
        est = traced.est
    with Tracer() as tr_oracle:
        truths, _ = run_oracle(inp, ds)
    untraced.truths = traced.truths = truths
    attempted, failed = gate([untraced, traced], inp)

    values = layer_metrics(tr, tr_oracle)
    values.update(estimator_diagnostics(est, ds.test) if est is not None else
                  {"explain.ratio_fallbacks": 0, "explain.ridge_flags": 0,
                   "explain.ratio_ess_frac": 0.0})
    values.update(model_metrics(est))
    values["explain.phi_mae"] = phi_mae(traced)
    values["cli.import_s"] = import_seconds(root)
    values["trace.overhead_frac"] = (traced.scaled_total_s - untraced.scaled_total_s
                                     ) / untraced.scaled_total_s
    values["trace.unattributed_frac"] = max(0.0, traced.total_s - tr.root_s) / traced.total_s

    trace_path.unlink(missing_ok=True)
    tr.write_jsonl(trace_path, "workload")
    tr_oracle.write_jsonl(trace_path, "oracle")
    info = {"digest": untraced.digest, "traced_digest": traced.digest,
            "phi_mae": values["explain.phi_mae"], "failed_frac": failed / attempted,
            "untraced_total_s": untraced.total_s, "traced_total_s": traced.total_s,
            "spans": len(tr.spans), "trace_file": trace_path.name}
    return _result(values, LAYER_UNITS, attempted, failed, info)


def _result(values, units, attempted, failed, info):
    if set(values) != set(units):
        raise RuntimeError(f"metric set mismatch: {sorted(set(values) ^ set(units))}")
    metrics = {k: {"value": float(values[k]) if np.isfinite(values[k]) else None,
                   "unit": units[k]} for k in units}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics, "info": info}
