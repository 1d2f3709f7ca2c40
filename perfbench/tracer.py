"""Span tracer that wraps the public functions of the vineshap modules.

The tracer patches functions and methods from outside the package while
it is active and restores them on exit, so an untraced run executes the
unmodified program.  Every wrapped call is timed with
``time.perf_counter``; a layer's self time is its span time minus the
time of the wrapped calls made inside it.

Two kinds of wrapped call:

* spans (cover, vine fits, vine densities, Shapley loop, CLI stages,
  the predictor) are stored one by one with name, start, end, parent,
  query-row id and size;
* kernels (pair-copula and marginal evaluations, tens of thousands per
  query row) are accumulated per (parent span name, kernel name) as
  calls, points and self time, which keeps self time exact while the
  memory stays bounded.
"""

import functools
import json
import sys
import time

import numpy as np

ROW_SPAN = "explain.shapley"


def _rows(argpos):
    """Sizer: leading dimension of the positional argument at ``argpos``."""
    def size(args, kwargs):
        return int(np.atleast_2d(np.asarray(args[argpos])).shape[0])
    return size


def _points(args, kwargs):
    return int(np.size(args[1]))


def _predictor_rows(args, kwargs):
    return int(np.atleast_2d(np.asarray(args[0])).shape[0])


# (module, attribute path, span name, sizer)
SPANS = (
    ("structure", "greedy_cover", "structure.greedy_cover", None),
    ("dvine", "fit_dvine", "dvine.fit_dvine", None),
    ("dvine", "DVineModel.copula_log_density", "dvine.copula_log_density", _rows(1)),
    ("dvine", "DVineModel.marginal_copula_log_density",
     "dvine.marginal_copula_log_density", _rows(2)),
    ("dvine", "DVineModel.rosenblatt", "dvine.rosenblatt", _rows(1)),
    ("dvine", "DVineModel.inverse_rosenblatt", "dvine.inverse_rosenblatt", _rows(1)),
    ("dvine", "DVineModel.conditional_sample", "dvine.conditional_sample", None),
    ("bicop", "fit_parametric", "bicop.fit_parametric", None),
    ("explain", "shapley", ROW_SPAN, None),
    ("explain", "shapley_from_values", "explain.shapley_from_values", None),
    ("explain", "IndependenceEstimator.contribution", "explain.contribution", None),
    ("explain", "GaussianEstimator.contribution", "explain.contribution", None),
    ("explain", "GaussianCopulaEstimator.contribution", "explain.contribution", None),
    ("explain", "VineCondSimEstimator.contribution", "explain.contribution", None),
    ("explain", "VineRatioEstimator.contribution", "explain.contribution", None),
    ("simstudy", "true_shapley", "simstudy.true_shapley", None),
    ("cli", "read_csv", "cli.read_csv", None),
    ("cli", "load_bundle", "cli.load_bundle", None),
    ("cli", "estimator_from_bundle", "cli.estimator_from_bundle", None),
    ("cli", "cmd_fit", "cli.fit", None),
    ("cli", "cmd_explain", "cli.explain", None),
)

COPULA_FAMILIES = (("IndependenceCopula", "independence"),
                   ("GaussianCopula", "gaussian"),
                   ("ClaytonCopula", "clayton"))
KERNEL_METHODS = ("log_density", "hfunc", "hinv")

KERNELS = tuple(
    [("bicop", f"{cls}.{meth}", f"bicop.{fam}.{meth}", _points)
     for cls, fam in COPULA_FAMILIES for meth in KERNEL_METHODS]
    + [("marginals", "EmpiricalMarginal.cdf", "marginals.cdf", _points),
       ("marginals", "EmpiricalMarginal.quantile", "marginals.quantile", _points)])

#: spans whose last return value is kept in ``Tracer.captured``
CAPTURE = ("cli.estimator_from_bundle",)


class Tracer:
    """Context manager: wraps the vineshap layers while active."""

    def __init__(self):
        self.spans = []
        self.kernels = {}        # (parent name, kernel name) -> [calls, points, self_s]
        self.captured = {}
        self.root_s = 0.0        # time covered by spans that have no parent
        self.origin = time.perf_counter()
        self._stack = []         # frames: [span id or None, name, start, child_s]
        self._row = None
        self._rows_seen = 0
        self._undo = []

    # ------------------------------------------------------------------
    # recording

    def _call(self, name, kernel, sizer, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        span_id = None if kernel else len(self.spans)
        if name == ROW_SPAN:
            self._row = self._rows_seen
            self._rows_seen += 1
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[2]
            self_s = dur - frame[3]
            if parent is None:
                self.root_s += dur
            else:
                parent[3] += dur
            size = sizer(args, kwargs) if sizer is not None else None
            if kernel:
                rec = self.kernels.setdefault((parent[1] if parent else None, name),
                                              [0, 0, 0.0])
                rec[0] += 1
                rec[1] += size
                rec[2] += self_s
            else:
                self.spans.append({
                    "id": span_id, "name": name,
                    "start": frame[2] - self.origin, "end": end - self.origin,
                    "self_s": self_s,
                    "parent": parent[0] if parent else None,
                    "row": self._row, "size": size})
            if name == ROW_SPAN:
                self._row = None
        if name in CAPTURE:
            self.captured[name] = out
        return out

    def wrap(self, name, fn, sizer=None, kernel=False):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer._call(name, kernel, sizer, fn, args, kwargs)
        return wrapper

    def predictor(self, g):
        """The call into the user's model, as a ``predictor`` span."""
        return self.wrap("predictor", g, _predictor_rows)

    # ------------------------------------------------------------------
    # installation

    def _patch(self, module, path, name, sizer, kernel):
        mod = sys.modules[f"vineshap.{module}"]
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(mod, cls_name)
            had_own = attr in cls.__dict__
            orig = cls.__dict__[attr] if had_own else getattr(cls, attr)
            setattr(cls, attr, self.wrap(name, orig, sizer, kernel))
            self._undo.append((cls, attr, had_own, orig))
            return
        orig = getattr(mod, path)
        wrapped = self.wrap(name, orig, sizer, kernel)
        # modules that imported the function by name hold their own reference
        for mname, other in list(sys.modules.items()):
            if mname == "vineshap" or mname.startswith("vineshap."):
                for attr, value in list(vars(other).items()):
                    if value is orig:
                        setattr(other, attr, wrapped)
                        self._undo.append((other, attr, True, orig))

    def __enter__(self):
        import vineshap.cli  # noqa: F401  (cli is not imported by the package)
        for module, path, name, sizer in SPANS:
            self._patch(module, path, name, sizer, kernel=False)
        for module, path, name, sizer in KERNELS:
            self._patch(module, path, name, sizer, kernel=True)
        cli = sys.modules["vineshap.cli"]
        make_predictor = cli.make_predictor

        def traced_make_predictor(spec, columns):
            return self.predictor(make_predictor(spec, columns))
        cli.make_predictor = traced_make_predictor
        self._undo.append((cli, "make_predictor", True, make_predictor))
        return self

    def __exit__(self, *exc):
        for owner, attr, had_own, orig in reversed(self._undo):
            if had_own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
        self._undo.clear()
        return False

    # ------------------------------------------------------------------
    # summaries

    def span_totals(self):
        """name -> [self seconds, calls, summed size] over stored spans."""
        out = {}
        for s in self.spans:
            rec = out.setdefault(s["name"], [0.0, 0, 0])
            rec[0] += s["self_s"]
            rec[1] += 1
            rec[2] += s["size"] or 0
        return out

    def kernel_totals(self, parent=None):
        """kernel name -> [calls, points, self seconds], optionally for one parent."""
        out = {}
        for (par, name), (calls, points, self_s) in self.kernels.items():
            if parent is not None and par != parent:
                continue
            rec = out.setdefault(name, [0, 0, 0.0])
            rec[0] += calls
            rec[1] += points
            rec[2] += self_s
        return out

    def write_jsonl(self, path, phase):
        with open(path, "a", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({"type": "span", "phase": phase, **s}) + "\n")
            for (par, name), (calls, points, self_s) in sorted(
                    self.kernels.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
                fh.write(json.dumps({"type": "kernel", "phase": phase, "parent": par,
                                     "name": name, "calls": calls, "points": points,
                                     "self_s": self_s}) + "\n")
