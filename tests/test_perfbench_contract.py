"""The benchmark reads vineshap through its own files; keep what they read valid.

`perfbench/tracer.py` is loaded from its file, unchanged, and its
`SPANS`/`KERNELS` tables are checked against the package: every path
must resolve, and no class may inherit a patched attribute from a class
patched before it (the tracer would then wrap the inherited wrapper a
second time and count every call twice).  `perfbench/workloads.py` is
loaded unchanged too, and its set-up and metric helpers are run on the
smallest inputs, so a change to an API they read (the cover plan, the
estimators, their diagnostics) fails here and not first in a benchmark
run.  The CLI workload's tiny cycle runs whole: `vineshap fit`, `explain`
through the `cmd:` predictor, the Burr oracle and the gate.
"""

import importlib
import importlib.util
import os
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from vineshap import ClaytonCopula, shapley

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = PERFBENCH.parent / "src"
TRACER = PERFBENCH / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def patch_targets(tracer):
    """(owner, attribute) for every SPANS and KERNELS row, in patch order."""
    out = []
    for module, path, _name, _sizer in tracer.SPANS + tracer.KERNELS:
        owner = importlib.import_module(f"vineshap.{module}")
        *cls, attr = path.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        out.append((owner, attr))
    return out


@pytest.mark.parametrize("method", ["hfunc", "hinv"])
@pytest.mark.parametrize("cond_on", ["first", "second"])
def test_one_kernel_call_is_traced_once(tracer, method, cond_on):
    # a rotated Clayton's transpose is another ClaytonCopula, whose public
    # methods the tracer wraps too: "first" must not go through them
    u = np.linspace(0.05, 0.95, 7)
    cop = ClaytonCopula(2.0, rotation=90)
    with tracer.Tracer() as t:
        getattr(cop, method)(u, u[::-1], cond_on)
    calls_and_points = {key: rec[:2] for key, rec in t.kernels.items()}
    assert calls_and_points == {(None, f"bicop.clayton.{method}"): [1, u.size]}


def test_every_traced_path_resolves(tracer):
    for owner, attr in patch_targets(tracer):
        assert hasattr(owner, attr), f"{owner.__name__}.{attr} is gone"


def test_no_patched_attribute_is_inherited_from_an_earlier_patch(tracer):
    patched = set()
    for owner, attr in patch_targets(tracer):
        if isinstance(owner, type):
            # the class the tracer's getattr resolves to once earlier patches are in
            source = next(c for c in owner.__mro__
                          if attr in c.__dict__ or (c, attr) in patched)
            assert source is owner or (source, attr) not in patched, (
                f"{owner.__name__}.{attr} would wrap {source.__name__}'s wrapper")
        patched.add((owner, attr))


@pytest.fixture(scope="module")
def workloads():
    # the module imports `tracer` by name, from its own directory
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))
        spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                      PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["ratio-par-m8", "condsim-par-m8", "gausscop-m8"])
def test_workload_helpers_run_on_the_package(workloads, name):
    inp = workloads.make_inputs(workloads.WORKLOADS[name], workloads.SIZES["tiny"],
                                seed=1, poison=False)
    ds = inp.datasets[0]
    est = workloads.build_estimator(inp, ds, inp.g)
    expl = shapley(est, ds.test[0])
    assert np.isfinite(expl.phi0) and np.all(np.isfinite(expl.phi))
    metrics = {**workloads.model_metrics(est),
               **workloads.estimator_diagnostics(est, ds.test)}
    assert all(np.isfinite(value) for value in metrics.values()), metrics


def test_cli_workload_cycle_passes_the_gate(workloads, tmp_path):
    # the bundle, the `cmd:` predictor protocol and the oracle, end to end
    inp = workloads.make_inputs(workloads.WORKLOADS["cli-cmd-m4"], workloads.SIZES["tiny"],
                                seed=1, poison=False)
    ds = inp.datasets[0]
    runner = workloads.CliRunner(inp, ds, PERFBENCH.parent, tmp_path / "work",
                                 deadline=time.perf_counter() + 120.0)
    cycle = runner.cycle(in_process=True)
    cycle.truths, cycle.oracle_s = workloads.run_oracle(inp, ds)
    assert workloads.gate([cycle], inp) == (len(ds.test), 0)
    assert cycle.calls >= 1 and cycle.bundle_bytes > 0


@pytest.mark.parametrize("name", ["ratio-par-m8", "cli-cmd-m4"])
def test_traced_tiny_run_passes_the_gate(workloads, tmp_path, monkeypatch, name):
    # the tracer wraps the package's kernels, spans and predictor in place;
    # a changed signature it wraps fails the gate here.  The run's child
    # processes import vineshap from this checkout, installed or not.
    monkeypatch.setenv("PYTHONPATH", str(SRC), prepend=os.pathsep)
    result = workloads.run(name, 1, 0.0, True, "tiny", False, PERFBENCH.parent, tmp_path)
    assert result["correct"] and result["failed"] == 0
