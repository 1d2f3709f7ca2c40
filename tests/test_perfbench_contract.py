"""The benchmark reads vineshap through its own files; keep what they read valid.

`perfbench/tracer.py` is loaded from its file, unchanged, and its
`SPANS`/`KERNELS` tables are checked against the package: every path
must resolve, and no class may inherit a patched attribute from a class
patched before it (the tracer would then wrap the inherited wrapper a
second time and count every call twice).  `perfbench/workloads.py` is
loaded unchanged too, and its set-up and metric helpers are run on the
smallest inputs, so a change to an API they read (the cover plan, the
estimators, their diagnostics) fails here and not first in a benchmark
run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from vineshap import shapley

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
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
