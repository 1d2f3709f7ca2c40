"""The benchmark's tracer patches vineshap by attribute path; keep those paths valid.

`perfbench/tracer.py` is loaded from its file, unchanged, and its
`SPANS`/`KERNELS` tables are checked against the package: every path
must resolve, and no class may inherit a patched attribute from a class
patched before it (the tracer would then wrap the inherited wrapper a
second time and count every call twice).
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


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
