"""perfbench wraps egr functions by name from outside; each name it wraps
must still be bound where it looks, so that renaming or deleting a hook
fails here and not only in the traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import pytest

import egr
import egr.cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def measure(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    own = [name for name in ("spans", "workloads", "oracle") if name not in sys.modules]
    spec = importlib.util.spec_from_file_location("perfbench_measure", PERFBENCH / "measure.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # its dataclasses look it up
    spec.loader.exec_module(module)
    yield module
    for name in own:
        sys.modules.pop(name, None)


@pytest.mark.parametrize(
    "targets, recorder", [("span_targets", "Tracer"), ("count_targets", "CallCounter")]
)
def test_every_wrapped_name_is_bound_on_its_owner(measure, targets, recorder):
    wrapped = getattr(measure, targets)(egr, getattr(measure, recorder)())
    assert wrapped
    missing = [(owner.__name__, name) for owner, name, _ in wrapped if name not in vars(owner)]
    assert missing == []
