"""The traced benchmark run (perfbench/spans.py) patches opdim by name: module
attributes listed in PATCHES and CONTEXT_CLASSES, and the context methods its
RecordingContext proxy forwards.  A rename that drops one of them breaks the
traced run; these checks catch it in the fast suite."""
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from opdim.contexts import FiniteContext
from opdim.dlo import DloContext

SPANS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_attributes_exist(spans):
    names = [(m, a) for m, a, *_ in spans.PATCHES] + list(spans.CONTEXT_CLASSES)
    missing = [f"{m}.{a}" for m, a in names
               if not hasattr(importlib.import_module(f"opdim.{m}"), a)]
    assert not missing


@pytest.mark.parametrize("cls", [FiniteContext, DloContext], ids=lambda c: c.__name__)
def test_contexts_have_the_forwarded_methods(spans, cls):
    forwarded = {name: fn for name, fn in vars(spans.RecordingContext).items()
                 if inspect.isfunction(fn) and not name.startswith("_")}
    assert forwarded
    for name, fn in forwarded.items():
        assert hasattr(cls, name), name
        assert (list(inspect.signature(getattr(cls, name)).parameters)
                == list(inspect.signature(fn).parameters)), name
