"""The benchmark's tracer wraps names of the library; each must still exist.

perfbench/tracer.py lists in LAYERS the functions and methods it replaces
with timing wrappers, looked up in each owner's __dict__.  A name deleted or
moved in the library breaks `perfbench/run.py --trace 1`, even when nothing
in the library calls it any more, so this checks every one of them.
"""

import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # the tracer's dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists_in_its_owner():
    layers = _load_tracer().LAYERS
    assert layers
    missing = [
        (name, getattr(owner, "__name__", owner), attr)
        for name, (owner, attrs, _) in layers.items()
        for attr in attrs
        if attr not in owner.__dict__
    ]
    assert missing == []


def test_traced_names_are_callable():
    for owner, attrs, _ in _load_tracer().LAYERS.values():
        for attr in attrs:
            assert callable(owner.__dict__[attr]), attr
