"""The benchmark's tracer wraps names of the library; each must still exist.

perfbench/tracer.py lists in LAYERS the functions and methods it replaces
with timing wrappers, looked up in each owner's __dict__.  A name deleted or
moved in the library breaks `perfbench/run.py --trace 1`, even when nothing
in the library calls it any more, so this checks every one of them.
"""

import importlib.util
import sys
from fractions import Fraction
from pathlib import Path

import statcover

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


def test_tracer_runs_every_counter():
    """A driver run, a cover, a chain and a translate call every layer that
    has counters, so each counter runs once (the dft counter reads
    fourier.DENSE_TRANSFORM_LIMIT, for one) and a name it reads that the
    library renamed fails here."""
    tracer = _load_tracer()
    spec = statcover.GroupSpec((2, 2, 4))
    A = statcover.generate_instance("random", spec, size=5, seed=3)
    half = Fraction(1, 2)
    with tracer.Tracer() as t:
        rep = statcover.theorem_driver(A, seed=3)
        cert = statcover.statistical_cover(A, A, half)
        statcover.covering_chain(A, cert.X.with_identity(), half, A.min_element(), (1,), 1)
        statcover.indicator(A).translate_index(1)
    got = t.metrics(1)
    assert [n for n, (_, _, c) in tracer.LAYERS.items() if c and not got[f"{n}.calls"]] == []
    assert got["pipeline.checks_recorded"] == len(rep.all_checks())
    assert got["pipeline.petridis_subset.calls"] == 2
    assert got["pipeline.petridis_subset.scanned"] == (
        rep.petridis.candidates_scanned + rep.final_petridis.candidates_scanned
    )
