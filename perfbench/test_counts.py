"""Exact counts from the traced pass must repeat run after run.

Later changes may claim a change in one of these counts only if the count
repeats exactly at the parent commit, so this runs a traced pass twice on
one seed and compares.  A pass here is a short slice of each workload's
items that still reaches the layers REACHED names for it.

    python3 -m pytest perfbench/test_counts.py -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 5
# the exact counts each workload's slice must make non-zero
REACHED = {
    "cert-sweep": ("covering.statistical_cover.chosen_frac", "chains.covering_chain.top_tuples"),
    "driver-wide": ("pipeline.checks_recorded", "fourier.annihilator.chars"),
    "driver-deep": ("chang.steps", "pipeline.petridis_subset.scanned"),
}
EXACT_COUNTS = (
    "chang.steps",
    "pipeline.petridis_subset.scanned",
    "pipeline.checks_recorded",
    "covering.statistical_cover.chosen_frac",
    "fourier.annihilator.chars",
    "chains.covering_chain.top_tuples",
)


def _slice(name, items):
    if name == "cert-sweep":
        chain = [it for it in items if it.chain_x is not None][:2]
        return [it for it in items if it.chain_x is None][:12] + chain
    if name == "driver-deep":
        return [it for it in items if "Z16/" in it.label or "Z2xZ4xZ8" in it.label]
    return items[:2]


def _traced_pass(name):
    wl = WORKLOADS[name]
    tracer = Tracer()
    for item in _slice(name, wl.setup(SEED)):
        with tracer:
            wl.run(item, SEED)
    return tracer


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counts_repeat_exactly(name):
    first, second = _traced_pass(name), _traced_pass(name)
    m1, m2 = first.metrics(1), second.metrics(1)
    for key in EXACT_COUNTS:
        assert m1[key] == m2[key], key
    calls = [k for k in m1 if k.endswith(".calls")]
    assert [m1[k] for k in calls] == [m2[k] for k in calls]
    assert all(m1[k] > 0 for k in REACHED[name])


def test_self_times_add_up_to_outermost_spans():
    tracer = _traced_pass("driver-deep")
    assert tracer.self_total() == pytest.approx(tracer.top_s, rel=1e-9)
