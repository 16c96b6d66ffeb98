"""Per-layer tracing of statcover from outside the library.

The tracer replaces the public functions and methods of each statcover
module with timing wrappers, at every site that binds them: the defining
module, each module that imported the name, and the classes whose methods
are traced.  Each wrapper keeps a stack of open spans, so a span's self time
is its wall time minus the wall time of the traced calls nested inside it.
Time inside a traced item that no span covers is reported as unattributed;
the self times plus the unattributed part add up to the traced item wall.

Counters beside the timings are computed from each call's arguments and
result, after the call returns.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field

from statcover import chains, chang, covering, fourier, functions, groups, pipeline, sets

_perf = time.perf_counter


def _dense_translate(self, xi):
    # the dense path of translate_index; xi == 0 returns self untouched
    return xi != 0 and len(self.support) * 4 > self.spec.order


def _dense_dft(f, force_dense=False):
    return force_dense or f.spec.order <= fourier.DENSE_TRANSFORM_LIMIT


def _chang_defects(outcome, A):
    # one translation defect per element of A at each test of the loop;
    # the invariant outcome tests once more than it steps
    return (outcome.l + (outcome.kind == "invariant")) * len(A)


# metric prefix -> (owner, attribute names, counters)
# A counter is (suffix, kind, fn): kind "sum" adds fn(result, *args) per pass;
# kind "frac" divides the summed numerator by the summed denominator, where
# fn returns the pair.  Every listed attribute shares the prefix's totals.
LAYERS = {
    "groups.shift_indices": (groups.GroupSpec, ("shift_indices",), ()),
    "groups.closure_indices": (groups, ("closure_indices",), ()),
    "sets.indices_to_mask": (sets, ("indices_to_mask",), ()),
    "sets.sumset": (sets, ("sumset",), (("pairs", "sum", lambda r, a, b: len(a) * len(b)),)),
    "covering.statistical_cover": (
        covering,
        ("statistical_cover",),
        (("chosen_frac", "frac", lambda r, A, *_: (len(r.X), len(A))),),
    ),
    "covering.verify_covered": (covering, ("verify_covered",), ()),
    "covering.ruzsa_cover": (covering, ("ruzsa_cover",), ()),
    "chains.covering_chain": (
        chains,
        ("covering_chain",),
        (("top_tuples", "sum", lambda r, *_: len(r.top)),),
    ),
    "chains.verify_chain": (chains, ("verify_chain",), ()),
    "chains.energy_bound_check": (chains, ("energy_bound_check",), ()),
    "functions.pointwise": (
        functions.RationalFunc,
        ("__add__", "__sub__", "__mul__", "__rmul__", "square"),
        (("elems", "sum", lambda r, f, *_: f.spec.order),),
    ),
    "functions.translate": (
        functions.RationalFunc,
        ("translate_index",),
        (("dense_frac", "frac", lambda r, f, xi: (_dense_translate(f, xi), 1)),),
    ),
    "functions.norm": (
        functions.RationalFunc,
        ("l1_norm", "l2_norm_sq", "mass", "inner"),
        (),
    ),
    "functions.convolve": (
        functions,
        ("convolve",),
        (("pairs", "sum", lambda r, f, g: len(f.support) * len(g.support)),),
    ),
    "chang.chang_iterate": (
        chang,
        ("chang_iterate",),
        (
            ("steps", "sum", lambda r, *_: r.l),
            ("defects_evaluated", "sum", lambda r, h, A, *_: _chang_defects(r, A)),
            (
                "witness_frac",
                "frac",
                lambda r, h, A, *_: (len(r.witnesses) if r.witnesses else 0, len(A)),
            ),
        ),
    ),
    "fourier.dft": (
        fourier,
        ("dft",),
        (("dense_frac", "frac", lambda r, f, **kw: (_dense_dft(f, **kw), 1)),),
    ),
    "fourier.spectrum": (
        fourier,
        ("spectrum",),
        (("kept_frac", "frac", lambda r, f, eps: (len(r), f.spec.order)),),
    ),
    "fourier.annihilator": (
        fourier,
        ("annihilator",),
        (("chars", "sum", lambda r, chars: len(chars)),),
    ),
    "pipeline.petridis_subset": (
        pipeline,
        ("petridis_subset",),
        (("scanned", "sum", lambda r, *_, **__: r.candidates_scanned),),
    ),
    "pipeline.almost_invariant_pair": (pipeline, ("almost_invariant_pair",), ()),
    "pipeline.spec_annihilator_bound": (pipeline, ("spec_annihilator_bound",), ()),
    "pipeline.annihilator_containment_check": (
        pipeline,
        ("annihilator_containment_check",),
        (),
    ),
    "pipeline.theorem_driver": (
        pipeline,
        ("theorem_driver",),
        (("checks_recorded", "sum", lambda r, *_, **__: len(r.all_checks())),),
    ),
}

# counters reported under the layer name rather than under the wrapped function
TOP_LEVEL_COUNTERS = {
    "chang.chang_iterate.steps": "chang.steps",
    "chang.chang_iterate.defects_evaluated": "chang.defects_evaluated",
    "chang.chang_iterate.witness_frac": "chang.witness_frac",
    "pipeline.theorem_driver.checks_recorded": "pipeline.checks_recorded",
}


@dataclass
class _Stats:
    calls: int = 0
    self_s: float = 0.0
    sums: dict = field(default_factory=dict)


class Tracer:
    """Installs the wrappers while it is entered and accumulates span data."""

    def __init__(self):
        self.stats = {name: _Stats() for name in LAYERS}
        self.top_s = 0.0  # wall time of outermost spans
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, counters):
        stats = self.stats[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                child = stack.pop()
                stats.calls += 1
                stats.self_s += dt - child
                if stack:
                    stack[-1] += dt
                else:
                    self.top_s += dt
            if result is NotImplemented:
                return result
            for suffix, kind, count in counters:
                got = count(result, *args, **kwargs)
                if kind == "frac":
                    num, den = stats.sums.get(suffix, (0, 0))
                    stats.sums[suffix] = (num + got[0], den + got[1])
                else:
                    stats.sums[suffix] = stats.sums.get(suffix, 0) + got
            return result

        return traced

    def __enter__(self):
        modules = [m for n, m in sys.modules.items() if n == "statcover" or n.startswith("statcover.")]
        for name, (owner, attrs, counters) in LAYERS.items():
            for attr in attrs:
                original = owner.__dict__[attr]
                wrapper = self._wrap(name, original, counters)
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                if isinstance(owner, type):
                    continue
                # rebind every `from .module import name` site as well
                for mod in modules:
                    if mod is not owner and mod.__dict__.get(attr) is original:
                        self._patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        return False

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics per traced pass; fractions are over all calls."""
        out: dict[str, float] = {}
        for name, (_, _, counters) in LAYERS.items():
            st = self.stats[name]
            out[f"{name}.calls"] = st.calls / passes
            out[f"{name}.self_s"] = st.self_s / passes
            for suffix, kind, _ in counters:
                key = TOP_LEVEL_COUNTERS.get(f"{name}.{suffix}", f"{name}.{suffix}")
                if kind == "frac":
                    num, den = st.sums.get(suffix, (0, 0))
                    out[key] = num / den if den else 0.0
                else:
                    out[key] = st.sums.get(suffix, 0) / passes
        return out

    def self_total(self) -> float:
        return sum(st.self_s for st in self.stats.values())

