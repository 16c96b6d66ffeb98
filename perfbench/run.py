"""Run one statcover benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cert-sweep --seed 1 --seconds 30 --trace 0

Closed loop: one process, one item at a time, numerical libraries pinned to
one thread.  The program is imported from the src/ tree beside this
directory, never from an installed copy.  Items run in whole passes over
the workload's item list until the timed item walls add up to --seconds.
The first pass is checked item by item and hashed; each digest must equal
the one expected.json records for the item's label, if any, and later
passes must reproduce the first pass's digests exactly.

Item walls are scaled to a quiet core: calibrate.py times a fixed loop at
the start and end of every pass and every CAL_EVERY_S within it, and each
wall in the pass is multiplied by calibrate.QUIET_S over the loop's median
time in that pass.  Raw walls and calibration times are on the summary line.

--trace 0 reports the end-to-end metrics:
  items_per_s   median over passes of items in the pass / summed item wall
  item_s_p50    median over items of each item's median wall across passes
  item_s_tail   percentile of all item walls; expected.json fixes which one
                per workload, the highest with ten items beyond it at 30 s
  setup_s       import time plus the median of three set-ups from the seed,
                scaled by the loop timed around the set-ups
  peak_rss_mib  peak resident memory of the process
failed_frac is printed on the summary line; the result's `failed` and
`attempted` carry it exactly.

--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced passes, per pass, with the tracing overhead and the
unattributed share of the traced item wall.  The last line of output is one JSON object.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
HARD_STOP_S = 150  # stop starting items, so the process ends within 180 s
CAL_EVERY_S = 0.5  # wall time between calibration samples inside a pass
EXPECTED = json.loads((HERE / "expected.json").read_text())


class ItemTimeout(BaseException):
    """Raised by SIGALRM when one item runs past its wall limit."""


def _alarm(signum, frame):
    raise ItemTimeout


def _import_program():
    if not (SRC / "statcover" / "__init__.py").is_file():
        sys.exit(f"perfbench: no statcover package under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import statcover

    import_s = time.perf_counter() - t0
    if Path(statcover.__file__).resolve().parent != SRC / "statcover":
        sys.exit(f"perfbench: imported statcover from {statcover.__file__}, not {SRC}")
    return import_s


def percentile(sorted_vals: list[float], p: float) -> float:
    """Linear interpolation between closest ranks, p in [0, 100]."""
    pos = (len(sorted_vals) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_vals) - 1)
    return sorted_vals[lo] + (sorted_vals[hi] - sorted_vals[lo]) * (pos - lo)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    import_s = _import_program()
    sys.path.insert(0, str(HERE))
    import calibrate
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    tail_p = EXPECTED["tail_percentile"][wl.name]["percentile"]

    setup_walls = []
    setup_cal = [calibrate.sample()]
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = wl.setup(args.seed)
        setup_walls.append(time.perf_counter() - t0)
        setup_cal.append(calibrate.sample())
    setup_raw_s = import_s + statistics.median(setup_walls)
    setup_s = setup_raw_s * calibrate.QUIET_S / statistics.median(setup_cal)
    gc.collect()
    gc.freeze()  # keep the benchmark's own long-lived objects out of later collections

    signal.signal(signal.SIGALRM, _alarm)
    tracer = Tracer()
    walls: list[list[float]] = [[] for _ in items]  # scaled untraced walls of each item
    traced_pass_walls: list[float] = []  # scaled
    untraced_pass_walls: list[float] = []  # scaled
    raw_pass_walls: list[float] = []
    pass_cal: list[float] = []
    traced_item_s = 0.0
    failures: list[str] = []
    first_digests: list[str | None] = []
    recorded = EXPECTED["item_digests"][wl.name]
    attempted = failed = passes = compared = 0
    timed = 0.0
    stopped_early = False
    while not stopped_early:
        traced = args.trace == 1 and passes % 2 == 1
        pass_wall = 0.0
        pass_items: list[tuple[int, float]] = []
        cal = [calibrate.sample()]
        last_cal = time.perf_counter()
        for i, item in enumerate(items):
            if time.perf_counter() - started > HARD_STOP_S:
                stopped_early = True
                break
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                cal.append(calibrate.sample())
                last_cal = time.perf_counter()
            problem = None
            out = None
            t0 = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, wl.item_limit_s)
            try:
                if traced:
                    with tracer:
                        t0 = time.perf_counter()
                        out = wl.run(item, args.seed)
                        dt = time.perf_counter() - t0
                else:
                    t0 = time.perf_counter()
                    out = wl.run(item, args.seed)
                    dt = time.perf_counter() - t0
            except ItemTimeout:
                dt = float(wl.item_limit_s)
                problem = f"wall-limit-{wl.item_limit_s}s"
            except Exception as exc:  # an item that raises is a failed item
                dt = time.perf_counter() - t0
                problem = f"raised-{type(exc).__name__}: {exc}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            attempted += 1
            pass_wall += dt
            if traced:
                traced_item_s += dt
            else:
                pass_items.append((i, dt))
            # --- outside the timed region ---
            if problem is None:
                digest = wl.digest(item, out)
                if passes == 0:
                    try:
                        bad = wl.check(item, out)
                    except Exception as exc:  # a claim the check cannot even parse
                        bad = [f"check-raised-{type(exc).__name__}: {exc}"]
                    want = recorded.get(item.label)
                    if want is not None:
                        compared += 1
                        if want != digest:
                            bad.append(f"output-digest {digest} != recorded {want}")
                    first_digests.append(digest)
                    if bad:
                        problem = ",".join(bad)
                elif digest != first_digests[i]:
                    problem = "output-differs-from-first-pass"
            elif passes == 0:
                first_digests.append(None)
            if problem is not None:
                failed += 1
                failures.append(f"{item.label}: {problem}")
        if stopped_early:
            break
        cal.append(calibrate.sample())
        factor = calibrate.QUIET_S / statistics.median(cal)
        pass_cal.append(statistics.median(cal))
        for i, dt in pass_items:
            walls[i].append(dt * factor)
        passes += 1
        (traced_pass_walls if traced else untraced_pass_walls).append(pass_wall * factor)
        raw_pass_walls.append(pass_wall)
        timed += pass_wall
        if timed >= args.seconds and (args.trace == 0 or passes >= 2):
            break

    correct = failed == 0
    if stopped_early:
        failures.append(f"stopped after {HARD_STOP_S} s inside pass {passes + 1}")

    if not untraced_pass_walls or (args.trace == 1 and not traced_pass_walls):
        sys.exit(f"perfbench: too few passes completed within {HARD_STOP_S} s: {failures[:3]}")
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    pooled = sorted(w for ws in walls for w in ws)
    failed_frac = failed / attempted if attempted else 1.0
    if args.trace == 0:
        metrics = {
            "items_per_s": (statistics.median(len(items) / w for w in untraced_pass_walls), "1/s"),
            "item_s_p50": (statistics.median(statistics.median(ws) for ws in walls), "s"),
            "item_s_tail": (percentile(pooled, tail_p), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mib": (peak_rss_mib, "MiB"),
        }
    else:
        layer = tracer.metrics(len(traced_pass_walls))
        metrics = {k: (v, _unit(k)) for k, v in layer.items()}
        overhead = statistics.median(traced_pass_walls) / statistics.median(untraced_pass_walls) - 1
        unattributed = (traced_item_s - tracer.top_s) / traced_item_s
        metrics["trace.overhead_frac"] = (overhead, "frac")
        metrics["trace.unattributed_frac"] = (unattributed, "frac")

    for line in failures[:20]:
        print(f"FAIL {line}")
    summary = {
        "workload": wl.name, "seed": args.seed, "passes": passes, "items_per_pass": len(items),
        "tail_percentile": tail_p, "failed_frac": [failed_frac, "frac"],
        "digests_compared": compared, "setup_import_s": import_s,
        "setup_walls_s": setup_walls, "setup_raw_s": setup_raw_s, "setup_cal_s": setup_cal,
        "raw_pass_walls_s": raw_pass_walls, "pass_cal_s": pass_cal,
    }
    if args.trace == 1:
        summary["traced_wall_s"] = traced_item_s
        summary["self_plus_unattributed_s"] = tracer.self_total() + traced_item_s - tracer.top_s
    print("summary " + json.dumps(summary))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _unit(name: str) -> str:
    if name.endswith("self_s"):
        return "s/pass"
    if name.endswith("_frac"):
        return "frac"
    return "count/pass"


if __name__ == "__main__":
    sys.exit(main())
