"""Batch command-line interface: instance files, sweeps, reports.

Set files are JSON objects {"group": [m1, m2, ...], "elements": [[...], ...]}
with coordinates already reduced; rational flags are parsed as "p/q"
strings and never pass through floating point.  Exit codes: 0 success,
2 malformed input, 3 a verification failed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .chang import chang_iterate, energy_floor_steps
from .covering import statistical_cover, verify_covered
from .fourier import annihilator, spectrum
from .functions import indicator
from .groups import GroupSpec
from .pipeline import EXHAUSTIVE_SUBSET_CAP, CheckRecord, PipelineCheckError, PipelineReport, theorem_driver
from .sets import GroupSet, generate_instance
from .suites import FAMILIES, run_all_suites, _instance_for

__all__ = ["main", "parse_set_file", "parse_group", "SetFileError"]

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_VERIFY_FAILED = 3

SET_ELEMENT_CAP = 512  # larger sets serialize as size plus digest only

# Largest group order a command computes in: functions, tables and masks
# hold an entry per element (the README gives peak RSS at the limit).
# `gen --kind random|independent` allocates nothing per element.
MAX_COMPUTE_ORDER = 2**20

# Most steps `chang` runs: numerators gain one bit per step, so the cost of
# a step grows with the step count (on a 5-element set in a group of order
# 1001, 1000 steps take about 0.6 s on one core and 2000 steps about 1.7 s).
# A run still going at the limit with a larger k_max is refused rather than
# cut short.
CHANG_STEP_LIMIT = 1000

MAX_SWEEP_COUNT = 1000  # instances per family in a `cover --group` sweep

_GROUP_POWER = re.compile(r"^(\d+)\^(\d+)$")


class SetFileError(ValueError):
    """Malformed instance file; message carries position diagnostics."""


def parse_group(text: str) -> GroupSpec:
    """Parse the group grammar: 'm1xm2x...' or 'p^n' (e.g. 2^5, 2x2x4)."""
    text = text.strip()
    m = _GROUP_POWER.match(text)
    if m:
        base, power = int(m.group(1)), int(m.group(2))
        if power < 1:
            raise SetFileError(f"group power must be positive in {text!r}")
        return GroupSpec((base,) * power)
    parts = text.split("x")
    try:
        moduli = tuple(int(p) for p in parts)
    except ValueError as exc:
        raise SetFileError(f"cannot parse group {text!r}: {exc}") from None
    return GroupSpec(moduli)


def _computable(spec: GroupSpec) -> GroupSpec:
    """spec, unless its order is past the order budget of MAX_COMPUTE_ORDER."""
    if spec.order > MAX_COMPUTE_ORDER:
        raise SetFileError(
            f"group order {spec.order} exceeds the limit {MAX_COMPUTE_ORDER} "
            "for commands that compute in the group"
        )
    return spec


class _RepeatedKey(ValueError):
    """A JSON object names one key twice."""


def _unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """object_pairs_hook for json.loads: an object, refusing a repeated key."""
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise _RepeatedKey(key)
        out[key] = value
    return out


def _require_json_ints(values: list[Any], where: str) -> None:
    """Refuse any value but a JSON integer: floats, strings and booleans
    (bool is a subclass of int) are named with their position."""
    for j, value in enumerate(values):
        if type(value) is not int:
            shown = json.dumps(value) if isinstance(value, (bool, str)) else repr(value)
            shown = shown if len(shown) <= 24 else shown[:24] + "..."
            raise SetFileError(f"{where} position {j} must be a JSON integer, got {shown}")


def parse_set_file(path: str | Path) -> tuple[GroupSpec, GroupSet]:
    """Load and validate an instance file, rejecting repeated keys, anything
    but JSON integers as moduli and coordinates, out-of-range coordinates
    and duplicate elements."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SetFileError(f"cannot read {path}: {exc}") from None
    try:
        payload = json.loads(text, object_pairs_hook=_unique_keys)
    except json.JSONDecodeError as exc:
        raise SetFileError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except _RepeatedKey as exc:
        raise SetFileError(f"{path}: repeated key {exc.args[0]!r}") from None
    except RecursionError:
        raise SetFileError(f"{path}: JSON nested too deeply") from None
    if not isinstance(payload, dict) or "group" not in payload or "elements" not in payload:
        raise SetFileError(f"{path}: expected an object with 'group' and 'elements'")
    group, elements = payload["group"], payload["elements"]
    if not isinstance(group, list) or not isinstance(elements, list):
        raise SetFileError(f"{path}: 'group' and 'elements' must be lists")
    _require_json_ints(group, f"{path}: group")
    try:
        spec = GroupSpec(tuple(group))
    except (TypeError, ValueError) as exc:
        raise SetFileError(f"{path}: bad group: {exc}") from None
    _computable(spec)
    seen: set[int] = set()
    for pos, coords in enumerate(elements):
        if not isinstance(coords, list):
            raise SetFileError(f"{path}: element {pos} is not a coordinate list")
        if len(coords) != spec.rank:
            raise SetFileError(
                f"{path}: element {pos} has {len(coords)} coordinates, expected {spec.rank}"
            )
        _require_json_ints(coords, f"{path}: element {pos},")
        try:
            idx = spec.index_of(coords)
        except (TypeError, ValueError) as exc:
            raise SetFileError(f"{path}: element {pos}: {exc}") from None
        if idx in seen:
            raise SetFileError(f"{path}: element {pos} duplicates an earlier element")
        seen.add(idx)
    return spec, GroupSet(spec, frozenset(seen))


def _count(text: str) -> int:
    """An argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        shown = text if len(text) <= 24 else text[:24] + "..."
        raise argparse.ArgumentTypeError(f"must be an integer in [1, inf), got {shown!r}")
    return value


def _sweep_count(text: str) -> int:
    """An argparse type: an integer of at least 1 and at most MAX_SWEEP_COUNT."""
    value = _count(text)
    if value > MAX_SWEEP_COUNT:
        raise argparse.ArgumentTypeError(f"exceeds the sweep limit {MAX_SWEEP_COUNT}")
    return value


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise SetFileError(f"cannot parse rational {text!r}: {exc}") from None


# serialization ---------------------------------------------------------------


def to_jsonable(value: Any) -> Any:
    """Lossless JSON form: rationals as num/den, floats at full precision,
    and the non-finite floats as the strings "inf", "-inf" and "nan"."""
    if isinstance(value, Fraction):
        return {"num": value.numerator, "den": value.denominator}
    if isinstance(value, float):
        return float(format(value, ".17g")) if math.isfinite(value) else str(value)
    if isinstance(value, bool) or isinstance(value, int) or value is None:
        return value
    if isinstance(value, str):
        return value
    if isinstance(value, GroupSet):
        out: dict[str, Any] = {"size": len(value)}
        if len(value) <= SET_ELEMENT_CAP:
            out["elements"] = [list(e.coords) for e in value]
        else:
            digest = hashlib.sha256(
                ",".join(str(i) for i in sorted(value.indices)).encode()
            ).hexdigest()
            out["indices_sha256"] = digest
        return out
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    return str(value)


def _check_dicts(checks: Sequence[CheckRecord]) -> list[dict[str, Any]]:
    return [
        {
            "name": c.name,
            "lhs": to_jsonable(c.lhs),
            "rhs": to_jsonable(c.rhs),
            "relation": c.relation,
            "holds": c.holds,
            "detail": c.detail,
        }
        for c in checks
    ]


def _set_digest(spec: GroupSpec, A: GroupSet) -> str:
    canon = json.dumps(
        {
            "group": list(spec.moduli),
            "elements": [list(e.coords) for e in A],
        },
        sort_keys=True,
    )
    return hashlib.sha256(canon.encode()).hexdigest()


def _write(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit(report: dict[str, Any], output: str | None) -> None:
    _write(json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n", output)


def _emit_csv(rows: list[dict[str, Any]], header: list[str], output: str | None) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[h]) for h in header))
    _write("\n".join(lines) + "\n", output)


# subcommands -----------------------------------------------------------------


def _cmd_gen(args: argparse.Namespace) -> int:
    spec = parse_group(args.group)
    if args.kind not in ("random", "independent"):
        _computable(spec)
    kwargs: dict[str, Any] = {"seed": args.seed}
    if args.size is not None:
        kwargs["size"] = args.size
    if args.n_generators is not None:
        kwargs["n_generators"] = args.n_generators
    if args.n_cosets is not None:
        kwargs["n_cosets"] = args.n_cosets
    A = generate_instance(args.kind, spec, **kwargs)
    payload = {
        "group": list(spec.moduli),
        "elements": [list(e.coords) for e in A],
    }
    _emit(payload, args.output)
    return EXIT_OK


def _cmd_cover(args: argparse.Namespace) -> int:
    delta = _parse_fraction(args.delta)
    if args.input:
        if args.format == "csv":
            raise SetFileError("--format csv applies to the --group sweep only")
        spec, A = parse_set_file(args.input)
        t0 = time.perf_counter()
        cert = statistical_cover(A, A, delta)
        ok, frac = verify_covered(A, cert.X, delta)
        size = Fraction(len(cert.X))
        checks = [
            CheckRecord("cover-size-bound", size, cert.size_bound, "<=", size <= cert.size_bound),
            CheckRecord("coverage-replay", frac, 1 - delta, ">=", ok),
        ]
        report = {
            "command": "cover",
            "input_digest": _set_digest(spec, A),
            "group": list(spec.moduli),
            "seed": args.seed,
            "delta": to_jsonable(delta),
            "checks": _check_dicts(checks),
            "results": {
                "K": to_jsonable(cert.K),
                "X": to_jsonable(cert.X),
                "trace": [list(spec.element_at(i).coords) for i in cert.trace],
                "min_coverage": to_jsonable(cert.min_coverage()),
            },
            "timings": {"total_s": to_jsonable(time.perf_counter() - t0)},
        }
        _emit(report, args.output)
        return EXIT_OK if all(c.holds for c in checks) else EXIT_VERIFY_FAILED
    if not args.group:
        raise SetFileError("cover needs --input or --group")
    spec = _computable(parse_group(args.group))
    rows = []
    all_hold = True
    for family in FAMILIES:
        for i in range(args.count):
            inst_seed = args.seed * 1_000_003 + i
            A = _instance_for(family, spec, inst_seed)
            cert = statistical_cover(A, A, delta)
            ok, _ = verify_covered(A, cert.X, delta)
            holds = ok and Fraction(len(cert.X)) <= cert.size_bound
            all_hold = all_hold and holds
            rows.append(
                {
                    "family": family,
                    "seed": inst_seed,
                    "K_num": cert.K.numerator,
                    "K_den": cert.K.denominator,
                    "delta": str(delta),
                    "X_size": len(cert.X),
                    "bound_num": cert.size_bound.numerator,
                    "bound_den": cert.size_bound.denominator,
                    "holds": str(holds).lower(),
                }
            )
    if args.format == "csv":
        _emit_csv(
            rows,
            ["family", "seed", "K_num", "K_den", "delta", "X_size", "bound_num", "bound_den", "holds"],
            args.output,
        )
    else:
        _emit({"command": "cover-sweep", "rows": rows}, args.output)
    return EXIT_OK if all_hold else EXIT_VERIFY_FAILED


def _cmd_chang(args: argparse.Namespace) -> int:
    spec, A = parse_set_file(args.input)
    if not A.indices:
        raise SetFileError("chang needs a non-empty set")
    kappa = _parse_fraction(args.kappa)
    eta = _parse_fraction(args.eta)
    cap = energy_floor_steps(spec.order, len(A), kappa)
    k_max = args.k if args.k is not None else cap + 1
    t0 = time.perf_counter()
    # a run that stops within the limit is the same under any larger k_max
    out = chang_iterate(indicator(A), A, kappa, eta, min(k_max, CHANG_STEP_LIMIT))
    if out.kind == "decrement" and k_max > CHANG_STEP_LIMIT:
        raise ValueError(
            f"k_max {k_max} exceeds the chang step limit {CHANG_STEP_LIMIT} and "
            f"the run had not stopped after {CHANG_STEP_LIMIT} steps; "
            "pass a smaller --k or a larger --kappa"
        )
    floor = Fraction(len(A) ** 2, spec.order)
    shrink = 1 - kappa / 4
    lowest = min(out.energies)
    decrements_ok = all(
        out.energies[j + 1] <= shrink * out.energies[j] for j in range(len(out.path))
    )
    checks = [
        CheckRecord("energy-floor", lowest, floor, ">=", lowest >= floor),
        CheckRecord(
            "decrement-factor", out.l, out.l, "==", decrements_ok,
            detail="each appended step shrinks energy by 1 - kappa/4",
        ),
    ]
    if out.kind == "invariant":
        assert out.witnesses is not None
        need = eta * len(A)
        checks.append(
            CheckRecord("witness-count", len(out.witnesses), need, ">=", len(out.witnesses) >= need)
        )
    report = {
        "command": "chang",
        "input_digest": _set_digest(spec, A),
        "group": list(spec.moduli),
        "seed": args.seed,
        "kappa": to_jsonable(kappa),
        "eta": to_jsonable(eta),
        "k_max": k_max,
        "checks": _check_dicts(checks),
        "results": {
            "kind": out.kind,
            "path_length": out.l,
            "path": [list(e.coords) for e in out.path],
            "energies": to_jsonable(list(out.energies)),
            "witness_count": len(out.witnesses) if out.witnesses is not None else None,
        },
        "timings": {"total_s": to_jsonable(time.perf_counter() - t0)},
    }
    _emit(report, args.output)
    return EXIT_OK if all(c.holds for c in checks) else EXIT_VERIFY_FAILED


def _cmd_spectrum(args: argparse.Namespace) -> int:
    spec, A = parse_set_file(args.input)
    eps = _parse_fraction(args.epsilon)
    t0 = time.perf_counter()
    f = indicator(A)
    spec_set = spectrum(f, eps)
    ann = annihilator(spec_set)
    checks = [
        CheckRecord(
            "trivial-character-included", 0, 0, "in", 0 in spec_set.indices,
            detail="nonnegative functions always keep the trivial character",
        )
    ]
    report = {
        "command": "spectrum",
        "input_digest": _set_digest(spec, A),
        "group": list(spec.moduli),
        "seed": args.seed,
        "epsilon": to_jsonable(eps),
        "checks": _check_dicts(checks),
        "results": {
            "spectrum_size": len(spec_set),
            "spectrum_characters": sorted(spec_set.indices)[:SET_ELEMENT_CAP],
            "annihilator": to_jsonable(ann),
        },
        "timings": {"total_s": to_jsonable(time.perf_counter() - t0)},
    }
    _emit(report, args.output)
    return EXIT_OK if all(c.holds for c in checks) else EXIT_VERIFY_FAILED


def _pipeline_results(rep: PipelineReport) -> dict[str, Any]:
    return {
        "K": to_jsonable(rep.K),
        "epsilon": to_jsonable(rep.epsilon),
        "eta": to_jsonable(rep.eta),
        "Z": to_jsonable(rep.Z),
        "Z1": to_jsonable(rep.Z1),
        "Z2": to_jsonable(rep.Z2),
        "Z3": to_jsonable(rep.Z3),
        "V": to_jsonable(rep.stage1.V),
        "V1": to_jsonable(rep.stage2.V),
        "V3": to_jsonable(rep.V3),
        "stage1_path": [list(e.coords) for e in rep.stage1.chang.path],
        "stage2_path": [list(e.coords) for e in rep.stage2.chang.path],
        "spectrum_bound": {
            "size": rep.spectrum_bound.size,
            "bound": to_jsonable(rep.spectrum_bound.bound),
            "threshold": to_jsonable(rep.spectrum_bound.threshold),
            "spectrum_size": rep.spectrum_bound.spectrum_size,
        },
        "loose_threshold": to_jsonable(rep.loose_threshold),
        "loose_annihilator_size": len(rep.loose_annihilator),
        "coset_count": rep.coset_count,
        "closure_size": len(rep.closure),
        "ratio": to_jsonable(rep.ratio),
        "headline_comparison": to_jsonable(rep.headline_comparison),
        "petridis_mode": rep.petridis.mode,
        "petridis_ties_broken": rep.petridis.ties_broken,
    }


def _cmd_pipeline(args: argparse.Namespace) -> int:
    spec, A = parse_set_file(args.input)
    t0 = time.perf_counter()
    try:
        rep = theorem_driver(A, petridis_cap=args.cap, seed=args.seed)
        checks = rep.all_checks()
        results = _pipeline_results(rep)
        ok = True
    except PipelineCheckError as exc:
        checks = exc.checks
        results = {"error": str(exc)}
        ok = False
    report = {
        "command": "pipeline",
        "input_digest": _set_digest(spec, A),
        "group": list(spec.moduli),
        "seed": args.seed,
        "checks": _check_dicts(checks),
        "results": results,
        "timings": {"total_s": to_jsonable(time.perf_counter() - t0)},
    }
    _emit(report, args.output)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def _cmd_verify_lemmas(args: argparse.Namespace) -> int:
    spec = _computable(parse_group(args.group))
    t0 = time.perf_counter()
    results = run_all_suites(spec, args.seed, trials=args.trials)
    report = {
        "command": "verify-lemmas",
        "group": list(spec.moduli),
        "seed": args.seed,
        "trials": args.trials,
        "suites": [
            {
                "name": r.name,
                "checks": r.checks,
                "failures": r.failures[:20],
                "ok": r.ok,
            }
            for r in results
        ],
        "timings": {"total_s": to_jsonable(time.perf_counter() - t0)},
    }
    _emit(report, args.output)
    return EXIT_OK if all(r.ok for r in results) else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statcover",
        description="Covering certificates and structure checks on finite abelian groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--output", type=str, default=None)

    p = sub.add_parser("gen", help="generate an instance file")
    p.add_argument("--group", required=True)
    p.add_argument("--kind", choices=FAMILIES, default="random")
    p.add_argument("--size", type=_count, default=None)
    p.add_argument("--n-generators", type=_count, default=None)
    p.add_argument("--n-cosets", type=_count, default=None)
    common(p)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("cover", help="statistical covering certificate or CSV sweep")
    p.add_argument("--input", type=str, default=None)
    p.add_argument("--group", type=str, default=None)
    p.add_argument("--delta", type=str, required=True)
    p.add_argument("--count", type=_sweep_count, default=50)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=_cmd_cover)

    p = sub.add_parser("chang", help="energy-decrement iteration on an indicator")
    p.add_argument("--input", required=True)
    p.add_argument("--kappa", type=str, required=True)
    p.add_argument("--eta", type=str, required=True)
    p.add_argument("--k", type=int, default=None)
    common(p)
    p.set_defaults(func=_cmd_chang)

    p = sub.add_parser("spectrum", help="large spectrum and annihilator of an indicator")
    p.add_argument("--input", required=True)
    p.add_argument("--epsilon", type=str, required=True)
    common(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("pipeline", help="full audited driver run")
    p.add_argument("--input", required=True)
    p.add_argument("--cap", type=int, default=EXHAUSTIVE_SUBSET_CAP)
    common(p)
    p.set_defaults(func=_cmd_pipeline)

    p = sub.add_parser("verify-lemmas", help="run the property suites on one group")
    p.add_argument("--group", required=True)
    p.add_argument("--trials", type=_count, default=12)
    common(p)
    p.set_defaults(func=_cmd_verify_lemmas)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # SetFileError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
