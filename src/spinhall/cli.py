"""Command-line front end: preset or config in, CSV rows and JSON summary out.

Exit codes: 0 success, 2 configuration error (with per-key diagnostics on
stderr), 3 numerical failure.  The CSV carries one row per sweep point at
full double precision; the JSON summary records the effective intracavity
permittivity, the shift peaks over the non-singular grid rows and, for angle
sweeps, the resonance located by the coarse scan plus batched bracket zoom
and, when the beam has a waist, the centroid oracle at the peak row.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from json import JSONDecodeError
from pathlib import Path

from .config import (
    config_from_scenario,
    load_config_file,
    merged_config,
    scenario_from_config,
    validate_config,
)
from .presets import PRESET_NAMES, preset
from .qw_medium import SingularParameterError, permittivity, susceptibility
from .shifts import ResolutionError, centroid_shift_oracle
from .strata import DegenerateGeometryError, Kinematics
from .sweep import (
    Scenario, SweepRow, SweepSpec, build_stack, find_resonance, run_sweep, sweep_point,
)

__all__ = ["main", "build_parser", "write_csv", "CSV_HEADER"]

CSV_HEADER = (
    "swept,re_abs,rm_abs,ratio_em,ratio_me,phi_e,phi_m,"
    "delta_h_plus_lambda,delta_v_plus_lambda,flags"
)

_NUMERICAL_ERRORS = (SingularParameterError, DegenerateGeometryError, ResolutionError)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhall",
        description="Spin-dependent transverse shifts of a beam reflected from a "
        "quantum-well cavity: run a parameter sweep and write plot data.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES, help="named figure scenario")
    source.add_argument("--config", metavar="PATH", help="JSON scenario file")
    parser.add_argument("--out", metavar="PATH", help="CSV output path (default <preset>.csv)")
    parser.add_argument(
        "--format", choices=("csv", "json", "both"), default="both", dest="fmt",
        help="which outputs to write (default both)",
    )
    parser.add_argument("--lambda-um", type=float, help="override the probe wavelength")
    parser.add_argument(
        "--threads", type=int,
        help="accepted for compatibility and ignored, as is SPINHALL_THREADS: "
        "the sweep is evaluated as one batch",
    )
    parser.add_argument(
        "--find-resonance", metavar="LO,HI",
        help="also locate the |r_e|/|r_m| peak inside this theta window",
    )
    return parser


# the nine numeric columns at full double precision, then the h, v and e flags
_CSV_ROW = "%.17g," * 9 + "%s%s%s\n"


def write_csv(rows: list[SweepRow], path: Path) -> None:
    """One header row then one data row per sweep point, LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(CSV_HEADER + "\n")
        handle.writelines(
            _CSV_ROW % (
                *row[:9],
                "h" if row.h_singular else "",
                "v" if row.v_singular else "",
                "" if row.error is None else "e",
            )
            for row in rows
        )


def _finite_or_none(value):
    if value is None or not math.isfinite(value):
        return None
    return value


def _abs_peak(values) -> float | None:
    finite = [abs(v) for v in values if math.isfinite(v)]
    return max(finite) if finite else None


def _oracle_spot_check(scenario: Scenario, spec: SweepSpec, rows: list[SweepRow]) -> dict | None:
    """Centroid oracle at the non-singular row with the largest |delta_h|,
    for that row's medium and angle; None unless the beam has a waist.  A
    waist too narrow for the oracle, or no usable row, is reported as
    declined."""
    if scenario.beam is None:
        return None
    usable = [r for r in rows if not r.h_singular and math.isfinite(r.delta_h_plus_lambda)]
    if not usable:
        return {"declined": "no non-singular row"}
    row = max(usable, key=lambda r: abs(r.delta_h_plus_lambda))
    qw, theta = sweep_point(scenario, spec, row.value)
    stack = build_stack(scenario, susceptibility(qw).chi)
    try:
        oracle_h, oracle_v = centroid_shift_oracle(
            stack, Kinematics(scenario.lambda_um, theta), scenario.beam
        )
    except ResolutionError as exc:
        return {"declined": str(exc)}
    return {
        "swept": row.value,
        "oracle_h": _finite_or_none(oracle_h),
        "oracle_v": _finite_or_none(oracle_v),
        "closed_h": row.delta_h_plus_lambda,
        "closed_v": None if row.v_singular else _finite_or_none(row.delta_v_plus_lambda),
    }


def _summary(
    scenario: Scenario,
    spec: SweepSpec,
    rows: list[SweepRow],
    preset_name: str | None,
    resonance_window: tuple[float, float] | None,
    csv_path: Path | None,
) -> dict:
    eps2 = permittivity(susceptibility(scenario.qw).chi)
    summary = {
        "preset": preset_name,
        "lambda_um": scenario.lambda_um,
        "sweep": {
            "variable": spec.variable,
            "lo": spec.lo,
            "hi": spec.hi,
            "samples": spec.samples,
            "fixed": dict(spec.fixed),
        },
        "effective_epsilon2": [eps2.real, eps2.imag],
        "rows": len(rows),
        "row_errors": sum(1 for r in rows if r.error is not None),
        # peaks over the trustworthy rows only; singular-flagged ratios are
        # noise-floor artifacts
        "abs_delta_h_plus_lambda_peak": _abs_peak(
            r.delta_h_plus_lambda for r in rows if not r.h_singular
        ),
        "abs_delta_v_plus_lambda_peak": _abs_peak(
            r.delta_v_plus_lambda for r in rows if not r.v_singular
        ),
        "resonance": None,
        "oracle": _oracle_spot_check(scenario, spec, rows),
        "csv": str(csv_path) if csv_path is not None else None,
    }
    window = resonance_window
    if window is None and spec.variable == "theta":
        window = (spec.lo, spec.hi)
    if window is not None:
        result = find_resonance(scenario, window)
        summary["resonance"] = {
            "theta_star": result.theta_star,
            "ratio_em_peak": _finite_or_none(result.ratio_em_peak),
            "boundary": result.boundary,
        }
    return summary


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected LO,HI, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0.0 < lo < hi < math.pi / 2:
        raise ValueError(f"need 0 < LO < HI < pi/2, got {text!r}")
    return lo, hi


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # the preset is built once here: the document holds every value and no known `preset`
    preset_name = args.preset
    try:
        if args.config is None:
            doc = config_from_scenario(*preset(args.preset))
        else:
            doc = load_config_file(args.config)
            if isinstance(doc, dict):  # validate_config reports any other root
                preset_name, doc = doc.get("preset"), merged_config(doc)
    except JSONDecodeError as exc:
        print(
            f"config error: {args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}",
            file=sys.stderr,
        )
        return 2
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    problems = validate_config(doc)
    if problems:
        for problem in problems:
            print(f"config error: {problem}", file=sys.stderr)
        return 2

    try:
        window = _parse_window(args.find_resonance) if args.find_resonance else None
    except ValueError as exc:
        print(f"config error: --find-resonance: {exc}", file=sys.stderr)
        return 2

    scenario, spec = scenario_from_config(doc)
    if args.lambda_um is not None:
        if not (math.isfinite(args.lambda_um) and args.lambda_um > 0):
            print("config error: --lambda-um must be finite and > 0", file=sys.stderr)
            return 2
        scenario = replace(scenario, lambda_um=args.lambda_um)

    out = Path(args.out) if args.out else Path(f"{preset_name or 'sweep'}.csv")
    csv_path = out if args.fmt in ("csv", "both") else None
    if args.fmt == "json":
        json_path = out
    else:
        json_path = out.with_suffix(".json") if args.fmt == "both" else None

    if args.config is not None:
        config_path = Path(args.config).resolve()
        for path in (csv_path, json_path):
            if path is not None and path.resolve() == config_path:
                print(f"config error: output {path} is the input config", file=sys.stderr)
                return 2

    try:
        rows = run_sweep(scenario, spec)
        if csv_path is not None:
            write_csv(rows, csv_path)
            print(f"wrote {csv_path} ({len(rows)} rows)")
        if json_path is not None:
            summary = _summary(scenario, spec, rows, preset_name, window, csv_path)
            with open(json_path, "w", encoding="utf-8", newline="\n") as handle:
                json.dump(summary, handle, indent=2, allow_nan=False)
                handle.write("\n")
            print(f"wrote {json_path}")
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
