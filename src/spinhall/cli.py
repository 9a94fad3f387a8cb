"""Command-line front end: preset or config in, CSV rows and JSON summary out.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.  `_plan`
makes every check that can refuse a run (the document, the resonance window,
the output paths); a refused run prints its `config error:` lines, writes
nothing and exits 2.  The run writes one CSV row per sweep point at full
double precision, and a JSON summary, whole or not at all:
the effective intracavity permittivity (null unless finite), the shift peaks
over the non-singular grid rows, for angle sweeps the resonance (a coarse
scan plus bracket zoom) and, when the beam has a waist, the centroid oracle
at the h peak row.  A run that uses the `qw` medium as given (a theta sweep,
or any resonance window) and finds it singular exits 3 before any output.
Every sweep is computed one point at a time by `_point_sweep`, so no run
imports numpy, and the resonance search runs on that point path for any
window, with a theta sweep's rows of its own range as its coarse scan.
"""

import argparse
import cmath
import json
import math
import os
import sys
from dataclasses import asdict, replace
from json import JSONDecodeError
from pathlib import Path

from .config import (
    config_from_scenario,
    merged_config,
    scenario_from_config,
    validate_config,
)
from .presets import PRESET_NAMES, preset
from .qw_medium import SingularParameterError, permittivity, susceptibility
from .shifts import ResolutionError, centroid_shift_oracle
from .strata import DegenerateGeometryError, Kinematics
# run_sweep and find_resonance are not called here; bench/spans.py wraps these names
from .sweep import (
    Scenario, SweepRow, SweepSpec, _point_sweep, _refine_resonance, build_stack, find_resonance,
    run_sweep, sweep_point,
)

__all__ = ["main", "build_parser", "write_csv", "CSV_HEADER"]

CSV_HEADER = ",".join(("swept", *SweepRow._fields[1:9], "flags"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinhall",
        description="Spin-dependent transverse shifts of a beam reflected from a "
        "quantum-well cavity: run a parameter sweep and write plot data.",
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--preset", choices=PRESET_NAMES, help="named figure scenario")
    source.add_argument("--config", metavar="PATH", help="JSON scenario file")
    parser.add_argument("--out", metavar="PATH",
                        help="CSV path, or the JSON path under --format json (default <preset>.csv/.json)")
    parser.add_argument(
        "--format", choices=("csv", "json", "both"), default="both", dest="fmt",
        help="which outputs to write (default both)",
    )
    parser.add_argument(
        "--threads", type=int,
        help="accepted for compatibility and ignored: the sweep runs in one thread",
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


def _oracle_spot_check(scenario: Scenario, spec: SweepSpec, row: SweepRow | None) -> dict | None:
    """Centroid oracle at the h peak row, for that row's medium and angle;
    None unless the beam has a waist.  A waist too narrow for the oracle, or
    no usable row, or arithmetic that overflows there, is reported as declined."""
    if scenario.beam is None:
        return None
    if row is None:
        return {"declined": "no non-singular row"}
    qw, theta = sweep_point(scenario, spec, row.value)
    stack = build_stack(scenario, susceptibility(qw).chi)
    try:
        oracle_h, oracle_v = centroid_shift_oracle(
            stack, Kinematics(scenario.lambda_um, theta), scenario.beam
        )
    except ResolutionError as exc:
        return {"declined": str(exc)}
    except OverflowError:
        return {"declined": f"the oracle overflows at the h peak row (swept value {row.value!r})"}
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
    window: tuple[float, float] | None,
    csv_path: Path | None,
) -> dict:
    # an omega_c or delta sweep's rows replace qw's value, so no one permittivity is theirs
    eps2 = permittivity(susceptibility(scenario.qw).chi) if spec.variable == "theta" else math.nan
    # the peak rows among the trustworthy ones only; singular-flagged ratios
    # are noise-floor artifacts
    h_peak = max((r for r in rows if not r.h_singular and math.isfinite(r.delta_h_plus_lambda)),
                 key=lambda r: abs(r.delta_h_plus_lambda), default=None)
    v_peak = max((r for r in rows if not r.v_singular and math.isfinite(r.delta_v_plus_lambda)),
                 key=lambda r: abs(r.delta_v_plus_lambda), default=None)
    failures = {}  # failed rows by exception type: how many, and the first one's message
    for kind, _, message in (r.error.partition(": ") for r in rows if r.error is not None):
        failures.setdefault(kind, {"rows": 0, "first": message})["rows"] += 1
    summary = {
        "preset": preset_name,
        "lambda_um": scenario.lambda_um,
        # a theta sweep ignores sweep.fixed, so it reports none
        "sweep": asdict(replace(spec, fixed={}) if spec.variable == "theta" else spec),
        "effective_epsilon2": [eps2.real, eps2.imag] if cmath.isfinite(eps2) else None,
        "rows": len(rows),
        "row_errors": sum(f["rows"] for f in failures.values()),
        "row_failures": failures,
        "abs_delta_h_plus_lambda_peak": None if h_peak is None else abs(h_peak.delta_h_plus_lambda),
        "abs_delta_v_plus_lambda_peak": None if v_peak is None else abs(v_peak.delta_v_plus_lambda),
        "resonance": None,
        "oracle": _oracle_spot_check(scenario, spec, h_peak),
        "csv": str(csv_path) if csv_path is not None else None,
    }
    if window is not None:
        own = spec.variable == "theta" and window == (spec.lo, spec.hi)  # its rows seed the search
        try:
            found = _refine_resonance(scenario, window, rows if own else [])._asdict()
            summary["resonance"] = {**found, "ratio_em_peak": _finite_or_none(found["ratio_em_peak"])}
        except ValueError as exc:  # no angle of the window has a ratio (main checked the medium)
            summary["resonance"] = {"declined": str(exc)}
    return summary


def _parse_window(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"expected LO,HI, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    if not 0.0 < lo < hi < math.pi / 2:
        raise ValueError(f"need 0 < LO < HI < pi/2, got {text!r}")
    return lo, hi


class _Refusal(Exception):
    """A run refused before it starts; its args are the `config error:` lines."""


def _plan(args: argparse.Namespace) -> tuple:
    """Every check that can refuse the run, in the order its messages are
    printed.  Returns the scenario, sweep spec, preset name, resonance window
    and the CSV and JSON paths (None: not written); raises _Refusal."""
    # the preset is built once here: the document holds every value and no known `preset`
    preset_name = args.preset
    if args.config is None:
        doc = config_from_scenario(*preset(args.preset))
    else:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except JSONDecodeError as exc:
            raise _Refusal(f"{args.config}: line {exc.lineno} column {exc.colno}: {exc.msg}")
        except RecursionError:
            raise _Refusal(f"{args.config}: nested too deeply to parse")
        except (OSError, ValueError) as exc:
            raise _Refusal(str(exc))
        if isinstance(doc, dict):  # validate_config reports any other root
            preset_name, doc = doc.get("preset"), merged_config(doc)
    problems = validate_config(doc)
    if problems:
        raise _Refusal(*problems)
    scenario, spec = scenario_from_config(doc)

    # a theta sweep searches its own range unless --find-resonance names a window
    window = (spec.lo, spec.hi) if spec.variable == "theta" else None
    if args.find_resonance:
        try:
            window = _parse_window(args.find_resonance)
        except ValueError as exc:
            raise _Refusal(f"--find-resonance: {exc}")
        if args.fmt == "csv":
            raise _Refusal("--find-resonance needs the JSON summary (--format json or both)")

    out = args.out if args.out is not None else (
        f"{preset_name or 'sweep'}.{'json' if args.fmt == 'json' else 'csv'}")
    # "", ".", "/" and a trailing separator name a directory, as does an existing one (below)
    if not Path(out).name or out.endswith(("/", os.sep)):
        raise _Refusal(f"output {out or repr(out)} names no file")
    csv_path = None if args.fmt == "json" else Path(out)
    json_path = {"csv": None, "json": Path(out), "both": Path(out).with_suffix(".json")}[args.fmt]
    # realpath, unlike Path.resolve, returns on a symlink loop; writing there then fails
    real = os.path.realpath
    for path in filter(None, (csv_path, json_path)):
        if path.is_dir():
            raise _Refusal(f"output {path} names no file")
        if not path.parent.is_dir():  # missing or a regular file: the write would fail after the sweep
            raise _Refusal(f"output {path} is not in an existing directory")
        if args.config is not None and real(path) == real(args.config):
            raise _Refusal(f"output {path} is the input config")
    if args.fmt == "both" and real(csv_path) == real(json_path):
        raise _Refusal(f"output {csv_path} would hold both the CSV and the JSON summary")
    return scenario, spec, preset_name, window, csv_path, json_path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        scenario, spec, preset_name, window, csv_path, json_path = _plan(args)
    except _Refusal as refusal:
        for line in refusal.args:
            print(f"config error: {line}", file=sys.stderr)
        return 2

    try:
        if window is not None:  # a theta sweep and any resonance search take qw as given
            susceptibility(scenario.qw)  # a singular medium exits 3 before any output
        rows = _point_sweep(scenario, spec)
        if csv_path is not None:
            write_csv(rows, csv_path)
            print(f"wrote {csv_path} ({len(rows)} rows)")
        if json_path is not None:
            summary = _summary(scenario, spec, rows, preset_name, window, csv_path)
            # encoded before the file is opened, so a failed encoding leaves no partial file
            text = json.dumps(summary, indent=2, allow_nan=False) + "\n"
            json_path.write_text(text, encoding="utf-8", newline="\n")
            print(f"wrote {json_path}")
    except (SingularParameterError, DegenerateGeometryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"config error: cannot write output: {exc}", file=sys.stderr)
        return 2
    return 0
