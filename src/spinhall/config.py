"""JSON scenario configuration: schema, validation and round-tripping.

A config document has sections `qw`, `stack`, `beam` and `sweep`, plus an
optional `preset` name whose values fill any missing keys.  Complex numbers
are encoded as two-element [re, im] arrays; units match the domain types
(meV, um, rad).  Unknown keys are rejected.  `validate_config` returns the
full list of violations as strings instead of raising, so a front end can
report everything at once.
"""

from __future__ import annotations

import json
import math
from dataclasses import fields
from numbers import Real

from .presets import PRESET_NAMES, preset
from .qw_medium import QwParams
from .shifts import BeamSpec
from .sweep import SWEEP_VARIABLES, Scenario, SweepSpec

__all__ = [
    "load_config_file",
    "merged_config",
    "validate_config",
    "scenario_from_config",
    "config_from_scenario",
]

_TOP_KEYS = ("preset", "qw", "stack", "beam", "sweep")

_QW_RATE_KEYS = ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd")
_QW_REQUIRED = _QW_RATE_KEYS + ("beta", "g", "f", "delta", "omega_c")
_QW_OPTIONAL = ("delta_p", "delta_c", "level_energies")
_STACK_REQUIRED = ("epsilon1", "epsilon3", "d1_um", "d2_um")
_BEAM_REQUIRED = ("lambda_um",)
_BEAM_OPTIONAL = ("waist_um", "grid_half_extent", "grid_samples")
_SWEEP_REQUIRED = ("variable", "lo", "hi", "samples")
_SWEEP_OPTIONAL = ("fixed",)


def load_config_file(path) -> dict:
    """Parse a JSON config file; json.JSONDecodeError carries line/column."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"config root must be a JSON object, got {type(doc).__name__}")
    return doc


def merged_config(doc: dict) -> dict:
    """Fill missing keys from the named preset, user values winning."""
    name = doc.get("preset")
    if name is None or name not in PRESET_NAMES:
        return {k: (dict(v) if isinstance(v, dict) else v) for k, v in doc.items()}
    base_scenario, base_spec = preset(name)
    merged = config_from_scenario(base_scenario, base_spec, preset_name=name)
    for section in ("qw", "stack", "beam", "sweep"):
        user = doc.get(section)
        if isinstance(user, dict):
            merged[section].update(user)
    for key in doc:
        if key not in _TOP_KEYS:
            merged[key] = doc[key]  # kept so validation can reject it by name
    return merged


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool) and math.isfinite(value)


def _is_complex_pair(value) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) == 2
        and all(isinstance(v, Real) and not isinstance(v, bool) for v in value)
        and all(math.isfinite(float(v)) for v in value)
    )


def validate_config(doc: dict) -> list[str]:
    """All schema and range violations of a (merged) config document."""
    problems: list[str] = []
    if not isinstance(doc, dict):
        return [f"config root must be a JSON object, got {type(doc).__name__}"]
    doc = merged_config(doc)

    for key in doc:
        if key not in _TOP_KEYS:
            problems.append(f"unknown top-level key {key!r}")
    name = doc.get("preset")
    if name is not None and name not in PRESET_NAMES:
        problems.append(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")

    def section(key: str) -> dict | None:
        value = doc.get(key)
        if value is None:
            problems.append(f"missing section {key!r}")
            return None
        if not isinstance(value, dict):
            problems.append(f"section {key!r} must be an object")
            return None
        return value

    qw = section("qw")
    if qw is not None:
        for key in qw:
            if key not in _QW_REQUIRED + _QW_OPTIONAL:
                problems.append(f"unknown key qw.{key}")
        for key in _QW_REQUIRED:
            if key not in qw:
                problems.append(f"missing key qw.{key}")
            elif not _is_number(qw[key]):
                problems.append(f"qw.{key} must be a finite number")
        for key in _QW_RATE_KEYS + ("beta", "omega_c"):
            if _is_number(qw.get(key)) and qw[key] < 0.0:
                problems.append(f"qw.{key} must be >= 0")
        for key in ("delta_p", "delta_c"):
            if key in qw and not _is_number(qw[key]):
                problems.append(f"qw.{key} must be a finite number")
        energies = qw.get("level_energies")
        if energies is not None and not (
            isinstance(energies, (list, tuple))
            and len(energies) == 4
            and all(_is_number(v) for v in energies)
        ):
            problems.append("qw.level_energies must be four finite numbers")

    stack = section("stack")
    if stack is not None:
        for key in stack:
            if key not in _STACK_REQUIRED:
                problems.append(f"unknown key stack.{key}")
        for key in ("epsilon1", "epsilon3"):
            if key not in stack:
                problems.append(f"missing key stack.{key}")
            elif not _is_complex_pair(stack[key]):
                problems.append(f"stack.{key} must be a two-element [re, im] array")
            elif complex(stack[key][0], stack[key][1]) == 0:
                problems.append(f"stack.{key} must be nonzero")
        for key in ("d1_um", "d2_um"):
            if key not in stack:
                problems.append(f"missing key stack.{key}")
            elif not _is_number(stack[key]) or stack[key] < 0.0:
                problems.append(f"stack.{key} must be a number >= 0")

    beam = section("beam")
    if beam is not None:
        for key in beam:
            if key not in _BEAM_REQUIRED + _BEAM_OPTIONAL:
                problems.append(f"unknown key beam.{key}")
        if "lambda_um" not in beam:
            problems.append("missing key beam.lambda_um")
        elif not _is_number(beam["lambda_um"]) or beam["lambda_um"] <= 0.0:
            problems.append("beam.lambda_um must be a number > 0")
        if "waist_um" in beam and (not _is_number(beam["waist_um"]) or beam["waist_um"] <= 0.0):
            problems.append("beam.waist_um must be a number > 0")
        if "grid_half_extent" in beam and (
            not _is_number(beam["grid_half_extent"]) or beam["grid_half_extent"] <= 0.0
        ):
            problems.append("beam.grid_half_extent must be a number > 0")
        if "grid_samples" in beam and not (
            isinstance(beam["grid_samples"], int)
            and not isinstance(beam["grid_samples"], bool)
            and beam["grid_samples"] >= 256
        ):
            problems.append("beam.grid_samples must be an integer >= 256")
        if (
            _is_number(beam.get("waist_um"))
            and _is_number(beam.get("grid_half_extent"))
            and beam["grid_half_extent"] < 6.0 / beam["waist_um"]
        ):
            problems.append("beam.grid_half_extent must be >= 6/waist_um")
        if "waist_um" not in beam:
            for key in ("grid_half_extent", "grid_samples"):
                if key in beam:
                    problems.append(f"beam.{key} requires beam.waist_um")

    sweep_doc = section("sweep")
    if sweep_doc is not None:
        for key in sweep_doc:
            if key not in _SWEEP_REQUIRED + _SWEEP_OPTIONAL:
                problems.append(f"unknown key sweep.{key}")
        for key in _SWEEP_REQUIRED:
            if key not in sweep_doc:
                problems.append(f"missing key sweep.{key}")
        variable = sweep_doc.get("variable")
        if variable is not None and variable not in SWEEP_VARIABLES:
            problems.append(f"sweep.variable must be one of {', '.join(SWEEP_VARIABLES)}")
        lo, hi = sweep_doc.get("lo"), sweep_doc.get("hi")
        if ("lo" in sweep_doc and not _is_number(lo)) or ("hi" in sweep_doc and not _is_number(hi)):
            problems.append("sweep.lo and sweep.hi must be finite numbers")
        elif _is_number(lo) and _is_number(hi) and not lo < hi:
            problems.append("sweep range must satisfy lo < hi")
        samples = sweep_doc.get("samples")
        if samples is not None and not (
            isinstance(samples, int) and not isinstance(samples, bool) and samples >= 2
        ):
            problems.append("sweep.samples must be an integer >= 2")
        fixed = sweep_doc.get("fixed", {})
        if not isinstance(fixed, dict):
            problems.append("sweep.fixed must be an object")
            fixed = {}
        for key in fixed:
            if key not in SWEEP_VARIABLES:
                problems.append(f"unknown key sweep.fixed.{key}")
            elif not _is_number(fixed[key]):
                problems.append(f"sweep.fixed.{key} must be a finite number")
        if variable == "theta" and _is_number(lo) and _is_number(hi):
            if not (0.0 < lo and hi < math.pi / 2):
                problems.append("theta must lie in (0, pi/2)")
        if variable in ("omega_c", "delta"):
            theta = fixed.get("theta")
            if theta is None:
                problems.append(f"a {variable} sweep needs sweep.fixed.theta")
            elif _is_number(theta) and not 0.0 < theta < math.pi / 2:
                problems.append("theta must lie in (0, pi/2)")
            if variable == "omega_c" and _is_number(lo) and lo < 0.0:
                problems.append("sweep.lo must be >= 0 for an omega_c sweep")
        for key in ("omega_c",):
            if key in fixed and _is_number(fixed[key]) and fixed[key] < 0.0:
                problems.append(f"sweep.fixed.{key} must be >= 0")

    return problems


def scenario_from_config(doc: dict) -> tuple[Scenario, SweepSpec]:
    """Build the domain objects from a validated config document."""
    doc = merged_config(doc)
    qw_doc = dict(doc["qw"])
    energies = qw_doc.pop("level_energies", None)
    qw = QwParams(
        **{k: float(v) for k, v in qw_doc.items()},
        level_energies=tuple(float(v) for v in energies) if energies is not None else None,
    )
    stack = doc["stack"]
    beam_doc = dict(doc["beam"])
    lambda_um = float(beam_doc.pop("lambda_um"))
    beam = None
    if "waist_um" in beam_doc:
        beam = BeamSpec(
            waist_um=float(beam_doc["waist_um"]),
            grid_half_extent=(
                float(beam_doc["grid_half_extent"]) if "grid_half_extent" in beam_doc else None
            ),
            grid_samples=int(beam_doc.get("grid_samples", 512)),
        )
    scenario = Scenario(
        qw=qw,
        epsilon1=complex(stack["epsilon1"][0], stack["epsilon1"][1]),
        epsilon3=complex(stack["epsilon3"][0], stack["epsilon3"][1]),
        d1_um=float(stack["d1_um"]),
        d2_um=float(stack["d2_um"]),
        lambda_um=lambda_um,
        beam=beam,
    )
    sweep_doc = doc["sweep"]
    spec = SweepSpec(
        variable=sweep_doc["variable"],
        lo=float(sweep_doc["lo"]),
        hi=float(sweep_doc["hi"]),
        samples=int(sweep_doc["samples"]),
        fixed={k: float(v) for k, v in sweep_doc.get("fixed", {}).items()},
    )
    return scenario, spec


def config_from_scenario(
    scenario: Scenario, spec: SweepSpec, preset_name: str | None = None
) -> dict:
    """Inverse of scenario_from_config; floats survive a JSON round trip."""
    qw = scenario.qw
    doc: dict = {}
    if preset_name is not None:
        doc["preset"] = preset_name
    doc["qw"] = {f.name: getattr(qw, f.name) for f in fields(QwParams) if f.name != "level_energies"}
    if qw.level_energies is not None:
        doc["qw"]["level_energies"] = list(qw.level_energies)
    doc["stack"] = {
        "epsilon1": [complex(scenario.epsilon1).real, complex(scenario.epsilon1).imag],
        "epsilon3": [complex(scenario.epsilon3).real, complex(scenario.epsilon3).imag],
        "d1_um": scenario.d1_um,
        "d2_um": scenario.d2_um,
    }
    doc["beam"] = {"lambda_um": scenario.lambda_um}
    if scenario.beam is not None:
        doc["beam"]["waist_um"] = scenario.beam.waist_um
        if scenario.beam.grid_half_extent is not None:
            doc["beam"]["grid_half_extent"] = scenario.beam.grid_half_extent
        doc["beam"]["grid_samples"] = scenario.beam.grid_samples
    doc["sweep"] = {
        "variable": spec.variable,
        "lo": spec.lo,
        "hi": spec.hi,
        "samples": spec.samples,
    }
    if spec.fixed:
        doc["sweep"]["fixed"] = dict(spec.fixed)
    return doc
