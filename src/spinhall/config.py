"""JSON scenario configuration: schema, validation and round-tripping.

A config document has sections `qw`, `stack`, `beam` and `sweep`, plus an
optional `preset` name whose values fill any missing keys.  The keys are the
fields of the domain types, in field order; a field with no default is a
required key.  qw (`QwParams`, all required): gamma_bl, gamma_bd, gamma_cl,
gamma_cd, gamma_dl, gamma_dd, beta, g, f, delta, omega_c.  stack
(`Scenario`): epsilon1, epsilon3, d1_um, d2_um.  beam (`Scenario`, then the
optional `BeamSpec`): lambda_um; waist_um (none: no centroid oracle).
sweep (`SweepSpec`): variable, lo, hi, samples; fixed = {} (only theta, the
angle of an omega_c or delta sweep: `qw` is the one medium).  Each JSON
value is converted by its field's type: a complex is a two-element [re, im]
array, an int, str or dict is itself, and any other field is a float; units
match the domain types (meV, um, rad).  Unknown keys are rejected.
`validate_config` returns the full list of violations as strings instead of
raising, so a front end can report everything at once.
"""

import math
from dataclasses import MISSING, fields
from numbers import Real
from sys import float_info

from .presets import PRESET_NAMES, preset
from .qw_medium import _NON_NEGATIVE, QwParams
from .shifts import BeamSpec
from .sweep import SWEEP_VARIABLES, Scenario, SweepSpec

__all__ = [
    "merged_config",
    "validate_config",
    "scenario_from_config",
    "config_from_scenario",
]


def _keys(cls, skip=()) -> dict:
    """A domain type's fields as config keys, each mapped to "required": no default."""
    return {f.name: f.default is MISSING and f.default_factory is MISSING
            for f in fields(cls) if f.name not in skip}


_SCHEMA = {
    "qw": _keys(QwParams),
    "stack": _keys(Scenario, skip=("qw", "lambda_um", "beam")),
    # a beam without a waist has no BeamSpec, so none of its fields is required
    "beam": {"lambda_um": True, **dict.fromkeys(_keys(BeamSpec), False)},
    "sweep": _keys(SweepSpec),
}

# JSON value to field value by the field's type, and back; else float
_FROM_JSON = {complex: lambda v: complex(v[0], v[1]), int: int, str: str,
              dict: lambda v: {k: float(x) for k, x in v.items()}}
_TO_JSON = {complex: lambda v: [complex(v).real, complex(v).imag], dict: dict}


def merged_config(doc: dict) -> dict:
    """Fill missing keys from the named preset, user values winning; a known
    preset's name is dropped, so merging the result again builds no preset."""
    name = doc.get("preset")
    known = name in PRESET_NAMES
    merged = config_from_scenario(*preset(name)) if known else {}
    for key, value in doc.items():
        if key in _SCHEMA and isinstance(value, dict):
            merged.setdefault(key, {}).update(value)
        elif (key not in _SCHEMA or value is not None) and not (known and key == "preset"):
            merged[key] = value  # a non-object section or an unknown key, for validation to report
    return merged


def _is_number(value) -> bool:
    # an exact comparison: math.isfinite raises on an integer too large for a float
    return isinstance(value, Real) and not isinstance(value, bool) and abs(value) <= float_info.max


_PAIR = "a two-element [re, im] array"
_VARIABLE = f"one of {', '.join(SWEEP_VARIABLES)}"
# the test of each kind and bound, by the text that names it in a message
_TESTS = {
    **dict.fromkeys(("a finite number", "a number"), _is_number),
    "an integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    _PAIR: lambda v: isinstance(v, (list, tuple)) and len(v) == 2 and all(map(_is_number, v)),
    ">= 0": lambda v: v >= 0.0,
    "> 0": lambda v: v > 0.0,
    ">= 2": lambda v: v >= 2,
    # cap on the sweep rows: a run holds every row until it writes, ~0.45 KB
    # each (a 10**6-row fig2 run peaks at 453 MB RSS)
    "<= 1000000": lambda v: v <= 1_000_000,
    "nonzero": lambda v: complex(v[0], v[1]) != 0,
    _VARIABLE: lambda v: v in SWEEP_VARIABLES,
}


def _sweep_range(sweep: dict) -> list[str]:
    lo, hi = sweep.get("lo"), sweep.get("hi")
    if ("lo" in sweep and not _is_number(lo)) or ("hi" in sweep and not _is_number(hi)):
        return ["sweep.lo and sweep.hi must be finite numbers"]
    if _is_number(lo) and _is_number(hi) and not lo < hi:
        return ["sweep range must satisfy lo < hi"]
    if _is_number(lo) and _is_number(hi) and math.isinf(float(hi) - float(lo)):
        return ["sweep width hi - lo must be finite"]  # float(): an int width may not convert
    return []


def _sweep_fixed(sweep: dict) -> list[str]:
    fixed = sweep.get("fixed", {})
    problems = [] if isinstance(fixed, dict) else ["sweep.fixed must be an object"]
    fixed = fixed if isinstance(fixed, dict) else {}
    for key in fixed:
        if key != "theta":
            problems.append(f"unknown key sweep.fixed.{key}")
        elif not _is_number(fixed[key]):
            problems.append("sweep.fixed.theta must be a finite number")
    variable, lo = sweep.get("variable"), sweep.get("lo")
    # the angles the sweep visits: its range, or the fixed theta of another variable
    lowest, highest = (lo, sweep.get("hi")) if variable == "theta" else (fixed.get("theta"),) * 2
    if variable in ("omega_c", "delta") and lowest is None:
        problems.append(f"a {variable} sweep needs sweep.fixed.theta")
    elif variable in SWEEP_VARIABLES and _is_number(lowest) and _is_number(highest):
        if not (0.0 < lowest and highest < math.pi / 2):
            problems.append("theta must lie in (0, pi/2)")
    if variable in _NON_NEGATIVE and _is_number(lo) and lo < 0.0:
        problems.append(f"sweep.lo must be >= 0 for an {variable} sweep")
    return problems


# (section, key, kind, bound), in the order the messages are listed.  A key
# gets one message at most: "missing key" from its first rule when required
# and absent, else "must be <kind> <bound>" from the first rule it breaks, so
# a rule with no kind may bound a value whose kind an earlier rule checked.  A
# rule with no key is a cross-field rule: its kind maps the section to messages.
_RULES = (
    *(("qw", key, "a finite number", None) for key in _SCHEMA["qw"]),
    *(("qw", key, None, ">= 0") for key in _NON_NEGATIVE),
    ("stack", "epsilon1", _PAIR, None),
    ("stack", "epsilon1", None, "nonzero"),
    ("stack", "epsilon3", _PAIR, None),
    ("stack", "epsilon3", None, "nonzero"),
    *(("stack", key, "a number", ">= 0") for key in ("d1_um", "d2_um")),
    *(("beam", key, "a number", "> 0") for key in _SCHEMA["beam"]),
    # every missing sweep key is listed before any sweep value is checked
    *(("sweep", key, None, None) for key, needed in _SCHEMA["sweep"].items() if needed),
    ("sweep", "variable", None, _VARIABLE),
    ("sweep", None, _sweep_range, None),
    ("sweep", "samples", "an integer", ">= 2"),
    ("sweep", "samples", None, "<= 1000000"),
    ("sweep", None, _sweep_fixed, None),
)


def validate_config(doc: dict) -> list[str]:
    """All schema and range violations of a (merged) config document."""
    if not isinstance(doc, dict):
        return [f"config root must be a JSON object, got {type(doc).__name__}"]
    doc = merged_config(doc)
    problems = [f"unknown top-level key {key!r}" for key in doc if key not in ("preset", *_SCHEMA)]
    name = doc.get("preset")
    if name is not None and name not in PRESET_NAMES:
        problems.append(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    for section, schema in _SCHEMA.items():
        values = doc.get(section)
        if not isinstance(values, dict):
            problems.append(f"missing section {section!r}" if values is None
                            else f"section {section!r} must be an object")
            continue
        problems += [f"unknown key {section}.{key}" for key in values if key not in schema]
        reported = set()
        for _, key, kind, bound in (rule for rule in _RULES if rule[0] == section):
            texts = [text for text in (kind, bound) if text]
            if key is None:
                problems += kind(values)
            elif key not in reported and key not in values and schema[key]:
                problems.append(f"missing key {section}.{key}")
                reported.add(key)
            elif key not in reported and key in values:
                if not all(_TESTS[text](values[key]) for text in texts):
                    problems.append(f"{section}.{key} must be {' '.join(texts)}")
                    reported.add(key)
    return problems


def _build(cls, values: dict, **given):
    """A cls from those section values that are its fields."""
    types = {f.name: f.type for f in fields(cls)}
    values = {k: _FROM_JSON.get(types[k], float)(v) for k, v in values.items() if k in types}
    return cls(**values, **given)


def scenario_from_config(doc: dict) -> tuple[Scenario, SweepSpec]:
    """Build the domain objects from a validated config document."""
    doc = merged_config(doc)
    beam = _build(BeamSpec, doc["beam"]) if "waist_um" in doc["beam"] else None
    qw = _build(QwParams, doc["qw"])
    scenario = _build(Scenario, {**doc["stack"], **doc["beam"]}, qw=qw, beam=beam)
    return scenario, _build(SweepSpec, doc["sweep"])


def _section(keys, *objs) -> dict:
    """The objects' fields named in keys as JSON values, but for None and {} (defaults)."""
    return {
        f.name: _TO_JSON.get(f.type, lambda v: v)(getattr(obj, f.name))
        for obj in objs if obj is not None
        for f in fields(obj)
        if f.name in keys and getattr(obj, f.name) not in (None, {})
    }


def config_from_scenario(scenario: Scenario, spec: SweepSpec) -> dict:
    """Inverse of scenario_from_config; floats survive a JSON round trip."""
    sources = {"qw": [scenario.qw], "stack": [scenario], "beam": [scenario, scenario.beam],
               "sweep": [spec]}
    return {section: _section(_SCHEMA[section], *objs) for section, objs in sources.items()}
