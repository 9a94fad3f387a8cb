"""Seeded workload inputs.

Each generator takes the seed and the run length and returns a list of
plain-data operations, built before any timing starts.  The same seed always
gives the same list; a run that exhausts the list starts it again from the
top.  Only the oracle generator calls the program (to keep the validity
points inside the closed form's trusted range); the others use the seed and
the constants below alone.
"""

from __future__ import annotations

import functools
import json
import math
import random
from pathlib import Path

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "presets.json"

THETA_PRESETS = ("fig2", "fig3", "fig4", "fig6a", "fig6b")
PARAM_PRESETS = ("fig5a", "fig5b", "fig5c", "fig5d")
PRESETS = THETA_PRESETS + PARAM_PRESETS

# sweep_inproc grid sizes: fixed, the seed never changes them
THETA_SAMPLES = 2001
PARAM_SAMPLES = 601
FULL_WINDOW = (0.1, 1.5)

# oracle: waist in wavelengths, and the closed-form range that the
# acceptance suite treats as the oracle's validity domain
ORACLE_WAIST_LAMBDAS = 500.0
VALID_SHIFT_RANGE = (0.02, 5.0)


def load_reference() -> dict:
    with open(REFERENCE_FILE, encoding="utf-8") as handle:
        return json.load(handle)


@functools.cache
def preset_stack(name: str):
    """(scenario, layer stack) of a preset at its own medium."""
    from spinhall import build_stack, preset, susceptibility

    scenario, _ = preset(name)
    return scenario, build_stack(scenario, susceptibility(scenario.qw).chi)


def presets_ops(seed: int, seconds: float) -> list[dict]:
    """All nine presets per pass, in an order the seed shuffles on each pass."""
    rng = random.Random(seed)
    passes = max(2, math.ceil(seconds * 10 / len(PRESETS)))  # >= 10 ops/s of headroom
    ops = []
    for _ in range(passes):
        order = list(PRESETS)
        rng.shuffle(order)
        ops.extend(
            {"kind": "theta_preset" if name in THETA_PRESETS else "param_preset", "preset": name}
            for name in order
        )
    return ops


def _medium(rng: random.Random) -> dict:
    """Medium and wall draws around the preset cavity (walls 2.22, loss or gain)."""
    return {
        "qw": {
            "delta": rng.uniform(1.0, 8.0),
            "omega_c": rng.uniform(0.0, 6.0),
            "gamma_bd": rng.uniform(0.68, 1.36),
            "gamma_cd": rng.uniform(0.8, 1.6),
        },
        "epsilon1": [2.22, rng.uniform(0.0, 0.04)],
        "epsilon3": [2.22, rng.uniform(-0.04, 0.04)],
    }


def _sample_rows(rng: random.Random, samples: int, count: int = 4) -> list[int]:
    return sorted(rng.sample(range(samples), count))


def sweep_ops(seed: int, seconds: float) -> list[dict]:
    """Cycles of a fixed mix: two theta sweeps, one omega_c and one delta
    sweep, and find_resonance over the full window and two narrow ones."""
    rng = random.Random(seed)
    cycles = max(2, math.ceil(seconds * 5))  # a cycle takes ~0.9 s at the seed commit
    ops = []
    for _ in range(cycles):
        for _ in range(2):
            ops.append({
                "kind": "theta_sweep",
                "medium": _medium(rng),
                "sweep": {"variable": "theta", "lo": FULL_WINDOW[0], "hi": FULL_WINDOW[1],
                          "samples": THETA_SAMPLES, "fixed": {}},
                "check_rows": _sample_rows(rng, THETA_SAMPLES),
            })
        for variable, hi in (("omega_c", 6.0), ("delta", 8.0)):
            ops.append({
                "kind": "param_sweep",
                "medium": _medium(rng),
                "sweep": {"variable": variable, "lo": 0.0, "hi": hi, "samples": PARAM_SAMPLES,
                          "fixed": {"theta": rng.uniform(0.97, 0.99)}},
                "check_rows": _sample_rows(rng, PARAM_SAMPLES),
            })
        # the full-window search reuses the first theta sweep's medium, so its
        # result can be checked against that sweep's rows
        ops[-4]["keep"] = True
        ops.append({"kind": "resonance", "medium": ops[-4]["medium"], "window": list(FULL_WINDOW),
                    "against": len(ops) - 4})
        for _ in range(2):
            centre, half = rng.uniform(0.9, 1.1), rng.uniform(0.01, 0.05)
            ops.append({"kind": "resonance", "medium": _medium(rng),
                        "window": [centre - half, centre + half], "against": None})
    return ops


def oracle_ops(seed: int, seconds: float) -> list[dict]:
    """Even-numbered points lie in the validity domain (non-singular, both
    closed-form shifts inside VALID_SHIFT_RANGE); odd-numbered points sit
    just off a preset resonance angle taken from the reference table."""
    from spinhall import Kinematics, reflection_pair, transverse_shifts

    rng = random.Random(seed)
    resonances = {name: load_reference()[name]["resonance"]["theta_star"] for name in THETA_PRESETS}
    lo, hi = VALID_SHIFT_RANGE
    count = max(4, math.ceil(seconds * 40))  # one point takes ~0.07 s at the seed commit
    ops = []
    for i in range(count):
        name = rng.choice(THETA_PRESETS)
        scenario, stack = preset_stack(name)
        if i % 2 == 0:
            while True:
                theta = rng.uniform(0.35, 1.25)
                pair = reflection_pair(stack, Kinematics(scenario.lambda_um, theta))
                shifts = transverse_shifts(pair, scenario.lambda_um, theta)
                if shifts.h_singular or shifts.v_singular:
                    continue
                if lo <= abs(shifts.delta_h_plus) <= hi and lo <= abs(shifts.delta_v_plus) <= hi:
                    break
            kind = "oracle_valid"
        else:
            offset = 10.0 ** rng.uniform(-4.0, -2.0) * rng.choice((-1.0, 1.0))
            theta = resonances[name] + offset
            kind = "oracle_resonant"
        ops.append({"kind": kind, "preset": name, "theta": theta})
    return ops


GENERATORS = {"presets_cli": presets_ops, "sweep_inproc": sweep_ops, "oracle": oracle_ops}
