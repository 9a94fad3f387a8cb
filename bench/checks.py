"""Output checks.  Every function returns a list of failure descriptions; an
empty list means the output is correct.  Nothing here filters inputs: a
failing operation is counted by the caller, never skipped.
"""

from __future__ import annotations

import cmath
import csv
import json
import math
from pathlib import Path

from spinhall import susceptibility_from_steady_state

# values on unflagged rows must match the reference table to this relative
# tolerance ("outputs stay put")
REFERENCE_RTOL = 1e-10
# the independent reflection recursion agrees with the transfer matrix to
# ~1e-15 at the seed commit; this leaves room for a reordered computation
REFLECTION_ATOL = 1e-9
ORACLE_RTOL = 0.01


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        table = list(csv.reader(handle))
    return (table[0], table[1:]) if table else ([], [])


def check_resonance(theta_star, peak, thetas, ratios, flagged) -> list[str]:
    """The reported peak must sit within one grid step of the argmax over the
    unflagged grid rows and be at least the grid maximum."""
    usable = [(r, t) for t, r, f in zip(thetas, ratios, flagged) if not f and math.isfinite(r)]
    if not usable:
        return []
    grid_max, grid_theta = max(usable)
    step = (thetas[-1] - thetas[0]) / (len(thetas) - 1)
    failures = []
    if peak is None or not peak >= grid_max * (1.0 - 1e-12):
        failures.append(f"resonance peak {peak} below grid maximum {grid_max}")
    if abs(theta_star - grid_theta) > step * (1.0 + 1e-9):
        failures.append(f"theta* {theta_star} more than one step from grid argmax {grid_theta}")
    return failures


def check_cli_outputs(name: str, returncode: int, csv_path: Path, reference: dict) -> list[str]:
    """Exit code, CSV shape, JSON summary, sampled rows against the reference
    table, and (angle presets) the JSON resonance against the CSV rows."""
    ref = reference[name]
    if returncode != 0:
        return [f"{name}: exit code {returncode}"]
    json_path = csv_path.with_suffix(".json")
    try:
        header, rows = read_csv(csv_path)
        with open(json_path, encoding="utf-8") as handle:
            summary = json.load(handle)
    except (OSError, ValueError) as exc:
        return [f"{name}: unreadable output: {exc}"]
    failures = []
    if header != ref["columns"]:
        failures.append(f"{name}: CSV header {header}")
    if len(rows) != ref["samples"]:
        failures.append(f"{name}: {len(rows)} CSV rows, expected {ref['samples']}")
    if summary.get("rows") != ref["samples"] or summary.get("row_errors") != 0:
        failures.append(f"{name}: JSON rows={summary.get('rows')} row_errors={summary.get('row_errors')}")
    if failures:
        return failures
    col = {c: i for i, c in enumerate(header)}
    flags = col["flags"]
    for index, expected in ref["rows"].items():
        row = rows[int(index)]
        want = dict(zip(ref["columns"], expected))
        if row[flags] != want["flags"]:
            failures.append(f"{name}: row {index} flags {row[flags]!r} != {want['flags']!r}")
            continue
        if want["flags"]:
            continue
        for column, value in want.items():
            if column != "flags" and not close(float(row[col[column]]), float(value), REFERENCE_RTOL):
                failures.append(f"{name}: row {index} {column} {row[col[column]]} != {value}")
    if ref["variable"] == "theta":
        resonance = summary.get("resonance") or {}
        if "theta_star" not in resonance:
            return failures + [f"{name}: JSON has no resonance"]
        failures += [
            f"{name}: {f}"
            for f in check_resonance(
                resonance["theta_star"],
                resonance["ratio_em_peak"],
                [float(r[col["swept"]]) for r in rows],
                [float(r[col["ratio_em"]]) for r in rows],
                ["h" in r[flags] or "e" in r[flags] for r in rows],
            )
        ]
    return failures


def reference_pair(epsilons, thicknesses, lambda_um: float, theta: float) -> tuple[complex, complex]:
    """TE/TM reflection of vacuum | layers | vacuum by the recursive Airy
    (Fresnel) formula, independent of the characteristic-matrix code.  The
    light arrives through the last layer of the list: that is the side the
    transfer-matrix product in `spinhall.strata` describes."""
    k = 2.0 * math.pi / lambda_um
    kz = k * math.sin(theta)
    eps = [1.0 + 0j] + [complex(e) for e in reversed(epsilons)] + [1.0 + 0j]
    thick = [0.0] + list(reversed(thicknesses)) + [0.0]

    def normal_k(e: complex) -> complex:
        radicand = e * k * k - kz * kz
        if radicand.imag == 0.0:
            radicand = complex(radicand.real, 0.0)
        return cmath.sqrt(radicand)

    kx = [normal_k(e) for e in eps]
    out = []
    for tm in (False, True):
        gamma = 0j
        for j in range(len(eps) - 2, -1, -1):
            if tm:
                r = (eps[j + 1] * kx[j] - eps[j] * kx[j + 1]) / (eps[j + 1] * kx[j] + eps[j] * kx[j + 1])
            else:
                r = (kx[j] - kx[j + 1]) / (kx[j] + kx[j + 1])
            phase = cmath.exp(2j * kx[j + 1] * thick[j + 1])
            gamma = (r + gamma * phase) / (1.0 + r * gamma * phase)
        out.append(gamma)
    return out[0], out[1]


def closed_form_shifts(re_abs, rm_abs, phi_e, phi_m, theta):
    scale = -(1.0 / math.tan(theta)) / (2.0 * math.pi)
    dphi = phi_e - phi_m
    return (scale * (1.0 + re_abs / rm_abs * math.cos(dphi)),
            scale * (1.0 + rm_abs / re_abs * math.cos(dphi)))


def reference_of(scenario, qw, theta: float) -> tuple[complex, complex]:
    """TE/TM reflection of the scenario's wall | quantum well | wall cavity,
    with medium `qw`, by the independent recursion and with chi from the
    steady-state route."""
    chi = susceptibility_from_steady_state(qw)
    return reference_pair(
        (scenario.epsilon1, 1.0 + chi, scenario.epsilon3),
        (scenario.d1_um, scenario.d2_um, scenario.d1_um),
        scenario.lambda_um,
        theta,
    )


def check_row(row, scenario, qw, theta: float) -> list[str]:
    """One sweep row against the independent reflection recursion and
    against the closed-form shifts of its own reflection data."""
    r_e, r_m = reference_of(scenario, qw, theta)
    failures = []
    for label, got, want in (
        ("r_e", cmath.rect(row.re_abs, row.phi_e), r_e),
        ("r_m", cmath.rect(row.rm_abs, row.phi_m), r_m),
    ):
        if not abs(got - want) <= REFLECTION_ATOL * max(1.0, abs(want)):
            failures.append(f"row {row.value}: {label} {got} != reference {want}")
    if not (row.h_singular or row.v_singular):
        dh, dv = closed_form_shifts(row.re_abs, row.rm_abs, row.phi_e, row.phi_m, theta)
        if not (close(row.delta_h_plus_lambda, dh, REFERENCE_RTOL)
                and close(row.delta_v_plus_lambda, dv, REFERENCE_RTOL)):
            failures.append(f"row {row.value}: shifts inconsistent with its reflection data")
    return failures


def check_oracle(kind: str, result, closed) -> list[str]:
    """Inside the validity domain the oracle is within 1% of the closed form;
    elsewhere it answers exactly where the closed form is non-singular."""
    failures = []
    for label, got, want, singular in (
        ("h", result[0], closed.delta_h_plus, closed.h_singular),
        ("v", result[1], closed.delta_v_plus, closed.v_singular),
    ):
        if singular:
            if got is not None:
                failures.append(f"oracle {label}: answered a singular point")
            continue
        if got is None or not math.isfinite(got):
            failures.append(f"oracle {label}: no finite answer ({got})")
        elif kind == "oracle_valid" and not abs(got - want) <= ORACLE_RTOL * abs(want):
            failures.append(f"oracle {label}: {got} vs closed form {want}")
    return failures
