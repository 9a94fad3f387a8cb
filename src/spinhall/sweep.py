"""Grids over angle and medium parameters, and resonance search.

A Scenario bundles the quantum-well medium with the cavity template (two
fixed walls around the tunable middle layer) and the probe wavelength; a
SweepSpec picks one variable (theta, omega_c or delta), its grid and, for
omega_c or delta, a fixed angle.  `Scenario.qw` is the medium; a swept value
replaces its field in `sweep_point` and, for a whole grid, in `run_sweep`.
Per-point failures degrade to flagged rows instead of aborting: the singular
geometries are usually the interesting part of a scan.

A sweep is evaluated as columns: one susceptibility (theta sweeps) or one
array of them (omega_c/delta sweeps), one batched transfer-matrix call over
the whole grid and one batched shift evaluation.  Rows are built from the
columns at the end.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import NamedTuple

import numpy as np

from .qw_medium import QwParams, susceptibility, susceptibility_grid
from .shifts import BeamSpec, ratio, transverse_shifts
from .strata import Kinematics, Layer, ReflectionPair, Stack, reflection_arrays, reflection_pair

__all__ = [
    "SWEEP_VARIABLES",
    "Scenario",
    "SweepSpec",
    "SweepRow",
    "ResonanceResult",
    "build_stack",
    "sweep_point",
    "run_sweep",
    "find_resonance",
]

SWEEP_VARIABLES = ("theta", "omega_c", "delta")


@dataclass(frozen=True)
class Scenario:
    """Medium + cavity template + probe beam.

    The two walls have permittivities epsilon1/epsilon3 and equal thickness
    d1_um; the middle layer of thickness d2_um takes the permittivity
    1 + chi(qw) when the stack is built.
    """

    qw: QwParams
    epsilon1: complex
    epsilon3: complex
    d1_um: float
    d2_um: float
    lambda_um: float
    beam: BeamSpec | None = None

    def __post_init__(self) -> None:
        for name in ("epsilon1", "epsilon3"):
            value = complex(getattr(self, name))
            if value == 0 or not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite and nonzero, got {value!r}")
        for name in ("d1_um", "d2_um"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(f"{name} must be >= 0, got {value!r}")
        if not (math.isfinite(self.lambda_um) and self.lambda_um > 0.0):
            raise ValueError(f"lambda_um must be positive, got {self.lambda_um!r}")


@dataclass(frozen=True)
class SweepSpec:
    """One swept variable on [lo, hi] with `samples` points.  `fixed` holds
    only theta, the angle of an omega_c or delta sweep (required there,
    ignored by a theta sweep)."""

    variable: str
    lo: float
    hi: float
    samples: int
    fixed: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.variable not in SWEEP_VARIABLES:
            raise ValueError(f"variable must be one of {SWEEP_VARIABLES}, got {self.variable!r}")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi) and self.lo < self.hi):
            raise ValueError(f"need lo < hi, got [{self.lo!r}, {self.hi!r}]")
        if isinstance(self.samples, bool) or not isinstance(self.samples, Integral):
            raise ValueError(f"samples must be an integer, got {self.samples!r}")
        if self.samples < 2:
            raise ValueError(f"samples must be >= 2, got {self.samples!r}")
        unknown = set(self.fixed) - {"theta"}
        if unknown:
            raise ValueError(f"unknown fixed keys: {sorted(unknown)}")
        if self.variable == "theta":
            if not (0.0 < self.lo and self.hi < math.pi / 2):
                raise ValueError("theta must lie in (0, pi/2)")
        else:
            theta = self.fixed.get("theta")
            if theta is None:
                raise ValueError(f"a {self.variable} sweep needs fixed['theta']")
            if not 0.0 < theta < math.pi / 2:
                raise ValueError("theta must lie in (0, pi/2)")


class SweepRow(NamedTuple):
    """Reflection magnitudes/phases, polarization ratios and sigma+ shifts at
    one grid point.  A failed point carries the error message and NaN data."""

    value: float
    re_abs: float
    rm_abs: float
    ratio_em: float
    ratio_me: float
    phi_e: float
    phi_m: float
    delta_h_plus_lambda: float
    delta_v_plus_lambda: float
    h_singular: bool
    v_singular: bool
    error: str | None = None


@dataclass(frozen=True)
class ResonanceResult:
    """Location and height of the |r_e|/|r_m| peak; boundary=True warns that
    the maximum sat on the window edge (no interior peak)."""

    theta_star: float
    ratio_em_peak: float
    boundary: bool


def _layers(scenario: Scenario, chi) -> tuple:
    """(epsilon, thickness_um) of wall | medium | wall, the middle
    permittivity 1 + chi; chi may be an array."""
    return (
        (scenario.epsilon1, scenario.d1_um),
        (1.0 + chi, scenario.d2_um),
        (scenario.epsilon3, scenario.d1_um),
    )


def build_stack(scenario: Scenario, chi: complex) -> Stack:
    """Three-layer cavity with the middle permittivity set to 1 + chi."""
    return Stack(layers=tuple(Layer(epsilon=e, thickness_um=d) for e, d in _layers(scenario, chi)))


def sweep_point(scenario: Scenario, spec: SweepSpec, value: float) -> tuple[QwParams, float]:
    """The medium and the angle (rad) at one swept value."""
    if spec.variable == "theta":
        return scenario.qw, value
    return replace(scenario.qw, **{spec.variable: value}), float(spec.fixed["theta"])


def _point_error(scenario: Scenario, spec: SweepSpec, value: float) -> str | None:
    """Why one grid point has no reflection data: the point evaluated on its
    own raises the error the columns masked."""
    try:
        qw, theta = sweep_point(scenario, spec, value)
        stack = build_stack(scenario, susceptibility(qw).chi)
        reflection_pair(stack, Kinematics(lambda_um=scenario.lambda_um, theta_rad=theta))
    except Exception as exc:  # per-point failures become flagged rows
        return f"{type(exc).__name__}: {exc}"
    return None


def run_sweep(scenario: Scenario, spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate the sweep grid, rows in ascending swept-value order.

    The grid is evaluated as one batch (see the module docstring).  A failed
    point, or a failing medium in a theta sweep, gives rows with NaN data,
    both singular flags and the error text.  `threads` is accepted for
    compatibility and has no effect: a batch leaves nothing to run in
    parallel.
    """
    values = np.linspace(spec.lo, spec.hi, spec.samples)
    medium_error = None
    if spec.variable == "theta":
        theta = values
        try:
            chi = susceptibility(scenario.qw).chi
        except Exception as exc:  # a failing medium fails every row identically
            chi, medium_error = math.nan, f"{type(exc).__name__}: {exc}"
    else:
        theta = float(spec.fixed["theta"])
        chi = susceptibility_grid(scenario.qw, spec.variable, values)
    r_e, r_m = reflection_arrays(_layers(scenario, chi), scenario.lambda_um, theta)
    pair = ReflectionPair(r_e=r_e, r_m=r_m)
    shifts = transverse_shifts(pair, scenario.lambda_um, theta)
    re_abs, rm_abs = np.abs(r_e), np.abs(r_m)
    data = [
        re_abs, rm_abs, ratio(re_abs, rm_abs), ratio(rm_abs, re_abs),
        pair.phi_e, pair.phi_m, shifts.delta_h_plus, shifts.delta_v_plus,
    ]
    flags = [shifts.h_singular, shifts.v_singular]
    errors = [None] * spec.samples
    for i in np.flatnonzero(np.isnan(r_e) | np.isnan(r_m)):
        errors[i] = medium_error or _point_error(scenario, spec, float(values[i]))
        if errors[i] is not None:
            for column in data:
                column[i] = math.nan
            for column in flags:
                column[i] = True
    columns = [c.tolist() for c in (values, *data, *flags)]
    # tuple.__new__ fills each row in C, skipping the NamedTuple's Python __new__
    return list(map(tuple.__new__, itertools.repeat(SweepRow), zip(*columns, errors)))


# points of the coarse scan of find_resonance, and per zoom round: each round
# narrows the bracket 32-fold, so the 2000-point scan of a 0.15 rad window
# reaches 1e-7 in 3 rounds
_COARSE_POINTS = 2000
_ZOOM_POINTS = 65


def _ratio_em(scenario: Scenario, chi: complex, thetas: np.ndarray) -> np.ndarray:
    """|r_e|/|r_m| over an angle array, -inf where it is undefined."""
    r_e, r_m = reflection_arrays(_layers(scenario, chi), scenario.lambda_um, thetas)
    values = ratio(np.abs(r_e), np.abs(r_m))
    values[np.isnan(values)] = -math.inf
    return values


def find_resonance(
    scenario: Scenario,
    theta_window: tuple[float, float],
    tol_rad: float = 1e-7,
) -> ResonanceResult:
    """Locate the angle maximizing |r_e|/|r_m| inside the window.

    A coarse scan (2000 points, one batched call) brackets the
    peak between the neighbours of its maximum.  Each zoom round then
    evaluates the ratio on an evenly spaced batch across the bracket and
    keeps the neighbours of that batch's maximum, until the bracket is at
    most tol_rad wide.  If the coarse maximum sits on the window edge the
    boundary flag is set and no refinement is attempted.
    """
    lo, hi = float(theta_window[0]), float(theta_window[1])
    if not (0.0 < lo < hi < math.pi / 2):
        raise ValueError(f"theta window must satisfy 0 < lo < hi < pi/2, got {theta_window!r}")
    chi = susceptibility(scenario.qw).chi
    thetas = np.linspace(lo, hi, _COARSE_POINTS)
    values = _ratio_em(scenario, chi, thetas)
    i_best = int(np.argmax(values))
    coarse_theta, coarse_peak = float(thetas[i_best]), float(values[i_best])
    if i_best == 0 or i_best == len(thetas) - 1:
        return ResonanceResult(theta_star=coarse_theta, ratio_em_peak=coarse_peak, boundary=True)
    a, b = thetas[i_best - 1], thetas[i_best + 1]
    refined_theta, refined_peak = coarse_theta, coarse_peak
    # below a batch of ulps the bracket can no longer shrink
    while b - a > max(tol_rad, _ZOOM_POINTS * math.ulp(b)):
        thetas = np.linspace(a, b, _ZOOM_POINTS)
        values = _ratio_em(scenario, chi, thetas)
        i = int(np.argmax(values))
        refined_theta, refined_peak = float(thetas[i]), float(values[i])
        a, b = thetas[max(i - 1, 0)], thetas[min(i + 1, _ZOOM_POINTS - 1)]
    if refined_peak >= coarse_peak:
        return ResonanceResult(theta_star=refined_theta, ratio_em_peak=refined_peak, boundary=False)
    return ResonanceResult(theta_star=coarse_theta, ratio_em_peak=coarse_peak, boundary=False)
