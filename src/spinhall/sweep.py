"""Grids over angle and medium parameters, and resonance search.

A Scenario bundles the quantum-well medium with the cavity template (two
fixed walls around the tunable middle layer) and the probe wavelength; a
SweepSpec picks one variable (theta, omega_c or delta), its grid and, for
omega_c or delta, a fixed angle.  `Scenario.qw` is the medium; a swept value
replaces its field in `sweep_point`, and a grid row takes the chi of the
medium so changed.  Per-point failures degrade to flagged rows instead of
aborting: the singular geometries are usually the interesting part of a scan.

Scalars are computed in Python and arrays in numpy, which only the functions
that take or build arrays import.  `run_sweep` evaluates a grid as columns:
one susceptibility (theta) or an array of them (omega_c/delta), one batched
transfer-matrix call and one batched shift evaluation.  The CLI's
`_point_sweep` computes the same rows a point at a time, with what the swept
value leaves unchanged (k, the walls, the fixed angle or a theta sweep's
medium) set up once per sweep; its `_refine_resonance` is `find_resonance` on
that point path, and both share the zoom rounds of `_peak`.  The two paths
agree to rounding: numpy fuses complex multiply-adds and rounds `arctan2` and
`tan` its own way, which moves a shift near the TM extinction by up to a few
1e-10 relative.  `run_sweep` asks the point path why a row failed.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import NamedTuple

from .qw_medium import QwParams, _check_field, _chi, susceptibility, susceptibility_grid
# transverse_shifts and reflection_pair are not called here; bench/spans.py wraps these names
from .shifts import BeamSpec, _closed_forms, ratio, transverse_shifts
from .strata import (
    Layer, Stack, _checked, _point_fractions, _principal_phase, reflection_arrays, reflection_pair,
)

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
        if self.variable != "theta" and self.fixed.get("theta") is None:
            raise ValueError(f"a {self.variable} sweep needs fixed['theta']")
        # the angles of the rows: the swept range, or the one fixed angle
        lo, hi = (self.lo, self.hi) if self.variable == "theta" else (self.fixed["theta"],) * 2
        if not (0.0 < lo and hi < math.pi / 2):
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


def _linspace(lo: float, hi: float, n: int) -> list[float]:
    """`np.linspace(lo, hi, n).tolist()`, value for value, in Python."""
    delta = hi - lo
    step = delta / (n - 1)
    # numpy's order of operations, including its rule for a step that underflows to 0
    values = [i * step + lo for i in range(n)] if step else [i / (n - 1) * delta + lo for i in range(n)]
    values[-1] = hi
    return values


def _row_data(r_e, r_m, theta, lib) -> tuple:
    """The SweepRow fields between `value` and `error`, from one pass over the
    magnitudes and phases: a row's from one point's r_e and r_m (lib `math`),
    or the columns of a grid from arrays (numpy)."""
    re_abs, rm_abs, phi_e, phi_m = abs(r_e), abs(r_m), _principal_phase(r_e), _principal_phase(r_m)
    ratio_em, ratio_me, delta_h, delta_v, h_singular, v_singular = _closed_forms(
        re_abs, rm_abs, phi_e, phi_m, theta, lib)
    return re_abs, rm_abs, ratio_em, ratio_me, phi_e, phi_m, delta_h, delta_v, h_singular, v_singular


def _failed_row(value: float, exc: Exception) -> SweepRow:
    return SweepRow(value, *(math.nan,) * 8, True, True, f"{type(exc).__name__}: {exc}")


def _point_pair(layers: tuple, k: float, k_z: float, q0: float) -> tuple[complex, complex]:
    """`reflection_pair`'s (r_e, r_m) from k = 2pi/lambda and the angle's k_z
    and q0, without its Kinematics and ReflectionPair."""
    (te_n, te_d), (tm_n, tm_d) = _point_fractions(layers, k, k_z, q0)
    return _checked(te_n, te_d, q0), _checked(tm_n, tm_d, q0)


def _point_rows(scenario: Scenario, spec: SweepSpec, values: list[float], chi=None) -> list[SweepRow]:
    """Rows at the swept values, one point at a time.  k, the walls and a theta
    sweep's middle layer (from `chi` if given) or the fixed angle are set once;
    an omega_c or delta row checks its value and builds its middle layer.  A
    failed point gives NaN data, both singular flags and the error text."""
    qw, variable, d2, k = scenario.qw, spec.variable, scenario.d2_um, 2.0 * math.pi / scenario.lambda_um
    wall1, wall3 = Layer(scenario.epsilon1, scenario.d1_um), Layer(scenario.epsilon3, scenario.d1_um)
    if variable == "theta":
        try:
            layers = (wall1, Layer(1.0 + (susceptibility(qw).chi if chi is None else chi), d2), wall3)
        except Exception as exc:  # a failing medium fails every row identically
            return [_failed_row(value, exc) for value in values]
    else:
        theta = float(spec.fixed["theta"])
        k_z, q0 = k * math.sin(theta), math.cos(theta)
    rows = []
    for value in values:
        try:
            if variable == "theta":
                theta, k_z, q0 = value, k * math.sin(value), math.cos(value)
            else:
                _check_field(variable, value)
                omega_c, delta = (value, qw.delta) if variable == "omega_c" else (qw.omega_c, value)
                layers = (wall1, Layer(1.0 + _chi(qw, omega_c, delta), d2), wall3)
            rows.append(SweepRow(value, *_row_data(*_point_pair(layers, k, k_z, q0), theta, math)))
        except Exception as exc:  # per-point failures become flagged rows
            rows.append(_failed_row(value, exc))
    return rows


def _point_sweep(scenario: Scenario, spec: SweepSpec) -> list[SweepRow]:
    """`run_sweep`'s rows computed one point at a time in Python, without
    numpy, for the CLI (see the module docstring for how the two differ)."""
    return _point_rows(scenario, spec, _linspace(float(spec.lo), float(spec.hi), int(spec.samples)))


def run_sweep(scenario: Scenario, spec: SweepSpec, threads: int = 1) -> list[SweepRow]:
    """Evaluate the sweep grid, rows in ascending swept-value order.

    The grid is evaluated as one batch (see the module docstring).  A failed
    point, or a failing medium in a theta sweep, gives rows with NaN data,
    both singular flags and the error text, which the point path finds.
    `threads` is accepted for compatibility and has no effect: a batch
    leaves nothing to run in parallel.
    """
    import numpy as np
    values = np.linspace(spec.lo, spec.hi, spec.samples)
    if spec.variable == "theta":
        theta = values
        try:
            chi = susceptibility(scenario.qw).chi
        except Exception:  # a failing medium fails every row; the point path says why
            return _point_rows(scenario, spec, values.tolist())
    else:
        theta = float(spec.fixed["theta"])
        chi = susceptibility_grid(scenario.qw, spec.variable, values)
    r_e, r_m = reflection_arrays(_layers(scenario, chi), scenario.lambda_um, theta)
    with np.errstate(invalid="ignore"):
        data = _row_data(r_e, r_m, theta, np)
    columns = [c.tolist() for c in (values, *data)]
    # tuple.__new__ fills each row in C, skipping the NamedTuple's Python __new__
    rows = list(map(tuple.__new__, itertools.repeat(SweepRow), zip(*columns, itertools.repeat(None))))
    failed = np.flatnonzero(np.isnan(r_e) | np.isnan(r_m)).tolist()
    for i, row in zip(failed, _point_rows(scenario, spec, values[failed].tolist(), chi)):
        if row.error is not None:
            rows[i] = row
    return rows


# points of the coarse scan of find_resonance and per zoom round, and the
# default bracket width it stops at: each round narrows the bracket 32-fold,
# so the 2000-point scan of a 0.15 rad window reaches 1e-7 in 3 rounds
_COARSE_POINTS = 2000
_ZOOM_POINTS = 65
_TOL_RAD = 1e-7


def _peak(scan, coarse: tuple, tol_rad: float) -> ResonanceResult:
    """The |r_e|/|r_m| peak of a coarse scan (angles, ratios with -inf where
    undefined, index of the largest), zoomed by `scan(a, b, n)`, which gives
    the same triple over n angles from a to b; see `find_resonance`."""
    thetas, values, i_best = coarse
    if values[i_best] == -math.inf:  # the coarse scan spans the window
        window = f"({float(thetas[0])!r}, {float(thetas[-1])!r})"
        raise ValueError(f"no |r_e|/|r_m| ratio is defined in the theta window {window}")
    coarse_theta, coarse_peak = float(thetas[i_best]), float(values[i_best])
    if i_best == 0 or i_best == len(thetas) - 1:
        return ResonanceResult(theta_star=coarse_theta, ratio_em_peak=coarse_peak, boundary=True)
    a, b = thetas[i_best - 1], thetas[i_best + 1]
    refined_theta, refined_peak = coarse_theta, coarse_peak
    # below a batch of ulps the bracket can no longer shrink
    while b - a > max(tol_rad, _ZOOM_POINTS * math.ulp(b)):
        thetas, values, i = scan(a, b, _ZOOM_POINTS)
        refined_theta, refined_peak = float(thetas[i]), float(values[i])
        a, b = thetas[max(i - 1, 0)], thetas[min(i + 1, _ZOOM_POINTS - 1)]
    if refined_peak >= coarse_peak:
        return ResonanceResult(theta_star=refined_theta, ratio_em_peak=refined_peak, boundary=False)
    return ResonanceResult(theta_star=coarse_theta, ratio_em_peak=coarse_peak, boundary=False)


def find_resonance(
    scenario: Scenario,
    theta_window: tuple[float, float],
    tol_rad: float = _TOL_RAD,
) -> ResonanceResult:
    """Locate the angle maximizing |r_e|/|r_m| inside the window.

    A coarse scan (2000 points, one batched call) brackets the
    peak between the neighbours of its maximum.  Each zoom round then
    evaluates the ratio on an evenly spaced batch across the bracket and
    keeps the neighbours of that batch's maximum, until the bracket is at
    most tol_rad wide (0 refines to the spacing of doubles).  If the coarse
    maximum sits on the window edge the boundary flag is set and no
    refinement is attempted.  A window where the coarse scan defines no
    ratio at all raises ValueError.
    """
    lo, hi = float(theta_window[0]), float(theta_window[1])
    if not (0.0 < lo < hi < math.pi / 2):
        raise ValueError(f"theta window must satisfy 0 < lo < hi < pi/2, got {theta_window!r}")
    if not (math.isfinite(tol_rad) and tol_rad >= 0.0):
        raise ValueError(f"tol_rad must be finite and >= 0, got {tol_rad!r}")
    import numpy as np
    chi = susceptibility(scenario.qw).chi

    def scan(a, b, n):
        thetas = np.linspace(a, b, n)
        r_e, r_m = reflection_arrays(_layers(scenario, chi), scenario.lambda_um, thetas)
        values = ratio(np.abs(r_e), np.abs(r_m))
        values[np.isnan(values)] = -math.inf
        return thetas, values, int(np.argmax(values))

    return _peak(scan, scan(lo, hi, _COARSE_POINTS), tol_rad)


def _scan(thetas: list[float], ratios) -> tuple:
    """`_peak`'s scan triple of angles and their |r_e|/|r_m| (NaN undefined)."""
    values = [-math.inf if math.isnan(value) else value for value in ratios]
    return thetas, values, values.index(max(values))


def _refine_resonance(scenario: Scenario, spec: SweepSpec, rows: list[SweepRow]) -> ResonanceResult:
    """`find_resonance` over a theta sweep's own range on the point path, the
    rows of `_point_sweep` its coarse scan if there are as many as that scans.
    It raises as `find_resonance` does: SingularParameterError for a singular
    medium, before it reads the rows, and ValueError where no angle has a ratio."""
    chi, k = susceptibility(scenario.qw).chi, 2.0 * math.pi / scenario.lambda_um
    try:
        layers = build_stack(scenario, chi).layers
    except ValueError:  # a medium no layer can hold gives no angle a ratio
        layers = None

    def point_ratio(theta):
        if layers is None:
            return math.nan
        try:
            r_e, r_m = _point_pair(layers, k, k * math.sin(theta), math.cos(theta))
        except (ArithmeticError, ValueError):  # an overflowing or degenerate point has no ratio
            return math.nan
        return ratio(abs(r_e), abs(r_m))

    def scan(a, b, n):
        thetas = _linspace(a, b, n)
        return _scan(thetas, map(point_ratio, thetas))

    if len(rows) >= _COARSE_POINTS:
        coarse = _scan([row.value for row in rows], [row.ratio_em for row in rows])
    else:  # too few rows would miss a narrow peak
        coarse = scan(float(spec.lo), float(spec.hi), _COARSE_POINTS)
    return _peak(scan, coarse, _TOL_RAD)
