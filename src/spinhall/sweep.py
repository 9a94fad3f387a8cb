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
`_point_sweep`, run for a sweep of any size, computes the same rows a point at
a time, with what the swept value leaves unchanged (k, the walls, the fixed
angle and decay rates or a theta sweep's medium) set up once per sweep; its
`_refine_resonance` is `find_resonance` on that point path for any window: its
coarse scan (a theta sweep's rows, or 2000 angles of the window) and each zoom
round are `_point_sweep` rows, and both searches share the zoom rounds of
`_peak`.  The two paths agree to rounding: numpy fuses complex multiply-adds
and rounds `arctan2` and `tan` its own way, which moves a shift near the TM
extinction by up to a few 1e-10 relative.  The point path takes a pair (r_e, r_m)
to a row's data through `shifts._row_data`, whose operations `run_sweep` repeats
in numpy, and a point to its pair through `strata._point_pair`, as
`reflection_pair` does.  `run_sweep` asks the point path why rows failed.
"""

import cmath
import itertools
import math
from dataclasses import dataclass, field, replace
from numbers import Integral
from typing import NamedTuple

from .qw_medium import QwParams, _check_field, _chi, derived_rates, susceptibility, susceptibility_grid
# transverse_shifts and reflection_pair are not called here; bench/spans.py wraps these names
from .shifts import SINGULAR_REFLECTION, BeamSpec, _row_data, transverse_shifts
from .strata import Layer, _point_pair, reflection_arrays, reflection_pair

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
        # a finite width needs finite ends; float(): an int width may not convert
        if not (self.lo < self.hi and math.isfinite(float(self.hi) - float(self.lo))):
            raise ValueError(f"need lo < hi and a finite hi - lo, got [{self.lo!r}, {self.hi!r}]")
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


class ResonanceResult(NamedTuple):
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


def build_stack(scenario: Scenario, chi: complex) -> tuple[Layer, Layer, Layer]:
    """The `Layer`s of the three-layer cavity, the middle permittivity 1 + chi."""
    return tuple(Layer(epsilon=e, thickness_um=d) for e, d in _layers(scenario, chi))


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


def _failed_row(value: float, exc: Exception) -> SweepRow:
    return SweepRow(value, *(math.nan,) * 8, True, True, f"{type(exc).__name__}: {exc}")


def _point_rows(scenario: Scenario, spec: SweepSpec, values: list[float]) -> list[SweepRow]:
    """Rows at the swept values, one point at a time.  k, the walls and a theta
    sweep's middle layer or the fixed angle and decay rates are set once; an
    omega_c or delta row checks its value and builds its middle layer.  A
    failed point gives NaN data, both singular flags and the error text."""
    qw, variable, d2, k = scenario.qw, spec.variable, scenario.d2_um, 2.0 * math.pi / scenario.lambda_um
    wall1, wall3 = Layer(scenario.epsilon1, scenario.d1_um), Layer(scenario.epsilon3, scenario.d1_um)
    if variable == "theta":
        try:
            layers = (wall1, Layer(1.0 + susceptibility(qw).chi, d2), wall3)
        except Exception as exc:  # a failing medium fails every row identically
            return [_failed_row(value, exc) for value in values]
    else:
        theta, rates = float(spec.fixed["theta"]), derived_rates(qw)
        k_z, q0 = k * math.sin(theta), math.cos(theta)
    rows = []
    for value in values:
        try:
            if variable == "theta":
                theta, k_z, q0 = value, k * math.sin(value), math.cos(value)
            else:
                _check_field(variable, value)
                omega_c, delta = (value, qw.delta) if variable == "omega_c" else (qw.omega_c, value)
                layers = (wall1, Layer(1.0 + _chi(qw, rates, omega_c, delta), d2), wall3)
            rows.append(SweepRow(value, *_row_data(*_point_pair(layers, k, k_z, q0), theta)))
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
        re_abs, rm_abs = np.abs(r_e), np.abs(r_m)
        phi_e, phi_m = (np.where(p <= -math.pi, p + 2.0 * math.pi, p) for p in map(np.angle, (r_e, r_m)))
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio_em, ratio_me = np.divide(re_abs, rm_abs), np.divide(rm_abs, re_abs)
        dphi = phi_e - phi_m
        scale = -(1.0 / np.tan(theta)) / (2.0 * math.pi)
        delta_h = scale * (1.0 + ratio_em * np.cos(dphi))
        delta_v = scale * (1.0 + ratio_me * np.cos(-dphi))
    columns = [c.tolist() for c in (values, re_abs, rm_abs, ratio_em, ratio_me, phi_e, phi_m, delta_h,
                                    delta_v, rm_abs < SINGULAR_REFLECTION, re_abs < SINGULAR_REFLECTION)]
    # tuple.__new__ fills each row in C, skipping the NamedTuple's Python __new__
    rows = list(map(tuple.__new__, itertools.repeat(SweepRow), zip(*columns, itertools.repeat(None))))
    failed = np.flatnonzero(np.isnan(r_e) | np.isnan(r_m)).tolist()
    if failed:
        for i, row in zip(failed, _point_rows(scenario, spec, values[failed].tolist())):
            rows[i] = row
    return rows


# points of the coarse scan of find_resonance and per zoom round, and the
# bracket width it stops at: each round narrows the bracket 32-fold, so the
# 2000-point scan of a 0.15 rad window reaches 1e-7 in 3 rounds
_COARSE_POINTS = 2000
_ZOOM_POINTS = 65
_TOL_RAD = 1e-7


def _window(theta_window) -> tuple[float, float]:
    lo, hi = float(theta_window[0]), float(theta_window[1])
    if not (0.0 < lo < hi < math.pi / 2):
        raise ValueError(f"theta window must satisfy 0 < lo < hi < pi/2, got {theta_window!r}")
    return lo, hi


def _peak(scan, coarse: tuple) -> ResonanceResult:
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
    while b - a > _TOL_RAD:
        thetas, values, i = scan(a, b, _ZOOM_POINTS)
        refined_theta, refined_peak = float(thetas[i]), float(values[i])
        a, b = thetas[max(i - 1, 0)], thetas[min(i + 1, _ZOOM_POINTS - 1)]
    if refined_peak >= coarse_peak:
        return ResonanceResult(theta_star=refined_theta, ratio_em_peak=refined_peak, boundary=False)
    return ResonanceResult(theta_star=coarse_theta, ratio_em_peak=coarse_peak, boundary=False)


def find_resonance(scenario: Scenario, theta_window: tuple[float, float]) -> ResonanceResult:
    """Locate the angle maximizing |r_e|/|r_m| inside the window.

    A coarse scan (2000 points, one batched call) brackets the
    peak between the neighbours of its maximum.  Each zoom round then
    evaluates the ratio on an evenly spaced batch across the bracket and
    keeps the neighbours of that batch's maximum, until the bracket is at
    most 1e-7 rad wide.  If the coarse maximum sits on the window edge the
    boundary flag is set and no refinement is attempted.  A window where
    the coarse scan defines no ratio at all raises ValueError.
    """
    lo, hi = _window(theta_window)
    import numpy as np
    chi = susceptibility(scenario.qw).chi

    def scan(a, b, n):
        thetas = np.linspace(a, b, n)
        r_e, r_m = reflection_arrays(_layers(scenario, chi), scenario.lambda_um, thetas)
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.divide(np.abs(r_e), np.abs(r_m))
        values[np.isnan(values)] = -math.inf
        return thetas, values, int(np.argmax(values))

    return _peak(scan, scan(lo, hi, _COARSE_POINTS))


def _scan(rows: list[SweepRow]) -> tuple:
    """`_peak`'s scan triple of theta rows: their angles and |r_e|/|r_m| (-inf undefined)."""
    values = [-math.inf if math.isnan(row.ratio_em) else row.ratio_em for row in rows]
    return [row.value for row in rows], values, values.index(max(values))


def _refine_resonance(scenario: Scenario, theta_window: tuple, rows: list[SweepRow]) -> ResonanceResult:
    """`find_resonance` on the point path: the coarse scan and each zoom round are the
    `_point_sweep` rows of a theta sweep, the given rows its coarse scan if there are as
    many as it scans.  It raises as `find_resonance` does: SingularParameterError for
    a singular medium, before it reads the rows, and ValueError for a window outside
    (0, pi/2) or where no angle has a ratio."""
    lo, hi = _window(theta_window)
    susceptibility(scenario.qw)  # raises for a singular medium, as find_resonance's call does

    def scan(a, b, n):
        return _scan(_point_sweep(scenario, SweepSpec("theta", a, b, n)))

    # too few rows would miss a narrow peak
    return _peak(scan, _scan(rows) if len(rows) >= _COARSE_POINTS else scan(lo, hi, _COARSE_POINTS))
