"""Spin-dependent transverse shifts of a reflected beam.

On reflection the two circular polarization components of a finite beam are
displaced to opposite sides of the plane of incidence.  The closed forms for
the sigma+ component are

    delta_h_plus = -(lambda/2pi) * (1 + |r_e|/|r_m| * cos(phi_e - phi_m)) * cot(theta)
    delta_v_plus = -(lambda/2pi) * (1 + |r_m|/|r_e| * cos(phi_m - phi_e)) * cot(theta)

for horizontally and vertically polarized input, with the sigma- values their
exact negatives.  Only the magnitude ratio and the phase difference of the two
reflection coefficients enter, so giant shifts appear wherever one
polarization is nearly extinguished (the ratio blows up).  `transverse_shifts`
computes them for Python numbers in `math` and for arrays in numpy, which is
imported only then, through one expression.

`centroid_shift_oracle` is the intensity-centroid shift of a Gaussian beam of
waist w0: the first-order reflection matrix, with the cross-polarization
coupling k_y*cot(theta)*(r_m+r_e)/k0 and the coefficients held at their
central-angle values, applied to the beam's angular spectrum and split into
circular components.  The in-plane axis k_x then integrates out, and each
circular component's spectrum is b(k_y)*(a + c*k_y) with b the Gaussian
envelope.  Its intensity and y-moment are Gaussian moments in closed form,
<k_y^2> = 1/w0^2 and a y-moment of i/2 for the a-c cross term, so

    delta = -Im(a*conj(c)) / (|a|^2 + |c|^2/w0^2) / lambda

which is the closed form above times k^2 w0^2 / (k^2 w0^2 + |X|^2), with
X = (1 + r_e/r_m)*cot(theta) for h input (e and m swapped for v): the
fixed-coefficient limit of the finite-beam shift of Luo et al., PRA 84,
043806 (2011).  A point costs one `reflection_pair` plus one `_centroids`
pass, which builds the coupling and w0^2 once for both polarizations.
Space-domain fields use the plane-wave phase convention exp(i(w*t - k.r)),
which is what ties the sigma+ label to the minus sign above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar

from .strata import Kinematics, ReflectionPair, Stack, reflection_pair

__all__ = [
    "BeamSpec",
    "ShiftResult",
    "ResolutionError",
    "transverse_shifts",
    "circular_centroids",
    "centroid_shift_oracle",
    "SINGULAR_REFLECTION",
    "ratio",
]

# |r| below this sits at the double-precision noise floor; ratios against it
# are reported but flagged rather than clipped.
SINGULAR_REFLECTION = 1e-14


class ResolutionError(ValueError):
    """The beam is too narrow for the oracle's first-order expansion."""


@dataclass(frozen=True)
class BeamSpec:
    """Waist (1/e field radius, um) of the Gaussian beam whose centroid shift
    `centroid_shift_oracle` computes."""

    waist_um: float
    grid_samples: ClassVar[int] = 512  # read by the benchmark's oracle trace; the oracle has no grid

    def __post_init__(self) -> None:
        if not (math.isfinite(self.waist_um) and self.waist_um > 0.0):
            raise ValueError(f"waist_um must be positive, got {self.waist_um!r}")


@dataclass(frozen=True)
class ShiftResult:
    """Transverse shifts of the two circular components, in units of the
    wavelength; sigma- values and absolute lengths in mm are derived views.
    A singular flag marks a ratio taken against a noise-floor magnitude.
    Computed over a grid, every field but lambda_um is an array."""

    delta_h_plus: float
    delta_v_plus: float
    lambda_um: float
    h_singular: bool
    v_singular: bool

    @property
    def delta_h_minus(self) -> float:
        return -self.delta_h_plus

    @property
    def delta_v_minus(self) -> float:
        return -self.delta_v_plus

    @property
    def delta_h_plus_mm(self) -> float:
        return self.delta_h_plus * self.lambda_um * 1e-3

    @property
    def delta_h_minus_mm(self) -> float:
        return -self.delta_h_plus * self.lambda_um * 1e-3

    @property
    def delta_v_plus_mm(self) -> float:
        return self.delta_v_plus * self.lambda_um * 1e-3

    @property
    def delta_v_minus_mm(self) -> float:
        return -self.delta_v_plus * self.lambda_um * 1e-3


def ratio(a, b):
    """a/b with IEEE semantics at b = 0 (inf, or nan for 0/0): Python floats
    divide in Python, anything else in numpy."""
    if type(a) is float and type(b) is float:
        if b:
            return a / b
        return math.nan if a == 0.0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)
    import numpy as np
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


def _closed_forms(re_abs, rm_abs, phi_e, phi_m, theta_rad, lib) -> tuple:
    """(|r_e|/|r_m|, |r_m|/|r_e|, delta_h_plus, delta_v_plus, h_singular,
    v_singular) from the magnitudes and phases of r_e and r_m, computed by
    `lib`: `math` at one point, numpy over a grid, in the same operation order."""
    ratio_em, ratio_me = ratio(re_abs, rm_abs), ratio(rm_abs, re_abs)
    cot = 1.0 / lib.tan(theta_rad)
    dphi = phi_e - phi_m
    scale = -cot / (2.0 * math.pi)
    delta_h = scale * (1.0 + ratio_em * lib.cos(dphi))
    delta_v = scale * (1.0 + ratio_me * lib.cos(-dphi))
    return ratio_em, ratio_me, delta_h, delta_v, rm_abs < SINGULAR_REFLECTION, re_abs < SINGULAR_REFLECTION


def transverse_shifts(pair: ReflectionPair, lambda_um: float, theta_rad: float) -> ShiftResult:
    """Closed-form sigma+ shifts for h- and v-polarized input.

    theta must lie in (0, pi/2); cot(theta) diverges at 0.  Near-vanishing
    |r_m| (|r_e|) makes the h (v) ratio blow up: the value is still computed
    and the corresponding singular flag is set.  The pair and theta may hold
    arrays over a grid of points; the result's fields are then arrays too.
    Python numbers are computed by `math`, anything else by numpy.
    """
    polar = abs(pair.r_e), abs(pair.r_m), pair.phi_e, pair.phi_m
    if type(theta_rad) is float and {type(pair.r_e), type(pair.r_m)} <= {float, complex}:
        if not 0.0 < theta_rad < math.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {theta_rad!r}")
        _, _, delta_h, delta_v, h_singular, v_singular = _closed_forms(*polar, theta_rad, math)
        return ShiftResult(delta_h, delta_v, lambda_um, h_singular, v_singular)
    import numpy as np
    if not np.all((0.0 < theta_rad) & (theta_rad < math.pi / 2)):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta_rad!r}")
    with np.errstate(invalid="ignore"):
        _, _, delta_h, delta_v, h_singular, v_singular = _closed_forms(*polar, theta_rad, np)
    if np.ndim(delta_h) == 0:
        delta_h, delta_v = float(delta_h), float(delta_v)
        h_singular, v_singular = bool(h_singular), bool(v_singular)
    return ShiftResult(delta_h, delta_v, lambda_um, h_singular, v_singular)


def _centroids(pair: ReflectionPair, kin: Kinematics, waist_um: float) -> tuple[float, float]:
    """sigma+ y-centroids (h, v input) in lambda of b(ky)*(a + c*ky), b the Gaussian of
    waist w0: -Im(a*conj(c)) / (|a|^2 + |c|^2/w0^2), NaN for a zero field, with (a, c) =
    (r_m, -i g) for h, (i r_e, g) for v and g = cot(theta)*(r_m + r_e)/k built once."""
    lambda_um, w2 = kin.lambda_um, waist_um * waist_um
    g = complex((1.0 / math.tan(kin.theta_rad)) * (pair.r_m + pair.r_e) / (2.0 * math.pi / lambda_um))
    a, c = complex(pair.r_m), -1j * g
    total = abs(a) ** 2 + abs(c) ** 2 / w2
    h = math.nan if total == 0.0 else -(a * c.conjugate()).imag / total / lambda_um
    a = 1j * complex(pair.r_e)
    total = abs(a) ** 2 + abs(g) ** 2 / w2
    return h, math.nan if total == 0.0 else -(a * g.conjugate()).imag / total / lambda_um


def circular_centroids(
    pair: ReflectionPair,
    kin: Kinematics,
    beam: BeamSpec,
    polarization: str,
) -> tuple[float, float]:
    """Transverse intensity centroids (sigma+, sigma-) in units of lambda.

    polarization is "h" or "v" and selects the incident linear state.  The
    centroid is the first moment along y of |E|^2 summed over x, E the real-space
    field of the reflected spectrum a(kx)*b(ky)*(alpha + beta*ky); both moments
    are Gaussian moments, quadratic in (alpha, beta); sigma- is -sigma+.
    """
    if polarization not in ("h", "v"):
        raise ValueError(f"polarization must be 'h' or 'v', got {polarization!r}")
    h, v = _centroids(pair, kin, beam.waist_um)
    plus = h if polarization == "h" else v
    return plus, -plus


def centroid_shift_oracle(
    stack: Stack, kin: Kinematics, beam: BeamSpec
) -> tuple[float | None, float | None]:
    """Sigma+ centroid shifts (h input, v input) of the Gaussian beam, in lambda units.

    Declines (returns None in the corresponding slot) wherever the ratio
    entering the matching closed form is singular.  The waist must be large
    against the wavelength for the first-order spin-orbit coupling to
    dominate; callers should also keep it large against the expected shift.
    """
    if beam.waist_um < 100.0 * kin.lambda_um:
        raise ResolutionError(
            f"waist_um={beam.waist_um!r} too small: need >= 100*lambda "
            f"({100.0 * kin.lambda_um:.6g} um) for the first-order expansion"
        )
    pair = reflection_pair(stack, kin)
    h, v = _centroids(pair, kin, beam.waist_um)
    return (None if abs(pair.r_m) < SINGULAR_REFLECTION else h,
            None if abs(pair.r_e) < SINGULAR_REFLECTION else v)
