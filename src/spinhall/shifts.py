"""Spin-dependent transverse shifts of a reflected beam.

On reflection the two circular polarization components of a finite beam are
displaced to opposite sides of the plane of incidence.  The closed forms for
the sigma+ component are

    delta_h_plus = -(lambda/2pi) * (1 + |r_e|/|r_m| * cos(phi_e - phi_m)) * cot(theta)
    delta_v_plus = -(lambda/2pi) * (1 + |r_m|/|r_e| * cos(phi_m - phi_e)) * cot(theta)

for horizontally and vertically polarized input.  The sigma- values are their
exact negatives, so only sigma+ is computed.  Only the magnitude ratio and the
phase difference of the two reflection coefficients enter, so giant shifts
appear wherever one polarization is nearly extinguished (the ratio blows up).
`_row_data` takes a pair (r_e, r_m) to a row in one pass of `math`: magnitudes,
ratios, phases on (-pi, pi] and these closed forms; `run_sweep` repeats it in numpy.

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

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import ClassVar, NamedTuple

from .strata import Kinematics, Layer, reflection_pair

__all__ = [
    "BeamSpec",
    "ShiftResult",
    "ResolutionError",
    "transverse_shifts",
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


class ShiftResult(NamedTuple):
    """Sigma+ transverse shifts for h and v input, in units of the wavelength;
    the sigma- shift is the exact negative, and a shift times lambda_um * 1e-3 is
    in mm.  A singular flag marks a ratio taken against a noise-floor magnitude."""

    delta_h_plus: float
    delta_v_plus: float
    lambda_um: float
    h_singular: bool
    v_singular: bool


def ratio(a: float, b: float) -> float:
    """a/b of floats with IEEE semantics at b = 0 (inf, or nan for 0/0), as numpy divides."""
    if b:
        return a / b
    return math.nan if a == 0.0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)


def _principal_phase(z: complex) -> float:
    """arg(z) mapped onto (-pi, pi], computed by cmath."""
    phi = cmath.phase(z)
    return phi + 2.0 * math.pi if phi <= -math.pi else phi


def _row_data(r_e: complex, r_m: complex, theta: float) -> tuple:
    """(|r_e|, |r_m|, ratio_em, ratio_me, phi_e, phi_m, delta_h_plus, delta_v_plus,
    h_singular, v_singular), a `SweepRow`'s data, of one point's r_e and r_m in one pass."""
    re_abs, rm_abs, phi_e, phi_m = abs(r_e), abs(r_m), _principal_phase(r_e), _principal_phase(r_m)
    ratio_em, ratio_me = ratio(re_abs, rm_abs), ratio(rm_abs, re_abs)
    dphi = phi_e - phi_m
    scale = -(1.0 / math.tan(theta)) / (2.0 * math.pi)
    delta_h = scale * (1.0 + ratio_em * math.cos(dphi))
    delta_v = scale * (1.0 + ratio_me * math.cos(-dphi))
    return (re_abs, rm_abs, ratio_em, ratio_me, phi_e, phi_m, delta_h, delta_v,
            rm_abs < SINGULAR_REFLECTION, re_abs < SINGULAR_REFLECTION)


def transverse_shifts(pair: tuple[complex, complex], lambda_um: float, theta_rad: float) -> ShiftResult:
    """Closed-form sigma+ shifts for h- and v-polarized input.

    theta must lie in (0, pi/2); cot(theta) diverges at 0.  Near-vanishing
    |r_m| (|r_e|) makes the h (v) ratio blow up: the value is still computed
    and the corresponding singular flag is set.  The pair (r_e, r_m), as
    `reflection_pair` returns it, and theta are Python numbers, computed by `math`.
    """
    if not 0.0 < theta_rad < math.pi / 2:
        raise ValueError(f"theta must lie in (0, pi/2), got {theta_rad!r}")
    delta_h, delta_v, h_singular, v_singular = _row_data(*pair, theta_rad)[6:]
    return ShiftResult(delta_h, delta_v, lambda_um, h_singular, v_singular)


def _centroids(pair: tuple[complex, complex], kin: Kinematics, waist_um: float) -> tuple[float, float]:
    """sigma+ y-centroids (h, v input) in lambda of b(ky)*(a + c*ky), b the Gaussian of
    waist w0: -Im(a*conj(c)) / (|a|^2 + |c|^2/w0^2), NaN for a zero field, with (a, c) =
    (r_m, -i g) for h, (i r_e, g) for v and g = cot(theta)*(r_m + r_e)/k built once."""
    r_e, r_m = pair
    lambda_um, w2 = kin.lambda_um, waist_um * waist_um
    g = complex((1.0 / math.tan(kin.theta_rad)) * (r_m + r_e) / (2.0 * math.pi / lambda_um))
    a, c = complex(r_m), -1j * g
    total = abs(a) ** 2 + abs(c) ** 2 / w2
    h = math.nan if total == 0.0 else -(a * c.conjugate()).imag / total / lambda_um
    a = 1j * complex(r_e)
    total = abs(a) ** 2 + abs(g) ** 2 / w2
    return h, math.nan if total == 0.0 else -(a * g.conjugate()).imag / total / lambda_um


def centroid_shift_oracle(
    stack: Sequence[Layer], kin: Kinematics, beam: BeamSpec
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
    r_e, r_m = pair = reflection_pair(stack, kin)
    h, v = _centroids(pair, kin, beam.waist_um)
    return (None if abs(r_m) < SINGULAR_REFLECTION else h,
            None if abs(r_e) < SINGULAR_REFLECTION else v)
