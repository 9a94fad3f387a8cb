"""Spin-dependent transverse shifts of a reflected beam.

On reflection the two circular polarization components of a finite beam are
displaced to opposite sides of the plane of incidence.  The closed forms for
the sigma+ component are

    delta_h_plus = -(lambda/2pi) * (1 + |r_e|/|r_m| * cos(phi_e - phi_m)) * cot(theta)
    delta_v_plus = -(lambda/2pi) * (1 + |r_m|/|r_e| * cos(phi_m - phi_e)) * cot(theta)

for horizontally and vertically polarized input, with the sigma- values their
exact negatives.  Only the magnitude ratio and the phase difference of the two
reflection coefficients enter, so giant shifts appear wherever one
polarization is nearly extinguished (the ratio blows up).

`centroid_shift_oracle` checks these formulas independently: it builds a
Gaussian angular spectrum, applies the first-order reflection matrix with the
cross-polarization coupling k_y*cot(theta)*(r_m+r_e)/k0 (coefficients held at
their central-angle values), splits the result into circular components and
measures the intensity centroid on the real-space grid.  With the
coefficients held fixed the in-plane axis k_x is separable and integrates out
exactly (Parseval along x).  Each circular component's spectrum is then
b(k_y)*(a + c*k_y), so its DFT is a*B0 + c*B1 with B0, B1 the DFTs of b and
k_y*b, and both centroid sums are quadratic forms in (a, c) over six per-beam
sums.  Those come from one batched FFT per BeamSpec value, memoized; a point
then costs one `reflection_pair` (~0.01 ms in Python complex arithmetic) plus
scalar arithmetic: a warm fig2 point ~0.02-0.03 ms, against ~0.3 ms for one
1D FFT per circular component.  Space-domain
fields use the plane-wave phase convention exp(i(w*t - k.r)), i.e.
spectrum-to-space is a forward DFT; this is what ties the sigma+ label to the
minus sign above.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .strata import Kinematics, ReflectionPair, Stack, reflection_pair

__all__ = [
    "BeamSpec",
    "ShiftResult",
    "ResolutionError",
    "transverse_shifts",
    "gaussian_spectrum",
    "circular_centroids",
    "centroid_shift_oracle",
    "SINGULAR_REFLECTION",
    "ratio",
]

# |r| below this sits at the double-precision noise floor; ratios against it
# are reported but flagged rather than clipped.
SINGULAR_REFLECTION = 1e-14

# minimum spectral half-extent in units of 1/waist and minimum samples per
# axis for the angular-spectrum grid
_MIN_EXTENT_WAISTS = 6.0
_MIN_SAMPLES = 256


class ResolutionError(ValueError):
    """The angular-spectrum grid cannot resolve the beam."""


@dataclass(frozen=True)
class BeamSpec:
    """Gaussian beam waist plus the transverse wavevector grid used by the
    centroid oracle.  grid_half_extent is the maximum |k| on each axis in
    1/um (defaults to 8/waist), grid_samples the number of points per axis."""

    waist_um: float
    grid_half_extent: float | None = None
    grid_samples: int = 512

    def __post_init__(self) -> None:
        if not (math.isfinite(self.waist_um) and self.waist_um > 0.0):
            raise ValueError(f"waist_um must be positive, got {self.waist_um!r}")
        if isinstance(self.grid_samples, bool) or not isinstance(self.grid_samples, Integral):
            raise ValueError(f"grid_samples must be an integer, got {self.grid_samples!r}")
        if self.grid_samples < _MIN_SAMPLES:
            raise ResolutionError(
                f"grid_samples must be >= {_MIN_SAMPLES}, got {self.grid_samples}"
            )
        if self.grid_half_extent is not None:
            if not (math.isfinite(self.grid_half_extent) and self.grid_half_extent > 0.0):
                raise ValueError(
                    f"grid_half_extent must be positive and finite, got {self.grid_half_extent!r}"
                )
            if self.grid_half_extent < _MIN_EXTENT_WAISTS / self.waist_um:
                raise ResolutionError(
                    f"grid_half_extent must be >= {_MIN_EXTENT_WAISTS}/waist "
                    f"= {_MIN_EXTENT_WAISTS / self.waist_um:.6g} 1/um, "
                    f"got {self.grid_half_extent!r}"
                )

    @property
    def half_extent(self) -> float:
        if self.grid_half_extent is not None:
            return self.grid_half_extent
        return 8.0 / self.waist_um


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
    """a/b with IEEE semantics at b = 0 (inf, or nan for 0/0); floats or arrays."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.divide(a, b)


def transverse_shifts(pair: ReflectionPair, lambda_um: float, theta_rad: float) -> ShiftResult:
    """Closed-form sigma+ shifts for h- and v-polarized input.

    theta must lie in (0, pi/2); cot(theta) diverges at 0.  Near-vanishing
    |r_m| (|r_e|) makes the h (v) ratio blow up: the value is still computed
    and the corresponding singular flag is set.  The pair and theta may hold
    arrays over a grid of points; the result's fields are then arrays too.
    """
    if not np.all((0.0 < theta_rad) & (theta_rad < math.pi / 2)):
        raise ValueError(f"theta must lie in (0, pi/2), got {theta_rad!r}")
    re_abs, rm_abs = np.abs(pair.r_e), np.abs(pair.r_m)
    h_singular = rm_abs < SINGULAR_REFLECTION
    v_singular = re_abs < SINGULAR_REFLECTION
    cot = 1.0 / np.tan(theta_rad)
    dphi = pair.phi_e - pair.phi_m
    scale = -cot / (2.0 * math.pi)
    with np.errstate(invalid="ignore"):
        delta_h = scale * (1.0 + ratio(re_abs, rm_abs) * np.cos(dphi))
        delta_v = scale * (1.0 + ratio(rm_abs, re_abs) * np.cos(-dphi))
    if np.ndim(delta_h) == 0:
        delta_h, delta_v = float(delta_h), float(delta_v)
        h_singular, v_singular = bool(h_singular), bool(v_singular)
    return ShiftResult(
        delta_h_plus=delta_h,
        delta_v_plus=delta_v,
        lambda_um=lambda_um,
        h_singular=h_singular,
        v_singular=v_singular,
    )


def gaussian_spectrum(beam: BeamSpec, kx: np.ndarray, ky: np.ndarray) -> np.ndarray:
    """Angular spectrum (w0/sqrt(2pi)) * exp(-w0^2 (kx^2+ky^2)/4); its squared
    magnitude integrates to 1 independent of the waist."""
    w0 = beam.waist_um
    return (w0 / math.sqrt(2.0 * math.pi)) * np.exp(-(w0 * w0) * (kx * kx + ky * ky) / 4.0)


@functools.lru_cache(maxsize=64)
def _beam_moments(beam: BeamSpec) -> tuple[tuple[complex, ...], tuple[complex, ...]]:
    """(sum |B0|^2, sum |B1|^2, sum B0*conj(B1)), plain and weighted by y (um),
    B0 and B1 the forward DFTs of the envelope b(ky) and of ky*b(ky).  They
    depend only on the beam, so every point with an equal BeamSpec shares them."""
    n = beam.grid_samples
    dk = 2.0 * beam.half_extent / n
    ky = -beam.half_extent + dk * np.arange(n)
    envelope = gaussian_spectrum(beam, 0.0, ky)
    b0, b1 = np.fft.fft(np.stack((envelope, ky * envelope)))  # exp(-i k.r) convention
    products = np.stack((np.abs(b0) ** 2, np.abs(b1) ** 2, b0 * b1.conj()))
    y = np.fft.fftfreq(n, d=dk / (2.0 * math.pi))
    return tuple(map(complex, products.sum(axis=1))), tuple(map(complex, products @ y))


def _sigma_plus(pair: ReflectionPair, kin: Kinematics, polarization: str) -> tuple[complex, complex]:
    """(a, c) of the sigma+ spectrum b(ky)*(a + c*ky), up to a common factor;
    sigma- is (a, -c)."""
    g = complex((1.0 / math.tan(kin.theta_rad)) * (pair.r_m + pair.r_e) / kin.k)
    if polarization == "h":
        return complex(pair.r_m), -1j * g
    return 1j * complex(pair.r_e), g


def _centroid(a: complex, c: complex, beam: BeamSpec, lambda_um: float) -> float:
    """y-centroid, in lambda, of |DFT[b*(a + c*ky)]|^2 = |a*B0 + c*B1|^2."""
    weights = (abs(a) ** 2, abs(c) ** 2, 2.0 * a * c.conjugate())
    total, moment = (sum(w * s for w, s in zip(weights, sums)).real for sums in _beam_moments(beam))
    return math.nan if total == 0.0 else moment / total / lambda_um


def circular_centroids(
    pair: ReflectionPair,
    kin: Kinematics,
    beam: BeamSpec,
    polarization: str,
) -> tuple[float, float]:
    """Transverse intensity centroids (sigma+, sigma-) in units of lambda.

    polarization is "h" or "v" and selects the incident linear state.  The
    centroid is the first moment along y of |E|^2 summed over x, E the forward
    2D DFT of the reflected spectrum a(kx)*b(ky)*(alpha + beta*ky).  k_x
    integrates out (Parseval along x) and, the DFT along ky being linear, both
    moments are quadratic forms in (alpha, beta) over per-beam sums.
    """
    if polarization not in ("h", "v"):
        raise ValueError(f"polarization must be 'h' or 'v', got {polarization!r}")
    a, c = _sigma_plus(pair, kin, polarization)
    return _centroid(a, c, beam, kin.lambda_um), _centroid(a, -c, beam, kin.lambda_um)


def centroid_shift_oracle(
    stack: Stack, kin: Kinematics, beam: BeamSpec
) -> tuple[float | None, float | None]:
    """Numerical sigma+ centroid shifts (h input, v input) in lambda units.

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
    h_singular = abs(pair.r_m) < SINGULAR_REFLECTION
    v_singular = abs(pair.r_e) < SINGULAR_REFLECTION
    delta_h = None if h_singular else _centroid(*_sigma_plus(pair, kin, "h"), beam, kin.lambda_um)
    delta_v = None if v_singular else _centroid(*_sigma_plus(pair, kin, "v"), beam, kin.lambda_um)
    return delta_h, delta_v
