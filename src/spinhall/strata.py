"""Transfer-matrix reflection of a planar layer stack in vacuum.

Conventions: x points into the stack (normal direction), the tangential
wavevector k_z = k*sin(theta) is conserved, and both half-spaces are vacuum
so the ambient admittance is q0 = cos(theta) for TE and TM alike.  Each layer
is represented by the standard 2x2 characteristic matrix relating tangential
field components across it; layer matrices multiply in stack order.  The
product in stack order describes light entering through the LAST layer (the
epsilon3 wall of `sweep.build_stack`): it equals the Airy recursion over the
layers in reverse order, which matters for asymmetric (loss | gain) walls.

The in-layer normal wavevector is kx = sqrt(eps*k^2 - k_z^2) on the principal
branch, with the signed zero of an exactly real-negative radicand normalized
away so evanescent waves get Im(kx) >= 0.  The layer matrix is an even
function of kx, so reflection coefficients do not depend on this branch
choice; the TM matrix uses the same propagation phase kx*d as TE and carries
the permittivity only in the admittance kx/(k*eps).

`reflection_arrays` evaluates a grid of angles (and layer permittivities)
elementwise in one pass, with NaN at degenerate or overflowing points.
`reflection_pair` evaluates one point in Python complex arithmetic (numpy's
per-call overhead on 0-d values is several times the arithmetic), sharing
the matrix product and the reflection fraction with the grid and keeping its
branch rule, kx -> 0 limit and denominator floor; it raises
DegenerateGeometryError or OverflowError where the grid gives NaN.

Lengths in micrometers, angles in radians.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Layer",
    "Stack",
    "Kinematics",
    "ReflectionPair",
    "DegenerateGeometryError",
    "reflection_pair",
    "reflection_arrays",
]

# |denominator| below this is treated as an unphysical degenerate geometry.
DENOMINATOR_FLOOR = 1e-30


class DegenerateGeometryError(ValueError):
    """The reflection-coefficient denominator vanished."""


@dataclass(frozen=True)
class Layer:
    """One homogeneous slab: complex permittivity and thickness in um."""

    epsilon: complex
    thickness_um: float

    def __post_init__(self) -> None:
        eps = complex(self.epsilon)
        if eps == 0:
            raise ValueError("layer epsilon must be nonzero")
        if not (math.isfinite(eps.real) and math.isfinite(eps.imag)):
            raise ValueError(f"layer epsilon must be finite, got {eps!r}")
        if not (math.isfinite(self.thickness_um) and self.thickness_um >= 0.0):
            raise ValueError(f"layer thickness_um must be >= 0, got {self.thickness_um!r}")


@dataclass(frozen=True)
class Stack:
    """Ordered layers embedded in vacuum on both sides."""

    layers: tuple[Layer, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "layers", tuple(self.layers))
        if len(self.layers) < 1:
            raise ValueError("a stack needs at least one layer")


@dataclass(frozen=True)
class Kinematics:
    """Probe wavelength (um) and incidence angle (rad), with the derived
    free-space wavenumber k, conserved tangential k_z and ambient q0."""

    lambda_um: float
    theta_rad: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_um) and self.lambda_um > 0.0):
            raise ValueError(f"lambda_um must be positive, got {self.lambda_um!r}")
        if not 0.0 < self.theta_rad < math.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta_rad!r}")

    @property
    def k(self) -> float:
        return 2.0 * math.pi / self.lambda_um

    @property
    def k_z(self) -> float:
        return self.k * math.sin(self.theta_rad)

    @property
    def q0(self) -> float:
        return math.cos(self.theta_rad)


def _normal_k(epsilon, k: float, k_z):
    radicand = epsilon * k ** 2 - k_z ** 2
    # drop a signed zero so the branch lands on +i|.| for negative radicand
    return np.sqrt(np.where(radicand.imag == 0.0, radicand.real + 0j, radicand))


def _layer_entries(epsilon, thickness_um: float, k: float, k_z):
    """TE and TM characteristic-matrix entries (m11, m12, m21, m22) of one
    layer; epsilon and k_z may be arrays that broadcast together."""
    epsilon = np.asarray(epsilon, dtype=complex)
    kx = _normal_k(epsilon, k, k_z)
    c, s = np.cos(kx * thickness_um), np.sin(kx * thickness_um)
    entries = []
    for admittance, eps_factor in ((kx / k, 1.0), (kx / (k * epsilon), epsilon)):
        # critical-propagation limit kx -> 0: sin(kx d)/admittance -> k*eps*d
        m12 = np.where(kx == 0, 1j * k * eps_factor * thickness_um, 1j * s / admittance)
        entries.append((c, m12, 1j * admittance * s, c))
    return entries


def _point_normal_k(epsilon: complex, k: float, k_z: float) -> complex:
    """`_normal_k` at one point, with the same signed-zero rule."""
    radicand = epsilon * k ** 2 - k_z ** 2
    return cmath.sqrt(complex(radicand.real, 0.0) if radicand.imag == 0.0 else radicand)


def _point_entries(epsilon: complex, thickness_um: float, k: float, k_z: float):
    """`_layer_entries` at one point, in Python complex arithmetic; cmath
    raises OverflowError where the batch kernel would overflow to inf."""
    kx = _point_normal_k(epsilon, k, k_z)
    c, s = cmath.cos(kx * thickness_um), cmath.sin(kx * thickness_um)
    entries = []
    for admittance, eps_factor in ((kx / k, 1.0), (kx / (k * epsilon), epsilon)):
        m12 = 1j * k * eps_factor * thickness_um if kx == 0 else 1j * s / admittance
        entries.append((c, m12, 1j * admittance * s, c))
    return entries


def _fraction(m, q0):
    """Numerator and denominator of the reflection coefficient of a stack
    with total matrix entries m = (m11, m12, m21, m22), vacuum on both sides."""
    m11, m12, m21, m22 = m
    return q0 * (m22 - m11) - (q0 * q0 * m12 - m21), q0 * (m22 + m11) - (q0 * q0 * m12 + m21)


def _product(a, b):
    """Entries (m11, m12, m21, m22) of the 2x2 matrix product a @ b."""
    a11, a12, a21, a22 = a
    b11, b12, b21, b22 = b
    return (a11 * b11 + a12 * b21, a11 * b12 + a12 * b22,
            a21 * b11 + a22 * b21, a21 * b12 + a22 * b22)


def _stack_fractions(layers, k: float, k_z, q0, entries=_layer_entries):
    """TE and TM (numerator, denominator) of (epsilon, thickness_um) layers,
    the layer matrices from `entries` multiplied in stack order."""
    te = tm = None
    for epsilon, thickness_um in layers:
        layer_te, layer_tm = entries(epsilon, thickness_um, k, k_z)
        te = layer_te if te is None else _product(te, layer_te)
        tm = layer_tm if tm is None else _product(tm, layer_tm)
    return _fraction(te, q0), _fraction(tm, q0)


def reflection_arrays(layers, lambda_um: float, theta) -> tuple[np.ndarray, np.ndarray]:
    """TE and TM reflection coefficients (r_e, r_m) over an array of angles.

    layers is a sequence of (epsilon, thickness_um) pairs in stack order; an
    epsilon may be an array that broadcasts against theta (a grid of
    middle-layer permittivities, say).  Inputs are not validated.  Points
    whose denominator magnitude falls under DENOMINATOR_FLOOR, or whose
    matrix entries overflow, are NaN.
    """
    k = 2.0 * math.pi / lambda_um
    theta = np.asarray(theta, dtype=float)
    with np.errstate(all="ignore"):
        fractions = _stack_fractions(layers, k, k * np.sin(theta), np.cos(theta))
        r_e, r_m = (np.where(abs(d) < DENOMINATOR_FLOOR, np.nan, n / d) for n, d in fractions)
    return r_e, r_m


def _checked(numerator: complex, denominator: complex, q0: float) -> complex:
    if not (cmath.isfinite(numerator) and cmath.isfinite(denominator)):
        # the matrix product overflowed: |Im(kx) d| summed over the layers
        # beyond ~700 (cmath.cos raises on its own for one such layer)
        raise OverflowError("math range error")
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise DegenerateGeometryError(
            f"reflection denominator vanished (|den|={abs(denominator):.3e}, q0={q0})"
        )
    return complex(numerator / denominator)


def _principal_phase(z):
    """arg(z) mapped onto (-pi, pi]; a float for a scalar, else an array."""
    phi = np.angle(z)
    phi = np.where(phi <= -math.pi, phi + 2.0 * math.pi, phi)
    return float(phi) if phi.ndim == 0 else phi


@dataclass(frozen=True)
class ReflectionPair:
    """TE and TM reflection coefficients at one (lambda, theta) point, or
    arrays of them over a grid of points."""

    r_e: complex
    r_m: complex

    @property
    def phi_e(self) -> float:
        return _principal_phase(self.r_e)

    @property
    def phi_m(self) -> float:
        return _principal_phase(self.r_m)


def reflection_pair(stack: Stack, kin: Kinematics) -> ReflectionPair:
    """TE and TM reflection coefficients at one point, as Python complex.

    Where `reflection_arrays` gives NaN this raises: OverflowError for
    overflowing matrix entries, DegenerateGeometryError for a denominator
    under DENOMINATOR_FLOOR.
    """
    layers = [(complex(layer.epsilon), layer.thickness_um) for layer in stack.layers]
    q0 = kin.q0
    fractions = _stack_fractions(layers, kin.k, kin.k_z, q0, _point_entries)
    return ReflectionPair(*(_checked(n, d, q0) for n, d in fractions))
