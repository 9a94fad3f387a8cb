"""Transfer-matrix reflection of a planar layer stack in vacuum.

Conventions: x points into the stack (normal direction), the tangential
wavevector k_z = k*sin(theta) is conserved, and both half-spaces are vacuum
so the ambient admittance is q0 = cos(theta) for TE and TM alike.  Each layer
is represented by the standard 2x2 characteristic matrix relating tangential
field components across it; layer matrices multiply in stack order.

The in-layer normal wavevector is kx = sqrt(eps*k^2 - k_z^2) on the principal
branch, with the signed zero of an exactly real-negative radicand normalized
away so evanescent waves get Im(kx) >= 0.  The layer matrix is an even
function of kx, so reflection coefficients do not depend on this branch
choice; the TM matrix uses the same propagation phase kx*d as TE and carries
the permittivity only in the admittance kx/(k*eps).

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
    "wave_vector_x",
    "layer_matrix_te",
    "layer_matrix_tm",
    "reflection_from_transfer_matrix",
    "reflection_te",
    "reflection_tm",
    "reflection_pair",
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


def wave_vector_x(epsilon: complex, kin: Kinematics) -> complex:
    """Normal wavevector component in a medium of the given permittivity."""
    radicand = complex(epsilon) * kin.k ** 2 - kin.k_z ** 2
    if radicand.imag == 0.0:
        # drop a signed zero so the branch lands on +i|.| for negative radicand
        radicand = complex(radicand.real, 0.0)
    return cmath.sqrt(radicand)


def layer_matrix_te(layer: Layer, kin: Kinematics) -> np.ndarray:
    """2x2 TE characteristic matrix of one layer (unit determinant)."""
    kx = wave_vector_x(layer.epsilon, kin)
    if kx == 0:
        # critical-propagation limit: sin(kx d)/q -> k*d
        return np.array([[1.0, 1j * kin.k * layer.thickness_um], [0.0, 1.0]], dtype=complex)
    q = kx / kin.k
    phase = kx * layer.thickness_um
    c, s = cmath.cos(phase), cmath.sin(phase)
    return np.array([[c, 1j * s / q], [1j * q * s, c]], dtype=complex)


def layer_matrix_tm(layer: Layer, kin: Kinematics) -> np.ndarray:
    """2x2 TM characteristic matrix; phase as in TE, admittance kx/(k*eps)."""
    kx = wave_vector_x(layer.epsilon, kin)
    eps = complex(layer.epsilon)
    if kx == 0:
        return np.array([[1.0, 1j * kin.k * eps * layer.thickness_um], [0.0, 1.0]], dtype=complex)
    p = kx / (kin.k * eps)
    phase = kx * layer.thickness_um
    c, s = cmath.cos(phase), cmath.sin(phase)
    return np.array([[c, 1j * s / p], [1j * p * s, c]], dtype=complex)


def reflection_from_transfer_matrix(matrix: np.ndarray, q0: float) -> complex:
    """Amplitude reflection coefficient of a stack with total matrix M,
    vacuum on both sides."""
    m11, m12 = matrix[0, 0], matrix[0, 1]
    m21, m22 = matrix[1, 0], matrix[1, 1]
    numerator = q0 * (m22 - m11) - (q0 * q0 * m12 - m21)
    denominator = q0 * (m22 + m11) - (q0 * q0 * m12 + m21)
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise DegenerateGeometryError(
            f"reflection denominator vanished (|den|={abs(denominator):.3e}, q0={q0})"
        )
    return complex(numerator / denominator)


def _total_matrix(stack: Stack, kin: Kinematics, layer_matrix) -> np.ndarray:
    total = np.eye(2, dtype=complex)
    for layer in stack.layers:
        total = total @ layer_matrix(layer, kin)
    return total


def reflection_te(stack: Stack, kin: Kinematics) -> complex:
    """Complex TE (s-polarization) reflection coefficient of the stack."""
    return reflection_from_transfer_matrix(_total_matrix(stack, kin, layer_matrix_te), kin.q0)


def reflection_tm(stack: Stack, kin: Kinematics) -> complex:
    """Complex TM (p-polarization) reflection coefficient of the stack."""
    return reflection_from_transfer_matrix(_total_matrix(stack, kin, layer_matrix_tm), kin.q0)


def _principal_phase(z: complex) -> float:
    """arg(z) mapped onto (-pi, pi]."""
    phi = math.atan2(z.imag, z.real)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class ReflectionPair:
    """TE and TM reflection coefficients at one (lambda, theta) point."""

    r_e: complex
    r_m: complex

    @property
    def phi_e(self) -> float:
        return _principal_phase(self.r_e)

    @property
    def phi_m(self) -> float:
        return _principal_phase(self.r_m)


def reflection_pair(stack: Stack, kin: Kinematics) -> ReflectionPair:
    """Both polarizations at once."""
    return ReflectionPair(r_e=reflection_te(stack, kin), r_m=reflection_tm(stack, kin))
