"""Transfer-matrix reflection of a planar layer stack in vacuum.

Conventions: x points into the stack (normal direction), the tangential
wavevector k_z = k*sin(theta) is conserved, and both half-spaces are vacuum
so the ambient admittance is q0 = cos(theta) for TE and TM alike.  Each layer
has the standard 2x2 characteristic matrix relating tangential field
components across it, with equal diagonal entries c = cos(kx d).  The stack
matrix M, the layer matrices in stack order, describes light entering through
the LAST layer (the epsilon3 wall of `sweep.build_stack`): it equals the Airy
recursion over the layers in reverse order, which matters for asymmetric
(loss | gain) walls.  r depends on M only through the row vector
(w1, w2) = (-q0, 1) M, as r = (w1 + q0 w2) / (q0 w2 - w1), so M is never
formed: each layer takes the row to (w1 c + w2 m21, w1 m12 + w2 c).

The in-layer normal wavevector is kx = sqrt(eps*k^2 - k_z^2) on the principal
branch, with the signed zero of an exactly real-negative radicand normalized
away so evanescent waves get Im(kx) >= 0.  The layer matrix is an even
function of kx, so reflection coefficients do not depend on this branch
choice.  TE has m12 = i k sin(kx d)/kx (i k d in the kx -> 0 limit) and
m21 = i kx sin(kx d)/k; the TM entries are eps and 1/eps times these.

`reflection_arrays` evaluates a grid of angles (and layer permittivities)
elementwise in one pass, with NaN at degenerate or overflowing points, and
returns the arrays (r_e, r_m).  `reflection_pair` returns the same pair at
one point as a tuple of Python complex, from `_point_pair`, the one point
evaluator, which the sweep's point path calls directly.  It computes in
Python complex arithmetic (numpy's per-call cost on 0-d values dwarfs the
arithmetic) with the same formulas, branch rule, kx -> 0 limit and
denominator floor, in a row loop of its own that computes each layer's
entries inline and takes a layer equal to the first (a symmetric cavity's
second wall) from the first's entries; it raises DegenerateGeometryError or
OverflowError where the grid gives NaN.  Layer
terms multiply by 1/z, not divide by z: numpy's reciprocal rounds as
CPython's 1/z does, their divisions do not.  Scalars are computed in Python,
arrays in numpy, which only the array functions import.

Lengths in micrometers, angles in radians.
"""

import cmath
import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "Layer",
    "Kinematics",
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
class Kinematics:
    """Probe wavelength (um) and incidence angle (rad)."""

    lambda_um: float
    theta_rad: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lambda_um) and self.lambda_um > 0.0):
            raise ValueError(f"lambda_um must be positive, got {self.lambda_um!r}")
        if not 0.0 < self.theta_rad < math.pi / 2:
            raise ValueError(f"theta must lie in (0, pi/2), got {self.theta_rad!r}")


def _normal_k(epsilon, k: float, k_z):
    # + 0j turns the signed zero -0.0 of a real-negative radicand into +0.0,
    # so the branch lands on +i|.|; squares are products, correctly rounded as
    # the point kernel's are, and overflow to inf (under the caller's errstate)
    import numpy as np
    return np.sqrt(epsilon * (np.float64(k) * k) - k_z * k_z + 0j)


def _layer_entries(epsilon, thickness_um: float, k: float, k_z):
    """TE and TM characteristic-matrix entries (m11, m12, m21, m22) of one
    layer; epsilon and k_z may be arrays that broadcast together."""
    import numpy as np
    epsilon = np.asarray(epsilon, dtype=complex)
    kx = _normal_k(epsilon, k, k_z)
    phase = kx * thickness_um
    c, s = np.cos(phase), np.sin(phase)
    s_over_kx = s * np.reciprocal(kx)
    if (kx == 0).any():
        # critical-propagation limit kx -> 0: sin(kx d)/kx -> d
        s_over_kx = np.where(kx == 0, thickness_um, s_over_kx)
    m12, m21 = 1j * k * s_over_kx, 1j / k * kx * s
    return (c, m12, m21, c), (c, epsilon * m12, np.reciprocal(epsilon) * m21, c)


def _stack_fractions(layers, k: float, k_z, q0):
    """TE and TM (numerator, denominator) of r for (epsilon, thickness_um)
    layers over a grid: the rows (te1, te2) and (tm1, tm2), both from
    (-q0, 1), times the layer matrices in stack order, sharing c = cos(kx d)."""
    te1 = tm1 = -q0
    te2 = tm2 = 1.0
    for epsilon, thickness_um in layers:
        (c, e12, e21, _), (_, m12, m21, _) = _layer_entries(epsilon, thickness_um, k, k_z)
        te1, te2 = te1 * c + te2 * e21, te1 * e12 + te2 * c
        tm1, tm2 = tm1 * c + tm2 * m21, tm1 * m12 + tm2 * c
    return (te1 + q0 * te2, q0 * te2 - te1), (tm1 + q0 * tm2, q0 * tm2 - tm1)


def _point_fractions(layers, k: float, k_z, q0):
    """`_stack_fractions` and `_layer_entries` at one point over `Layer`s in Python
    complex, operation for operation (cmath raises OverflowError where the grid gives
    inf); k_z and q0 may be complex.  A repeat of the first layer reuses its entries,
    and no layer (vacuum) gives numerators 0."""
    first = wall = None
    k2, kz2, ik, i_over_k = k * k, k_z * k_z, 1j * k, 1j / k
    te1, te2, tm1, tm2 = -q0, 1.0, -q0, 1.0
    for layer in layers:
        d = layer.thickness_um
        if wall and layer.epsilon == first.epsilon and d == first.thickness_um:
            c, e12, e21, m12, m21 = wall
        else:
            epsilon = complex(layer.epsilon)
            kx = cmath.sqrt(epsilon * k2 - kz2 + 0j)
            phase = kx * d
            c, s = cmath.cos(phase), cmath.sin(phase)
            e12, e21 = ik * (s * (1 / kx) if kx else d), i_over_k * kx * s
            m12, m21 = epsilon * e12, 1 / epsilon * e21
            if not wall:
                first, wall = layer, (c, e12, e21, m12, m21)
        te1, te2 = te1 * c + te2 * e21, te1 * e12 + te2 * c
        tm1, tm2 = tm1 * c + tm2 * m21, tm1 * m12 + tm2 * c
    return (te1 + q0 * te2, q0 * te2 - te1), (tm1 + q0 * tm2, q0 * tm2 - tm1)


def reflection_arrays(layers, lambda_um: float, theta) -> "tuple[np.ndarray, np.ndarray]":
    """TE and TM reflection coefficients (r_e, r_m) over an array of angles.

    layers is a sequence of (epsilon, thickness_um) pairs in stack order; an
    epsilon may be an array that broadcasts against theta (a grid of
    middle-layer permittivities, say).  Inputs are not validated.  Points
    whose denominator magnitude falls under DENOMINATOR_FLOOR, or whose
    matrix entries overflow, are NaN.
    """
    import numpy as np
    k = 2.0 * math.pi / lambda_um
    theta = np.asarray(theta, dtype=float)
    with np.errstate(all="ignore"):
        fractions = _stack_fractions(layers, k, k * np.sin(theta), np.cos(theta))
        r_e, r_m = (np.where(abs(d) < DENOMINATOR_FLOOR, np.nan, n / d) for n, d in fractions)
    return r_e, r_m


def _checked(numerator: complex, denominator: complex, q0: float) -> complex:
    if not (cmath.isfinite(numerator) and cmath.isfinite(denominator)):
        # the propagation overflowed: |Im(kx) d| summed over the layers
        # beyond ~700 (cmath.cos raises on its own for one such layer)
        raise OverflowError("math range error")
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise DegenerateGeometryError(
            f"reflection denominator vanished (|den|={abs(denominator):.3e}, q0={q0})"
        )
    return complex(numerator / denominator)


def _point_pair(layers, k: float, k_z: float, q0: float) -> tuple[complex, complex]:
    """(r_e, r_m) of `Layer`s at one point from k = 2pi/lambda and the angle's k_z and q0."""
    try:
        (te_n, te_d), (tm_n, tm_d) = _point_fractions(layers, k, k_z, q0)
    except ValueError:  # cmath.cos and sin raise it for a phase whose real part is infinite
        raise OverflowError("math range error") from None
    return _checked(te_n, te_d, q0), _checked(tm_n, tm_d, q0)


def reflection_pair(stack: Sequence[Layer], kin: Kinematics) -> tuple[complex, complex]:
    """TE and TM reflection coefficients (r_e, r_m) at one point, as Python complex,
    of the `Layer`s of stack in order; no layers is vacuum, (0j, 0j).

    Where `reflection_arrays` gives NaN this raises: OverflowError for
    overflowing matrix entries, DegenerateGeometryError for a denominator
    under DENOMINATOR_FLOOR.
    """
    theta, k = kin.theta_rad, 2.0 * math.pi / kin.lambda_um
    return _point_pair(stack, k, k * math.sin(theta), math.cos(theta))
