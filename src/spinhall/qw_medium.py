"""Linear optical response of a four-subband asymmetric double quantum well.

The medium couples a weak probe to two tunneling-split intermediate subbands
(at +delta and -delta around the doublet center) and an upper subband driven
by a control field.  Cross-coupling of the two intermediate coherences through
decay into a shared continuum produces Fano-type interference whose strength
is alpha = sqrt(gamma_bl * gamma_cl).

Two routes to the susceptibility are provided: the closed-form expression
(`susceptibility`) and an independent steady-state solve of the coherence
equations of motion (`steady_state_coherences`, whose keyword arguments are
the probe and control detunings).  At zero detuning the two agree to machine
precision; the second exists so the first can be checked against it.

Units: all rates, detunings, splittings and Rabi frequencies in meV.  The
prefactor beta (density times dipole moment squared over eps0*hbar) is carried
in meV as well, which makes chi dimensionless.
"""

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "QwParams",
    "DecayBundle",
    "Susceptibility",
    "SingularParameterError",
    "derived_rates",
    "susceptibility",
    "susceptibility_grid",
    "steady_state_coherences",
    "susceptibility_from_steady_state",
    "permittivity",
]

# |denominator| below this (in meV^2 units) counts as a degenerate parameter set.
DENOMINATOR_FLOOR = 1e-30

_RATE_FIELDS = ("gamma_bl", "gamma_bd", "gamma_cl", "gamma_cd", "gamma_dl", "gamma_dd")
# fields that must be finite and non-negative; the rest need only be finite
_NON_NEGATIVE = _RATE_FIELDS + ("beta", "omega_c")


class SingularParameterError(ValueError):
    """The susceptibility denominator vanished for the given parameters."""


@dataclass(frozen=True)
class QwParams:
    """Quantum-well medium parameters.

    gamma_*l are population decay rates (tunneling into the continuum),
    gamma_*d are dephasing rates, for the two intermediate subbands (b, c)
    and the upper subband (d).  g and f are the dipole-moment ratios of the
    probe and control transitions, delta is half the tunneling splitting of
    the intermediate doublet, omega_c the control Rabi frequency.
    """

    gamma_bl: float
    gamma_bd: float
    gamma_cl: float
    gamma_cd: float
    gamma_dl: float
    gamma_dd: float
    beta: float
    g: float
    f: float
    delta: float
    omega_c: float

    def __post_init__(self) -> None:
        for field in fields(self):
            _check_field(field.name, getattr(self, field.name))


def _check_field(name: str, value: float) -> None:
    """QwParams' rule for one field: finite, and >= 0 for a rate, beta and omega_c."""
    if not math.isfinite(value) or (name in _NON_NEGATIVE and value < 0.0):
        kind = "a finite non-negative rate" if name in _NON_NEGATIVE else "finite"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


class DecayBundle(NamedTuple):
    """Total decay rates of the three excited subbands plus the interference
    measure: alpha is the continuum cross-coupling and p = alpha /
    sqrt(gamma2 * gamma3) in [0, 1] grades the Fano interference from absent
    (0) to perfect (1)."""

    gamma2: float
    gamma3: float
    gamma4: float
    alpha: float
    p: float


class Susceptibility(NamedTuple):
    """Complex dimensionless susceptibility of the intracavity medium."""

    chi: complex


def derived_rates(params: QwParams) -> DecayBundle:
    """Combine population decay and dephasing into total rates and the
    interference parameters alpha and p."""
    gamma2 = params.gamma_bl + params.gamma_bd
    gamma3 = params.gamma_cl + params.gamma_cd
    gamma4 = params.gamma_dl + params.gamma_dd
    alpha = math.sqrt(params.gamma_bl * params.gamma_cl)
    norm = math.sqrt(gamma2 * gamma3)
    # alpha = 0 whenever norm = 0, so p = 0 is the correct degenerate limit
    p = alpha / norm if norm > 0.0 else 0.0
    return DecayBundle(gamma2=gamma2, gamma3=gamma3, gamma4=gamma4, alpha=alpha, p=p)


def _closed_form(params: QwParams, d: DecayBundle, omega_c, delta):
    """Numerator and denominator of the closed-form chi; omega_c and delta
    may be arrays (a grid over one of them), the other fields come from
    params and d, its `derived_rates`."""
    g, f = params.g, params.f
    gamma2, gamma3, gamma4, alpha, _ = d  # one unpacking, not 13 field loads
    a1 = -1j * delta + 1j * g * g * delta + 2.0 * g * alpha + gamma2 + g * g * gamma3
    a2 = delta * delta - alpha * alpha - 1j * delta * gamma3 + gamma2 * (1j * delta + gamma3)
    a3 = -1j * delta + 1j * f * f * delta + 2.0 * f * alpha + gamma2 + f * f * gamma3
    oc2 = omega_c * omega_c
    numerator = 1j * params.beta * (a1 * gamma4 + (f - g) * (f - g) * oc2)
    return numerator, a2 * gamma4 + a3 * oc2


def susceptibility(params: QwParams) -> Susceptibility:
    """Closed-form susceptibility at resonant probe and control.

    chi = i*beta*(A1*gamma4 + (f-g)^2*omega_c^2) / (A2*gamma4 + A3*omega_c^2)
    with A1, A2, A3 built from the decay bundle, the dipole ratios and the
    half splitting delta.  Raises SingularParameterError when the denominator
    magnitude falls below DENOMINATOR_FLOOR.
    """
    return Susceptibility(chi=_chi(params, derived_rates(params), params.omega_c, params.delta))


def _chi(params: QwParams, d: DecayBundle, omega_c: float, delta: float) -> complex:
    """The closed-form chi at one omega_c and delta, the other fields from
    params and d, its `derived_rates`; SingularParameterError names the
    omega_c and delta it was given."""
    numerator, denominator = _closed_form(params, d, omega_c, delta)
    if abs(denominator) < DENOMINATOR_FLOOR:
        raise SingularParameterError(
            f"susceptibility denominator vanished (|den|={abs(denominator):.3e}) "
            f"for delta={delta}, omega_c={omega_c}, rates summing to "
            f"gamma2={d.gamma2}, gamma3={d.gamma3}, gamma4={d.gamma4}"
        )
    return numerator / denominator


def susceptibility_grid(params: QwParams, variable: str, values: "np.ndarray") -> "np.ndarray":
    """Closed-form chi over a grid of omega_c or delta values, the other
    parameters taken from params.  Points where `susceptibility` would raise
    (a vanishing denominator, or a value QwParams rejects) are NaN."""
    import numpy as np
    if variable not in ("omega_c", "delta"):
        raise ValueError(f"variable must be omega_c or delta, got {variable!r}")
    values = np.asarray(values, dtype=float)
    grid = {"omega_c": params.omega_c, "delta": params.delta, variable: values}
    with np.errstate(all="ignore"):
        numerator, denominator = _closed_form(params, derived_rates(params), grid["omega_c"], grid["delta"])
        chi = numerator / denominator
    rejected = ~np.isfinite(values) | (np.abs(denominator) < DENOMINATOR_FLOOR)
    if variable in _NON_NEGATIVE:
        rejected |= values < 0.0
    return np.where(rejected, np.nan, chi)


def steady_state_coherences(
    params: QwParams, *, delta_p: float = 0.0, delta_c: float = 0.0
) -> tuple[complex, complex, complex]:
    """Weak-probe steady state of the coherence equations of motion, per
    unit probe Rabi frequency (the equations are linear in it).

    Sets the ground-state amplitude to 1 and solves the remaining 3x3 complex
    linear system for (B2, B3, B4) by Cramer's rule.  The B2 row carries
    +delta and the B3 row -delta: the two intermediate subbands sit
    symmetrically about the doublet center.  Unlike the closed form, it takes
    probe and control detunings.
    """
    if not (math.isfinite(delta_p) and math.isfinite(delta_c)):
        raise ValueError(f"detunings must be finite, got delta_p={delta_p!r}, delta_c={delta_c!r}")
    d = derived_rates(params)
    oc, dp, dc = params.omega_c, delta_p, delta_c
    # the symmetric matrix [[m11, alpha, fc], [alpha, m22, c], [fc, c, m33]]
    m11 = 1j * (1j * d.gamma2 - dp + params.delta)
    m22 = 1j * (1j * d.gamma3 - dp - params.delta)
    m33 = 1j * (1j * d.gamma4 - dp + dc)
    alpha, fc, c = d.alpha, 1j * params.f * oc, 1j * oc
    # its cofactors, and the right-hand side (-i g, -i, 0)
    c11, c12, c22 = m22 * m33 - c * c, c * fc - alpha * m33, m11 * m33 - fc * fc
    c13, c23 = alpha * c - m22 * fc, alpha * fc - m11 * c
    det = m11 * c11 + alpha * c12 + fc * c13
    if det == 0:
        raise SingularParameterError(
            f"steady-state coefficient matrix is singular for delta={params.delta}, "
            f"omega_c={oc}, delta_p={dp}, delta_c={dc}"
        )
    r1 = -1j * params.g
    return (r1 * c11 - 1j * c12) / det, (r1 * c12 - 1j * c22) / det, (r1 * c13 - 1j * c23) / det


def susceptibility_from_steady_state(params: QwParams) -> complex:
    """Reconstruct chi from the steady-state coherences.

    chi = beta * (g*B2 + B3) per unit probe, at zero probe and control
    detuning, where it reproduces the closed form; it is the independent
    check the closed form is tested against.
    """
    b2, b3, _ = steady_state_coherences(params)
    return params.beta * (params.g * b2 + b3)


def permittivity(chi: Susceptibility | complex) -> complex:
    """Effective permittivity of the intracavity medium, 1 + chi."""
    value = chi.chi if isinstance(chi, Susceptibility) else complex(chi)
    return 1.0 + value
