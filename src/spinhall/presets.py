"""Named scenario presets for the published cavity configurations.

The common medium: tunneling-split doublet at delta = 2 meV with opposite
probe dipole ratios (g = -1, f = 1), walls of permittivity 2.22 and 0.2 um
thickness around a 5 um intracavity layer, control field off.  Variants raise
the control field, the splitting and dephasing, or add loss/gain to the
walls; the fig5* presets sweep the control field or the splitting at a fixed
angle instead of sweeping the angle.

The probe wavelength defaults to 1.85 um, back-derived from the quoted
wavelength-to-millimeter conversions of the headline shifts; it is an
explicit knob, not a measured constant.
"""

from .qw_medium import QwParams
from .sweep import Scenario, SweepSpec

__all__ = ["DEFAULT_LAMBDA_UM", "PRESET_NAMES", "preset"]

DEFAULT_LAMBDA_UM = 1.85

# theta grid shared by the angle sweeps (the plots' visible domain)
_THETA_GRID = dict(variable="theta", lo=0.1, hi=1.5, samples=2001)

_BASE_QW = dict(
    gamma_bl=1.36,
    gamma_bd=0.68,
    gamma_cl=1.36,
    gamma_cd=0.8,
    gamma_dl=0.8,
    gamma_dd=0.5,
    beta=0.0184,
    g=-1.0,
    f=1.0,
    delta=2.0,
    omega_c=0.0,
)
# raised splitting and dephasing (warmer sample) shared by fig4/fig6
_RAISED = dict(delta=8.0, gamma_bd=1.36, gamma_cd=1.6)
_LOSSLESS = (2.22 + 0j, 2.22 + 0j)


def _at_angle(variable: str, hi: float, theta: float) -> dict:
    """A 601-point sweep of omega_c or delta from 0 at a fixed angle."""
    return dict(variable=variable, lo=0.0, hi=hi, samples=601, fixed={"theta": theta})


# name -> (qw overrides, (epsilon1, epsilon3), sweep)
_PRESETS = {
    "fig2": ({}, _LOSSLESS, _THETA_GRID),
    "fig3": (dict(omega_c=6.0), _LOSSLESS, _THETA_GRID),
    "fig4": (_RAISED, _LOSSLESS, _THETA_GRID),
    "fig5a": ({}, _LOSSLESS, _at_angle("omega_c", 6.0, 0.979)),
    "fig5b": ({}, _LOSSLESS, _at_angle("omega_c", 6.0, 0.98)),
    "fig5c": (dict(omega_c=2.0), _LOSSLESS, _at_angle("delta", 8.0, 0.979)),
    # the shift grows with the splitting only until the resonance sweeps
    # past (near delta = 3.6 at this wavelength); the grid stops before
    "fig5d": (dict(omega_c=2.0), _LOSSLESS, _at_angle("delta", 3.5, 0.98)),
    "fig6a": (_RAISED, (2.22 + 0.04j, 2.22 + 0.04j), _THETA_GRID),
    "fig6b": (_RAISED, (2.22 + 0.04j, 2.22 - 0.04j), _THETA_GRID),
}

PRESET_NAMES = tuple(_PRESETS)


def preset(name: str) -> tuple[Scenario, SweepSpec]:
    """Fresh (Scenario, SweepSpec) for a named preset."""
    if name not in PRESET_NAMES:
        raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")
    overrides, (epsilon1, epsilon3), sweep = _PRESETS[name]
    scenario = Scenario(
        qw=QwParams(**{**_BASE_QW, **overrides}),
        epsilon1=epsilon1,
        epsilon3=epsilon3,
        d1_um=0.2,
        d2_um=5.0,
        lambda_um=DEFAULT_LAMBDA_UM,
    )
    # the table's fixed dicts are shared; each caller gets its own copy
    return scenario, SweepSpec(**{**sweep, "fixed": dict(sweep.get("fixed", {}))})
