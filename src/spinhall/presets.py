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

from __future__ import annotations

from .qw_medium import QwParams
from .sweep import Scenario, SweepSpec

__all__ = ["DEFAULT_LAMBDA_UM", "PRESET_NAMES", "preset"]

DEFAULT_LAMBDA_UM = 1.85

# theta grid shared by the angle sweeps (the plots' visible domain)
_THETA_GRID = dict(variable="theta", lo=0.1, hi=1.5, samples=2001)


def _base_qw(**overrides) -> QwParams:
    params = dict(
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
    params.update(overrides)
    return QwParams(**params)


def _scenario(qw: QwParams, epsilon1: complex = 2.22 + 0j, epsilon3: complex = 2.22 + 0j) -> Scenario:
    return Scenario(
        qw=qw,
        epsilon1=epsilon1,
        epsilon3=epsilon3,
        d1_um=0.2,
        d2_um=5.0,
        lambda_um=DEFAULT_LAMBDA_UM,
    )


# raised splitting and dephasing (warmer sample) shared by fig4/fig6
def _raised_qw() -> QwParams:
    return _base_qw(delta=8.0, gamma_bd=1.36, gamma_cd=1.6)


def _build(name: str) -> tuple[Scenario, SweepSpec]:
    if name == "fig2":
        return _scenario(_base_qw()), SweepSpec(**_THETA_GRID)
    if name == "fig3":
        return _scenario(_base_qw(omega_c=6.0)), SweepSpec(**_THETA_GRID)
    if name == "fig4":
        return _scenario(_raised_qw()), SweepSpec(**_THETA_GRID)
    if name == "fig5a":
        return _scenario(_base_qw()), SweepSpec(
            variable="omega_c", lo=0.0, hi=6.0, samples=601, fixed={"theta": 0.979}
        )
    if name == "fig5b":
        return _scenario(_base_qw()), SweepSpec(
            variable="omega_c", lo=0.0, hi=6.0, samples=601, fixed={"theta": 0.98}
        )
    if name == "fig5c":
        return _scenario(_base_qw(omega_c=2.0)), SweepSpec(
            variable="delta", lo=0.0, hi=8.0, samples=601, fixed={"theta": 0.979}
        )
    if name == "fig5d":
        # the shift grows with the splitting only until the resonance sweeps
        # past (near delta = 3.6 at this wavelength); the grid stops before
        return _scenario(_base_qw(omega_c=2.0)), SweepSpec(
            variable="delta", lo=0.0, hi=3.5, samples=601, fixed={"theta": 0.98}
        )
    if name == "fig6a":
        return _scenario(_raised_qw(), epsilon1=2.22 + 0.04j, epsilon3=2.22 + 0.04j), SweepSpec(
            **_THETA_GRID
        )
    if name == "fig6b":
        return _scenario(_raised_qw(), epsilon1=2.22 + 0.04j, epsilon3=2.22 - 0.04j), SweepSpec(
            **_THETA_GRID
        )
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(PRESET_NAMES)}")


PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5a", "fig5b", "fig5c", "fig5d", "fig6a", "fig6b")


def preset(name: str) -> tuple[Scenario, SweepSpec]:
    """Fresh (Scenario, SweepSpec) for a named preset."""
    return _build(name)
