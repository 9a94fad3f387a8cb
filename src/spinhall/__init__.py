"""Photonic spin Hall shifts of a probe beam reflected from a cavity whose
intracavity medium is a tunneling-coupled double quantum well.

The pieces: `qw_medium` turns well parameters into a complex susceptibility,
`strata` turns the resulting layer stack into TE/TM reflection coefficients,
`shifts` converts those into the spin-dependent transverse displacements of
the two circular beam components (with an independent angular-spectrum
oracle), and `sweep` + `cli` scan parameter grids and emit plot data.
"""

from types import ModuleType as _ModuleType

from .qw_medium import (
    QwParams,
    SingularParameterError,
    permittivity,
    susceptibility,
    susceptibility_from_steady_state,
)
from .shifts import BeamSpec, ResolutionError, centroid_shift_oracle, transverse_shifts
from .strata import DegenerateGeometryError, Kinematics, Layer, reflection_pair
from .sweep import Scenario, SweepRow, SweepSpec, build_stack, find_resonance, run_sweep
from .presets import PRESET_NAMES, preset

__version__ = "0.1.0"

# the public surface is the names imported above; the submodules are reached by name
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
