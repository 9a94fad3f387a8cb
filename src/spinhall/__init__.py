"""Photonic spin Hall shifts of a probe beam reflected from a cavity whose
intracavity medium is a tunneling-coupled double quantum well.

The pieces: `qw_medium` turns well parameters into a complex susceptibility,
`strata` turns the resulting layer stack into TE/TM reflection coefficients,
`shifts` converts those into the spin-dependent transverse displacements of
the two circular beam components (with an independent angular-spectrum
oracle), and `sweep` + `cli` scan parameter grids and emit plot data.
"""

from .qw_medium import (
    DecayBundle,
    QwParams,
    SingularParameterError,
    Susceptibility,
    derived_rates,
    permittivity,
    steady_state_coherences,
    susceptibility,
    susceptibility_from_steady_state,
)
from .shifts import (
    BeamSpec,
    ResolutionError,
    ShiftResult,
    centroid_shift_oracle,
    circular_centroids,
    gaussian_spectrum,
    transverse_shifts,
)
from .strata import (
    DegenerateGeometryError,
    Kinematics,
    Layer,
    ReflectionPair,
    Stack,
    reflection_pair,
)
from .sweep import (
    ResonanceResult,
    Scenario,
    SweepRow,
    SweepSpec,
    build_stack,
    find_resonance,
    run_sweep,
)
from .presets import DEFAULT_LAMBDA_UM, PRESET_NAMES, preset

__version__ = "0.1.0"

__all__ = [
    "BeamSpec",
    "DEFAULT_LAMBDA_UM",
    "DecayBundle",
    "DegenerateGeometryError",
    "Kinematics",
    "Layer",
    "PRESET_NAMES",
    "QwParams",
    "ReflectionPair",
    "ResolutionError",
    "ResonanceResult",
    "Scenario",
    "ShiftResult",
    "SingularParameterError",
    "Stack",
    "Susceptibility",
    "SweepRow",
    "SweepSpec",
    "build_stack",
    "centroid_shift_oracle",
    "circular_centroids",
    "derived_rates",
    "find_resonance",
    "gaussian_spectrum",
    "permittivity",
    "preset",
    "reflection_pair",
    "run_sweep",
    "steady_state_coherences",
    "susceptibility",
    "susceptibility_from_steady_state",
    "transverse_shifts",
]
