"""Nanopteron traveling waves in spring-dimer lattices.

Pseudospectral construction of micropteron/nanopteron traveling waves --
an exponentially localized core plus a high-frequency ripple of exponentially
small amplitude -- for diatomic spring lattices with alternating force laws,
together with the linear phonon theory, the long-wave profile equation, exact
periodic wavetrains, and direct lattice simulation for validation.
"""

from .errors import (
    DegenerateSolvability,
    DimerwaveError,
    InvalidParams,
    LinearSolveFailure,
    NearSingularMode,
    NoConvergence,
    RootNotBracketed,
    UnresolvedAmplitude,
    UnresolvedCorrector,
)
from .model import DimerParams
from .dispersion import Resonance, SymbolSet
from .spectral import (
    LineField,
    LineGrid,
    PeriodicField,
    conjugated_multiplier,
    l2_norm,
    sup_norm,
    weighted_norm,
)
from .kdv import core_profile, kdv_residual
from .periodic import PeriodicWave, solve_periodic
from .nanopteron import (
    NanopteronConfig,
    NanopteronState,
    SolveDiagnostics,
    SolverOperators,
    solve_nanopteron,
)
from .lattice import (
    LatticeConfig,
    LatticeTrajectory,
    StegotonReport,
    TravelingProfile,
    lattice_energy,
    shape_error,
    simulate,
    stegoton_diagnostics,
)

__version__ = "0.1.0"
