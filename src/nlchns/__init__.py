"""Pseudospectral simulator and invariant auditor for a binary-fluid
diffuse-interface model with a convolution-kernel free energy, coupled to
incompressible flow on the periodic square."""

from .config import ConfigError, SimConfig, parse_config, parse_config_file
from .diagnostics import (
    DiagnosticsRecord,
    EnergyParts,
    dissipative_envelope,
    energy_inequality_check,
    identity_residual,
    total_energy,
)
from .hypotheses import HypothesisReport, audit
from .initialdata import InitialSpec, VelocitySpec
from .kernels import KernelOnGrid, KernelSpec, build_kernel, convolve, interaction_energy
from .potentials import PotentialSpec, SplitPotential, convex_split, stabilizer_bound
from .solver import (
    BlowUpError,
    ForcingSpec,
    SimParams,
    SimState,
    chemical_potential,
    korteweg_force,
    run,
    step,
)
from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    divergence,
    gradient,
    inner,
    laplacian,
    leray_project,
    mean,
    norm_l2,
    seminorm_h1,
)

__version__ = "0.1.0"
