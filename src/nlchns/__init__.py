"""Pseudospectral simulator and invariant auditor for a binary-fluid
diffuse-interface model with a convolution-kernel free energy, coupled to
incompressible flow on the periodic square."""

from .config import ConfigError, SimConfig, parse_config, parse_config_file
from .diagnostics import (
    DiagnosticsRecord,
    dissipative_envelope,
    energy_inequality_check,
    identity_residual,
)
from .hypotheses import HypothesisReport, audit
from .initialdata import InitialSpec, VelocitySpec
from .kernels import KernelOnGrid, KernelSpec, build_kernel, interaction_energy
from .potentials import PotentialSpec, stabilizer_bound
from .solver import (
    BlowUpError,
    ForcingSpec,
    SimParams,
    SimState,
    Stepper,
    mu_hat,
    run,
)
from .spectral import Grid, leray_project

__version__ = "0.1.0"
