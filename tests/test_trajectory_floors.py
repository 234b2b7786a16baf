"""Coercivity floors audited on every recorded state of a live run.

Two lower bounds tie the recorded energies to the fitted admissibility
constants: the quadratic floor

    2 * interaction + 2 * bulk >= alpha ||phi||^2 - 2 c2 |Omega|,
    alpha = 2 c1 - ||J||_L1,

and, for coercive potentials, the quartic floor
bulk >= c7 ||phi||_{L^{2+2q}}^{2+2q} - c8 |Omega|.

The runs are consumed frame by frame: ||phi||^2 is the record's, and the
L^{2+2q} norm is taken on the samples of the state beside each record.
"""

import numpy as np
import pytest

from conftest import TWO_PI
from nlchns.config import OutputConfig, SimConfig
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec
from nlchns.potentials import PotentialSpec
from nlchns.solver import SimParams, trajectory
from nlchns.spectral import Grid

DW = PotentialSpec.double_well()


def recorded(cfg):
    """The hypothesis report, and each record of ``cfg``'s trajectory with
    the samples of phi it was taken from."""
    report, _, frames = trajectory(cfg)
    return report, [(rec, state.samples[0]) for _, state, rec, _ in frames if rec is not None]


@pytest.fixture(scope="module")
def short_spinodal():
    cfg = SimConfig(
        grid=Grid(32, TWO_PI),
        kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
        potential=DW,
        sim=SimParams(nu=0.05, dt=2e-3, t_end=1.0),
        initial=InitialSpec(family="random", amplitude=0.05, mean=0.0, seed=23),
        velocity=VelocitySpec(family="taylor_green", amplitude=0.5),
        output=OutputConfig(record_every=5),
    )
    return cfg, *recorded(cfg)


def test_quadratic_coercivity_floor(short_spinodal):
    cfg, rep, frames = short_spinodal
    c = 2.0 * rep.c2 * cfg.grid.volume
    assert len(frames) == 101
    for rec, _ in frames:
        lhs = 2.0 * rec.interaction + 2.0 * rec.bulk
        assert lhs >= rep.alpha * rec.phi_sq - c - 1e-9 * (1 + abs(lhs))


def test_coercive_growth_floor(short_spinodal):
    cfg, rep, frames = short_spinodal
    assert rep.h6 == "pass"
    grid = cfg.grid
    w = grid.cell_volume
    power = 2.0 + 2.0 * rep.q
    for rec, vals in frames:
        lp = float(np.sum(np.abs(vals) ** power) * w)
        assert rec.bulk >= rep.c7 * lp - rep.c8 * grid.volume - 1e-9 * (1 + abs(rec.bulk))


def test_floors_hold_with_mean_offset():
    cfg = SimConfig(
        grid=Grid(32, TWO_PI),
        kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
        potential=DW,
        sim=SimParams(nu=0.05, dt=2e-3, t_end=0.3),
        initial=InitialSpec(family="random", amplitude=0.1, mean=0.3, seed=31),
        velocity=VelocitySpec(family="zero"),
        output=OutputConfig(record_every=10),
    )
    rep, frames = recorded(cfg)
    c = 2.0 * rep.c2 * Grid(32, TWO_PI).volume
    for rec, _ in frames:
        assert 2.0 * rec.interaction + 2.0 * rec.bulk >= rep.alpha * rec.phi_sq - c - 1e-9
