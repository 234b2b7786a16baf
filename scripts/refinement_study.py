#!/usr/bin/env python3
"""Mode-truncation refinement study plus a time-step order study on the
same physical problem: uniform a priori bounds across resolutions and
first-order convergence in dt."""

import argparse

import numpy as np

from nlchns.config import SimConfig
from nlchns.harness import dt_order_study, galerkin_refinement
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec
from nlchns.potentials import PotentialSpec
from nlchns.solver import SimParams
from nlchns.spectral import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="32,64,128")
    ap.add_argument("--dts", default="1e-2,5e-3,2.5e-3")
    args = ap.parse_args()

    two_pi = 2.0 * np.pi
    refine_cfg = SimConfig(
        grid=Grid(32, two_pi),
        kernel=KernelSpec.gaussian(sigma=0.15 * two_pi, strength=6.0),
        potential=PotentialSpec.double_well(),
        sim=SimParams(nu=0.1, dt=2e-3, t_end=0.5),
        initial=InitialSpec(family="random", amplitude=0.1, mean=0.0, seed=3),
        velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
    )
    print(galerkin_refinement(refine_cfg, [int(s) for s in args.sizes.split(",")]).summary())
    print()

    order_cfg = SimConfig(
        grid=Grid(32, two_pi),
        kernel=KernelSpec.gaussian(sigma=0.15 * two_pi, strength=1.0),
        potential=PotentialSpec.quartic(1.0, 0.5),
        sim=SimParams(nu=0.05, dt=1e-2, t_end=0.5, stabilizer=1.0),
        initial=InitialSpec(family="random", amplitude=0.05, mean=0.0, seed=11, band=1),
        velocity=VelocitySpec(family="taylor_green", amplitude=0.25),
    )
    print(dt_order_study(order_cfg, [float(d) for d in args.dts.split(",")]).summary())


if __name__ == "__main__":
    main()
