#!/usr/bin/env python3
"""Decaying-vortex benchmark across a range of time steps: relative
kinetic-energy error against exp(-4 nu t) and the observed order."""

import argparse

import numpy as np

from nlchns.config import SimConfig
from nlchns.harness import taylor_green
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec
from nlchns.potentials import PotentialSpec
from nlchns.solver import SimParams
from nlchns.spectral import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--nu", type=float, default=0.01)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--t-end", type=float, default=1.0)
    args = ap.parse_args()

    two_pi = 2.0 * np.pi
    cfg = SimConfig(
        grid=Grid(args.n, two_pi),
        kernel=KernelSpec.gaussian(sigma=0.05 * two_pi, strength=6.0),
        potential=PotentialSpec.double_well(),
        sim=SimParams(nu=args.nu, dt=args.dt, t_end=args.t_end),
        initial=InitialSpec(family="uniform", c=0.0),
        velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
    )
    print(taylor_green(cfg).summary())


if __name__ == "__main__":
    main()
