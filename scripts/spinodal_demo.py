#!/usr/bin/env python3
"""Spinodal decomposition demo: run the coupled system from a small
mean-zero perturbation, then audit mass conservation and the per-step
energy decrease along the recorded trajectory."""

import argparse

import numpy as np

from nlchns.config import SimConfig
from nlchns.diagnostics import energy_inequality_check
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec
from nlchns.potentials import PotentialSpec
from nlchns.solver import SimParams, run
from nlchns.spectral import Grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=64)
    ap.add_argument("--t-end", type=float, default=4.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--seed", type=int, default=20260809)
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    two_pi = 2.0 * np.pi
    cfg = SimConfig(
        grid=Grid(args.n, two_pi),
        kernel=KernelSpec.gaussian(sigma=0.05 * two_pi, strength=6.0),
        potential=PotentialSpec.double_well(),
        sim=SimParams(nu=0.01, dt=args.dt, t_end=args.t_end),
        initial=InitialSpec(family="random", amplitude=1e-3, mean=0.0, seed=args.seed),
        velocity=VelocitySpec(family="zero"),
    )
    if args.out:
        from dataclasses import replace
        from nlchns.config import OutputConfig

        cfg = replace(cfg, output=OutputConfig(record_every=10, snapshot_every=500, out_dir=args.out))

    res = run(cfg)
    recs = res.records
    vol = two_pi**2
    drift = max(abs(r.mass - recs[0].mass) for r in recs) / vol
    e = [r.total_energy for r in recs]
    worst_step = max(b - a for a, b in zip(e, e[1:]))
    print(f"records: {len(recs)}, final t = {recs[-1].t:g}")
    print(f"phi range at end: [{recs[-1].phi_min:.4f}, {recs[-1].phi_max:.4f}]")
    print(f"energy: {e[0]:.6f} -> {e[-1]:.6f}")
    print(f"max per-record energy increase: {worst_step:.3e}")
    print(f"max mean drift: {drift:.3e}")
    v = energy_inequality_check(recs, cfg.sim.nu)
    print(f"cumulative inequality margin at worst sample: {v.worst_margin:.6g} "
          f"(first-order-biased; see README notes)")
    if res.invariant_failures:
        print("invariant failures:", *res.invariant_failures, sep="\n  ")


if __name__ == "__main__":
    main()
