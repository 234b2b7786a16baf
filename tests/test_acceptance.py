"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Run with ``pytest tests/test_acceptance.py -v -s``.  The expensive spinodal
trajectory (64^2, dt = 1e-3, 10^4 steps) is shared by the mass and energy
criteria through a module-scoped fixture.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    CONFIGS, TWO_PI, convolution_oracle, convolve, divergence, gradient, inner, leray, norm_l2, random_field,
    rel_err,
)
from nlchns.cli import main as cli_main
from nlchns.config import ChecksConfig, OutputConfig, SimConfig, parse_config_file
from nlchns.diagnostics import dissipative_envelope, energy_inequality_check
from nlchns.harness import dt_order_study, galerkin_refinement, taylor_green
from nlchns.hypotheses import audit
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec, build_kernel, interaction_energy
from nlchns.potentials import PotentialSpec
from nlchns.solver import SimParams, run
from nlchns.spectral import Grid, power

DW = PotentialSpec.double_well()
GAUSS6 = KernelSpec.gaussian(sigma=0.05 * TWO_PI, strength=6.0)


def criterion(num: int, ok: bool, desc: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {desc}{tail}")
    assert ok, f"criterion {num}: {desc}{tail}"


@pytest.fixture(scope="module")
def spinodal_run():
    """64^2 spinodal trajectory, dt = 1e-3, 10^4 steps, h = 0, S = auto."""
    cfg = SimConfig(
        grid=Grid(64, TWO_PI),
        kernel=GAUSS6,
        potential=DW,
        sim=SimParams(nu=0.01, dt=1e-3, t_end=10.0),
        initial=InitialSpec(family="random", amplitude=1e-3, mean=0.0, seed=20260809),
        velocity=VelocitySpec(family="zero"),
        output=OutputConfig(record_every=1),
    )
    return cfg, run(cfg)


def test_criterion_01_convolution_oracle_equivalence(rng):
    grid = Grid(32, TWO_PI)
    kernel = build_kernel(GAUSS6, grid)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        f = random_field(grid, rng)
        spectral = convolve(kernel, f)
        direct = convolution_oracle(kernel, f)
        scale = float(np.max(np.abs(direct)))
        worst = max(worst, float(np.max(np.abs(spectral - direct))) / scale)
    elapsed = time.perf_counter() - start
    criterion(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        "spectral convolution matches the literal periodic double sum",
        f"worst rel err {worst:.2e}, {elapsed:.2f}s for 100 fields",
    )


def test_criterion_02_mass_conservation(spinodal_run):
    _, res = spinodal_run
    vol = TWO_PI**2
    mean0 = res.records[0].mass / vol
    drift = max(abs(r.mass / vol - mean0) for r in res.records)
    criterion(
        2,
        drift <= 1e-12,
        "mean order parameter conserved over 10^4 steps",
        f"max |mean drift| {drift:.2e}",
    )


def test_criterion_03a_discrete_energy_decay(spinodal_run):
    _, res = spinodal_run
    e = [r.total_energy for r in res.records]
    slack = 1e-10 * (1.0 + abs(e[0]))
    worst = max(b - a for a, b in zip(e, e[1:]))
    criterion(
        3,
        worst <= slack,
        "total energy non-increasing at every step (h = 0, S = auto)",
        f"worst per-step increase {worst:.2e} vs slack {slack:.2e}",
    )


def test_criterion_03b_energy_inequality_verdict(spinodal_run):
    cfg, res = spinodal_run
    verdict = energy_inequality_check(res.records, nu=cfg.sim.nu)
    criterion(
        3,
        verdict.passes,
        "cumulative energy inequality verdict PASS on the recorded series",
        f"worst margin {verdict.worst_margin:.4g} vs slack "
        f"{-1e-8 * verdict.scale:.2e} at t = {verdict.worst_t:.3g}",
    )


def test_criterion_04_identity_residual_first_order():
    study = dt_order_study(parse_config_file(str(CONFIGS / "dt_order.cfg")), [1e-2, 5e-3, 2.5e-3])
    orders = study.orders["residual"]
    ok = all(0.8 <= o <= 1.2 for o in orders)
    criterion(
        4,
        ok,
        "max |energy-identity residual| converges at first order in dt",
        "orders " + ", ".join(f"{o:.3f}" for o in orders),
    )


def test_criterion_05_taylor_green_benchmark():
    cfg = SimConfig(
        grid=Grid(64, TWO_PI),
        kernel=GAUSS6,
        potential=DW,
        sim=SimParams(nu=0.01, dt=1e-3, t_end=1.0),
        initial=InitialSpec(family="uniform", c=0.0),
        velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
    )
    study = taylor_green(cfg)
    err = study.metrics["relative_energy_error"][0]
    ratio = study.metrics["halving_ratio"][0]
    criterion(
        5,
        err <= 1e-3 and 1.7 <= ratio <= 2.3,
        "vortex kinetic energy tracks exp(-4 nu t), error halves with dt",
        f"rel err {err:.2e}, halving ratio {ratio:.3f}",
    )


def test_criterion_06_interaction_energy_identity(rng):
    grid = Grid(16, TWO_PI)
    kernel = build_kernel(KernelSpec.gaussian(0.15 * TWO_PI, 2.0), grid)
    n, w = grid.n, grid.cell_volume
    J = kernel.samples
    idx = np.arange(n)
    worst = 0.0
    for _ in range(20):
        v = random_field(grid, rng)
        acc = 0.0
        for i in range(n):
            for j in range(n):
                acc += np.sum(J[(i - idx)[:, None] % n, (j - idx)[None, :] % n] * (v[i, j] - v) ** 2)
        direct_half = 0.5 * acc * w * w  # (1/2) double integral
        identity = kernel.a * norm_l2(grid, v) ** 2 - inner(grid, v, convolve(kernel, v))
        worst = max(worst, abs(direct_half - identity) / abs(direct_half))
        got = interaction_energy(kernel, power(np.fft.rfft2(v)))
        assert abs(got - 0.5 * identity) < 1e-12 * (1 + abs(identity))
    criterion(
        6,
        worst <= 1e-9,
        "(1/2) iint J (phi(x)-phi(y))^2 equals a||phi||^2 - (phi, J*phi)",
        f"worst rel err {worst:.2e} over 20 fields",
    )


def test_criterion_07_gradient_control_inequality():
    cfg = SimConfig(
        grid=Grid(64, TWO_PI),
        kernel=KernelSpec.spectral({(0, 0): 6.0, (1, 0): 0.3, (0, 1): 0.3}),
        potential=DW,
        sim=SimParams(nu=0.1, dt=1e-3, t_end=2.0),
        initial=InitialSpec(family="random", amplitude=0.3, mean=0.0, seed=42),
        velocity=VelocitySpec(family="zero"),
        checks=ChecksConfig(grad_control=True),
    )
    res = run(cfg)
    rep = res.report
    condition = rep.c_poincare < rep.c0 / (2.0 * rep.norm_gradj_l1)
    scale = 1.0 + max(r.grad_mu_sq for r in res.records)
    worst = min(r.grad_control_margin for r in res.records)
    criterion(
        7,
        condition and rep.condition_altass and worst >= -1e-8 * scale,
        "||grad mu||^2 >= beta ||grad phi||^2 at every recorded step",
        f"beta {rep.beta:.4g}, worst margin {worst:.3e}",
    )


def test_criterion_08_dissipative_envelope():
    details = []
    ok = True
    for m, seed in ((0.0, 5), (0.3, 6)):
        cfg = SimConfig(
            grid=Grid(64, TWO_PI),
            kernel=GAUSS6,
            potential=DW,
            sim=SimParams(nu=0.01, dt=1e-3, t_end=2.0),
            initial=InitialSpec(family="random", amplitude=0.05, mean=m, seed=seed),
            velocity=VelocitySpec(family="zero"),
            output=OutputConfig(record_every=2),
        )
        res = run(cfg)
        grid = Grid(64, TWO_PI)
        kernel = build_kernel(GAUSS6, grid)
        env = dissipative_envelope(
            res.records, kernel, DW, grid, cfg.sim.nu, m, cfg.forcing.dual_norm_sq_integral(grid)
        )
        lam1 = (2 * np.pi / grid.l) ** 2
        k_expected = 1.0 / (2.0 * max(1.0, 1.0 / (2.0 * lam1 * cfg.sim.nu)))
        ok = ok and env.applicable and env.passes and abs(env.k - k_expected) < 1e-15
        details.append(f"m={m}: k={env.k:.4g} K={env.big_k:.4g} worst={env.worst_margin:.4g}")
    criterion(8, ok, "E(t) <= E(0) exp(-kt) + F(m)|Omega| + K for m = 0 and m = 0.3",
              "; ".join(details))


def test_criterion_09_auditor_ground_truth():
    grid = Grid(64, TWO_PI)
    kernel = build_kernel(GAUSS6, grid)  # a* = 6
    rep = audit(kernel, DW)
    ok = (
        abs(rep.m0 - 4.0) <= 1e-10
        and rep.p == 4.0 / 3.0
        and abs(rep.c0 - 2.0) <= 1e-8
    )
    criterion(
        9,
        ok,
        "double-well report: m0 = 4, p = 4/3, c0 = 2 at a* = 6",
        f"m0 {rep.m0!r}, p {rep.p!r}, c0 {rep.c0!r}",
    )


def test_criterion_10_galerkin_refinement():
    cfg = SimConfig(
        grid=Grid(32, TWO_PI),
        kernel=KernelSpec.gaussian(0.15 * TWO_PI, 6.0),
        potential=DW,
        sim=SimParams(nu=0.1, dt=2e-3, t_end=0.5),
        initial=InitialSpec(family="random", amplitude=0.1, mean=0.0, seed=3),
        velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
    )
    study = galerkin_refinement(cfg, [32, 64, 128])
    diffs = study.metrics["interlevel_l2h_diff"]
    criterion(
        10,
        study.verdicts["uniform_bounds"] and study.verdicts["differences_decrease"],
        "uniform bound table within factor 2; inter-level differences decrease",
        f"diffs {diffs[0]:.3e} -> {diffs[1]:.3e}",
    )


def test_criterion_11_leray_projector(rng):
    grid = Grid(32, TWO_PI)
    ok = True
    worst_div, worst_idem, worst_annih = 0.0, 0.0, 0.0
    for _ in range(100):
        v = np.stack([random_field(grid, rng), random_field(grid, rng)])
        pv = leray(grid, v)
        umax = float(np.max(np.abs(pv))) + 1e-300
        worst_div = max(
            worst_div,
            float(np.max(np.abs(divergence(grid, pv)))) / (umax * 2 * np.pi * grid.n / grid.l),
        )
        ppv = leray(grid, pv)
        worst_idem = max(worst_idem, float(np.max(np.abs(ppv - pv))) / umax)
        gf = gradient(grid, random_field(grid, rng))
        pg = leray(grid, gf)
        gmax = float(np.max(np.abs(gf))) + 1e-300
        worst_annih = max(worst_annih, float(np.max(np.abs(pg))) / gmax)
    ok = worst_div <= 1e-12 and worst_idem <= 1e-13 and worst_annih <= 1e-12
    criterion(
        11,
        ok,
        "Leray projector: divergence, idempotence, gradient annihilation",
        f"div {worst_div:.1e}, idem {worst_idem:.1e}, annih {worst_annih:.1e}",
    )


def test_criterion_12_determinism(tmp_path):
    cfg_text = """
grid.n = 32
grid.l = 6.283185307179586
kernel = gaussian
kernel.sigma = 0.5026548245743669
kernel.strength = 6.0
potential = double_well
nu = 0.1
dt = 2e-3
t_end = 0.05
initial = random
initial.amplitude = 0.05
initial.mean = 0.0
initial.seed = 99
initial.u0 = taylor_green
"""
    outs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        cfg = tmp_path / f"{tag}.cfg"
        cfg.write_text(cfg_text + f"output.out_dir = {out_dir}\n")
        assert cli_main(["run", str(cfg)]) == 0
        outs.append((out_dir / "diagnostics.csv").read_bytes())
    criterion(
        12,
        outs[0] == outs[1],
        "repeated run with a fixed seed produces byte-identical diagnostics",
        f"{len(outs[0])} bytes",
    )
