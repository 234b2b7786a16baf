from dataclasses import replace

import numpy as np
import pytest

from conftest import (
    CONFIGS, TWO_PI, constant_field, convolution_oracle, convolve, norm_l2, random_field, rel_err,
)
from nlchns import harness
from nlchns.config import ConfigError, OutputConfig, SimConfig, parse_config_file
from nlchns.harness import (
    StudyResult,
    dt_order_study,
    galerkin_refinement,
    taylor_green,
)
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec, build_kernel
from nlchns.potentials import PotentialSpec
from nlchns.solver import ForcingSpec, SimParams, run
from nlchns.spectral import Grid

DW = PotentialSpec.double_well()


class TestConvolutionOracle:
    def test_constant_gives_a(self):
        k = build_kernel(KernelSpec.gaussian(0.15 * TWO_PI, 2.0), Grid(16, TWO_PI))
        out = convolution_oracle(k, constant_field(k.grid, 1.0))
        np.testing.assert_allclose(out, k.a, atol=1e-12)

    def test_impulse_gives_shifted_samples(self):
        k = build_kernel(KernelSpec.gaussian(0.15 * TWO_PI, 2.0), Grid(16, TWO_PI))
        g = k.grid
        vals = np.zeros((g.n, g.n))
        vals[3, 5] = 1.0
        out = convolution_oracle(k, vals)
        expected = np.roll(k.samples, (3, 5), axis=(0, 1)) * g.cell_volume
        assert rel_err(out, expected) < 1e-12

    @pytest.mark.parametrize("n", [16, 32])
    def test_matches_spectral_convolve(self, n, rng):
        k = build_kernel(KernelSpec.gaussian(0.12 * TWO_PI, 3.0), Grid(n, TWO_PI))
        for _ in range(50):
            f = random_field(k.grid, rng)
            a = convolve(k, f)
            b = convolution_oracle(k, f)
            assert rel_err(a, b) < 1e-10

    def test_row_loop_path_on_64(self, rng):
        k = build_kernel(KernelSpec.gaussian(0.1 * TWO_PI, 1.0), Grid(64, TWO_PI))
        f = random_field(k.grid, rng, band=10)
        assert rel_err(convolve(k, f), convolution_oracle(k, f)) < 1e-10

    def test_rejects_large_grids(self, rng):
        k = build_kernel(KernelSpec.gaussian(0.05 * TWO_PI, 1.0), Grid(128, TWO_PI))
        with pytest.raises(ValueError):
            convolution_oracle(k, random_field(k.grid, rng))


def tg_cfg(n=32, dt=2e-3, t_end=0.25, nu=0.02):
    return SimConfig(
        grid=Grid(n, TWO_PI),
        kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
        potential=DW,
        sim=SimParams(nu=nu, dt=dt, t_end=t_end),
        initial=InitialSpec(family="uniform", c=0.0),
        velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
    )


class TestTaylorGreen:
    def test_error_small_and_first_order(self):
        study = taylor_green(tg_cfg())
        assert study.verdicts["error_below_1e-3"]
        assert study.verdicts["first_order"]
        assert study.verdicts["preconditions"]

    def test_flags_bad_preconditions(self):
        cfg = tg_cfg()
        bad = SimConfig(
            grid=cfg.grid,
            kernel=cfg.kernel,
            potential=cfg.potential,
            sim=cfg.sim,
            initial=InitialSpec(family="random", amplitude=0.1, mean=0.0, seed=1),
            velocity=cfg.velocity,
        )
        study = taylor_green(bad)
        assert not study.verdicts["preconditions"]


def refine_cfg():
    # the shipped refinement study on a coarser grid and a shorter run
    return parse_config_file(str(CONFIGS / "refinement.cfg"), ["grid.n = 16", "t_end = 0.2"])


class TestGalerkinRefinement:
    def test_constant_data_identical_levels(self):
        cfg = SimConfig(
            grid=Grid(16, TWO_PI),
            kernel=KernelSpec.gaussian(0.15 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=0.1, dt=2e-3, t_end=0.05),
            initial=InitialSpec(family="uniform", c=0.4),
            velocity=VelocitySpec(family="zero"),
        )
        study = galerkin_refinement(cfg, [16, 32, 64])
        assert study.verdicts["uniform_bounds"]
        diffs = study.metrics["interlevel_l2h_diff"]
        assert all(d < 1e-12 for d in diffs)

    def test_smooth_data_bounds_and_decreasing_diffs(self):
        study = galerkin_refinement(refine_cfg(), [16, 32, 64])
        assert study.verdicts["uniform_bounds"]
        assert study.verdicts["differences_decrease"]
        assert len(study.levels) == 3

    @pytest.mark.parametrize("change, errors", [
        ({"kernel": KernelSpec.spectral({(0, 0): 6.0, (10, 0): 0.3, (0, 10): 0.3})},
         ["kernel.modes: 0,10 is outside", "kernel.modes: 10,0 is outside"]),
        ({"forcing": ForcingSpec(family="single_mode", mode=(3, -10), scale=0.1)},
         ["forcing.mode_y: -10 is outside"]),
    ])
    def test_modes_checked_at_every_level_before_the_first_run(self, monkeypatch, change, errors):
        # the modes fit n = 64 and 32 but not 16; no level may run before that is known
        def no_run(*args, **kwargs):
            raise AssertionError("a level ran")

        monkeypatch.setattr(harness, "trajectory", no_run)
        cfg = replace(refine_cfg(), grid=Grid(64, TWO_PI), **change)
        with pytest.raises(ConfigError) as err:
            galerkin_refinement(cfg, [16, 32, 64])
        want = [f"refinement level 16: {e} -(n/2 - 1) .. n/2 - 1 (grid.n = 16)" for e in errors]
        assert err.value.errors == want

    def test_rejects_degenerate_sizes(self):
        for sizes in ([16], [16, 32], [16, 32, 32]):
            with pytest.raises(ValueError, match="three distinct sizes"):
                galerkin_refinement(refine_cfg(), sizes)


class TestDtOrderStudy:
    def test_steady_state_zero_errors(self):
        cfg = SimConfig(
            grid=Grid(16, TWO_PI),
            kernel=KernelSpec.gaussian(0.15 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=0.1, dt=1e-2, t_end=0.1),
            initial=InitialSpec(family="uniform", c=1.0),  # pure phase: fixed point
            velocity=VelocitySpec(family="zero"),
        )
        study = dt_order_study(cfg, [1e-2, 5e-3, 2.5e-3])
        assert all(e < 1e-12 for e in study.metrics["trajectory_diff_consecutive"])
        assert all(e < 1e-12 for e in study.metrics["max_identity_residual"])

    def test_state_differences_are_the_sample_norms(self):
        # the final states' L2 differences, read by Parseval from their
        # coefficients, are the sample sums ||dphi||^2 + ||du||^2
        cfg = replace(refine_cfg(), sim=SimParams(nu=0.1, dt=1e-2, t_end=0.04))
        dts = [1e-2, 5e-3, 2.5e-3]
        study = dt_order_study(cfg, dts)
        finals = [run(cfg.with_dt(dt)).state for dt in dts]
        for got, (a, b) in zip(study.metrics["trajectory_diff_consecutive"], zip(finals, finals[1:])):
            dphi, du = a.samples[0] - b.samples[0], a.samples[1:] - b.samples[1:]
            want = np.sqrt(norm_l2(a.grid, dphi) ** 2 + norm_l2(a.grid, du) ** 2)
            assert want > 0 and abs(got - want) < 1e-12 * want

    def test_smooth_run_first_order(self):
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.15 * TWO_PI, 1.0),
            potential=PotentialSpec.quartic(1.0, 0.5),
            sim=SimParams(nu=0.05, dt=1e-2, t_end=0.4, stabilizer=1.0),
            initial=InitialSpec(family="random", amplitude=0.05, mean=0.0, seed=11, band=1),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.25),
        )
        study = dt_order_study(cfg, [8e-3, 4e-3, 2e-3])
        assert study.verdicts["residual_order_in_band"], study.orders
        assert study.verdicts["trajectory_order_in_band"], study.orders

    def test_needs_three_levels(self):
        with pytest.raises(ValueError):
            dt_order_study(refine_cfg(), [1e-2, 5e-3])

    @pytest.mark.parametrize("dts, errors", [
        ([3e-2, 1.5e-2, 7.5e-3], [f"dt rung {dt}: t_end must be an integer multiple of dt"
                                  for dt in ("0.03", "0.015", "0.0075")]),
        ([1e-2, 5e-3, 0.0], ["dt rung 0.0: dt must be positive"]),
    ])
    def test_rungs_checked_before_the_first_run(self, monkeypatch, dts, errors):
        # t_end = 0.5 is no whole number of these steps: each rung would stop
        # at another time, and the trajectory order would compare them
        def no_run(*args, **kwargs):
            raise AssertionError("a rung ran")

        monkeypatch.setattr(harness, "run", no_run)
        with pytest.raises(ConfigError) as err:
            dt_order_study(parse_config_file(str(CONFIGS / "dt_order.cfg")), dts)
        assert err.value.errors == errors


class TestStudyOutput:
    def test_studies_write_nothing_into_the_configs_out_dir(self, tmp_path):
        out_dir = tmp_path / "run"
        cfg = tg_cfg(n=16, dt=1e-2, t_end=0.04)
        cfg = replace(cfg, output=OutputConfig(snapshot_every=1, out_dir=str(out_dir)))
        taylor_green(cfg)
        dt_order_study(cfg, [1e-2, 5e-3, 2.5e-3])
        assert not out_dir.exists()


class TestStudyResult:
    def test_summary_renders(self):
        s = StudyResult(kind="demo", levels=[1, 2], metrics={"m": [1.0, 2.0]},
                        orders={"o": [1.0]}, verdicts={"v": True}, notes=["n"])
        text = s.summary()
        assert "demo" in text and "PASS" in text and "note: n" in text
        assert s.passed()
