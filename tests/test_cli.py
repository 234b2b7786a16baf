import numpy as np
import pytest

from conftest import CONFIGS
from nlchns import hypotheses
from nlchns.cli import main

GOOD = """
grid.n = 32
grid.l = 6.283185307179586
kernel = gaussian
kernel.sigma = 0.5026548245743669
kernel.strength = 6.0
potential = double_well
nu = 0.1
dt = 2e-3
t_end = 0.05
"""

RANDOM_RUN = GOOD + """
initial = random
initial.amplitude = 0.05
initial.mean = 0.0
initial.seed = 77
initial.u0 = taylor_green
initial.u0_amplitude = 0.5
"""


def write(tmp_path, text, name="run.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


class TestRun:
    def test_zero_data_exits_clean(self, tmp_path, capsys):
        rc = main(["run", write(tmp_path, GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steps completed: 25" in out
        assert "total energy" in out

    def test_writes_diagnostics_and_snapshots(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = RANDOM_RUN + f"output.out_dir = {out_dir}\noutput.snapshot_every = 10\n"
        rc = main(["run", write(tmp_path, cfg)])
        assert rc == 0
        assert (out_dir / "diagnostics.csv").exists()
        assert (out_dir / "phi_00000000.f64").exists()
        assert (out_dir / "phi_00000020.f64").exists()
        assert (out_dir / "ux_00000010.f64").exists()

    def test_gate_refusal_and_its_key(self, tmp_path, capsys):
        # the refusal names the one switch, which --set reaches
        weak = GOOD.replace("kernel.strength = 6.0", "kernel.strength = 1.0")
        rc = main(["run", write(tmp_path, weak)])
        assert rc == 3
        assert "refused" in capsys.readouterr().out
        rc = main(["run", write(tmp_path, weak), "--set", "checks.enforce_hypotheses=false"])
        assert rc == 0

    def test_deterministic_csv_bytes(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_a}\n", "a.cfg")
        cfg_b = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_b}\n", "b.cfg")
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b]) == 0
        assert (out_a / "diagnostics.csv").read_bytes() == (out_b / "diagnostics.csv").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        cfg_a = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_a}\n", "a.cfg")
        cfg_b = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_b}\n", "b.cfg")
        assert main(["run", cfg_a]) == 0
        assert main(["run", cfg_b, "--set", "initial.seed=123"]) == 0
        assert (out_a / "diagnostics.csv").read_bytes() != (out_b / "diagnostics.csv").read_bytes()

    def test_seed_on_non_random_data_rejected(self, tmp_path, capsys):
        # GOOD's initial data is the default uniform family, which reads no seed
        rc = main(["run", write(tmp_path, GOOD), "--set", "initial.seed=5"])
        out = capsys.readouterr().out
        assert rc == 2
        assert "key 'initial.seed' is not read by this configuration" in out
        assert "steps completed" not in out

    def test_failed_gradient_control_exits_1(self, tmp_path, capsys, monkeypatch):
        # a beta the data cannot meet, with the condition on
        monkeypatch.setattr(hypotheses, "compute_beta", lambda report: (1e6, True))
        path = write(tmp_path, RANDOM_RUN + "checks.grad_control = true\n")
        assert main(["run", path]) == 1
        assert "invariant violation: gradient control margin" in capsys.readouterr().out
        assert main(["run", write(tmp_path, RANDOM_RUN, "off.cfg")]) == 0  # check off

    def test_snapshots_need_an_out_dir(self, capsys):
        args = ["run", str(CONFIGS / "gradient_control.cfg"), "--set", "output.snapshot_every=5",
                "--set", "t_end=0.02", "--set", "grid.n=16"]
        assert main(args) == 2
        assert "output.snapshot_every needs output.out_dir to write snapshots to" in capsys.readouterr().out

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = main(["run", write(tmp_path, GOOD.replace("dt = 2e-3", "dt = 0"))])
        assert rc == 2
        assert "dt must be positive" in capsys.readouterr().out


class TestCheck:
    def test_passing_report(self, tmp_path, capsys):
        rc = main(["check", write(tmp_path, GOOD)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "h1 = pass" in out and "h4 = pass" in out
        assert "m0 = 4" in out

    def test_unresolvable_band_is_refused_by_name(self, tmp_path, capsys):
        # the random band must fit the grid; check refuses it before any run
        rc = main(["check", write(tmp_path, RANDOM_RUN + "initial.band = 20\n")])
        assert rc == 2
        assert "initial.band must be in 1 .. grid.n/2 - 1 (grid.n = 32), got 20" in capsys.readouterr().out

    def test_failing_convexity(self, tmp_path, capsys):
        weak = GOOD.replace("kernel.strength = 6.0", "kernel.strength = 1.0")
        rc = main(["check", write(tmp_path, weak)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "h2 = fail" in out


class TestConvergenceAndBenchmark:
    def test_convergence_dts(self, tmp_path, capsys):
        cfg = """
grid.n = 32
grid.l = 6.283185307179586
kernel = gaussian
kernel.sigma = 0.9424777960769379
kernel.strength = 1.0
potential = quartic
potential.a4 = 1.0
potential.a2 = 0.5
nu = 0.05
dt = 8e-3
t_end = 0.2
stabilizer = 1.0
initial = random
initial.amplitude = 0.05
initial.mean = 0.0
initial.seed = 11
initial.band = 1
initial.u0 = taylor_green
initial.u0_amplitude = 0.25
"""
        rc = main(["convergence", write(tmp_path, cfg), "--dts", "8e-3,4e-3,2e-3"])
        out = capsys.readouterr().out
        assert "order[residual]" in out
        assert rc == 0

    def test_convergence_sizes(self, tmp_path, capsys):
        cfg = RANDOM_RUN.replace("initial.amplitude = 0.05", "initial.amplitude = 0.1")
        rc = main(["convergence", write(tmp_path, cfg), "--sizes", "16,32,64"])
        out = capsys.readouterr().out
        assert "uniform_bounds" in out
        assert rc == 0

    def test_dt_rungs_must_divide_t_end(self, capsys):
        assert main(["convergence", str(CONFIGS / "dt_order.cfg"), "--dts", "3e-2,1.5e-2,7.5e-3"]) == 2
        out = capsys.readouterr().out
        assert "dt rung 0.03: t_end must be an integer multiple of dt" in out
        assert "study:" not in out

    def test_convergence_needs_flags(self, tmp_path, capsys):
        rc = main(["convergence", write(tmp_path, GOOD)])
        assert rc == 2

    def test_convergence_two_sizes_rejected(self, tmp_path, capsys):
        # one inter-level difference cannot show a decrease
        rc = main(["convergence", write(tmp_path, RANDOM_RUN), "--sizes", "16,32"])
        assert rc == 2
        assert "refinement needs at least three distinct sizes" in capsys.readouterr().out

    def test_benchmark_taylor_green(self, tmp_path, capsys):
        cfg = GOOD + "initial.u0 = taylor_green\ninitial.u0_amplitude = 1.0\n"
        rc = main(["benchmark", "taylor-green", write(tmp_path, cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "relative_energy_error" in out


class TestSet:
    @pytest.mark.parametrize("command", [
        ["run", "{}"], ["check", "{}"], ["convergence", "{}", "--sizes", "16,32,64"],
        ["benchmark", "taylor-green", "{}"],
    ])
    def test_unread_key_named(self, tmp_path, capsys, command):
        cfg = write(tmp_path, GOOD)
        assert main([arg.format(cfg) for arg in command] + ["--set", "grdi.n=16"]) == 2
        assert "key 'grdi.n' is not read by this configuration" in capsys.readouterr().out

    def test_malformed_override_named(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, GOOD), "--set", "foo"]) == 2
        assert "override: expected 'key = value', got 'foo'" in capsys.readouterr().out

    def test_same_key_twice_rejected(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, GOOD), "--set", "nu=0.2", "--set", "nu = 0.3"]) == 2
        assert "override: duplicate key 'nu'" in capsys.readouterr().out

    def test_override_replaces_the_files_value(self, tmp_path, capsys):
        assert main(["check", write(tmp_path, GOOD), "--set", "kernel.strength=1.0"]) == 1
        assert "h2 = fail" in capsys.readouterr().out

    def test_family_switch_rejects_the_keys_it_no_longer_reads(self, capsys):
        assert main(["check", str(CONFIGS / "spinodal.cfg"), "--set", "initial=uniform"]) == 2
        out = capsys.readouterr().out
        for key in ("initial.amplitude", "initial.mean", "initial.seed"):
            assert f"key {key!r} is not read by this configuration" in out

    @pytest.mark.parametrize("overrides, message", [
        (["kernel.modes=0,0:6.0; 10,0:0.3; 0,10:0.3"],
         "refinement level 16: kernel.modes: 0,10 is outside -(n/2 - 1) .. n/2 - 1 (grid.n = 16)"),
        (["forcing=single_mode", "forcing.scale=0.1", "forcing.mode_x=10"],
         "refinement level 16: forcing.mode_x: 10 is outside -(n/2 - 1) .. n/2 - 1 (grid.n = 16)"),
    ])
    def test_refinement_names_the_mode_a_level_cannot_resolve(self, capsys, overrides, message):
        args = ["convergence", str(CONFIGS / "gradient_control.cfg"), "--sizes", "16,32,64",
                "--set", "t_end=0.01"]
        assert main([*args, *(a for line in overrides for a in ("--set", line))]) == 2
        assert message in capsys.readouterr().out


class TestShippedStudies:
    """Each study of the paper's claims, run from its shipped config."""

    def test_taylor_green_benchmark(self, capsys):
        rc = main(["benchmark", "taylor-green", str(CONFIGS / "taylor_green.cfg"),
                   "--set", "grid.n=16", "--set", "t_end=0.02"])
        out = capsys.readouterr().out
        for verdict in ("error_below_1e-3", "first_order", "preconditions"):
            assert f"verdict[{verdict}]: PASS" in out
        assert rc == 0

    def test_spinodal_run_and_report(self, tmp_path, capsys):
        spinodal = str(CONFIGS / "spinodal.cfg")
        rc = main(["run", spinodal, "--set", "grid.n=16", "--set", "t_end=0.02",
                   "--set", "output.record_every=1", "--set", "output.snapshot_every=0",
                   "--set", f"output.out_dir={tmp_path}"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "steps completed: 20" in out and "t = 0.02\n" in out
        assert "mass:" in out and "invariant violation" not in out
        csv = tmp_path / "diagnostics.csv"
        assert len(csv.read_text().splitlines()) == 1 + 21  # the header and a record a step
        main(["report", str(csv), "--config", spinodal])
        out = capsys.readouterr().out
        assert "max per-record energy increase:" in out and "energy inequality:" in out

    def test_refinement_and_dt_order_studies(self, capsys):
        assert main(["convergence", str(CONFIGS / "refinement.cfg"), "--sizes", "16,32,64"]) == 0
        assert main(["convergence", str(CONFIGS / "dt_order.cfg"), "--dts", "1e-2,5e-3,2.5e-3"]) == 0
        out = capsys.readouterr().out
        for verdict in ("uniform_bounds", "differences_decrease",
                        "residual_order_in_band", "trajectory_order_in_band"):
            assert f"verdict[{verdict}]: PASS" in out


class TestReport:
    def test_reaudit_round_trip(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        gentle = GOOD + f"""
initial = random
initial.amplitude = 1e-5
initial.mean = 0.45
initial.seed = 13
output.out_dir = {out_dir}
checks.dissipative = true
"""
        cfg = write(tmp_path, gentle)
        assert main(["run", cfg]) == 0
        rc = main(["report", str(out_dir / "diagnostics.csv"), "--config", cfg])
        out = capsys.readouterr().out
        assert "energy inequality: PASS" in out
        assert "dissipative envelope: PASS" in out
        assert rc == 0

    def test_report_needs_nu(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write(tmp_path, GOOD + f"output.out_dir = {out_dir}\n")
        assert main(["run", cfg]) == 0
        rc = main(["report", str(out_dir / "diagnostics.csv")])
        assert rc == 2
        rc = main(["report", str(out_dir / "diagnostics.csv"), "--nu", "0.1"])
        assert rc == 0

    def test_report_sets_what_the_run_set(self, tmp_path, capsys):
        # a run made with --set nu is audited with that nu only if report is given it too
        out_dir = tmp_path / "out"
        cfg = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_dir}\n")
        assert main(["run", cfg, "--set", "nu=2.0"]) == 0
        csv = str(out_dir / "diagnostics.csv")
        capsys.readouterr()
        margins = []
        for args in (["--nu", "2.0"], ["--config", cfg, "--set", "nu=2.0"], ["--config", cfg]):
            main(["report", csv, *args])
            margins.append(capsys.readouterr().out.split("worst margin ")[1].split()[0])
        assert margins[0] == margins[1] != margins[2]
        assert main(["report", csv, "--nu", "2.0", "--set", "nu=2.0"]) == 2
        assert "--set needs --config" in capsys.readouterr().out

    def test_report_rejects_config_with_nu(self, tmp_path, capsys):
        # the config's nu and --nu would compete; neither may be dropped unseen
        out_dir = tmp_path / "out"
        cfg = write(tmp_path, GOOD + f"output.out_dir = {out_dir}\n")
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["report", str(out_dir / "diagnostics.csv"), "--config", cfg, "--nu", "5.0"])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "--config" in message and "--nu" in message

    @pytest.mark.parametrize("nu", ["nan", "inf", "-0.5"])
    def test_report_rejects_bad_nu(self, tmp_path, capsys, nu):
        out_dir = tmp_path / "out"
        cfg = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_dir}\n")
        assert main(["run", cfg]) == 0
        capsys.readouterr()
        rc = main(["report", str(out_dir / "diagnostics.csv"), "--nu", nu])
        assert rc == 2
        assert "--nu" in capsys.readouterr().out

    def test_report_rejects_nan_in_csv(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = write(tmp_path, RANDOM_RUN + f"output.out_dir = {out_dir}\n")
        assert main(["run", cfg]) == 0
        csv = out_dir / "diagnostics.csv"
        lines = csv.read_text().splitlines()
        row = lines[5].split(",")
        row[5] = "nan"  # total_energy
        lines[5] = ",".join(row)
        csv.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["report", str(csv), "--nu", "0.1"]) == 2
        assert "non-finite total_energy on line 6" in capsys.readouterr().out
