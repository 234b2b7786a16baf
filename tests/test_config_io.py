from pathlib import Path

import numpy as np
import pytest

from conftest import TWO_PI, divergence, random_field, random_vector, rdivergence
from nlchns.config import ConfigError, parse_config, parse_config_file
from nlchns.kernels import KernelBuildError, KernelSpec, build_kernel
from nlchns.diagnostics import COLUMNS, DiagnosticsRecord
from nlchns.initialdata import (
    InitialDataError,
    InitialSpec,
    VelocitySpec,
    _normal_pairs,
    _philox_words,
    _ziggurat_tables,
    build_phi,
    build_u,
    random_phi,
    tanh_strip_phi,
    taylor_green_u,
)
from nlchns.spectral import Grid, leray_project, resample
from nlchns.storage import (
    DiagnosticsWriter,
    SnapshotFormatError,
    read_diagnostics_csv,
    read_snapshot,
    write_snapshot,
)
from nlchns.potentials import PotentialSpec
from nlchns.solver import ForcingSpec, SimParams

ROOT = Path(__file__).resolve().parent.parent
MINIMAL = """
# minimal run configuration
grid.n = 64
grid.l = 6.283185307179586
kernel = gaussian
kernel.sigma = 0.3141592653589793
kernel.strength = 6.0
potential = double_well
nu = 0.01
dt = 1e-3
t_end = 1
"""


class TestParseConfig:
    def test_minimal_happy_path(self):
        cfg = parse_config(MINIMAL)
        assert cfg.grid.n == 64
        assert cfg.kernel.family == "gaussian"
        assert cfg.potential.family == "double_well"
        assert cfg.sim.nu == 0.01 and cfg.sim.dt == 1e-3 and cfg.sim.t_end == 1.0
        assert cfg.sim.stabilizer == "auto"
        assert cfg.initial.family == "uniform"
        assert cfg.forcing.family == "zero"
        assert cfg.output.record_every == 1
        assert cfg.checks.enforce_hypotheses is True

    def test_dt_zero_message(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("dt = 1e-3", "dt = 0"))
        assert any("dt must be positive" in e for e in err.value.errors)

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "grid.m = 3\n")
        assert any("grid.m" in e for e in err.value.errors)

    @pytest.mark.parametrize("value", ["true", "false"])
    def test_dealias_is_not_a_setting(self, value):
        # every run steps the 2/3 band: a config that still chooses refuses
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + f"dealias = {value}\n")
        assert err.value.errors == ["key 'dealias' is not read by this configuration"]

    def test_all_errors_reported_at_once(self):
        text = MINIMAL.replace("dt = 1e-3", "dt = -1").replace("grid.n = 64", "grid.n = 37")
        with pytest.raises(ConfigError) as err:
            parse_config(text + "bogus.key = 1\n")
        msgs = " | ".join(err.value.errors)
        assert "dt must be positive" in msgs
        assert "power of two" in msgs
        assert "bogus.key" in msgs

    def test_missing_required_keys(self):
        with pytest.raises(ConfigError) as err:
            parse_config("grid.n = 16\n")
        missing = " ".join(err.value.errors)
        for key in ("grid.l", "kernel", "potential", "nu", "dt", "t_end"):
            assert key in missing

    def test_random_requires_seed(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "initial = random\ninitial.amplitude = 0.1\n")
        assert any("initial.seed" in e for e in err.value.errors)

    @pytest.mark.parametrize("band", [-3, 0, 32, 40])
    def test_random_band_must_fit_the_grid(self, band):
        text = MINIMAL + "initial = random\ninitial.seed = 1\ninitial.amplitude = 0.1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text + f"initial.band = {band}\n")
        assert err.value.errors == [f"initial.band must be in 1 .. grid.n/2 - 1 (grid.n = 64), got {band}"]
        assert [parse_config(text + f"initial.band = {b}\n").initial.band for b in (1, 31)] == [1, 31]

    def test_spectral_kernel_modes_table(self):
        text = MINIMAL.replace("kernel = gaussian", "kernel = spectral").replace(
            "kernel.sigma = 0.3141592653589793", "kernel.modes = 0,0:6.0; 1,0:0.3; 0,1:0.3"
        ).replace("kernel.strength = 6.0", "")
        cfg = parse_config(text)
        assert cfg.kernel.family == "spectral"
        assert ((0, 0, 6.0) in cfg.kernel.modes) and ((1, 0, 0.3) in cfg.kernel.modes)

    def test_t_end_must_be_step_multiple(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace("t_end = 1", "t_end = 0.0015"))
        assert any("integer multiple" in e for e in err.value.errors)

    def test_stabilizer_value_and_force_form(self):
        cfg = parse_config(MINIMAL + "stabilizer = 3.5\n")
        assert cfg.sim.stabilizer == 3.5
        # the coupling force has one form, -phi grad mu, and no key selects it
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "force_form = phi_grad_mu\n")
        assert err.value.errors == ["key 'force_form' is not read by this configuration"]

    @pytest.mark.parametrize("line", [
        "kernel.radius = banana",  # under kernel = gaussian
        "initial.seed = -1.5",  # under the default initial = uniform
        "forcing.scale = nan",  # under the default forcing = zero
        "forcing.decay = 0.5",
    ])
    def test_key_of_an_unselected_family_rejected(self, line):
        key = line.split(" = ")[0]
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + line + "\n")
        assert err.value.errors == [f"key {key!r} is not read by this configuration"]

    @pytest.mark.parametrize("edit, message", [
        (("grid.n = 64", "grid.n = x"), "grid.n: not an integer: 'x'"),
        (("dt = 1e-3", "dt = 0"), "dt must be positive"),
        (("potential = double_well", "potential = quartic\npotential.a4 = -1\npotential.a2 = 0.5"),
         "potential.a4 must be positive"),
        (("kernel.sigma = 0.3141592653589793", "kernel.sigma = -1"), "kernel.sigma must be positive"),
        (("kernel = gaussian", "kernel = banana"), "unknown kernel family 'banana'"),
        (("kernel = gaussian\nkernel.sigma = 0.3141592653589793\nkernel.strength = 6.0",
          "kernel = spectral\nkernel.modes = 0,0:x"),
         "kernel.modes: malformed entry '0,0:x' (want 'm1,m2:value')"),
    ])
    def test_one_mistake_one_error(self, edit, message):
        # a family's keys are read whether or not an earlier check failed
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL.replace(*edit))
        assert err.value.errors == [message]

    @pytest.mark.parametrize("name", ["spinodal", "gradient_control", "taylor_green"])
    def test_shipped_configs_give_the_run_grid(self, name):
        cfg = parse_config_file(str(ROOT / "configs" / f"{name}.cfg"))
        assert cfg.grid == Grid(64, TWO_PI) and isinstance(cfg.grid, Grid)
        assert cfg.with_grid_n(32).grid == Grid(32, TWO_PI)

    def test_overrides_replace_or_add_keys(self):
        cfg = parse_config(MINIMAL, ["nu=0.5", " stabilizer = 3  # a comment "])
        assert (cfg.sim.nu, cfg.sim.stabilizer) == (0.5, 3.0)
        assert cfg == parse_config(MINIMAL.replace("nu = 0.01", "nu = 0.5") + "stabilizer = 3\n")
        assert parse_config_file(str(ROOT / "configs" / "spinodal.cfg"), ["grid.n=32"]).grid == Grid(32, TWO_PI)

    @pytest.mark.parametrize("overrides, message", [
        (["nu"], "override: expected 'key = value', got 'nu'"),
        (["=1"], "override: expected 'key = value', got '=1'"),
        (["nu=0.5", "nu=0.6"], "override: duplicate key 'nu'"),
        (["grdi.n=16"], "key 'grdi.n' is not read by this configuration"),
        (["dt=0"], "dt must be positive"),
    ])
    def test_bad_override_named(self, overrides, message):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL, overrides)
        assert err.value.errors == [message]

    def test_text_keeps_rejecting_its_own_duplicates(self):
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "nu = 0.5\n", ["nu=0.6"])
        assert len(err.value.errors) == 1 and "duplicate key 'nu'" in err.value.errors[0]

    def test_forcing_single_mode(self):
        cfg = parse_config(
            MINIMAL
            + "forcing = single_mode\nforcing.mode_x = 2\nforcing.mode_y = -1\n"
            + "forcing.scale = 0.5\nforcing.decay = 1.5\n"
        )
        assert cfg.forcing.family == "single_mode"
        assert cfg.forcing.mode == (2, -1)
        assert cfg.forcing.decay == 1.5

    @pytest.mark.parametrize("mx, my, bad", [
        (1, 60, ["forcing.mode_y: 60"]),
        (-32, 0, ["forcing.mode_x: -32"]),
        (32, -40, ["forcing.mode_x: 32", "forcing.mode_y: -40"]),
    ])
    def test_forcing_mode_the_grid_cannot_resolve(self, mx, my, bad):
        # on n = 64, mode 60 would be applied as mode 4 while the envelope's
        # K took 60; the parser rejects |m_x| or |m_y| >= n/2, naming the key
        text = MINIMAL + "forcing = single_mode\nforcing.scale = 0.5\n"
        text += f"forcing.mode_x = {mx}\nforcing.mode_y = {my}\n"
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.errors == [f"{b} is outside -(n/2 - 1) .. n/2 - 1 (grid.n = 64)" for b in bad]
        edge = text.replace(f"mode_x = {mx}", "mode_x = -31").replace(f"mode_y = {my}", "mode_y = 31")
        assert parse_config(edge).forcing.mode == (-31, 31)

    def test_kernel_mode_the_grid_cannot_resolve(self):
        spectral = MINIMAL.replace("kernel = gaussian\nkernel.sigma = 0.3141592653589793\nkernel.strength = 6.0",
                                   "kernel = spectral\nkernel.modes = 0,0:6.0; {}:0.3")
        with pytest.raises(ConfigError) as err:
            parse_config(spectral.format("40,0"))
        assert err.value.errors == ["kernel.modes: 40,0 is outside -(n/2 - 1) .. n/2 - 1 (grid.n = 64)"]
        assert (0, -31, 0.3) in parse_config(spectral.format("0,-31")).kernel.modes

    def test_snapshots_need_an_out_dir(self):
        # without one, run() writes nothing, so the setting would be dropped unseen
        with pytest.raises(ConfigError) as err:
            parse_config(MINIMAL + "output.snapshot_every = 5\n")
        assert err.value.errors == ["output.snapshot_every needs output.out_dir to write snapshots to"]
        assert parse_config(MINIMAL + "output.snapshot_every = 5\noutput.out_dir = out\n").output.snapshot_every == 5


def minimal_with(changes: dict) -> str:
    """MINIMAL with the keys of ``changes`` set to their values, or dropped
    where the value is None."""
    entries = dict(line.split(" = ", 1) for line in MINIMAL.strip().splitlines()
                   if not line.startswith("#"))
    entries.update(changes)
    return "".join(f"{k} = {v}\n" for k, v in entries.items() if v is not None)


def config_with(key: str, value: str) -> str:
    """MINIMAL with ``key = value`` and whatever family selection makes the
    parser read that key."""
    return minimal_with({**KEY_CONTEXT.get(key, {}), key: value})


G64 = Grid(64, TWO_PI)
SPECTRAL = {"kernel": "spectral", "kernel.sigma": None, "kernel.strength": None}
SINGLE_MODE = {"forcing": "single_mode", "forcing.scale": "1"}
# one row a rule: the config lines that break it, and the builder given the
# same value; the parser's one error must be the builder's message
RULES = {
    "grid.n": ({"grid.n": "12"}, ValueError, lambda: Grid(12, TWO_PI)),
    "grid.l": ({"grid.l": "-1"}, ValueError, lambda: Grid(64, -1.0)),
    "kernel.sigma": ({"kernel.sigma": "-1"}, KernelBuildError,
                     lambda: build_kernel(KernelSpec.gaussian(-1.0, 6.0), G64)),
    "kernel.sigma bound": ({"kernel.sigma": "2"}, KernelBuildError,
                           lambda: build_kernel(KernelSpec.gaussian(2.0, 6.0), G64)),
    "kernel.radius bound": ({"kernel": "mollifier", "kernel.sigma": None, "kernel.radius": "4"}, KernelBuildError,
                            lambda: build_kernel(KernelSpec.mollifier(4.0, 6.0), G64)),
    "kernel.strength": ({"kernel.strength": "0"}, KernelBuildError,
                        lambda: build_kernel(KernelSpec.gaussian(0.3141592653589793, 0.0), G64)),
    "kernel.modes empty": ({**SPECTRAL, "kernel.modes": ""}, KernelBuildError,
                           lambda: build_kernel(KernelSpec.spectral({}), G64)),
    "kernel.modes unresolved": ({**SPECTRAL, "kernel.modes": "0,0:6.0; 40,0:0.3"}, KernelBuildError,
                                lambda: build_kernel(KernelSpec.spectral({(0, 0): 6.0, (40, 0): 0.3}), G64)),
    "kernel.modes odd": ({**SPECTRAL, "kernel.modes": "0,0:6.0; 1,0:0.3; -1,0:0.5"}, KernelBuildError,
                         lambda: build_kernel(KernelSpec.spectral({(0, 0): 6.0, (1, 0): 0.3, (-1, 0): 0.5}), G64)),
    "forcing mode zero": ({**SINGLE_MODE, "forcing.mode_x": "0"}, ValueError,
                          lambda: ForcingSpec("single_mode", mode=(0, 0), scale=1.0).field_at(G64, 0.0)),
    "forcing mode unresolved": ({**SINGLE_MODE, "forcing.mode_x": "40"}, ValueError,
                                lambda: ForcingSpec("single_mode", mode=(40, 0), scale=1.0).field_at(G64, 0.0)),
    "forcing.decay": ({**SINGLE_MODE, "forcing.decay": "-1"}, ValueError,
                      lambda: ForcingSpec("single_mode", decay=-1.0, scale=1.0).field_at(G64, 0.0)),
    "potential.a4": ({"potential": "quartic", "potential.a4": "-1"}, ValueError,
                     lambda: PotentialSpec.quartic(-1.0)),
    "dt": ({"dt": "0"}, ValueError, lambda: SimParams(nu=0.01, dt=0.0, t_end=1.0)),
    "stabilizer": ({"stabilizer": "-1"}, ValueError,
                   lambda: SimParams(nu=0.01, dt=1e-3, t_end=1.0, stabilizer=-1.0)),
    "t_end multiple": ({"dt": "3e-3"}, ConfigError, lambda: parse_config(MINIMAL).with_dt(3e-3)),
    "t_end one step": ({"dt": "2"}, ConfigError, lambda: parse_config(MINIMAL).with_dt(2.0)),
    "t_end steps": ({"dt": "1e-12"}, ConfigError, lambda: parse_config(MINIMAL).with_dt(1e-12)),
    "initial.band": ({"initial": "random", "initial.seed": "1", "initial.band": "40"}, InitialDataError,
                     lambda: build_phi(InitialSpec(family="random", seed=1, band=40), G64)),
    "initial.seed": ({"initial": "random"}, InitialDataError,
                     lambda: build_phi(InitialSpec(family="random"), G64)),
    "initial.width": ({"initial": "tanh_strip", "initial.width": "0"}, InitialDataError,
                      lambda: build_phi(InitialSpec(family="tanh_strip", width=0.0), G64)),
    "initial.path": ({"initial": "file"}, InitialDataError, lambda: build_phi(InitialSpec(family="file"), G64)),
}


@pytest.mark.parametrize("rule", RULES)
def test_parser_and_builder_give_one_message(rule):
    changes, error, build = RULES[rule]
    with pytest.raises(ConfigError) as parsed:
        parse_config(minimal_with(changes))
    with pytest.raises(error) as built:
        build()
    message = "\n".join(built.value.errors) if error is ConfigError else str(built.value)
    assert parsed.value.errors == [message]


def test_file_velocity_needs_both_paths():
    # one message from the parser and from build_u, which would otherwise
    # fail with a FileNotFoundError for the path ''
    message = "initial.u0_path_x and initial.u0_path_y are required for file velocity"
    for paths in ({}, {"initial.u0_path_x": "ux.npz"}, {"initial.u0_path_y": "uy.npz"}):
        with pytest.raises(ConfigError) as parsed:
            parse_config(minimal_with({"initial.u0": "file", **paths}))
        assert parsed.value.errors == [message]
    for spec in (VelocitySpec(family="file"), VelocitySpec(family="file", path_y="uy.npz")):
        with pytest.raises(InitialDataError, match=f"^{message}$"):
            build_u(spec, G64)


KEY_CONTEXT = {
    "kernel.radius": {"kernel": "mollifier", "kernel.sigma": None},
    "kernel.modes": {"kernel": "spectral", "kernel.sigma": None, "kernel.strength": None},
    "potential.a4": {"potential": "quartic"},
    "potential.a2": {"potential": "quartic", "potential.a4": "1"},
    "potential.a0": {"potential": "quartic", "potential.a4": "1"},
    "potential.coefficients": {"potential": "polynomial"},
    "initial.c": {"initial": "uniform"},
    "initial.amplitude": {"initial": "random", "initial.seed": "1"},
    "initial.mean": {"initial": "random", "initial.seed": "1"},
    "initial.width": {"initial": "tanh_strip"},
    "initial.u0_amplitude": {"initial.u0": "taylor_green"},
    "forcing.decay": {"forcing": "body"},
    "forcing.amplitude_x": {"forcing": "body"},
    "forcing.amplitude_y": {"forcing": "body"},
    "forcing.scale": {"forcing": "single_mode"},
}

FLOAT_KEYS = (
    "grid.l", "kernel.sigma", "kernel.strength", "kernel.radius",
    "potential.a4", "potential.a2", "potential.a0",
    "nu", "dt", "t_end", "stabilizer",
    "initial.c", "initial.amplitude", "initial.mean", "initial.width", "initial.u0_amplitude",
    "forcing.decay", "forcing.amplitude_x", "forcing.amplitude_y", "forcing.scale",
    "checks.s_lo", "checks.s_hi",
)


class TestConfigValues:
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_rejected(self, key):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError) as err:
                parse_config(config_with(key, value))
            assert any(e.startswith(key) and "finite" in e for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize("key, value", [
        ("potential.coefficients", "0, 1, nan"),
        ("kernel.modes", "0,0:6.0; 1,0:inf"),
    ])
    def test_non_finite_list_entry_rejected(self, key, value):
        with pytest.raises(ConfigError) as err:
            parse_config(config_with(key, value))
        assert any(e.startswith(key) and "finite" in e for e in err.value.errors), err.value.errors

    def test_explicit_zeros_kept(self):
        cfg = parse_config(config_with("checks.s_lo", "0"))
        assert cfg.checks.s_lo == 0.0
        cfg = parse_config(config_with("initial.u0_amplitude", "0"))
        assert cfg.velocity.amplitude == 0.0

    @pytest.mark.parametrize("dt, t_end", [("5e-324", "1"), ("1e-300", "1e300"), ("1e-3", "1e12")])
    def test_step_count_bounded(self, dt, t_end):
        # t_end / dt overflowing to inf raised a bare OverflowError from round()
        text = config_with("dt", dt).replace("t_end = 1\n", f"t_end = {t_end}\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert any(e.startswith("t_end / dt must be at most") for e in err.value.errors), err.value.errors

    @pytest.mark.parametrize("key, message", [
        ("output.record_every", "output.record_every must be >= 1"),
        ("initial.width", "initial.width must be positive"),
    ])
    def test_explicit_zeros_validated(self, key, message):
        with pytest.raises(ConfigError) as err:
            parse_config(config_with(key, "0"))
        assert message in err.value.errors


class TestSnapshots:
    def test_round_trip_bit_identical(self, tmp_path, rng):
        g = Grid(32, 1.75)
        f = random_field(g, rng)
        path = tmp_path / "field.f64"
        write_snapshot(g, f, "phi", 0.25, str(path))
        back, name, t = read_snapshot(str(path))
        assert name == "phi" and t == 0.25
        assert back.grid.n == 32 and back.grid.l == 1.75
        assert np.array_equal(back.values, f)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        g = Grid(16, 1.0)
        path = tmp_path / "field.f64"
        write_snapshot(g, random_field(g, rng), "phi", 0.0, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-16])
        with pytest.raises(SnapshotFormatError, match="size mismatch"):
            read_snapshot(str(path))

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "field.f64"
        path.write_bytes(b"NOTMAGIC name=x n=16 l=1 t=0 count=256 endian=little\n" + b"\0" * 2048)
        with pytest.raises(SnapshotFormatError, match="magic"):
            read_snapshot(str(path))

    @pytest.mark.parametrize("n, l, count, message", [
        (-4, "1", 16, "grid.n must be a power of two >= 8, got -4"),
        (12, "1", 144, "grid.n must be a power of two >= 8, got 12"),
        (16, "nan", 256, "grid.l must be positive"),
    ])
    def test_header_without_a_grid_rejected(self, tmp_path, n, l, count, message):
        # count = n^2 and a payload of that size: the header's grid alone is
        # wrong, and the error names the file with the grid's own rule
        path = tmp_path / "field.f64"
        path.write_bytes(f"NLCHNS1 name=phi n={n} l={l} t=0 count={count} endian=little\n".encode()
                         + b"\0" * (8 * count))
        with pytest.raises(SnapshotFormatError) as err:
            read_snapshot(str(path))
        assert str(err.value) == f"no grid in the header of {str(path)!r}: {message}"

    def test_bad_name_rejected(self, rng):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            write_snapshot(g, random_field(g, rng), "two words", 0.0, "/tmp/x")


def _record(t):
    vals = {c: float(i) + t for i, c in enumerate(COLUMNS)}
    vals["t"] = t
    return DiagnosticsRecord(**vals)


class TestDiagnosticsCsv:
    def test_header_once_and_rows_append(self, tmp_path):
        out = tmp_path / "out"
        w = DiagnosticsWriter(str(out))
        w.append(_record(0.0))
        w.append(_record(0.1))
        w.close()
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == ",".join(COLUMNS)
        assert len(lines) == 3

    def test_seventeen_digit_round_trip(self, tmp_path):
        rec = _record(1.0 / 3.0)
        rec.total_energy = np.pi * 1e3
        rec.grad_mu_sq = 1.2345678901234567e-8
        with DiagnosticsWriter(str(tmp_path)) as w:
            w.append(rec)
            w.append(_record(2.0))
        back = read_diagnostics_csv(w.path)
        assert len(back) == 2
        assert back[0].total_energy == rec.total_energy
        assert back[0].grad_mu_sq == rec.grad_mu_sq
        assert back[0].t == rec.t

    def test_row_bytes_are_seventeen_digits_per_value(self, tmp_path):
        # the row is one format string; pinned against per-value formatting
        # on signed zeros, subnormals, the edge of the range and integers
        def format_value(x) -> str:
            return f"{x:.17g}"

        rows = [(-0.0, 5e-324, 2.5e-310, 1e308, -1.7976931348623157e308, 3, 2**60, 0.1,
                 -1.0 / 3.0, np.float64(-0.0), np.float64(1e-300), 7, -2)]
        rows.append(tuple(np.float64(v) for v in rows[0]))
        with DiagnosticsWriter(str(tmp_path)) as w:
            for row in rows:
                w.append(DiagnosticsRecord(**dict(zip(COLUMNS, row))))
        lines = (tmp_path / "diagnostics.csv").read_bytes().split(b"\n")
        assert lines[1:] == [",".join(format_value(v) for v in row).encode() for row in rows] + [b""]
        assert lines[1].startswith(b"-0,4.9406564584124654e-324,2.5000000000000171e-310,1e+308,")

    @pytest.mark.parametrize("column, row, value", [
        ("total_energy", 1, np.nan), ("t", 0, np.nan), ("grad_u_sq", 1, -np.inf)])
    def test_non_finite_value_rejected(self, tmp_path, column, row, value):
        # every column is finite as written; a NaN must not pass the audits unseen
        recs = [_record(0.0), _record(0.1)]
        setattr(recs[row], column, value)
        with DiagnosticsWriter(str(tmp_path)) as w:
            for rec in recs:
                w.append(rec)
        with pytest.raises(ValueError, match=f"non-finite {column} on line {row + 2} "):
            read_diagnostics_csv(w.path)

    @pytest.mark.parametrize("edit, message", [
        (lambda cells: cells[:3] + ["abc"] + cells[4:], "non-numeric interaction 'abc' on line 3 "),
        (lambda cells: cells[:-1], "12 values on line 3 .*, want 13"),
    ], ids=["non-numeric", "short-row"])
    def test_malformed_row_rejected(self, tmp_path, edit, message):
        # a cell that is not a number, or a row of the wrong length, is named by its line
        with DiagnosticsWriter(str(tmp_path)) as w:
            w.append(_record(0.0))
            w.append(_record(0.1))
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        lines[2] = ",".join(edit(lines[2].split(",")))
        (tmp_path / "diagnostics.csv").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=message):
            read_diagnostics_csv(w.path)


def mode_lane(m1: int, m2: int) -> int:
    return ((m1 & 0xFFFFFFFF) << 32) | (m2 & 0xFFFFFFFF)


def random_phi_reference(grid, amplitude, mean_value, seed, band=None) -> np.ndarray:
    """``random_phi``'s coefficients drawn mode by mode: a fresh Generator(
    Philox(key=[seed, lane])) per mode, m1 outer and m2 inner, each
    conjugate pair once."""
    n = grid.n
    band = n // 4 if band is None else band
    coeff = np.zeros((n, n // 2 + 1), dtype=complex)
    sq = 0.0
    for m1 in range(band + 1):
        for m2 in range(-band, band + 1):
            if m1 == 0 and m2 <= 0:
                continue
            key = np.array([seed & 0xFFFFFFFFFFFFFFFF, mode_lane(m1, m2)], dtype=np.uint64)
            z = complex(*np.random.Generator(np.random.Philox(key=key)).standard_normal(2))
            if m2 >= 0:
                coeff[m1, m2] = z
            if m2 <= 0:
                coeff[-m1 % n, -m2] = np.conj(z)
            sq += abs(z) ** 2
    coeff *= amplitude / np.sqrt(2.0 * sq)
    coeff *= n * n
    coeff[0, 0] = mean_value * n * n
    return coeff


class TestInitialData:
    def test_uniform_and_strip(self):
        # uniform data is its k = 0 coefficient, c n^2; strip data the rfft2
        # of its samples
        g = Grid(32, TWO_PI)
        f = build_phi(InitialSpec(family="uniform", c=0.3), g)
        assert f.shape == (32, 17) and f[0, 0] == 0.3 * 32**2 and np.count_nonzero(f) == 1
        np.testing.assert_allclose(np.fft.irfft2(f), 0.3)
        strip = tanh_strip_phi(g, width=0.2)
        assert strip.max() <= 1.0 + 1e-9
        assert strip.min() >= -1.0 - 1e-9
        assert abs(np.mean(strip)) < 5e-2  # near-balanced phases
        built = build_phi(InitialSpec(family="tanh_strip", width=0.2), g)
        assert built.tobytes() == np.fft.rfft2(strip).tobytes()

    def test_random_rms_normalization(self):
        # the mean is the k = 0 coefficient exactly
        g = Grid(64, TWO_PI)
        f = random_phi(g, amplitude=0.2, mean_value=0.1, seed=5)
        assert f[0, 0] == 0.1 * 64**2
        values = np.fft.irfft2(f)
        rms = float(np.sqrt(np.mean((values - 0.1) ** 2)))
        assert abs(rms - 0.2) < 1e-12
        assert abs(np.mean(values) - 0.1) < 1e-13

    def test_random_deterministic(self):
        g = Grid(32, TWO_PI)
        a = random_phi(g, 0.1, 0.0, seed=9)
        b = random_phi(g, 0.1, 0.0, seed=9)
        assert np.array_equal(a, b)
        c = random_phi(g, 0.1, 0.0, seed=10)
        assert not np.array_equal(a, c)

    def test_mode_draw_matches_fresh_stream(self):
        # every lane draws what a fresh Philox stream keyed by (seed, lane)
        # draws first, on the fast path or through the reset loop, whatever
        # was drawn before; with seed 2**63 + 17, word 0 of (-6, -7) is
        # accepted in the ziggurat's wedge, after a second word; with
        # 2**64 - 1, word 1 of (3, 0) is redrawn, and word 0 of (2, 2) and of
        # (8, 8) is in strip 2 and 1, which the fast path never takes
        modes = ((0, 1), (3, -2), (-3, 2), (-8, -7), (5, 5), (-1, 0), (-6, -7), (3, 0), (2, 2), (8, 8))
        lanes = np.array([mode_lane(m1, m2) for m1, m2 in modes], dtype=np.uint64)
        for seed in (0, 9, 123, 2**64 - 1, 2**63 + 17):
            pairs = _normal_pairs(seed, lanes)
            for lane, pair in zip(lanes, pairs):
                key = np.array([seed, lane], dtype=np.uint64)
                want = np.random.Generator(np.random.Philox(key=key)).standard_normal(2)
                assert pair.tobytes() == want.tobytes()

    def test_mode_draws_match_fresh_streams_at_band_32(self):
        # 2,112 lanes a seed, some of which the fast path leaves to the loop
        lanes = np.array([mode_lane(m1, m2) for m1 in range(33) for m2 in range(-32, 33)
                          if m1 > 0 or m2 > 0], dtype=np.uint64)
        wi, kl = _ziggurat_tables()
        assert np.count_nonzero(kl) > 250  # the probe proves almost every strip
        for seed in (20260809, 2**63 + 17):
            words = _philox_words(seed, lanes)
            rabs = words >> np.uint64(9) & np.uint64(2**52 - 1)
            assert not (rabs < kl[(words & np.uint64(0xFF)).astype(np.intp)]).all()
            want = np.array([np.random.Generator(np.random.Philox(key=np.array([seed, lane], dtype=np.uint64)))
                             .standard_normal(2) for lane in lanes])
            assert _normal_pairs(seed, lanes).tobytes() == want.tobytes()

    @pytest.mark.parametrize("n, seed, band", [
        (32, 5, 7), (64, 42, None), (256, 20260809, None), (128, 2**63 + 5, None),
    ])
    def test_random_phi_bytes_match_fresh_streams(self, n, seed, band):
        g = Grid(n, TWO_PI)
        got = random_phi(g, 0.2, 0.1, seed, band)
        assert got.tobytes() == random_phi_reference(g, 0.2, 0.1, seed, band).tobytes()

    def test_random_grid_independent_within_band(self):
        # exactly: the two grids' coefficients differ by the power of two
        # (n_c/n_f)^2, which resample applies
        coarse = Grid(32, TWO_PI)
        fine = Grid(128, TWO_PI)
        a = random_phi(coarse, 0.1, 0.0, seed=9, band=8)
        b = random_phi(fine, 0.1, 0.0, seed=9, band=8)
        assert np.array_equal(resample(b, fine, coarse), a)

    def test_taylor_green_divergence_free(self):
        g = Grid(32, TWO_PI)
        u = taylor_green_u(g, 2.0)
        assert np.max(np.abs(divergence(g, u))) < 1e-12 * 2.0 * g.n

    def test_band_and_seed_validation(self):
        g = Grid(16, TWO_PI)
        with pytest.raises(InitialDataError):
            build_phi(InitialSpec(family="random", amplitude=0.1, seed=1, band=8), g)  # band not resolvable
        with pytest.raises(InitialDataError):
            build_phi(InitialSpec(family="random", amplitude=0.1), g)  # no seed

    def test_file_round_trip(self, tmp_path, rng):
        g = Grid(16, TWO_PI)
        f = random_field(g, rng)
        path = tmp_path / "phi0.f64"
        write_snapshot(g, f, "phi", 0.0, str(path))
        back = build_phi(InitialSpec(family="file", path=str(path)), g)
        assert back.tobytes() == np.fft.rfft2(f).tobytes()

    def test_snapshot_on_another_grid_names_its_key(self, tmp_path, rng):
        g, coarse = Grid(32, TWO_PI), Grid(16, TWO_PI)
        for name, grid in (("ux", g), ("uy", coarse), ("phi", coarse)):
            write_snapshot(grid, random_field(grid, rng), name, 0.0, str(tmp_path / f"{name}.f64"))
        spec = VelocitySpec(family="file", path_x=str(tmp_path / "ux.f64"), path_y=str(tmp_path / "uy.f64"))
        with pytest.raises(InitialDataError, match=r"^initial\.u0_path_y: snapshot grid n = 16, .* n = 32,"):
            build_u(spec, g)
        with pytest.raises(InitialDataError, match=r"^initial\.path: snapshot grid n = 16, .* n = 32,"):
            build_phi(InitialSpec(family="file", path=str(tmp_path / "phi.f64")), g)

    @pytest.mark.parametrize("key", ["initial.path", "initial.u0_path_x", "initial.u0_path_y"])
    def test_snapshot_with_a_non_finite_sample_names_its_key(self, tmp_path, rng, key):
        # one nan among the samples of the file a key names: the build stops
        # there, before a run could start from it
        g = Grid(16, TWO_PI)
        paths = {}
        for name in ("initial.path", "initial.u0_path_x", "initial.u0_path_y"):
            f = random_field(g, rng)
            if name == key:
                f[3, 5] = np.nan
            paths[name] = str(tmp_path / f"{name}.f64")
            write_snapshot(g, f, "f", 0.0, paths[name])
        with pytest.raises(InitialDataError) as err:
            if key == "initial.path":
                build_phi(InitialSpec(family="file", path=paths[key]), g)
            else:
                build_u(VelocitySpec(family="file", path_x=paths["initial.u0_path_x"],
                                     path_y=paths["initial.u0_path_y"]), g)
        assert str(err.value) == f"{key}: snapshot {paths[key]!r} holds non-finite samples"

    def test_velocity_is_divergence_free_as_built(self, tmp_path, rng):
        # zero and Taylor-Green come back as built, in coefficients; a
        # velocity read from files is Leray-projected in them
        g = Grid(16, TWO_PI)
        zero = build_u(VelocitySpec(family="zero"), g)
        assert zero.shape == (2, 16, 9) and not np.any(zero)
        tg = build_u(VelocitySpec(family="taylor_green", amplitude=0.7), g)
        assert tg.tobytes() == np.fft.rfft2(taylor_green_u(g, 0.7)).tobytes()
        v = random_vector(g, rng)
        write_snapshot(g, v[0], "u_x", 0.0, str(tmp_path / "ux.f64"))
        write_snapshot(g, v[1], "u_y", 0.0, str(tmp_path / "uy.f64"))
        spec = VelocitySpec(family="file", path_x=str(tmp_path / "ux.f64"), path_y=str(tmp_path / "uy.f64"))
        got = build_u(spec, g)
        assert got.tobytes() == leray_project(g, np.fft.rfft2(v)).tobytes()
        assert np.max(np.abs(rdivergence(g, *got))) < 1e-12 * g.n
