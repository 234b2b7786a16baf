"""Property test of the config parser: any text either parses to a finite,
validated SimConfig or raises ConfigError, and nothing else."""

import dataclasses
import math

import pytest

from nlchns.config import ConfigError, SimConfig, parse_config
from nlchns.solver import MAX_STEPS
from nlchns.spectral import Grid

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

BASE = {
    "grid.n": "16", "grid.l": "6.283185307179586",
    "kernel": "gaussian", "kernel.sigma": "0.5", "kernel.strength": "6.0",
    "potential": "double_well", "nu": "0.1", "dt": "1e-3", "t_end": "0.01",
}
WORDS = (
    "auto", "true", "false", "gaussian", "mollifier", "spectral", "double_well", "quartic",
    "polynomial", "uniform", "random", "tanh_strip", "file", "zero", "taylor_green", "body",
    "single_mode", "0,0:6.0; 1,0:0.3", "1, 0, -2, 0, 1", "1,2:3:4",
    "nan", "-inf", "1e400", "5e-324", "0", "-0.0", "1_0", "", "# comment", "x = y",
)
values = st.one_of(
    st.floats().map(repr),
    st.integers(-2**80, 2**80).map(str),
    st.sampled_from(WORDS),
    st.text(max_size=6),
)
# every key some family reads
READ_KEYS = {
    "grid.n", "grid.l",
    "kernel", "kernel.sigma", "kernel.strength", "kernel.radius", "kernel.modes",
    "potential", "potential.a4", "potential.a2", "potential.a0", "potential.coefficients",
    "nu", "dt", "t_end", "stabilizer",
    "initial", "initial.c", "initial.amplitude", "initial.mean", "initial.seed",
    "initial.width", "initial.path", "initial.band",
    "initial.u0", "initial.u0_amplitude", "initial.u0_path_x", "initial.u0_path_y",
    "forcing", "forcing.amplitude_x", "forcing.amplitude_y", "forcing.decay",
    "forcing.mode_x", "forcing.mode_y", "forcing.scale",
    "output.record_every", "output.snapshot_every", "output.out_dir",
    "checks.enforce_hypotheses", "checks.grad_control", "checks.dissipative",
    "checks.s_lo", "checks.s_hi",
}
keys = st.sampled_from(sorted(READ_KEYS) + ["grid", "bogus.key", ""])


@st.composite
def documents(draw):
    """A valid config with a few keys dropped, a few set to drawn values and
    maybe a junk line, in any order."""
    dropped = draw(st.sets(st.sampled_from(sorted(BASE)), max_size=2))
    entries = {k: v for k, v in BASE.items() if k not in dropped}
    entries.update(draw(st.dictionaries(keys, values, max_size=4)))
    lines = [f"{k} = {v}" for k, v in entries.items()]
    lines += draw(st.lists(st.text(max_size=12), max_size=1))
    return "\n".join(draw(st.permutations(lines)))


def _floats(obj):
    if isinstance(obj, float):
        yield obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from _floats(getattr(obj, f.name))
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            yield from _floats(item)


def assert_validated(cfg: SimConfig) -> None:
    assert all(math.isfinite(x) for x in _floats(cfg))
    grid = cfg.grid
    assert isinstance(grid, Grid)
    sim = cfg.sim
    assert sim.nu > 0 and sim.dt > 0
    assert 1 <= round(sim.t_end / sim.dt) <= MAX_STEPS
    assert sim.stabilizer == "auto" or sim.stabilizer >= 0
    k = cfg.kernel
    if k.family == "gaussian":
        assert 0 < k.sigma <= grid.l / 6.0 and k.strength > 0
    elif k.family == "mollifier":
        assert 0 < k.radius <= grid.l / 2.0 and k.strength > 0
    else:
        assert k.family == "spectral" and k.modes
    assert cfg.forcing.decay >= 0 and cfg.forcing.mode != (0, 0)
    assert max(map(abs, cfg.forcing.mode)) < grid.n // 2
    assert all(max(abs(m1), abs(m2)) < grid.n // 2 for m1, m2, _ in k.modes)
    init = cfg.initial
    assert init.family != "random" or init.seed is not None
    assert init.family != "random" or init.band is None or 1 <= init.band < grid.n // 2
    assert init.family != "tanh_strip" or init.width > 0
    assert init.family != "file" or init.path
    assert cfg.output.record_every >= 1 and cfg.output.snapshot_every >= 0
    assert cfg.checks.s_lo < cfg.checks.s_hi


@hypothesis.settings(derandomize=True, max_examples=400, deadline=None, database=None)
@hypothesis.given(st.one_of(documents(), st.text()))
def test_any_text_parses_or_raises_config_error(text):
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert_validated(cfg)


def test_documents_reach_both_outcomes():
    # the strategy is only useful if it produces accepted configs as well
    assert_validated(parse_config("\n".join(f"{k} = {v}" for k, v in BASE.items())))
