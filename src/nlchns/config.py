"""Run-configuration parsing and validation.

Configs are UTF-8 text in a flat ``section.key = value`` format; ``#``
comments and blank lines are ignored.  Family selectors sit on the bare
section name (``kernel = gaussian``, ``potential = double_well``,
``initial = random``), family parameters below it (``kernel.sigma = 0.3``).
Parsing validates every key and reports all violations at once, not just the
first.

Determinism contract: an identical config (plus seed) produces bit-identical
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .initialdata import InitialSpec, VelocitySpec
from .kernels import KernelSpec
from .potentials import PotentialSpec
from .solver import ForcingSpec, SimParams


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = list(errors)


@dataclass(frozen=True)
class GridConfig:
    n: int
    l: float


@dataclass(frozen=True)
class OutputConfig:
    record_every: int = 1
    snapshot_every: int = 0
    out_dir: str = ""


@dataclass(frozen=True)
class ChecksConfig:
    enforce_hypotheses: bool = True
    grad_control: bool = False
    dissipative: bool = False
    s_lo: float = -2.0
    s_hi: float = 2.0

    @property
    def s_range(self) -> tuple[float, float]:
        return (self.s_lo, self.s_hi)


@dataclass(frozen=True)
class SimConfig:
    grid: GridConfig
    kernel: KernelSpec
    potential: PotentialSpec
    sim: SimParams
    forcing: ForcingSpec = ForcingSpec()
    initial: InitialSpec = InitialSpec()
    velocity: VelocitySpec = VelocitySpec()
    output: OutputConfig = OutputConfig()
    checks: ChecksConfig = ChecksConfig()

    def with_grid_n(self, n: int) -> "SimConfig":
        return replace(self, grid=GridConfig(n=n, l=self.grid.l))

    def with_dt(self, dt: float) -> "SimConfig":
        return replace(self, sim=replace(self.sim, dt=dt))


_KNOWN_KEYS = {
    "grid.n", "grid.l",
    "kernel", "kernel.sigma", "kernel.strength", "kernel.radius", "kernel.modes",
    "potential", "potential.a4", "potential.a2", "potential.a0", "potential.coefficients",
    "nu", "dt", "t_end", "stabilizer", "dealias",
    "initial", "initial.c", "initial.amplitude", "initial.mean", "initial.seed",
    "initial.width", "initial.path", "initial.band",
    "initial.u0", "initial.u0_amplitude", "initial.u0_path_x", "initial.u0_path_y",
    "forcing", "forcing.amplitude_x", "forcing.amplitude_y", "forcing.decay",
    "forcing.mode_x", "forcing.mode_y", "forcing.scale",
    "output.record_every", "output.snapshot_every", "output.out_dir",
    "checks.enforce_hypotheses", "checks.grad_control", "checks.dissipative",
    "checks.s_lo", "checks.s_hi",
}

MAX_STEPS = 10**9  # more steps than any run needs: a typo in t_end or dt

_REQUIRED = ("grid.n", "grid.l", "kernel", "potential", "nu", "dt", "t_end")


def _parse_lines(text: str, errors: list[str]) -> dict[str, str]:
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        key, value = stripped.split("=", 1)
        key = key.strip()
        value = value.split("#", 1)[0].strip()
        if key in raw:
            errors.append(f"line {lineno}: duplicate key {key!r}")
            continue
        raw[key] = value
    return raw


class _Reader:
    def __init__(self, raw: dict[str, str], errors: list[str]):
        self.raw = raw
        self.errors = errors

    def has(self, key: str) -> bool:
        return key in self.raw

    def string(self, key: str, default: str = "") -> str:
        return self.raw.get(key, default)

    def floatv(self, key: str, default: float | None = None) -> float | None:
        if key not in self.raw:
            return default
        try:
            value = float(self.raw[key])
        except ValueError:
            self.errors.append(f"{key}: not a number: {self.raw[key]!r}")
            return default
        if not math.isfinite(value):
            self.errors.append(f"{key}: must be finite, got {self.raw[key]!r}")
            return default
        return value

    def intv(self, key: str, default: int | None = None) -> int | None:
        if key not in self.raw:
            return default
        try:
            return int(self.raw[key])
        except ValueError:
            self.errors.append(f"{key}: not an integer: {self.raw[key]!r}")
            return default

    def boolv(self, key: str, default: bool) -> bool:
        if key not in self.raw:
            return default
        v = self.raw[key].lower()
        if v in ("true", "1", "yes", "on"):
            return True
        if v in ("false", "0", "no", "off"):
            return False
        self.errors.append(f"{key}: not a boolean: {self.raw[key]!r}")
        return default


def _parse_modes(text: str, errors: list[str]) -> dict[tuple[int, int], float]:
    modes: dict[tuple[int, int], float] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            coords, value = chunk.split(":")
            m1, m2 = coords.split(",")
            mode, v = (int(m1), int(m2)), float(value)
        except ValueError:
            errors.append(f"kernel.modes: malformed entry {chunk!r} (want 'm1,m2:value')")
            continue
        if math.isfinite(v):
            modes[mode] = v
        else:
            errors.append(f"kernel.modes: must be finite, got {chunk!r}")
    return modes


def parse_config(text: str) -> SimConfig:
    """Parse and fully validate a config; raises ConfigError listing every
    violation found."""
    errors: list[str] = []
    raw = _parse_lines(text, errors)
    for key in raw:
        if key not in _KNOWN_KEYS:
            errors.append(f"unknown key {key!r}")
    for key in _REQUIRED:
        if key not in raw:
            errors.append(f"missing required key {key!r}")
    r = _Reader(raw, errors)

    n = r.intv("grid.n", 0)
    l = r.floatv("grid.l", 0.0)
    if r.has("grid.n") and (n < 8 or (n & (n - 1)) != 0):
        errors.append(f"grid.n must be a power of two >= 8, got {n}")
    if r.has("grid.l") and l <= 0:
        errors.append("grid.l must be positive")

    kernel = None
    family = r.string("kernel")
    if family == "gaussian":
        sigma = r.floatv("kernel.sigma")
        strength = r.floatv("kernel.strength", 1.0)
        if sigma is None:
            errors.append("kernel.sigma is required for the gaussian family")
        elif sigma <= 0:
            errors.append("kernel.sigma must be positive")
        elif l > 0 and sigma > l / 6.0:
            errors.append(f"kernel.sigma must be <= l/6 = {l / 6.0:.6g}")
        if strength is not None and strength <= 0:
            errors.append("kernel.strength must be positive")
        kernel = KernelSpec.gaussian(sigma if sigma and sigma > 0 else 1.0,
                                     strength if strength and strength > 0 else 1.0)
    elif family == "mollifier":
        radius = r.floatv("kernel.radius")
        strength = r.floatv("kernel.strength", 1.0)
        if radius is None:
            errors.append("kernel.radius is required for the mollifier family")
        elif radius <= 0:
            errors.append("kernel.radius must be positive")
        elif l > 0 and radius > l / 2.0:
            errors.append(f"kernel.radius must be <= l/2 = {l / 2.0:.6g}")
        if strength is not None and strength <= 0:
            errors.append("kernel.strength must be positive")
        kernel = KernelSpec.mollifier(radius or 1.0, strength or 1.0)
    elif family == "spectral":
        modes = _parse_modes(r.string("kernel.modes"), errors)
        if not modes:
            errors.append("kernel.modes is required for the spectral family")
        kernel = KernelSpec.spectral(modes or {(0, 0): 1.0})
    elif r.has("kernel"):
        errors.append(f"unknown kernel family {family!r}")

    potential = None
    pfam = r.string("potential")
    if pfam == "double_well":
        potential = PotentialSpec.double_well()
    elif pfam == "quartic":
        a4 = r.floatv("potential.a4")
        if a4 is None:
            errors.append("potential.a4 is required for the quartic family")
        elif a4 <= 0:
            errors.append("potential.a4 must be positive")
        else:
            potential = PotentialSpec.quartic(a4, r.floatv("potential.a2", 0.0), r.floatv("potential.a0", 0.0))
    elif pfam == "polynomial":
        coeff_text = r.string("potential.coefficients")
        if not coeff_text:
            errors.append("potential.coefficients is required for the polynomial family")
        else:
            try:
                coeffs = [float(c) for c in coeff_text.split(",")]
                if not all(math.isfinite(c) for c in coeffs):
                    raise ValueError(f"must be finite, got {coeff_text!r}")
                potential = PotentialSpec.polynomial(coeffs)
            except ValueError as err:
                errors.append(f"potential.coefficients: {err}")
    elif r.has("potential"):
        errors.append(f"unknown potential family {pfam!r}")

    nu = r.floatv("nu", 0.0)
    dt = r.floatv("dt", 0.0)
    t_end = r.floatv("t_end", 0.0)
    if r.has("nu") and nu <= 0:
        errors.append("nu must be positive")
    if r.has("dt") and dt <= 0:
        errors.append("dt must be positive")
    if r.has("t_end") and dt > 0:
        if t_end < dt:
            errors.append("t_end must be at least one time step")
        elif t_end / dt > MAX_STEPS:  # also catches t_end / dt overflowing to inf
            errors.append(f"t_end / dt must be at most {MAX_STEPS:.0e} steps, got {t_end / dt:.3g}")
        elif abs(round(t_end / dt) * dt - t_end) > 1e-9 * max(t_end, 1.0):
            errors.append("t_end must be an integer multiple of dt")

    stabilizer: object = "auto"
    if r.string("stabilizer", "auto") != "auto":
        stabilizer = r.floatv("stabilizer", 0.0)
        if stabilizer < 0:
            errors.append("stabilizer must be nonnegative (or 'auto')")

    ifam = r.string("initial", "uniform")
    initial = InitialSpec()
    if ifam == "uniform":
        initial = InitialSpec(family="uniform", c=r.floatv("initial.c", 0.0))
    elif ifam == "random":
        seed = r.intv("initial.seed")
        if seed is None:
            errors.append("initial.seed is required for random initial data")
        initial = InitialSpec(
            family="random",
            amplitude=r.floatv("initial.amplitude", 0.0),
            mean=r.floatv("initial.mean", 0.0),
            seed=seed,
            band=r.intv("initial.band"),
        )
    elif ifam == "tanh_strip":
        width = r.floatv("initial.width", 0.1)
        if width <= 0:
            errors.append("initial.width must be positive")
        initial = InitialSpec(family="tanh_strip", width=width)
    elif ifam == "file":
        path = r.string("initial.path")
        if not path:
            errors.append("initial.path is required for file initial data")
        initial = InitialSpec(family="file", path=path)
    else:
        errors.append(f"unknown initial family {ifam!r}")

    ufam = r.string("initial.u0", "zero")
    if ufam == "zero":
        velocity = VelocitySpec(family="zero")
    elif ufam == "taylor_green":
        velocity = VelocitySpec(family="taylor_green", amplitude=r.floatv("initial.u0_amplitude", 1.0))
    elif ufam == "file":
        px, py = r.string("initial.u0_path_x"), r.string("initial.u0_path_y")
        if not (px and py):
            errors.append("initial.u0_path_x and initial.u0_path_y are required for file velocity")
        velocity = VelocitySpec(family="file", path_x=px, path_y=py)
    else:
        errors.append(f"unknown velocity family {ufam!r}")
        velocity = VelocitySpec()

    ffam = r.string("forcing", "zero")
    decay = r.floatv("forcing.decay", 0.0)
    if decay < 0:
        errors.append("forcing.decay must be nonnegative")
    if ffam == "zero":
        forcing = ForcingSpec()
    elif ffam == "body":
        forcing = ForcingSpec(
            family="body",
            amplitude=(r.floatv("forcing.amplitude_x", 0.0),
                       r.floatv("forcing.amplitude_y", 0.0)),
            decay=decay,
        )
    elif ffam == "single_mode":
        m1 = r.intv("forcing.mode_x", 1)
        m2 = r.intv("forcing.mode_y", 0)
        if (m1, m2) == (0, 0):
            errors.append("forcing.mode_x/mode_y must not both be zero")
        forcing = ForcingSpec(
            family="single_mode",
            mode=(m1, m2),
            scale=r.floatv("forcing.scale", 0.0),
            decay=decay,
        )
    else:
        errors.append(f"unknown forcing family {ffam!r}")
        forcing = ForcingSpec()

    record_every = r.intv("output.record_every", 1)
    if record_every < 1:
        errors.append("output.record_every must be >= 1")
    snapshot_every = r.intv("output.snapshot_every", 0)
    if snapshot_every < 0:
        errors.append("output.snapshot_every must be >= 0")
    output = OutputConfig(
        record_every=record_every,
        snapshot_every=snapshot_every,
        out_dir=r.string("output.out_dir"),
    )

    checks = ChecksConfig(
        enforce_hypotheses=r.boolv("checks.enforce_hypotheses", True),
        grad_control=r.boolv("checks.grad_control", False),
        dissipative=r.boolv("checks.dissipative", False),
        s_lo=r.floatv("checks.s_lo", -2.0),
        s_hi=r.floatv("checks.s_hi", 2.0),
    )
    if checks.s_lo >= checks.s_hi:
        errors.append("checks.s_lo must be below checks.s_hi")

    if errors or kernel is None or potential is None:
        raise ConfigError(errors or ["incomplete configuration"])

    return SimConfig(
        grid=GridConfig(n=n, l=l),
        kernel=kernel,
        potential=potential,
        sim=SimParams(nu=nu, dt=dt, t_end=t_end, stabilizer=stabilizer,
                      dealias=r.boolv("dealias", True)),
        forcing=forcing,
        initial=initial,
        velocity=velocity,
        output=output,
        checks=checks,
    )


def parse_config_file(path: str) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
