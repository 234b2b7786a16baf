"""Run-configuration parsing and validation.

Configs are UTF-8 text in a flat ``section.key = value`` format; ``#``
comments and blank lines are ignored.  Family selectors sit on the bare
section name (``kernel = gaussian``, ``potential = double_well``,
``initial = random``), family parameters below it (``kernel.sigma = 0.3``).
Override lines in the same form (``nlchns ... --set key=value``) replace a
value of the text or add a key.  Parsing validates every key and reports all
violations at once, not just the first.  The accepted keys are exactly those
the parser reads for the selected families: a key nothing reads, a typo or a
parameter of a family that is not selected (``kernel.radius`` under
``kernel = gaussian``), is rejected.

Determinism contract: an identical config (plus seed) produces bit-identical
diagnostics.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from dataclasses import dataclass, replace

from .initialdata import InitialSpec, VelocitySpec, initial_errors, velocity_errors
from .kernels import KernelSpec, kernel_errors
from .potentials import PotentialSpec
from .solver import ForcingSpec, SimParams, forcing_errors, step_errors
from .spectral import Grid, grid_errors


class ConfigError(ValueError):
    def __init__(self, errors: list[str]):
        super().__init__("invalid configuration:\n  " + "\n  ".join(errors))
        self.errors = list(errors)


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
    grid: Grid
    kernel: KernelSpec
    potential: PotentialSpec
    sim: SimParams
    forcing: ForcingSpec = ForcingSpec()
    initial: InitialSpec = InitialSpec()
    velocity: VelocitySpec = VelocitySpec()
    output: OutputConfig = OutputConfig()
    checks: ChecksConfig = ChecksConfig()

    def with_grid_n(self, n: int) -> "SimConfig":
        return replace(self, grid=replace(self.grid, n=n))

    def with_dt(self, dt: float) -> "SimConfig":
        if errors := list(step_errors(dt, self.sim.stabilizer, self.sim.t_end)):
            raise ConfigError(errors)
        return replace(self, sim=replace(self.sim, dt=dt))


def _put(raw: dict[str, str], line: str, where: str, errors: list[str]) -> None:
    """Enter one ``key = value`` line into ``raw``; a value's ``#`` starts a
    comment.  ``where`` names the line in an error."""
    key, eq, value = line.partition("=")
    key = key.strip()
    if not (eq and key):
        errors.append(f"{where}: expected 'key = value', got {line!r}")
    elif key in raw:
        errors.append(f"{where}: duplicate key {key!r}")
    else:
        raw[key] = value.split("#", 1)[0].strip()


def _parse_lines(text: str, overrides: Iterable[str], errors: list[str]) -> dict[str, str]:
    """The config text's lines by key, then the override lines, each of which
    replaces the text's value for its key or adds the key."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            _put(raw, stripped, f"line {lineno}", errors)
    replaced: dict[str, str] = {}
    for line in overrides:
        _put(replaced, line.strip(), "override", errors)
    raw.update(replaced)
    return raw


class _Reader:
    """The config's ``key = value`` lines, read by key.  Every key asked for
    is recorded, so that a key nothing asks for can be rejected: the keys a
    config accepts are exactly those the parser reads for its families."""

    def __init__(self, raw: dict[str, str], errors: list[str]):
        self.raw = raw
        self.errors = errors
        self.read: set[str] = set()

    def string(self, key: str, default: str | None = "", need: str = "") -> str | None:
        """The key's text, or ``default`` when it is absent; ``need`` says
        what requires the key, making its absence an error."""
        self.read.add(key)
        if key in self.raw:
            return self.raw[key]
        if need:
            self.errors.append(f"{key} is required {need}")
        return default

    def floatv(self, key: str, default: float | None = None, need: str = "") -> float | None:
        text = self.string(key, None, need)
        if text is None:
            return default
        try:
            value = float(text)
        except ValueError:
            self.errors.append(f"{key}: not a number: {text!r}")
            return default
        if not math.isfinite(value):
            self.errors.append(f"{key}: must be finite, got {text!r}")
            return default
        return value

    def intv(self, key: str, default: int | None = None, need: str = "") -> int | None:
        text = self.string(key, None, need)
        if text is None:
            return default
        try:
            return int(text)
        except ValueError:
            self.errors.append(f"{key}: not an integer: {text!r}")
            return default

    def unknown_family(self, name: str, family: str, prefix: str) -> None:
        """A selector naming no family: one error, and the keys under
        ``prefix`` count as read, since no family says which it would read."""
        self.errors.append(f"unknown {name} family {family!r}")
        self.read.update(key for key in self.raw if key.startswith(prefix))

    def boolv(self, key: str, default: bool) -> bool:
        text = self.string(key, None)
        if text is None:
            return default
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        self.errors.append(f"{key}: not a boolean: {text!r}")
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


def parse_config(text: str, overrides: Iterable[str] = ()) -> SimConfig:
    """Parse and fully validate a config; raises ConfigError listing every
    violation found, each key that no setting reads among them.  Each
    ``key=value`` line of ``overrides`` replaces the text's value for that
    key, or adds the key; a key may be overridden once."""
    errors: list[str] = []
    r = _Reader(_parse_lines(text, overrides, errors), errors)
    every = "in every config"

    n = r.intv("grid.n", need=every)
    l = r.floatv("grid.l", need=every)
    errors.extend(grid_errors(n, l))
    span = math.inf if l is None or any(grid_errors(None, l)) else l  # bounds kernel sizes once valid

    kernel = potential = None
    family = r.string("kernel", None, need=every)
    if family in ("gaussian", "mollifier"):
        key = "kernel.sigma" if family == "gaussian" else "kernel.radius"
        size = r.floatv(key, need=f"for the {family} family")
        strength = r.floatv("kernel.strength", 1.0)
        kernel = (KernelSpec.gaussian if family == "gaussian" else KernelSpec.mollifier)(size, strength)
    elif family == "spectral":
        before = len(errors)
        modes = _parse_modes(r.string("kernel.modes"), errors)
        if modes or len(errors) == before:  # a table of malformed entries only is reported once
            kernel = KernelSpec.spectral(modes)
    elif family is not None:
        r.unknown_family("kernel", family, "kernel.")
    if kernel is not None:
        errors.extend(kernel_errors(kernel, span, n))

    pfam = r.string("potential", None, need=every)
    if pfam == "double_well":
        potential = PotentialSpec.double_well()
    elif pfam == "quartic":
        a4 = r.floatv("potential.a4", need="for the quartic family")
        a2, a0 = r.floatv("potential.a2", 0.0), r.floatv("potential.a0", 0.0)
        try:
            potential = None if a4 is None else PotentialSpec.quartic(a4, a2, a0)
        except ValueError as err:  # the builder's message names the key
            errors.append(str(err))
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
    elif pfam is not None:
        r.unknown_family("potential", pfam, "potential.")

    nu = r.floatv("nu", need=every)
    dt = r.floatv("dt", need=every)
    t_end = r.floatv("t_end", need=every)
    if nu is not None and nu <= 0:
        errors.append("nu must be positive")
    stabilizer: object = r.string("stabilizer", "auto")
    if stabilizer != "auto":
        stabilizer = r.floatv("stabilizer", 0.0)
    errors.extend(step_errors(dt, stabilizer, t_end))

    ifam = r.string("initial", "uniform")
    initial = InitialSpec()
    if ifam == "uniform":
        initial = InitialSpec(family="uniform", c=r.floatv("initial.c", 0.0))
    elif ifam == "random":
        initial = InitialSpec(
            family="random",
            amplitude=r.floatv("initial.amplitude", 0.0),
            mean=r.floatv("initial.mean", 0.0),
            # a malformed seed is reported as such, not also as missing
            seed=r.intv("initial.seed", 0 if "initial.seed" in r.raw else None),
            band=r.intv("initial.band"),
        )
    elif ifam == "tanh_strip":
        initial = InitialSpec(family="tanh_strip", width=r.floatv("initial.width", 0.1))
    elif ifam == "file":
        initial = InitialSpec(family="file", path=r.string("initial.path"))
    else:
        r.unknown_family("initial", ifam, "initial.")
    errors.extend(initial_errors(initial, n))

    ufam = r.string("initial.u0", "zero")
    velocity = VelocitySpec()
    if ufam == "taylor_green":
        velocity = VelocitySpec(family="taylor_green", amplitude=r.floatv("initial.u0_amplitude", 1.0))
    elif ufam == "file":
        velocity = VelocitySpec(family="file", path_x=r.string("initial.u0_path_x"),
                                path_y=r.string("initial.u0_path_y"))
    elif ufam != "zero":
        r.unknown_family("velocity", ufam, "initial.u0_")
    errors.extend(velocity_errors(velocity))

    ffam = r.string("forcing", "zero")
    forcing = ForcingSpec()
    if ffam == "body":
        forcing = ForcingSpec(
            family="body",
            amplitude=(r.floatv("forcing.amplitude_x", 0.0),
                       r.floatv("forcing.amplitude_y", 0.0)),
            decay=r.floatv("forcing.decay", 0.0),
        )
    elif ffam == "single_mode":
        forcing = ForcingSpec(
            family="single_mode",
            mode=(r.intv("forcing.mode_x", 1), r.intv("forcing.mode_y", 0)),
            scale=r.floatv("forcing.scale", 0.0),
            decay=r.floatv("forcing.decay", 0.0),
        )
    elif ffam != "zero":
        r.unknown_family("forcing", ffam, "forcing.")
    errors.extend(forcing_errors(forcing, n))

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
    if snapshot_every > 0 and not output.out_dir:
        errors.append("output.snapshot_every needs output.out_dir to write snapshots to")

    checks = ChecksConfig(
        enforce_hypotheses=r.boolv("checks.enforce_hypotheses", True),
        grad_control=r.boolv("checks.grad_control", False),
        dissipative=r.boolv("checks.dissipative", False),
        s_lo=r.floatv("checks.s_lo", -2.0),
        s_hi=r.floatv("checks.s_hi", 2.0),
    )
    if checks.s_lo >= checks.s_hi:
        errors.append("checks.s_lo must be below checks.s_hi")

    errors.extend(f"key {key!r} is not read by this configuration" for key in r.raw if key not in r.read)
    if errors:
        raise ConfigError(errors)

    return SimConfig(
        grid=Grid(n, l),
        kernel=kernel,
        potential=potential,
        sim=SimParams(nu=nu, dt=dt, t_end=t_end, stabilizer=stabilizer),
        forcing=forcing,
        initial=initial,
        velocity=velocity,
        output=output,
        checks=checks,
    )


def parse_config_file(path: str, overrides: Iterable[str] = ()) -> SimConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), overrides)
