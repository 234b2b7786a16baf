"""Deterministic initial-data generation.

Random order-parameter data is band-limited white noise: one counter-based
Philox stream per Fourier mode, keyed by (seed, mode), so the same seed
produces the same continuum field on every grid that resolves the band
(|m| <= n/4 by default).  The perturbation is normalized to unit RMS through
the spectral sum (grid-free) before the amplitude and mean are applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import Grid, ScalarField, VectorField, constant_field, vector_from_values, zero_vector


class InitialDataError(ValueError):
    pass


@dataclass(frozen=True)
class InitialSpec:
    """Order-parameter initial condition."""

    family: str = "uniform"  # uniform | random | tanh_strip | file
    c: float = 0.0
    amplitude: float = 0.0
    mean: float = 0.0
    seed: int | None = None
    width: float = 0.1
    path: str = ""
    band: int | None = None  # random-family band limit; default n // 4


@dataclass(frozen=True)
class VelocitySpec:
    """Initial velocity."""

    family: str = "zero"  # zero | taylor_green | file
    amplitude: float = 1.0
    path_x: str = ""
    path_y: str = ""


def _mode_coefficient(gen: np.random.Generator, seed: int, m1: int, m2: int) -> complex:
    """The first normal pair of the Philox stream keyed by (seed, mode), drawn
    by ``gen`` (a Philox generator) after resetting it to the stream's start,
    as a fresh ``Generator(Philox(key=...))`` would begin."""
    lane = ((m1 & 0xFFFFFFFF) << 32) | (m2 & 0xFFFFFFFF)
    gen.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, dtype=np.uint64),
                  "key": np.array([seed & 0xFFFFFFFFFFFFFFFF, lane], dtype=np.uint64)},
        "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    z = gen.standard_normal(2)
    return complex(z[0], z[1])


def random_phi(grid: Grid, amplitude: float, mean_value: float, seed: int,
               band: int | None = None) -> ScalarField:
    band = grid.n // 4 if band is None else int(band)
    if band < 1 or band >= grid.n // 2:
        raise InitialDataError(f"random band {band} not resolvable on n = {grid.n}")
    n = grid.n
    gen = np.random.Generator(np.random.Philox())
    coeff = np.zeros((n, n // 2 + 1), dtype=complex)  # amplitudes on the rfft2 half plane
    sq = 0.0
    for m1 in range(0, band + 1):
        for m2 in range(-band, band + 1):
            if m1 == 0 and m2 <= 0:
                continue  # one of each conjugate pair is drawn
            z = _mode_coefficient(gen, seed, m1, m2)
            if m2 >= 0:
                coeff[m1, m2] = z
            if m2 <= 0:
                coeff[-m1 % n, -m2] = np.conj(z)
            sq += abs(z) ** 2
    rms = np.sqrt(2.0 * sq)
    if rms > 0:
        coeff *= amplitude / rms
    return ScalarField(grid, mean_value + np.fft.irfft2(coeff * (n * n)))


def tanh_strip_phi(grid: Grid, width: float) -> ScalarField:
    if width <= 0:
        raise InitialDataError("tanh_strip width must be positive")
    _, yy = grid.mesh
    vals = np.tanh((yy - grid.l / 4.0) / width) - np.tanh((yy - 3.0 * grid.l / 4.0) / width) - 1.0
    return ScalarField(grid, vals)


def taylor_green_u(grid: Grid, amplitude: float = 1.0) -> VectorField:
    xx, yy = grid.mesh
    k = 2.0 * np.pi / grid.l
    ux = amplitude * np.sin(k * xx) * np.cos(k * yy)
    uy = -amplitude * np.cos(k * xx) * np.sin(k * yy)
    return vector_from_values(grid, ux, uy)


def build_phi(spec: InitialSpec, grid: Grid) -> ScalarField:
    if spec.family == "uniform":
        return constant_field(grid, spec.c)
    if spec.family == "random":
        if spec.seed is None:
            raise InitialDataError("random initial data requires a seed")
        return random_phi(grid, spec.amplitude, spec.mean, spec.seed, spec.band)
    if spec.family == "tanh_strip":
        return tanh_strip_phi(grid, spec.width)
    if spec.family == "file":
        from .storage import read_snapshot

        f, _, _ = read_snapshot(spec.path)
        if f.grid.n != grid.n or f.grid.l != grid.l:
            raise InitialDataError("snapshot grid does not match the configured grid")
        return f
    raise InitialDataError(f"unknown initial family {spec.family!r}")


def build_u(spec: VelocitySpec, grid: Grid) -> VectorField:
    if spec.family == "zero":
        return zero_vector(grid)
    if spec.family == "taylor_green":
        return taylor_green_u(grid, spec.amplitude)
    if spec.family == "file":
        from .storage import read_snapshot

        ux, _, _ = read_snapshot(spec.path_x)
        uy, _, _ = read_snapshot(spec.path_y)
        if ux.grid.n != grid.n or ux.grid.l != grid.l:
            raise InitialDataError("snapshot grid does not match the configured grid")
        return VectorField(ux, uy)
    raise InitialDataError(f"unknown velocity family {spec.family!r}")
