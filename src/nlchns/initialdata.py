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

from .spectral import (
    Grid,
    ScalarField,
    VectorField,
    constant_field,
    leray_project,
    vector_from_values,
    zero_vector,
)


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


def _normal_pairs(seed: int, lanes: np.ndarray) -> np.ndarray:
    """Row i is the first normal pair of the Philox stream keyed by
    (seed, lanes[i]), as a fresh ``Generator(Philox(key=[seed, lane]))``
    would draw it.  One generator is reset to each stream's start in turn."""
    gen = np.random.Generator(np.random.Philox())
    bit_gen, normal = gen.bit_generator, gen.standard_normal
    # the setter copies the state word by word, so one dict serves every
    # lane; plain lists read faster there than uint64 arrays
    key = [seed & 0xFFFFFFFFFFFFFFFF, 0]
    state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    pairs = np.empty((lanes.size, 2))
    for i, lane in enumerate(lanes.tolist()):
        key[1] = lane
        bit_gen.state = state
        normal(out=pairs[i])
    return pairs


def random_phi(grid: Grid, amplitude: float, mean_value: float, seed: int,
               band: int | None = None) -> ScalarField:
    band = grid.n // 4 if band is None else int(band)
    if band < 1 or band >= grid.n // 2:
        raise InitialDataError(f"random band {band} not resolvable on n = {grid.n}")
    n = grid.n
    # z[m1, band + m2] for m1 = 0..band, |m2| <= band, drawn in row-major
    # order; one of each conjugate pair, so row m1 = 0 starts at m2 = 1
    m1 = np.arange(band + 1, dtype=np.uint64)[:, None]
    m2 = (np.arange(-band, band + 1) % 2**32).astype(np.uint64)  # the low 32 bits
    lanes = ((m1 << np.uint64(32)) | m2).ravel()[band + 1:]
    drawn = _normal_pairs(seed, lanes).view(complex).ravel()
    z = np.concatenate([np.zeros(band + 1, dtype=complex), drawn]).reshape(band + 1, 2 * band + 1)
    coeff = np.zeros((n, n // 2 + 1), dtype=complex)  # amplitudes on the rfft2 half plane
    coeff[:band + 1, :band + 1] = z[:, band:]  # (m1, m2) for m2 >= 0
    coeff[n - band:, :band + 1] = np.conj(z[:0:-1, band::-1])  # (-m1, -m2) for m1 > 0, m2 <= 0
    sq = 0.0  # Python's complex abs in draw order: np.abs can differ by an ulp
    for c in drawn.tolist():
        sq += abs(c) ** 2
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


def _read_on(grid: Grid, key: str, path: str) -> ScalarField:
    """The snapshot at ``path``, which the config names by ``key``; an
    InitialDataError names the key when it is on another grid."""
    from .storage import read_snapshot

    f, _, _ = read_snapshot(path)
    if f.grid != grid:
        raise InitialDataError(f"{key}: snapshot grid n = {f.grid.n}, l = {f.grid.l!r} does not match "
                               f"the configured n = {grid.n}, l = {grid.l!r}")
    return f


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
        return _read_on(grid, "initial.path", spec.path)
    raise InitialDataError(f"unknown initial family {spec.family!r}")


def build_u(spec: VelocitySpec, grid: Grid) -> VectorField:
    """The divergence-free initial velocity.  Zero and Taylor-Green are
    solenoidal as built; a velocity read from files is Leray-projected."""
    if spec.family == "zero":
        return zero_vector(grid)
    if spec.family == "taylor_green":
        return taylor_green_u(grid, spec.amplitude)
    if spec.family == "file":
        return leray_project(VectorField(_read_on(grid, "initial.u0_path_x", spec.path_x),
                                         _read_on(grid, "initial.u0_path_y", spec.path_y)))
    raise InitialDataError(f"unknown velocity family {spec.family!r}")
