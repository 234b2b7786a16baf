"""Deterministic initial-data generation, in rfft2 half-plane coefficients:
``build_phi`` and ``build_u`` return those of phi(0) and u(0), and a run
makes its samples from them.

Random order-parameter data is band-limited white noise: one counter-based
Philox stream per Fourier mode, keyed by (seed, mode), so the same seed
produces the same continuum field on every grid that resolves the band
(|m| <= n/4 by default).  The perturbation is normalized to unit RMS through
the spectral sum (grid-free) before the amplitude and mean are applied.

Each mode's pair is the first two normals of a fresh
``Generator(Philox(key=[seed, mode]))``, bit for bit.  They are drawn for
every mode at once: the first Philox4x64-10 block of all the streams in one
pass of ``uint64`` arithmetic, then numpy's ziggurat on its fast path, where
a word's normal is ``rabs * wi[idx]`` with its sign, accepted when
``rabs < ki[idx]``.  The ``wi`` and a proven lower bound of ``ki`` are not
copied into this file; they are probed from numpy's own ``Generator`` once
per process.  A mode whose words the fast path cannot accept (the
ziggurat's wedge and tail, and the strips the probe leaves unproven) is
drawn by resetting one generator to its stream's start.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .spectral import Grid, leray_project, rfft2_cols


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


def initial_errors(spec: InitialSpec, n: int | None):
    """Yield the initial data's rules that ``spec`` breaks on n points (None: not checked)."""
    if spec.family == "random":
        if spec.seed is None:
            yield "initial.seed is required for random initial data"
        if spec.band is not None and (spec.band < 1 or (n is not None and spec.band >= n // 2)):
            yield f"initial.band must be in 1 .. grid.n/2 - 1 (grid.n = {n}), got {spec.band}"
    elif spec.family == "tanh_strip" and not spec.width > 0:
        yield "initial.width must be positive"
    elif spec.family == "file" and not spec.path:
        yield "initial.path is required for file initial data"


@dataclass(frozen=True)
class VelocitySpec:
    """Initial velocity."""

    family: str = "zero"  # zero | taylor_green | file
    amplitude: float = 1.0
    path_x: str = ""
    path_y: str = ""


def velocity_errors(spec: VelocitySpec):
    """Yield the initial velocity's rules that ``spec`` breaks."""
    if spec.family == "file" and not (spec.path_x and spec.path_y):
        yield "initial.u0_path_x and initial.u0_path_y are required for file velocity"


_M64 = 2**64 - 1
_LO32, _S32 = np.uint64(2**32 - 1), np.uint64(32)


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products ``m * b``; numpy has
    no 128-bit integers, so the high word is summed from 32-bit halves."""
    m1, m0 = np.uint64(m >> 32), np.uint64(m & 0xFFFFFFFF)
    b1, b0 = b >> _S32, b & _LO32
    p01, p10 = m0 * b1, m1 * b0
    mid = (m0 * b0 >> _S32) + (p01 & _LO32) + (p10 & _LO32)
    return m1 * b1 + (p01 >> _S32) + (p10 >> _S32) + (mid >> _S32), np.uint64(m) * b


def _philox_words(seed: int, lanes: np.ndarray) -> np.ndarray:
    """Words 0 and 1, as columns, of the first block of each Philox4x64-10
    stream keyed by (seed, lane): counter (1, 0, 0, 0), ten rounds."""
    k0, k1 = seed & _M64, lanes.astype(np.uint64)
    c0, c1, c2, c3 = (np.full(lanes.size, v, np.uint64) for v in (1, 0, 0, 0))
    for _ in range(10):
        hi0, lo0 = _mulhilo(0xD2E7470EE14C6C93, c0)
        hi1, lo1 = _mulhilo(0xCA5A826395121157, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ np.uint64(k0), lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = (k0 + 0x9E3779B97F4A7C15) & _M64, k1 + np.uint64(0xBB67AE8584CAA73B)
    return np.stack([c0, c1], axis=1)


@functools.cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """(wi, kl) by strip: numpy's ziggurat accepts a word of strip ``idx``
    on the first try when its ``rabs < ki[idx]``, with the normal
    ``rabs * wi[idx]``.  Both are probed from numpy's own generator: the
    state's buffer holds the probed word and then a sentinel, which comes
    out next only when the draw took one word.  ``wi`` is the draw at
    ``rabs = 1``.  ``kl`` is a candidate just below ``wi[idx-1] / wi[idx]``
    in units of 2^-52, kept when a draw at that ``rabs`` is accepted, and
    so at most ``ki``; it is 0 where a strip is left unproven."""
    sentinel = 0x5EED5EED5EED5EED
    gen = np.random.Generator(np.random.Philox())
    bit_gen, normal = gen.bit_generator, gen.standard_normal
    buffer = [0, sentinel, 0, 0]
    state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": [0, 0]},
        "buffer": buffer, "buffer_pos": 0, "has_uint32": 0, "uinteger": 0,
    }

    def first_try(rabs: int, idx: int) -> float | None:
        buffer[0] = rabs << 9 | idx  # sign bit 8 clear
        bit_gen.state = state
        x = normal()
        return x if bit_gen.random_raw() == sentinel else None

    wi = [first_try(1, idx) for idx in range(256)]
    kl = [0] * 256
    for idx in range(1, 256):
        if wi[idx - 1] is not None and wi[idx] is not None:
            rabs = min(int(wi[idx - 1] / wi[idx] * 2.0**52) - 2, 2**52 - 1)
            if rabs > 0 and first_try(rabs, idx) is not None:
                kl[idx] = rabs
    return np.array([0.0 if w is None else w for w in wi]), np.array(kl, dtype=np.uint64)


def _normal_pairs(seed: int, lanes: np.ndarray) -> np.ndarray:
    """Row i is the first normal pair of the Philox stream keyed by
    (seed, lanes[i]), as a fresh ``Generator(Philox(key=[seed, lane]))``
    would draw it.  Lanes whose two words the ziggurat's fast path accepts
    are drawn at once; for the rest one generator is reset to each
    stream's start in turn."""
    wi, kl = _ziggurat_tables()
    words = _philox_words(seed, lanes)
    idx = (words & np.uint64(0xFF)).astype(np.intp)
    rabs = words >> np.uint64(9) & np.uint64(2**52 - 1)
    pairs = rabs.astype(float) * wi[idx]
    np.negative(pairs, out=pairs, where=(words >> np.uint64(8) & np.uint64(1)).astype(bool))
    slow = np.flatnonzero(~(rabs < kl[idx]).all(axis=1))
    gen = np.random.Generator(np.random.Philox())
    bit_gen, normal = gen.bit_generator, gen.standard_normal
    # the setter copies the state word by word, so one dict serves every
    # lane; plain lists read faster there than uint64 arrays
    key = [seed & _M64, 0]
    state = {
        "bit_generator": "Philox", "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    }
    for i, lane in zip(slow.tolist(), lanes[slow].tolist()):
        key[1] = lane
        bit_gen.state = state
        normal(out=pairs[i])
    return pairs


def random_phi(grid: Grid, amplitude: float, mean_value: float, seed: int,
               band: int | None = None) -> np.ndarray:
    """The rfft2 coefficients of random data, shape (n, n//2 + 1): the
    normalized noise times amplitude n^2, and mean_value n^2 at k = 0."""
    band = grid.n // 4 if band is None else int(band)
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
    # hypot, as Python's complex abs, summed one mode at a time in draw order:
    # np.abs can differ from hypot by an ulp and np.sum adds pairwise
    sq = np.cumsum(np.hypot(drawn.real, drawn.imag) ** 2)[-1]
    rms = np.sqrt(2.0 * sq)
    if rms > 0:
        coeff *= amplitude / rms
    coeff *= n * n  # a power of two: exact
    coeff[0, 0] = mean_value * (n * n)
    return coeff


def tanh_strip_phi(grid: Grid, width: float) -> np.ndarray:
    """The samples of two tanh interfaces at y = l/4 and 3l/4, shape (n, n)."""
    _, yy = grid.mesh
    return np.tanh((yy - grid.l / 4.0) / width) - np.tanh((yy - 3.0 * grid.l / 4.0) / width) - 1.0


def taylor_green_u(grid: Grid, amplitude: float = 1.0) -> np.ndarray:
    """The samples of the cellular vortex, stacked (2, n, n)."""
    xx, yy = grid.mesh
    k = 2.0 * np.pi / grid.l
    return np.stack([amplitude * np.sin(k * xx) * np.cos(k * yy),
                     -amplitude * np.cos(k * xx) * np.sin(k * yy)])


def _read_on(grid: Grid, key: str, path: str) -> np.ndarray:
    """The samples of the snapshot at ``path``, which the config names by
    ``key``; an InitialDataError names the key when it is on another grid."""
    from .storage import read_snapshot

    f, _, _ = read_snapshot(path)
    if f.grid != grid:
        raise InitialDataError(f"{key}: snapshot grid n = {f.grid.n}, l = {f.grid.l!r} does not match "
                               f"the configured n = {grid.n}, l = {grid.l!r}")
    return f.values


def build_phi(spec: InitialSpec, grid: Grid) -> np.ndarray:
    """The rfft2 coefficients of phi(0), shape (n, n//2 + 1).  Uniform and
    random data are built in them; strip and file data are samples, each
    taking one forward transform; InitialDataError lists ``initial_errors``."""
    if errors := list(initial_errors(spec, grid.n)):
        raise InitialDataError("; ".join(errors))
    nh = grid.n // 2 + 1
    if spec.family == "uniform":
        coeff = np.zeros((grid.n, nh), dtype=complex)
        coeff[0, 0] = spec.c * grid.n**2
        return coeff
    if spec.family == "random":
        return random_phi(grid, spec.amplitude, spec.mean, spec.seed, spec.band)
    if spec.family == "tanh_strip":
        return rfft2_cols(tanh_strip_phi(grid, spec.width), nh)
    if spec.family == "file":
        return rfft2_cols(_read_on(grid, "initial.path", spec.path), nh)
    raise InitialDataError(f"unknown initial family {spec.family!r}")


def build_u(spec: VelocitySpec, grid: Grid) -> np.ndarray:
    """The rfft2 coefficients of the divergence-free u(0), stacked (2, n,
    n//2 + 1).  Zero is built in them; Taylor-Green, solenoidal as built,
    takes one stacked forward transform, and a velocity read from files is
    Leray-projected after its own; InitialDataError lists ``velocity_errors``."""
    if errors := list(velocity_errors(spec)):
        raise InitialDataError("; ".join(errors))
    nh = grid.n // 2 + 1
    if spec.family == "zero":
        return np.zeros((2, grid.n, nh), dtype=complex)
    if spec.family == "taylor_green":
        return rfft2_cols(taylor_green_u(grid, spec.amplitude), nh)
    if spec.family == "file":
        samples = np.stack([_read_on(grid, "initial.u0_path_x", spec.path_x),
                            _read_on(grid, "initial.u0_path_y", spec.path_y)])
        return leray_project(grid, rfft2_cols(samples, nh))
    raise InitialDataError(f"unknown velocity family {spec.family!r}")


def build_hats(initial: InitialSpec, velocity: VelocitySpec, grid: Grid) -> np.ndarray:
    """The rfft2 coefficients of (phi, u_x, u_y) at t = 0, stacked (3, n, n//2 + 1)."""
    return np.concatenate([build_phi(initial, grid)[None], build_u(velocity, grid)])
