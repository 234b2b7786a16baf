import numpy as np
import pytest

from nlchns.spectral import Grid, ScalarField, VectorField, leray_project

TWO_PI = 2.0 * np.pi


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def grid32():
    return Grid(32, TWO_PI)


def random_field(grid: Grid, rng, band: int | None = None) -> ScalarField:
    """Real random field; band-limit by zeroing modes above |m| = band."""
    vals = rng.standard_normal((grid.n, grid.n))
    if band is None:
        return ScalarField(grid, vals)
    keep = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) <= band
    coeff = np.fft.rfft2(vals) * (keep[:, None] & keep[None, : grid.n // 2 + 1])
    return ScalarField(grid, np.fft.irfft2(coeff))


def full_plane(grid: Grid):
    """Full-plane fft2 reference operators, built apart from ``Grid``: the
    derivative wavenumbers kx, ky (Nyquist line zeroed), |k|^2 and the
    2/3-rule keep mask, each of shape (n, n)."""
    m = np.fft.fftfreq(grid.n, d=1.0 / grid.n)
    k = 2.0 * np.pi * m / grid.l
    k[grid.n // 2] = 0.0
    kx, ky = np.meshgrid(k, k, indexing="ij")
    keep = np.abs(m) <= grid.n // 3
    return kx, ky, kx**2 + ky**2, keep[:, None] & keep[None, :]


def random_vector(grid: Grid, rng, band: int | None = None, solenoidal: bool = False) -> VectorField:
    v = VectorField(random_field(grid, rng, band), random_field(grid, rng, band))
    return leray_project(v) if solenoidal else v


def rel_err(got, want, floor=1e-300) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want)) / denom)
