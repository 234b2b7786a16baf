"""Interaction-kernel algebra on the periodic grid.

A kernel J is an even, nonnegative, integrable function wrapped onto the
torus.  The grid object carries its samples, the convolution multiplier J^ on
the rfft2 half plane, and the quadrature values of a = integral J, ||J||_L1
and ||grad J||_L1.  Convolution against a
field is a pointwise spectral product; on the torus a(x) is the constant a.

Shipped families:

* ``gaussian(sigma, strength)`` — strength * N(0, sigma^2 I) density,
  periodized by summing 7 images per direction; mass wraps in exactly, so
  a == strength up to grid-quadrature error.  The periodized density is the
  product of two 1-D image sums, so it is built from 7 n exponentials and
  outer products.
* ``mollifier(radius, strength)`` — strength * exp(-1/(1 - (r/R)^2)) on r < R,
  compactly supported (no wrapping needed for R <= l/2).
* ``spectral(modes)`` — the convolution multiplier given directly on a few
  modes; the samples are the corresponding band-limited function.

Nonnegativity of the samples is enforced at build time so the interaction
energy is a true Dirichlet-type form.  Kernel objects are immutable after
build, so any number of threads may read one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .spectral import Grid, parseval, rgradient, unresolved_modes


class KernelBuildError(ValueError):
    """Kernel parameters are invalid or produce an inadmissible kernel."""


_IMAGE_SHIFTS = range(-3, 4)


@dataclass(frozen=True)
class KernelSpec:
    """Parametric description of an interaction kernel."""

    family: str
    strength: float = 1.0
    sigma: float = 0.0
    radius: float = 0.0
    modes: tuple[tuple[int, int, float], ...] = ()

    @staticmethod
    def gaussian(sigma: float, strength: float = 1.0) -> "KernelSpec":
        return KernelSpec(family="gaussian", sigma=sigma, strength=strength)

    @staticmethod
    def mollifier(radius: float, strength: float = 1.0) -> "KernelSpec":
        return KernelSpec(family="mollifier", radius=radius, strength=strength)

    @staticmethod
    def spectral(modes: dict[tuple[int, int], float]) -> "KernelSpec":
        items = tuple(sorted((int(m1), int(m2), float(v)) for (m1, m2), v in modes.items()))
        return KernelSpec(family="spectral", modes=items)


def kernel_errors(spec: KernelSpec, l: float, n: int | None):
    """Yield the kernel's rules that ``spec`` breaks on n points of side l: localized when
    wrapped, a positive strength, a non-empty even table of resolved modes."""
    if spec.family in ("gaussian", "mollifier"):
        key, size, parts = (("kernel.sigma", spec.sigma, 6) if spec.family == "gaussian"
                            else ("kernel.radius", spec.radius, 2))
        if size is not None and not size > 0:
            yield f"{key} must be positive"
        elif size is not None and size > l / parts:
            yield f"{key} must be <= l/{parts} = {l / parts:.6g}"
        if not spec.strength > 0:
            yield "kernel.strength must be positive"
    elif spec.family == "spectral":
        if not spec.modes:
            yield "kernel.modes is required for the spectral family"
        yield from unresolved_modes([("kernel.modes", (m1, m2)) for m1, m2, _ in spec.modes], n)
        table = {(m1, m2): v for m1, m2, v in spec.modes}
        for (m1, m2), v in table.items():
            if (m1, m2) < (-m1, -m2) and table.get((-m1, -m2), v) != v:
                yield f"kernel.modes: {m1},{m2} and {-m1},{-m2} must have the same value"


@dataclass(eq=False)
class KernelOnGrid:
    """A kernel discretized on one grid, with its multiplier and norms;
    compared by identity, as arrays have no single truth value.
    ``samples``: J at the grid points, (n, n); ``multiplier``: J^ =
    integral J(x) exp(-i k.x) dx by quadrature, real and even, on the rfft2
    half plane (shape (n, n//2 + 1))."""

    grid: Grid
    samples: np.ndarray = field(repr=False)
    multiplier: np.ndarray = field(repr=False)
    a: float
    norm_l1: float
    grad_norm_l1: float

    @property
    def a_star(self) -> float:
        # a(x) is constant on the torus, so ||a||_inf == a
        return self.a

    @cached_property
    def a_minus_j(self) -> np.ndarray:
        """Multiplier of f -> a f - J*f on the rfft2 half plane."""
        return self.a - self.multiplier

    @cached_property
    def weight_a_minus_j(self) -> np.ndarray:
        """Parseval weight of (f, a f - J*f) (``spectral.parseval``)."""
        return self.grid.half.weight * self.a_minus_j


def _gaussian_samples(grid: Grid, sigma: float, strength: float):
    """Samples and |grad| of the Gaussian periodized over the images
    ``_IMAGE_SHIFTS`` in each direction.  The image sum separates, so both
    come from the 1-D sums e(x) = sum_s exp(-(x + s l)^2 / 2 sigma^2) and
    d(x) = e'(x): val = norm e(x) e(y), grad val = norm (d(x) e(y), e(x) d(y))."""
    dx = grid.x[None, :] + grid.l * np.array(_IMAGE_SHIFTS)[:, None]
    g = np.exp(-(dx * dx) / (2.0 * sigma**2))
    e = g.sum(axis=0)
    d = (-dx / sigma**2 * g).sum(axis=0)
    norm = strength / (2.0 * np.pi * sigma**2)
    val = norm * np.outer(e, e)
    return val, norm * np.hypot(np.outer(d, e), np.outer(e, d))


def _mollifier_samples(grid: Grid, radius: float, strength: float):
    xx, yy = grid.mesh
    # minimum-image coordinates; support <= l/2 so one image suffices
    dx = (xx + grid.l / 2.0) % grid.l - grid.l / 2.0
    dy = (yy + grid.l / 2.0) % grid.l - grid.l / 2.0
    r2 = dx * dx + dy * dy
    t = r2 / radius**2
    inside = t < 1.0
    with np.errstate(divide="ignore", over="ignore"):
        body = np.where(inside, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    val = strength * body
    r = np.sqrt(r2)
    denom = np.where(inside, (1.0 - t) ** 2, 1.0)
    gmag = np.where(inside, val * 2.0 * r / radius**2 / denom, 0.0)
    return val, gmag


def _spectral_samples(grid: Grid, modes):
    n = grid.n
    mult = np.zeros((n, n // 2 + 1), dtype=float)
    for m1, m2, v in modes:
        for a, b in ((m1, m2), (-m1, -m2)):
            if b % n <= n // 2:  # the half plane; the rest are conjugates
                mult[a % n, b % n] = v
    val = np.fft.irfft2(mult) / grid.cell_volume
    # band-limited, so spectral differentiation of the samples is exact
    return val, np.hypot(*rgradient(grid, np.fft.rfft2(val)))


def build_kernel(spec: KernelSpec, grid: Grid) -> KernelOnGrid:
    if spec.family not in ("gaussian", "mollifier", "spectral"):
        raise KernelBuildError(f"unknown kernel family {spec.family!r}")
    if errors := list(kernel_errors(spec, grid.l, grid.n)):
        raise KernelBuildError("; ".join(errors))
    if spec.family == "gaussian":
        val, gmag = _gaussian_samples(grid, spec.sigma, spec.strength)
    elif spec.family == "mollifier":
        val, gmag = _mollifier_samples(grid, spec.radius, spec.strength)
    else:
        val, gmag = _spectral_samples(grid, spec.modes)

    scale = float(np.max(np.abs(val))) if val.size else 0.0
    if float(np.min(val)) < -1e-12 * max(scale, 1.0):
        raise KernelBuildError(
            f"kernel is not pointwise nonnegative (min sample {np.min(val):.3e})"
        )
    np.clip(val, 0.0, None, out=val)

    w = grid.cell_volume
    a = float(np.sum(val) * w)
    norm_l1 = float(np.sum(np.abs(val)) * w)
    grad_norm_l1 = float(np.sum(gmag) * w)
    return KernelOnGrid(
        grid=grid,
        samples=val,
        multiplier=np.fft.rfft2(val).real * w,
        a=a,
        norm_l1=norm_l1,
        grad_norm_l1=grad_norm_l1,
    )


def interaction_energy(kernel: KernelOnGrid, p: np.ndarray, weight: np.ndarray | None = None) -> float:
    """(1/4) integral integral J(x-y) (f(x)-f(y))^2 of the field whose rfft2
    coefficients (or the first columns of them) have p = |f^|^2
    (``spectral.power``), via the identity (1/2) double-integral =
    a ||f||^2 - (f, J*f) = (f, (a - J^) f) read by Parseval; ``weight``, if given, is
    ``weight_a_minus_j`` on p's columns, contiguous, which the dot product need not copy."""
    return 0.5 * parseval(kernel.weight_a_minus_j if weight is None else weight, p)
