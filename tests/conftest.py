from pathlib import Path

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from nlchns.diagnostics import DiagnosticsRecord, identity_residual, make_record
from nlchns.kernels import KernelOnGrid, interaction_energy
from nlchns.potentials import PotentialSpec, eval_df, eval_f
from nlchns.solver import ForcingSpec, SimState, mu_hat
from nlchns.spectral import Grid, leray_project, parseval, power, rgradient

TWO_PI = 2.0 * np.pi
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def grid32():
    return Grid(32, TWO_PI)


def random_field(grid: Grid, rng, band: int | None = None) -> np.ndarray:
    """Samples (n, n) of a real random field; band-limit by zeroing modes above |m| = band."""
    vals = rng.standard_normal((grid.n, grid.n))
    if band is None:
        return vals
    keep = np.abs(np.fft.fftfreq(grid.n, d=1.0 / grid.n)) <= band
    coeff = np.fft.rfft2(vals) * (keep[:, None] & keep[None, : grid.n // 2 + 1])
    return np.fft.irfft2(coeff)


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


def constant_field(grid: Grid, value: float = 0.0) -> np.ndarray:
    return np.full((grid.n, grid.n), float(value))


def zero_vector(grid: Grid) -> np.ndarray:
    return np.zeros((2, grid.n, grid.n))


def state_from_samples(grid: Grid, phi: np.ndarray, u: np.ndarray, t: float) -> SimState:
    """The state with the samples phi (n, n) and u (2, n, n) and their full-width coefficients."""
    samples = np.concatenate([phi[None], u])
    return SimState(grid, np.fft.rfft2(samples), t, samples)


def leray(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Samples of the Leray projection of v (2, n, n), through ``spectral.leray_project``."""
    return np.fft.irfft2(leray_project(grid, np.fft.rfft2(v)), s=(grid.n, grid.n))


def random_vector(grid: Grid, rng, band: int | None = None, solenoidal: bool = False) -> np.ndarray:
    """Samples (2, n, n) of a random vector field, band-limited and projected on request."""
    v = np.stack([random_field(grid, rng, band), random_field(grid, rng, band)])
    return leray(grid, v) if solenoidal else v


def rel_err(got, want, floor=1e-300) -> float:
    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    denom = max(float(np.max(np.abs(want))), floor)
    return float(np.max(np.abs(got - want)) / denom)


# Sample-level forms of the solver's half-plane operators, for the identity
# tests: each goes through rfft2 and the operator the solver runs.

def rdivergence(grid: Grid, x_hat: np.ndarray, y_hat: np.ndarray) -> np.ndarray:
    """Samples of div v from the first columns of its coefficients: one irfft2."""
    h, c = grid.half, x_hat.shape[1]
    return np.fft.irfft2(h.ikx[:, :c] * x_hat + h.iky[:, :c] * y_hat, s=(grid.n, grid.n))


def advect(u: np.ndarray, grad_f) -> np.ndarray:
    """Samples of (u . grad) f, the pointwise product with the samples of
    grad f: the convective form of the transport."""
    return u[0] * grad_f[0] + u[1] * grad_f[1]


def gradient(grid: Grid, f: np.ndarray) -> np.ndarray:
    return rgradient(grid, np.fft.rfft2(f))


def divergence(grid: Grid, v: np.ndarray) -> np.ndarray:
    return rdivergence(grid, *np.fft.rfft2(v))


def laplacian(grid: Grid, f: np.ndarray) -> np.ndarray:
    return np.fft.irfft2(-grid.half.k2 * np.fft.rfft2(f))


def inner(grid: Grid, f: np.ndarray, g: np.ndarray) -> float:
    """L2 inner product with physical measure, as the sample sum times the
    cell volume; scalar (n, n) or vector (2, n, n) samples, on ``grid``."""
    if f.shape != g.shape or f.shape[-2:] != (grid.n, grid.n):
        raise ValueError(f"samples {f.shape} and {g.shape} are not both on the {grid.n} x {grid.n} grid")
    return float(np.sum(f * g) * grid.cell_volume)


def norm_l2(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(max(inner(grid, f, f), 0.0)))


def forcing_samples(spec: ForcingSpec, grid: Grid, t: float) -> np.ndarray:
    """Samples of h(t) on the mesh, stacked (2, n, n), the reference for the
    coefficients ``ForcingSpec.field_at`` gives: A e^{-lambda t} for ``body``,
    and scale e^{-lambda t} cos(2 pi m.x / l) (-m2, m1)/|m| for ``single_mode``."""
    damp = np.exp(-spec.decay * t)
    if spec.family == "body":
        ax, ay = spec.amplitude
        return np.stack([np.full((grid.n, grid.n), ax * damp), np.full((grid.n, grid.n), ay * damp)])
    m1, m2 = spec.mode
    norm = np.hypot(m1, m2)
    xx, yy = grid.mesh
    c = spec.scale * damp * np.cos(2.0 * np.pi * (m1 * xx + m2 * yy) / grid.l)
    return np.stack([-m2 / norm * c, m1 / norm * c])


def grad_norm_sq(grid: Grid, f: np.ndarray) -> float:
    """||grad f||^2 for scalar samples (n, n), Frobenius ||grad u||^2 for
    vector samples (2, n, n), by Parseval."""
    return parseval(grid.half.weight_k2, power(*np.fft.rfft2(f.reshape(-1, grid.n, grid.n))))


def seminorm_h1(grid: Grid, f: np.ndarray) -> float:
    return float(np.sqrt(grad_norm_sq(grid, f)))


def weak_gradient_margin(grad_mu_sq: float, grad_phi_sq: float, phi_norm_sq: float,
                         c0: float, norm_gradj_l1: float) -> float:
    """Secondary margin of ||grad mu||^2 >= (c0^2/4)||grad phi||^2 -
    2 ||grad J||_L1^2 ||phi||^2, which holds without the sharp condition."""
    return grad_mu_sq - 0.25 * c0 * c0 * grad_phi_sq + 2.0 * norm_gradj_l1**2 * phi_norm_sq


def gaussian_image_sum(grid: Grid, sigma: float, strength: float):
    """The periodized Gaussian kernel summed image by image over the 7 x 7
    shifts (s1 l, s2 l), s1, s2 = -3..3: its samples and |grad|, each (n, n)."""
    x = np.arange(grid.n) * (grid.l / grid.n)
    xx, yy = np.meshgrid(x, x, indexing="ij")
    val = np.zeros_like(xx)
    gx = np.zeros_like(xx)
    gy = np.zeros_like(xx)
    norm = strength / (2.0 * np.pi * sigma**2)
    for sx in range(-3, 4):
        for sy in range(-3, 4):
            dx = xx + sx * grid.l
            dy = yy + sy * grid.l
            j = norm * np.exp(-(dx * dx + dy * dy) / (2.0 * sigma**2))
            val += j
            gx += -dx / sigma**2 * j
            gy += -dy / sigma**2 * j
    return val, np.hypot(gx, gy)


def mu_grad_phi(grid: Grid, phi: np.ndarray, mu_hat: np.ndarray) -> np.ndarray:
    """The samples (2, n, n) of the strong-form coupling force mu grad phi
    from the samples of phi and the coefficients of mu: the reference for the
    solver's -phi grad mu, from which it differs by the gradient grad(phi mu)."""
    mu = np.fft.irfft2(mu_hat, s=(grid.n, grid.n))
    return mu * rgradient(grid, np.fft.rfft2(phi))


def mu_coefficients(kernel: KernelOnGrid, potential: PotentialSpec, phi: np.ndarray) -> np.ndarray:
    """rfft2 coefficients of mu for the samples ``phi``, through the solver's ``mu_hat``."""
    return mu_hat(kernel.a_minus_j, np.fft.rfft2(phi), np.fft.rfft2(eval_df(potential, phi)))


def energy(state, kernel: KernelOnGrid, potential: PotentialSpec) -> DiagnosticsRecord:
    """The record of ``state`` with mu^ = 0, for its ``kinetic``,
    ``interaction``, ``bulk`` and ``total_energy``: the energy every record
    takes."""
    return make_record(state, np.zeros_like(state.hats[0]), kernel, potential, nu=0.0, beta=0.0,
                       forcing_power=0.0, prev=None)


def reference_record(state, mu_hat: np.ndarray, kernel: KernelOnGrid, potential: PotentialSpec, nu: float,
                     beta: float, forcing_power: float, prev: DiagnosticsRecord | None) -> DiagnosticsRecord:
    """The record of ``state`` from one allocating call per quantity, ``power``,
    ``parseval``, ``interaction_energy`` and ``eval_f``: the oracle for
    ``make_record``, which works in buffers, bit for bit."""
    g, half = state.grid, state.grid.half
    p_phi, p_u = power(state.hats[0]), power(*state.hats[1:])
    kinetic, interaction = 0.5 * parseval(half.weight, p_u), interaction_energy(kernel, p_phi)
    bulk = float(np.sum(eval_f(potential, state.samples[0])) * g.cell_volume)
    grad_mu_sq, grad_phi_sq = parseval(half.weight_k2, power(mu_hat)), parseval(half.weight_k2, p_phi)
    rec = DiagnosticsRecord(
        t=state.t, mass=float(state.hats[0][0, 0].real) * g.volume / g.n**2, kinetic=kinetic,
        interaction=interaction, bulk=bulk, total_energy=kinetic + interaction + bulk,
        grad_u_sq=parseval(half.weight_k2, p_u), grad_mu_sq=grad_mu_sq, forcing_power=forcing_power,
        identity_residual=0.0, grad_control_margin=grad_mu_sq - beta * grad_phi_sq,
        phi_min=float(np.min(state.samples[0])), phi_max=float(np.max(state.samples[0])),
        grad_phi_sq=grad_phi_sq, phi_sq=parseval(half.weight, p_phi),
    )
    if prev is not None:
        rec.identity_residual = identity_residual(prev, rec, rec.t - prev.t, nu)
    return rec


def record_bytes(rec: DiagnosticsRecord) -> bytes:
    """The record's CSV row and its two other norms, as bytes."""
    return np.array(rec.as_row() + (rec.grad_phi_sq, rec.phi_sq)).tobytes()


def convolve(kernel: KernelOnGrid, f: np.ndarray) -> np.ndarray:
    """(J * f)(x) = integral J(x - y) f(y) dy with the multiplier the solver
    uses, from and to samples on the kernel's grid."""
    if f.shape != (kernel.grid.n, kernel.grid.n):
        raise ValueError("kernel and field on different grids")
    return np.fft.irfft2(kernel.multiplier * np.fft.rfft2(f))


# A step of the scheme from its equations, apart from the solver (item 6)

def reference_step(kernel: KernelOnGrid, potential: PotentialSpec, params, phi: np.ndarray, ux: np.ndarray,
                   uy: np.ndarray, h: tuple[np.ndarray, np.ndarray] | None = None):
    """The samples (phi, u_x, u_y) at t^{n+1} from those at t^n and those of
    h(t^n) (None for zero), by the scheme as the ``solver`` module docstring
    states it, on the full fft2 plane: the wavenumbers and 2/3 mask of
    ``full_plane``, J^ from the fft2 of the kernel's samples and a = J^(0),
    the transport as u . grad phi and the self-advection as (u . grad) u,
    each product dealiased by the mask, and the projection I - k k^T / |k|^2.
    The capillary force is -phi grad mu, as the docstring writes it: the
    strong form mu grad phi differs from it by grad(phi mu), which the
    projection removes only where phi mu is resolved, and F'(phi) in mu is
    not band-limited (3.5e-3 of u after one step of random data at n = 32)."""
    g = kernel.grid
    kx, ky, k2, mask = full_plane(g)
    dt, nu, s = params.dt, params.nu, params.stabilizer

    def fft(f):
        return np.fft.fft2(f)

    def ifft(f_hat):
        return np.fft.ifft2(f_hat).real

    def grad(f):
        f_hat = fft(f)
        return ifft(1j * kx * f_hat), ifft(1j * ky * f_hat)

    j_hat = fft(kernel.samples).real * g.cell_volume
    a = j_hat[0, 0]
    phi_hat, fp_hat = fft(phi), fft(eval_df(potential, phi))
    (px, py), (uxx, uxy), (uyx, uyy) = grad(phi), grad(ux), grad(uy)

    # (phi^+ - phi)/dt = -|k|^2 [(a + S) phi^+ - S phi + F'(phi)^ - J^ phi^] - (u . grad phi)^
    rhs = phi_hat / dt - k2 * (fp_hat - (s + j_hat) * phi_hat) - fft(ux * px + uy * py)
    new_phi = mask * rhs / (1.0 / dt + k2 * (a + s))
    new_phi[0, 0] = phi_hat[0, 0]

    # (u^+ - u)/dt - nu lap u^+ = P [-phi grad mu - (u . grad) u + h], mu = a phi - J*phi + F'(phi)
    mx, my = grad(ifft((a - j_hat) * phi_hat + fp_hat))
    bx = fft(ux) / dt + fft(-phi * mx - ux * uxx - uy * uxy)
    by = fft(uy) / dt + fft(-phi * my - ux * uyx - uy * uyy)
    if h is not None:
        bx, by = bx + fft(h[0]), by + fft(h[1])
    bx, by = (mask * b / (1.0 / dt + nu * k2) for b in (bx, by))
    kb = (kx * bx + ky * by) / np.where(k2 > 0.0, k2, 1.0)
    return ifft(new_phi), ifft(bx - kx * kb), ifft(by - ky * kb)


# FFT-free reference for the spectral convolution (criterion 1)

def convolution_oracle(kernel: KernelOnGrid, f: np.ndarray) -> np.ndarray:
    """(J * f)(x_i) = sum_j J(x_i - x_j) f(x_j) * cell volume, as the literal
    periodic double sum (no FFT anywhere), from and to samples on the kernel's grid."""
    g = kernel.grid
    if g.n > 64:
        raise ValueError(f"oracle is O(n^4); n = {g.n} > 64")
    if f.shape != (g.n, g.n):
        raise ValueError("field and kernel on different grids")
    n = g.n
    J = kernel.samples
    idx = np.arange(n)
    if n <= 32:
        gather = J[
            (idx[:, None, None, None] - idx[None, None, :, None]) % n,
            (idx[None, :, None, None] - idx[None, None, None, :]) % n,
        ]
        out = np.einsum("xyij,ij->xy", gather, f)
    else:
        out = np.empty((n, n))
        for xi in range(n):
            rows = J[(xi - idx) % n, :]
            for xj in range(n):
                out[xi, xj] = np.sum(rows[:, (xj - idx) % n] * f)
    return out * g.cell_volume


# numpy forms of the auditor's polynomial helpers and golden-section search:
# numpy arrays and numpy scalars throughout.  ``potentials`` and
# ``hypotheses`` run them in Python floats and must give the same bits.

def ref_real_roots(coef) -> np.ndarray:
    coef = np.trim_zeros(np.asarray(coef, dtype=float), "b")
    if coef.size <= 1:
        return np.array([])
    r = npoly.polyroots(coef)
    return r.real[np.abs(r.imag) <= 1e-9 * (1.0 + np.abs(r.real))] + 0.0  # -0.0 -> 0.0


def ref_poly_extrema_on_range(coef, s_range) -> tuple[float, float, float, float]:
    """(min, argmin, max, argmax) over [lo, hi] from ``polyval`` at lo, hi
    and the real critical points inside."""
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo < hi:
        raise ValueError(f"empty range {s_range}")
    pts = [lo, hi]
    pts.extend(r for r in ref_real_roots(npoly.polyder(coef)) if lo < r < hi)
    vals = npoly.polyval(np.asarray(pts), coef)
    imin, imax = int(np.argmin(vals)), int(np.argmax(vals))
    return float(vals[imin]), float(pts[imin]), float(vals[imax]), float(pts[imax])


def ref_poly_sup_global(coef) -> tuple[float, float]:
    """(sup, argsup) over R from ``polyval`` at the real critical points."""
    coef = np.trim_zeros(np.asarray(coef, dtype=float), "b")
    if coef.size == 0:
        return 0.0, 0.0
    if coef.size == 1:
        return float(coef[0]), 0.0
    deg = coef.size - 1
    if deg % 2 != 0 or coef[-1] >= 0:
        raise ValueError("polynomial unbounded above on R")
    crit = ref_real_roots(npoly.polyder(coef))
    if crit.size == 0:
        crit = np.array([0.0])
    vals = npoly.polyval(crit, coef)
    i = int(np.argmax(vals))
    return float(vals[i]), float(crit[i])


def ref_golden_min(fun, lo: float, hi: float, samples: int = 4001, tol: float = 1e-11):
    """Dense scan, then golden-section refinement on numpy scalars."""
    golden = (np.sqrt(5.0) - 1.0) / 2.0
    xs = np.linspace(lo, hi, samples)
    vals = np.asarray(fun(xs), dtype=float)
    i = int(np.argmin(vals))
    a = xs[max(i - 1, 0)]
    b = xs[min(i + 1, samples - 1)]
    x1 = b - golden * (b - a)
    x2 = a + golden * (b - a)
    f1, f2 = float(fun(x1)), float(fun(x2))
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - golden * (b - a)
            f1 = float(fun(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + golden * (b - a)
            f2 = float(fun(x2))
    x = 0.5 * (a + b)
    return float(x), float(fun(x))


def ref_eval(spec: PotentialSpec, s, order: int = 0):
    """F, F' or F'' at s by ``polyval`` of ``polyder``'s coefficients."""
    return npoly.polyval(s, npoly.polyder(spec.coefficients, order))


def bits(x) -> bytes:
    """The float64 bytes of a number or a sequence of them: equal bits, -0.0 apart from 0.0."""
    return np.asarray(x, dtype=float).tobytes()
