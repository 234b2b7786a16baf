import gc
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    CONFIGS, TWO_PI, advect, constant_field, convolve, divergence, energy, forcing_samples, full_plane, inner,
    leray, mu_coefficients, mu_grad_phi, norm_l2, random_field, random_vector, record_bytes, reference_record,
    reference_step, rel_err, state_from_samples, zero_vector,
)
from nlchns import diagnostics, hypotheses, initialdata, solver, spectral, storage
from nlchns.config import ChecksConfig, OutputConfig, SimConfig, parse_config_file
from nlchns.initialdata import InitialSpec, VelocitySpec, taylor_green_u
from nlchns.kernels import KernelSpec, build_kernel
from nlchns.potentials import PotentialSpec, eval_df
from nlchns.solver import (
    BlowUpError,
    ForcingSpec,
    HypothesisGateError,
    SimParams,
    SimState,
    StabilizerRangeError,
    Stepper,
    run,
    trajectory,
)
from nlchns.spectral import Grid, parseval, power, rgradient

DW = PotentialSpec.double_well()


def count_transforms(monkeypatch, threads: bool = False) -> list[tuple]:
    """(name, input shape, columns) of each transform called from now on:
    ``spectral``'s two helpers, in the namespaces that call them, and the
    two passes of the inverse one where the solver calls them apart, with
    the columns they cut to or read, and any numpy.fft function, with None.
    With ``threads``, each also says whether it ran on the main thread."""
    calls = []

    def note(*call):
        calls.append(call + ((threading.current_thread() is threading.main_thread(),) if threads else ()))

    for name in ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn"):
        def counted(a, *args, _name=name, _fn=getattr(np.fft, name), **kwargs):
            note(_name, np.shape(a), None)
            return _fn(a, *args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)

    def forward(values, c, *args, _fn=spectral.rfft2_cols, **kwargs):
        note("rfft2_cols", np.shape(values), c)
        return _fn(values, c, *args, **kwargs)

    def inverse(grid, c_hat, *args, _fn=spectral.irfft2_cols, **kwargs):
        note("irfft2_cols", np.shape(c_hat), np.shape(c_hat)[-1])
        return _fn(grid, c_hat, *args, **kwargs)

    for module in (spectral, solver, initialdata):
        for name, counted in (("rfft2_cols", forward), ("irfft2_cols", inverse)):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    for name in ("inverse_cols", "inverse_rows"):
        def one_pass(grid, a, *args, _name=name, _fn=getattr(spectral, name), **kwargs):
            note(_name, np.shape(a), np.shape(a)[-1])
            return _fn(grid, a, *args, **kwargs)
        monkeypatch.setattr(solver, name, one_pass)
    return calls


def transforms(calls) -> int:
    """The transforms among ``count_transforms``' calls: each field of a
    helper call, and of a row pass that the solver runs apart, which
    finishes a transform whose column pass ran at the end of the step that
    made its state; with ``count_transforms``' counts, a Counter of calls."""
    counts = calls if isinstance(calls, Counter) else Counter(calls)
    return sum(np.prod(call[1][:-2], dtype=int) * k for call, k in counts.items() if call[0] != "inverse_cols")


def make_cfg(**over):
    base = dict(
        grid=Grid(32, TWO_PI),
        kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
        potential=DW,
        sim=SimParams(nu=0.1, dt=2e-3, t_end=0.1),
        initial=InitialSpec(family="uniform", c=0.0),
        velocity=VelocitySpec(family="zero"),
    )
    base.update(over)
    return SimConfig(**base)


@pytest.fixture(scope="module")
def kernel32():
    return build_kernel(KernelSpec.gaussian(0.08 * TWO_PI, 6.0), Grid(32, TWO_PI))


def mu_samples(kernel, phi: np.ndarray) -> np.ndarray:
    return np.fft.irfft2(mu_coefficients(kernel, DW, phi))


class TestChemicalPotential:
    """The solver's mu_hat."""

    def test_constant_phases(self, kernel32):
        g = kernel32.grid
        mu1 = mu_samples(kernel32, constant_field(g, 1.0))
        np.testing.assert_allclose(mu1, 0.0, atol=1e-12)  # F'(1) = 0
        mu0 = mu_samples(kernel32, constant_field(g, 0.0))
        np.testing.assert_allclose(mu0, 0.0, atol=1e-12)

    def test_single_mode_term_by_term(self, kernel32):
        g = kernel32.grid
        xx, yy = g.mesh
        phase = 2 * np.pi * (xx + 2 * yy) / g.l
        eps = 0.37
        phi = eps * np.cos(phase)
        jhat = float(np.sum(kernel32.samples * np.cos(phase)) * g.cell_volume)
        expected = (kernel32.a - jhat) * phi + eval_df(DW, phi)
        assert rel_err(mu_samples(kernel32, phi), expected) < 1e-12

    def test_rho_identity(self, kernel32, rng):
        # rho = a phi + F'(phi) = mu + J*phi
        def rho(phi):
            return mu_samples(kernel32, phi) + convolve(kernel32, phi)

        phi = random_field(kernel32.grid, rng)
        assert rel_err(rho(phi), kernel32.a * phi + eval_df(DW, phi)) < 1e-12
        np.testing.assert_allclose(rho(constant_field(kernel32.grid, 0.0)), 0.0, atol=1e-13)
        np.testing.assert_allclose(rho(constant_field(kernel32.grid, 1.0)), kernel32.a, atol=1e-12)


class TestKortewegForce:
    """The step's capillary force -phi grad mu, made from what a state
    carries (phi dx mu and the column pass of dy mu) and the flow's row
    pass, seen through a step from u = 0 with nu = 0 and dt = 1:
    u^+ = P mask(-phi grad mu)."""

    params = SimParams(nu=0.0, dt=1.0, stabilizer=5.0, t_end=1.0)
    linear = PotentialSpec.polynomial((0.0, 0.0, 1.0))  # F'(s) = 2 s: mu is band-limited with phi

    def projected_force(self, kernel, phi: np.ndarray, potential=DW) -> np.ndarray:
        g = kernel.grid
        return one_step(state_from_samples(g, phi, zero_vector(g), 0.0), self.params, kernel,
                        potential=potential).samples[1:]

    def test_constant_phi_zero_force(self, kernel32):
        f = self.projected_force(kernel32, constant_field(kernel32.grid, 0.5))
        assert np.max(np.abs(f[0])) < 1e-12
        assert np.max(np.abs(f[1])) < 1e-12

    def test_gradient_force_projects_away(self, kernel32):
        # one mode and F' linear: mu = c phi, so -phi grad mu = -grad(c phi^2 / 2)
        g = kernel32.grid
        xx, yy = g.mesh
        phi = 0.4 * np.cos(2 * np.pi * (2 * xx + yy) / g.l)
        f = self.projected_force(kernel32, phi, self.linear)
        assert np.max(np.abs(f)) < 1e-13

    def test_forms_agree_after_projection(self, kernel32, rng):
        # band-limited mu: the step's -phi grad mu and the strong form mu grad
        # phi differ by the gradient grad(phi mu), resolved on the grid, which
        # the projection annihilates
        g = kernel32.grid
        phi = random_field(g, rng, band=7)
        p1 = self.projected_force(kernel32, phi, self.linear)
        strong = mu_grad_phi(g, phi, mu_coefficients(kernel32, self.linear, phi))
        mask = full_plane(g)[3]
        p2 = leray(g, np.fft.ifft2(mask * np.fft.fft2(strong)).real)
        scale = norm_l2(g, p1) + 1e-30
        assert scale > 0.1
        diff = np.hypot(*(p1 - p2))
        assert np.max(diff) < 1e-11 * scale


def nan_force(grid: Grid) -> np.ndarray:
    """The coefficients of a force with one NaN, at a mode in the band."""
    h = np.zeros((2, grid.n, grid.n // 2 + 1), dtype=complex)
    h[0, 1, 1] = np.nan
    return h


def one_step(state, params, kernel, forcing=None, potential=DW):
    """One step from ``state`` by a new stepper, which makes what the state
    carries first."""
    return Stepper(kernel, params, potential).step(state, forcing)


class TestStepCH:
    """The phase half of a step (named after the phase substep it
    replaced); with u^n = 0 the new phi does not depend on the flow."""

    def test_constant_equilibrium(self, kernel32):
        g = kernel32.grid
        state = state_from_samples(g, constant_field(g, 0.7), zero_vector(g), 0.0)
        params = SimParams(nu=0.1, dt=1e-2, stabilizer=5.0, t_end=1.0)
        out = one_step(state, params, kernel32).samples[0]
        assert rel_err(out, 0.7 * np.ones((g.n, g.n))) < 1e-13

    def test_mass_preserved_exactly(self, kernel32, rng):
        # phi advected by a fixed Taylor-Green u
        g = kernel32.grid
        phi = random_field(g, rng, band=8)
        u = leray(g, taylor_green_u(g, 0.8))
        state = state_from_samples(g, phi, u, 0.0)
        params = SimParams(nu=0.1, dt=1e-3, stabilizer=8.0, t_end=1.0)
        m0 = np.mean(phi)
        stepper = Stepper(kernel32, params, DW)
        for _ in range(50):
            state = state_from_samples(g, stepper.step(state).samples[0], u, state.t + params.dt)
        assert abs(np.mean(state.samples[0]) - m0) < 1e-14

    def test_phase_energy_lyapunov_decay(self, kernel32):
        # u = 0 gradient flow with S >= max|F''|/2: interaction + bulk
        # energies are non-increasing across 1000 steps
        g = kernel32.grid
        from nlchns.initialdata import random_phi

        phi = np.fft.irfft2(random_phi(g, amplitude=1e-3, mean_value=0.0, seed=2))
        state = state_from_samples(g, phi, zero_vector(g), 0.0)
        params = SimParams(nu=0.1, dt=2e-3, stabilizer=22.0, t_end=2.0)
        prev = energy(state, kernel32, DW)
        assert prev.kinetic == 0.0
        stepper = Stepper(kernel32, params, DW)
        for i in range(1000):
            state = state_from_samples(g, stepper.step(state).samples[0], state.samples[1:], state.t + params.dt)
            cur = energy(state, kernel32, DW)
            assert cur.total_energy <= prev.total_energy + 1e-12 * (1 + abs(prev.total_energy))
            prev = cur
        assert -1.05 < state.samples[0].min() and state.samples[0].max() < 1.05

    def test_linearized_growth_factor_oracle(self, kernel32):
        # tiny single mode about phi = 0: the per-step factor matches the
        # scalar recurrence of the scheme with F' linearized (F''(0) = -4)
        g = kernel32.grid
        xx, yy = g.mesh
        m = (2, 1)
        phase = 2 * np.pi * (m[0] * xx + m[1] * yy) / g.l
        eps = 1e-6
        phi = eps * np.cos(phase)
        params = SimParams(nu=0.1, dt=1e-3, stabilizer=3.0, t_end=1.0)
        state = state_from_samples(g, phi, zero_vector(g), 0.0)
        out = one_step(state, params, kernel32).samples[0]

        k2 = (2 * np.pi / g.l) ** 2 * (m[0] ** 2 + m[1] ** 2)
        jhat = kernel32.multiplier[m[0], m[1]]
        expected = (1 + params.dt * k2 * (params.stabilizer + jhat + 4.0)) / (
            1 + params.dt * k2 * (kernel32.a + params.stabilizer)
        )
        before = np.fft.fft2(phi)[m]
        after = np.fft.fft2(out)[m]
        assert abs(after / before - expected) < 1e-9

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_blow_up_detection(self, kernel32, rng):
        g = kernel32.grid
        phi = 40.0 * random_field(g, rng, band=4)
        state = state_from_samples(g, phi, zero_vector(g), 0.0)
        params = SimParams(nu=0.1, dt=50.0, stabilizer=0.0, t_end=1.0)
        stepper = Stepper(kernel32, params, DW)
        with pytest.raises(BlowUpError):
            for _ in range(200):
                state = state_from_samples(g, stepper.step(state).samples[0], state.samples[1:], 0.0)

    def test_blow_up_names_the_field(self, kernel32):
        # one isfinite pass over the new samples; phi is named first
        g = kernel32.grid
        stepper = Stepper(kernel32, SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0), DW)
        nan = nan_force(g)
        state = state_from_samples(g, constant_field(g, 0.2), zero_vector(g), 0.0)
        with pytest.raises(BlowUpError, match="non-finite values in u$"):
            stepper.step(state, nan)  # the force reaches u alone
        state = state_from_samples(g, constant_field(g, np.nan), zero_vector(g), 0.0)
        with pytest.raises(BlowUpError, match="non-finite values in phi$"):
            stepper.step(state, nan)


class TestStepNS:
    """The flow half of a step (named after the flow substep it replaced):
    uniform phi is an equilibrium of the phase equation and exerts no
    capillary force, so a step reduces to the flow update."""

    def test_zero_stays_zero(self, kernel32):
        g = kernel32.grid
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        params = SimParams(nu=0.1, dt=1e-2, stabilizer=1.0, t_end=1.0)
        out = one_step(state, params, kernel32).samples[1:]
        assert np.max(np.abs(out[0])) == 0.0
        assert np.max(np.abs(out[1])) == 0.0

    def test_single_mode_decay_factor(self, kernel32):
        # u = A cos(m.x) e_perp: self-advection vanishes since e_perp . m = 0
        g = kernel32.grid
        xx, yy = g.mesh
        m = (3, 1)
        norm = np.hypot(*m)
        phase = 2 * np.pi * (m[0] * xx + m[1] * yy) / g.l
        c = 0.8 * np.cos(phase)
        u = leray(g, np.stack([-m[1] / norm * c, m[0] / norm * c]))
        u = state_from_samples(g, constant_field(g, 0.0), u, 0.0)
        params = SimParams(nu=0.05, dt=4e-3, stabilizer=1.0, t_end=1.0)
        out = one_step(u, params, kernel32).samples[1:]
        k2 = (2 * np.pi / g.l) ** 2 * (m[0] ** 2 + m[1] ** 2)
        factor = 1.0 / (1.0 + params.nu * k2 * params.dt)
        assert rel_err(out[0], factor * u.samples[1]) < 1e-12
        assert rel_err(out[1], factor * u.samples[2]) < 1e-12

    def test_inviscid_single_shell_conserves_energy(self, kernel32):
        g = kernel32.grid
        state = state_from_samples(g, constant_field(g, 0.0), taylor_green_u(g, 1.0), 0.0)
        params = SimParams(nu=0.0, dt=1e-2, stabilizer=1.0, t_end=1.0)
        e0 = 0.5 * norm_l2(g, state.samples[1:]) ** 2
        stepper = Stepper(kernel32, params, DW)
        for _ in range(100):
            state = stepper.step(state)
        assert np.max(np.abs(state.samples[0])) == 0.0
        e1 = 0.5 * norm_l2(g, state.samples[1:]) ** 2
        assert abs(e1 - e0) < 1e-10 * e0

    def test_divergence_free_output(self, kernel32, rng):
        g = kernel32.grid
        phi = random_field(g, rng, band=8)
        state = state_from_samples(g, phi, random_vector(g, rng, band=8, solenoidal=True), 0.0)
        params = SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)
        h = ForcingSpec(family="body", amplitude=(0.3, -0.1)).field_at(g, state.t)
        out = one_step(state, params, kernel32, h).samples[1:]
        umax = np.max(np.abs(out)) + 1e-30
        assert np.max(np.abs(divergence(g, out))) < 1e-11 * umax * 2 * np.pi * g.n / g.l


class TestRotationalForm:
    """The step's self-advection omega (u_y, -u_x), seen through a step with
    phi = 0 (no capillary force), nu = 0 and dt = 1: u^+ = P mask (u + L)."""

    params = SimParams(nu=0.0, dt=1.0, stabilizer=1.0, t_end=1.0)

    def test_projection_equals_convective_form_in_band(self, kernel32, rng):
        g = kernel32.grid
        h, band = g.half, g.n // 3
        u = random_vector(g, rng, band, solenoidal=True)
        out = one_step(state_from_samples(g, constant_field(g, 0.0), u, 0.0), self.params, kernel32).samples[1:]
        cx, cy = (np.fft.rfft2(-advect(u, rgradient(g, np.fft.rfft2(f) * h.mask))) * h.mask for f in u)
        kx, ky = h.ikx.imag, h.iky.imag
        kc = (kx * cx + ky * cy) / np.where(h.k2 > 0.0, h.k2, 1.0)  # c - k (k . c) / |k|^2
        want = np.fft.irfft2(cx - kx * kc), np.fft.irfft2(cy - ky * kc)
        for got, u0, w in zip(out, u, want):
            assert rel_err(got - u0, w) < 1e-13

    def test_kinetic_energy_neutral(self, kernel32, rng):
        # (u^+ - u, u) = (P L, u) = (L, u), and L . u = 0 pointwise
        g = kernel32.grid
        u = random_vector(g, rng, g.n // 3, solenoidal=True)
        out = one_step(state_from_samples(g, constant_field(g, 0.0), u, 0.0), self.params, kernel32).samples[1:]
        du = out - u
        assert norm_l2(g, du) > 0.1 * norm_l2(g, u)
        assert abs(inner(g, du, u)) < 1e-13 * norm_l2(g, du) * norm_l2(g, u)


class TestStepCore:
    def test_run_is_repeated_step(self):
        # run() advances with Stepper.step; records in between change nothing
        cfg = make_cfg(
            sim=SimParams(nu=0.05, dt=2e-3, t_end=0.03),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=5),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.7),
            output=OutputConfig(record_every=4),
        )
        res = run(cfg)
        start = run(replace(cfg, sim=replace(cfg.sim, t_end=0.0)))
        state = start.state
        stepper = Stepper(build_kernel(cfg.kernel, state.grid), start.params, cfg.potential)
        for _ in range(15):
            h = cfg.forcing.field_at(state.grid, state.t)
            state = stepper.step(state, h)
        assert state.t == pytest.approx(res.state.t)
        for got, want in zip((*state.samples, *state.hats), (*res.state.samples, *res.state.hats)):
            assert got.tobytes() == want.tobytes()

    def test_transforms_per_step(self, kernel32, rng, monkeypatch):
        # every transform is one of spectral's two helpers, a row and a
        # column pass each, or those two passes called apart, and none is a
        # numpy.fft call.  A step from the state the stepper returned: full
        # width, the row pass of dy mu, whose column pass ran at the end of
        # the step that made the state, and for the new state F'(phi)
        # forward, dx mu inverse and dy mu's column pass; on the 11 kept
        # columns: u phi and both momentum right-hand sides forward, in two
        # stacked calls, omega inverse and the new (phi, u_x, u_y) inverse
        # in one stacked call: 11 transforms in 8 calls
        g = kernel32.grid
        n, nh, c = g.n, g.n // 2 + 1, g.half.kept_cols
        stepper = Stepper(kernel32, SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0), DW)
        first = stepper.step(state_from_samples(g, random_field(g, rng, band=8), taylor_green_u(g, 0.5), 0.0))
        calls = count_transforms(monkeypatch)
        want = Counter({("rfft2_cols", (n, n), nh): 1, ("rfft2_cols", (2, n, n), c): 2,
                        ("irfft2_cols", (n, c), c): 1, ("irfft2_cols", (n, nh), nh): 1,
                        ("inverse_cols", (n, nh), nh): 1, ("inverse_rows", (n, nh), nh): 1,
                        ("irfft2_cols", (3, n, c), c): 1})
        carry = Counter({("rfft2_cols", (n, n), nh): 1, ("irfft2_cols", (n, nh), nh): 1,
                         ("inverse_cols", (n, nh), nh): 1})
        state = stepper.step(first, ForcingSpec().field_at(g, first.t))
        assert Counter(calls) == want
        assert (transforms(calls), len(calls)) == (11, 8)
        calls.clear()
        # a force enters as its coefficients: a forced step is the unforced one
        for forcing in (ForcingSpec(family="body", amplitude=(0.3, -0.1)),
                        ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3)):
            state = stepper.step(state, forcing.field_at(g, state.t))
            assert Counter(calls) == want
            calls.clear()
        # a state the stepper did not just return first gets what it
        # carries: F'(phi) forward, dx mu inverse and dy mu's column pass,
        # whose row pass this step runs: 13 transforms in 11 calls
        stepper.step(first)
        assert Counter(calls) == want + carry
        assert (transforms(calls), len(calls)) == (13, 11)
        calls.clear()
        # a state is made from its coefficients, with its samples in one
        # stacked inverse call
        stepper.step(SimState(g, state.hats, state.t))
        assert Counter(calls) == want + carry + Counter({("irfft2_cols", (3, n, c), c): 1})

    def test_transforms_per_forked_step(self, rng):
        # at n = 128, unpatched, the step forks, and the new phi is inverted
        # on the fork's thread, apart from the new u.  The thread goes on to
        # what the new state carries: F'(phi) forward, dx mu inverse and dy
        # mu's column pass; this one runs dy mu's row pass for the flow.  11
        # transforms in 9 calls, 5 of them here, and 13 in 12 from a state the
        # stepper did not just return, whose carry this thread makes first
        kernel = kernel_on(128)
        stepper = Stepper(kernel, SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0), DW)
        assert stepper.fork is not None
        g = kernel.grid
        n, nh, c = g.n, g.n // 2 + 1, g.half.kept_cols
        first = stepper.step(state_from_samples(g, random_field(g, rng, band=32), taylor_green_u(g, 0.5), 0.0))
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = count_transforms(monkeypatch, threads=True)
            stepper.step(first)
            main = Counter({("irfft2_cols", (n, c), c, True): 1, ("inverse_rows", (n, nh), nh, True): 1,
                            ("rfft2_cols", (2, n, n), c, True): 1, ("irfft2_cols", (2, n, c), c, True): 1})
            fork = Counter({("rfft2_cols", (2, n, n), c, False): 1, ("irfft2_cols", (n, c), c, False): 1,
                            ("rfft2_cols", (n, n), nh, False): 1, ("irfft2_cols", (n, nh), nh, False): 1,
                            ("inverse_cols", (n, nh), nh, False): 1})
            assert Counter(calls) == main + fork
            assert (transforms(calls), len(calls)) == (11, 9)
            calls.clear()
            stepper.step(first)
            assert Counter(calls) == main + fork + Counter({
                ("rfft2_cols", (n, n), nh, True): 1, ("irfft2_cols", (n, nh), nh, True): 1,
                ("inverse_cols", (n, nh), nh, True): 1})
            assert (transforms(calls), len(calls)) == (13, 12)
        stepper.close()

    def test_transforms_per_forked_trajectory_step(self, monkeypatch):
        # in a trajectory the fork's thread goes on from the new phi to what
        # that state carries: still 11 transforms in 9 calls a step, 5 of
        # them on the thread, F'(phi) forward, dx mu inverse and dy mu's
        # column pass among them
        cfg = make_cfg(
            sim=SimParams(nu=0.05, dt=2e-3, t_end=0.02),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=5),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.7),
        )
        n, nh, c = cfg.grid.n, cfg.grid.n // 2 + 1, cfg.grid.n // 3 + 1
        monkeypatch.setattr(solver, "_FORK_MIN_N", n)
        calls = count_transforms(monkeypatch, threads=True)

        def counts(steps):
            calls.clear()
            run(replace(cfg, sim=replace(cfg.sim, t_end=steps * cfg.sim.dt)))
            return Counter(calls)

        ten, none = counts(10), counts(0)
        assert {k: ten[k] - none[k] for k in ten if ten[k] != none[k]} == {
            ("rfft2_cols", (2, n, n), c, False): 10, ("irfft2_cols", (n, c), c, False): 10,
            ("rfft2_cols", (n, n), nh, False): 10, ("irfft2_cols", (n, nh), nh, False): 10,
            ("inverse_cols", (n, nh), nh, False): 10,
            ("irfft2_cols", (n, c), c, True): 10, ("inverse_rows", (n, nh), nh, True): 10,
            ("rfft2_cols", (2, n, n), c, True): 10, ("irfft2_cols", (2, n, c), c, True): 10}
        # set-up makes what the first state carries on this thread
        assert [none[(name, (n, n) if name == "rfft2_cols" else (n, nh), nh, True)]
                for name in ("rfft2_cols", "irfft2_cols", "inverse_cols")] == [1, 1, 1]

    def test_transforms_per_forked_forced_trajectory_step(self, monkeypatch):
        # a force enters a step as its coefficients: a forced trajectory's
        # transforms are the unforced one's, 11 in 9 calls a step
        cfg = replace(forced_cfg(), sim=SimParams(nu=0.05, dt=2e-3, t_end=0.02))
        monkeypatch.setattr(solver, "_FORK_MIN_N", cfg.grid.n)
        calls = count_transforms(monkeypatch, threads=True)

        def counts(c):
            calls.clear()
            run(c)
            return Counter(calls)

        forced = counts(cfg)
        assert forced == counts(replace(cfg, forcing=ForcingSpec()))
        steps = forced - counts(replace(cfg, sim=replace(cfg.sim, t_end=0.0)))
        assert (transforms(steps), steps.total()) == (10 * 11, 10 * 9)

    def test_full_spectrum_state_steps_in_band(self, kernel32, rng):
        # run() cuts full-spectrum initial data to the band,
        # rows and columns alike, and steps those coefficients
        g = kernel32.grid
        phi, u = random_field(g, rng), random_vector(g, rng, solenoidal=True)
        cfg = make_cfg(sim=SimParams(nu=0.1, dt=1e-3, t_end=1e-3))
        res = run(cfg, initial_state=state_from_samples(g, phi, u, 0.0))
        c = g.half.kept_cols
        masked = np.fft.rfft2(np.concatenate([phi[None], u]))[..., :c]
        masked.view(float)[...] *= np.repeat(g.half.mask[:, :c], 2, axis=-1)
        got, want = res.state, one_step(SimState(g, masked, 0.0), res.params, kernel32)
        for a, b in zip(state_arrays(got), state_arrays(want)):
            assert a.tobytes() == b.tobytes()

    def test_stepped_state_starts_a_run(self):
        # a run from the state another run returned, on the kept columns,
        # starts from that state bit for bit: the band cut of a cut block
        # is that block
        cfg = parse_config_file(CONFIGS / "gradient_control.cfg", ["grid.n=16", "t_end=0.003"])
        first = run(cfg).state
        _, _, frames = trajectory(cfg, initial_state=first)
        _, state, _, _ = next(frames)
        assert state.t == first.t and state.hats.shape == first.hats.shape
        for a, b in zip(state_arrays(state), state_arrays(first)):
            assert a.tobytes() == b.tobytes()
        assert run(cfg, initial_state=first).state.t == pytest.approx(2 * first.t)

    def test_transforms_per_record(self, monkeypatch):
        # a record's mu^ is made from the F'(phi)^ of the step from its
        # state; its norms and the divergence audit's bound come from the
        # coefficients
        cfg = make_cfg(
            sim=SimParams(nu=0.05, dt=2e-3, t_end=0.02),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=5),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.7),
            checks=ChecksConfig(grad_control=True),
        )
        n, nh, c = cfg.grid.n, cfg.grid.n // 2 + 1, cfg.grid.n // 3 + 1
        calls = count_transforms(monkeypatch)

        def counts(steps, every):
            calls.clear()
            run(replace(cfg, sim=replace(cfg.sim, t_end=steps * cfg.sim.dt),
                        output=OutputConfig(record_every=every)))
            return Counter(calls)

        def minus(a, b):
            return {k: a[k] - b[k] for k in a.keys() | b.keys() if a[k] != b[k]}

        every = counts(10, 1)
        # a record's F'(phi)^ is the next step's: records cost no transform
        assert minus(every, counts(10, 10)) == {}
        # a step and its record: 11 transforms in 8 calls and no numpy.fft
        # call.  Only F'(phi) forward and the inverses of dx mu and dy mu
        # run on all n//2 + 1 columns; every other column pass runs on the
        # kept columns, and none on a full (n, n) plane
        assert minus(every, counts(0, 1)) == {
            ("rfft2_cols", (n, n), nh): 10, ("irfft2_cols", (n, nh), nh): 10,
            ("inverse_cols", (n, nh), nh): 10, ("inverse_rows", (n, nh), nh): 10,
            ("rfft2_cols", (2, n, n), c): 10 * 2,
            ("irfft2_cols", (n, c), c): 10, ("irfft2_cols", (3, n, c), c): 10}

    @pytest.mark.parametrize("velocity", [VelocitySpec(family="zero"),
                                          VelocitySpec(family="taylor_green", amplitude=0.7)])
    def test_transforms_at_set_up(self, monkeypatch, velocity):
        # the kernel's multiplier (numpy's rfft2), the band cut's inverse of
        # the initial coefficients and what the first state carries, made
        # for its record: F'(phi) forward, dx mu inverse and dy mu's column
        # pass.  Uniform phi and zero u are built in coefficients, and
        # Taylor-Green's samples take one stacked forward call; the velocity
        # is built divergence-free, so set-up projects nothing
        cfg = make_cfg(sim=SimParams(nu=0.1, dt=1e-3, t_end=0.0), velocity=velocity)
        n, nh, c = cfg.grid.n, cfg.grid.n // 2 + 1, cfg.grid.n // 3 + 1
        calls = count_transforms(monkeypatch)
        run(cfg)
        want = Counter({("rfft2", (n, n), None): 1, ("irfft2_cols", (3, n, c), c): 1, ("rfft2_cols", (n, n), nh): 1,
                        ("irfft2_cols", (n, nh), nh): 1, ("inverse_cols", (n, nh), nh): 1})
        if velocity.family == "taylor_green":
            want[("rfft2_cols", (2, n, n), nh)] = 1
        assert Counter(calls) == want

    def test_one_projection_matches_split_projection(self, kernel32, rng):
        # projecting the force before the viscous solve as well as after it
        # gives the same velocity; the reference takes the convective form
        # (u . grad) u, so this also checks the step's rotational form
        g = kernel32.grid
        phi = random_field(g, rng, band=8)
        u = random_vector(g, rng, band=8, solenoidal=True)
        params = SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)
        h = random_vector(g, rng, band=6)
        h_hat = np.fft.rfft2(h)
        out = one_step(state_from_samples(g, phi, u, 0.0), params, kernel32, h_hat).samples[1:]

        kx, ky, k2, mask = full_plane(g)
        grad = lambda f: np.fft.ifft2(1j * np.stack([kx, ky]) * np.fft.fft2(f)).real
        # mu = a phi - J*phi + F'(phi), J* by the fft2 of the kernel samples
        j_hat = np.fft.fft2(kernel32.samples).real * g.cell_volume
        mu = np.fft.ifft2((kernel32.a - j_hat) * np.fft.fft2(phi)).real + eval_df(DW, phi)
        f = -phi * grad(mu)
        rhs = [np.fft.fft2(fc - u[0] * gx - u[1] * gy) * mask + np.fft.fft2(hc)
               for fc, (gx, gy), hc in zip(f, (grad(u[0]), grad(u[1])), h)]
        proj = lambda x, y: leray(g, np.stack([np.fft.ifft2(x).real, np.fft.ifft2(y).real]))
        p_rhs = proj(*rhs)
        den = 1.0 / params.dt + params.nu * k2
        sol = [(np.fft.fft2(c) / params.dt + np.fft.fft2(r)) / den * mask for c, r in zip(u, p_rhs)]
        want = proj(*sol)
        assert rel_err(out[0], want[0]) < 1e-12
        assert rel_err(out[1], want[1]) < 1e-12


def kernel_on(n: int, spec: KernelSpec | None = None):
    return build_kernel(spec or KernelSpec.gaussian(0.08 * TWO_PI, 6.0), Grid(n, TWO_PI))


def stepper_for(monkeypatch, kernel, params: SimParams, forked: bool = True) -> Stepper:
    """A stepper that forks the phase branch of its steps onto a thread of
    its own, or with ``forked`` false one that does not, whatever n."""
    with monkeypatch.context() as patched:
        patched.setattr(solver, "_FORK_MIN_N", kernel.grid.n if forked else 2 * kernel.grid.n)
        return Stepper(kernel, params, DW)


def stepped_state(stepper: Stepper, grid: Grid, rng, steps: int = 2) -> SimState:
    """A state on the step's own columns, as a trajectory hands its stepper
    its states: the one ``stepper`` returned after ``steps`` steps from
    random data on ``grid``, the stepper's."""
    u = random_vector(grid, rng, band=grid.n // 4, solenoidal=True)
    state = state_from_samples(grid, random_field(grid, rng, band=grid.n // 4), u, 0.0)
    for _ in range(steps):
        state = stepper.step(state)
    return state


def state_arrays(state: SimState) -> list[np.ndarray]:
    return [*state.samples, *state.hats]


def assert_same_states(got: list[SimState], want: list[SimState]) -> None:
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(state_arrays(a), state_arrays(b)):
            assert x.tobytes() == y.tobytes()


class TestReferenceStep:
    """Every state of a 50-step trajectory at n = 32 is the one
    ``conftest.reference_step`` makes from the scheme's equations, apart
    from the solver, to round-off: serially and forked, for each forcing
    family and kernel family.  Measured over these 18 cases, the largest
    relative difference in phi, u_x or u_y is 5.2e-16 after 1 step, 1.7e-15
    after 10 and 6.4e-15 after 50.  At this dt the copy of the k = 0 row is
    not a no-op: the start's k = 0 coefficient x gives (x / dt) dt != x."""

    params = SimParams(nu=0.1, dt=1.5e-3, stabilizer=5.0, t_end=1.0)
    bound = 2e-14

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
                                      KernelSpec.mollifier(radius=0.25 * TWO_PI, strength=4.0),
                                      KernelSpec.spectral({(0, 0): 6.0, (1, 0): 0.3, (0, 1): 0.3})],
                             ids=["gaussian", "mollifier", "spectral"])
    @pytest.mark.parametrize("forcing", [ForcingSpec(), ForcingSpec(family="body", amplitude=(0.3, -0.1), decay=0.5),
                                         ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5)],
                             ids=["zero", "body", "single_mode"])
    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_trajectory_is_the_reference(self, monkeypatch, rng, spec, forcing, forked):
        kernel = kernel_on(32, spec)
        g = kernel.grid
        stepper = stepper_for(monkeypatch, kernel, self.params, forked)
        assert (stepper.fork is not None) == forked
        u = random_vector(g, rng, band=8, solenoidal=True)
        state = state_from_samples(g, random_field(g, rng, band=8), u, 0.0)
        want, mass = (state.samples[0], u[0], u[1]), state.hats[0][0, 0]
        for _ in range(50):
            h = None if forcing.is_zero() else forcing_samples(forcing, g, state.t)
            want = reference_step(kernel, DW, self.params, *want, h)
            state = stepper.step(state, forcing.field_at(g, state.t))
            for got, w in zip(state.samples, want):
                assert rel_err(got, w) < self.bound
            assert state.hats[0][0, 0] == mass  # the k = 0 row is copied through


class TestWorkspace:
    """A stepper writes its intermediates into buffers of its own and
    allocates only the state it returns, which owns its arrays."""

    params = SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)

    @pytest.fixture(scope="class")
    def kernel128(self):
        return kernel_on(128)

    def assert_step_allocates_only_the_state_it_returns(self, stepper, grid, rng, carry: bool = False,
                                                        forcing=None):
        # with ``carry``, as a trajectory steps: from the state the stepper
        # returned, whose F'(phi)^ and mu^ it holds; without, from the same
        # arrays in another state, whose F'(phi)^ and mu^ the step makes
        # first.  Either way the step makes the new state's
        state = stepped_state(stepper, grid, rng)
        if not carry:
            state = SimState(grid, state.hats, state.t)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            new = stepper.step(state, forcing)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        owned = sum(a.nbytes for a in {id(a.base): a.base for a in state_arrays(new)}.values())
        assert owned == 3 * 128 * 128 * 8 + 3 * 128 * grid.half.kept_cols * 16
        assert peak <= owned + 64 * 1024

    def test_step_allocates_only_the_state_it_returns(self, kernel128, rng, monkeypatch):
        stepper = stepper_for(monkeypatch, kernel128, self.params, forked=False)
        self.assert_step_allocates_only_the_state_it_returns(stepper, kernel128.grid, rng)

    def test_forked_step_allocates_only_the_state_it_returns(self, kernel128, rng, monkeypatch):
        stepper = stepper_for(monkeypatch, kernel128, self.params)
        self.assert_step_allocates_only_the_state_it_returns(stepper, kernel128.grid, rng)

    @pytest.mark.parametrize("forked", [False, True])
    def test_trajectory_step_allocates_only_the_state_it_returns(self, kernel128, rng, monkeypatch, forked):
        stepper = stepper_for(monkeypatch, kernel128, self.params, forked)
        self.assert_step_allocates_only_the_state_it_returns(stepper, kernel128.grid, rng, carry=True)

    @pytest.mark.parametrize("forked", [False, True])
    def test_forced_step_allocates_only_the_state_it_returns(self, kernel128, rng, monkeypatch, forked):
        # the force's kept columns are copied into a contiguous plane:
        # numpy would buffer their column slice in an allocation of its own
        h = ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3).field_at(kernel128.grid, 0.0)
        stepper = stepper_for(monkeypatch, kernel128, self.params, forked)
        self.assert_step_allocates_only_the_state_it_returns(stepper, kernel128.grid, rng, carry=True, forcing=h)

    def assert_states_share_no_memory(self, stepper, grid, rng, buffers):
        h = ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3).field_at(grid, 0.0)
        first = stepped_state(stepper, grid, rng, steps=1)
        second = stepper.step(first, h)
        buffers = [getattr(stepper, name) for name in buffers]
        for a in state_arrays(second):
            assert not any(np.shares_memory(a, b) for b in state_arrays(first) + buffers)
        for a in state_arrays(first):
            assert not any(np.shares_memory(a, b) for b in buffers)

    def test_chemical_hats_allocate_nothing(self, kernel128, rng):
        # what a state carries, its F'(phi)^ and mu^ and its capillary
        # force's passes, is made in the stepper's buffers: F'(phi)^'s first
        # columns are cut once into a contiguous plane and mu^'s made in
        # another, so no ufunc takes a column slice, which numpy would
        # buffer in an allocation of its own
        stepper = Stepper(kernel128, self.params, DW)
        state = stepped_state(stepper, kernel128.grid, rng)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            stepper._carry(state.samples[0], state.hats[0])
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 1024

    @pytest.mark.parametrize("forked", [False, True])
    def test_record_and_audit_allocate_nothing(self, kernel128, rng, monkeypatch, forked):
        # a record and its audit work in the stepper's buffers, free between
        # its steps, against its contiguous Parseval weights: no temporary,
        # and no ufunc or dot product takes a column slice that numpy copies
        stepper = stepper_for(monkeypatch, kernel128, self.params, forked)
        state = stepped_state(stepper, kernel128.grid, rng)
        cfg = make_cfg(grid=kernel128.grid, checks=ChecksConfig(grad_control=True))
        report = hypotheses.audit(kernel128, DW)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rec = diagnostics.make_record(state, stepper.mu_hat(state), kernel128, DW, self.params.nu, report.beta,
                                          0.0, None, work=(stepper.weights, stepper.real, stepper.cols[1:]))
            found = solver._audit_record(cfg, report, state, rec, 2, state.hats[0][0, 0].real, stepper)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert found == []
        assert peak <= 4 * 1024

    def test_states_share_no_memory(self, kernel128, rng):
        self.assert_states_share_no_memory(Stepper(kernel128, self.params, DW), kernel128.grid, rng,
                                           ["real", "rows", "force", "cols", "finite"])

    def test_forked_states_share_no_memory(self, kernel128, rng, monkeypatch):
        self.assert_states_share_no_memory(stepper_for(monkeypatch, kernel128, self.params), kernel128.grid, rng,
                                           ["real", "rows", "force", "cols", "finite", "phase_real", "phase_rows",
                                            "phase_flux", "phase_force"])

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_force_planes_share_no_memory(self, kernel128, monkeypatch, forked):
        # phi dx mu, which a state carries to the step from it, is written
        # into a plane of its own for each row block, apart from every other
        # buffer (phase_real[0], say, overlaps phase_flux, which holds the
        # carried F'(phi)^ on the kept columns)
        stepper = stepper_for(monkeypatch, kernel128, self.params, forked)
        names = ["real", "rows", "force", "cols", "finite", "weights"]
        names += ["phase_real", "phase_rows", "phase_flux", "phase_force"] if forked else []
        buffers = {name: getattr(stepper, name) for name in names}
        for plane in ("force", "phase_force") if forked else ("force",):
            others = [b for name, b in buffers.items() if name != plane]
            assert buffers[plane].shape == (128, 128)
            assert not any(np.shares_memory(buffers[plane], b) for b in others)

    @pytest.mark.parametrize("n", [32, 128])
    def test_mu_hat_after_a_forked_step_is_made_again_the_same(self, rng, n):
        # a record reads mu^ after the fork's thread has gone on from it to
        # the capillary force's passes, in the same row block: at the
        # threshold, n = 128, and at n = 32, each step's mu^ is the one a
        # serial stepper makes anew for that state
        kernel = kernel_on(n)
        with pytest.MonkeyPatch.context() as monkeypatch:
            stepper, fresh = (stepper_for(monkeypatch, kernel, self.params, forked) for forked in (True, False))
        state = stepped_state(stepper, kernel.grid, rng, steps=0)
        for _ in range(3):
            state = stepper.step(state)
            assert stepper.mu_hat(state).tobytes() == fresh.mu_hat(SimState(kernel.grid, state.hats, state.t)).tobytes()
        stepper.close()

    def test_fresh_workspace_gives_the_warm_result(self, kernel128, rng):
        # no stale buffer leaks into a result: the warm stepper has just
        # stepped another state, with a force
        stepper = Stepper(kernel128, self.params, DW)
        state = stepped_state(stepper, kernel128.grid, rng, steps=0)
        other = stepped_state(stepper, kernel128.grid, rng, steps=0)
        h = ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3).field_at(kernel128.grid, 0.0)
        stepper.step(other, h)
        for forcing in (None, h):
            warm = stepper.step(state, forcing)
            cold = Stepper(kernel128, self.params, DW).step(state, forcing)
            assert_same_states([warm], [cold])


def phase_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name == "nlchns-phase"]


class TestFork:
    """From solver._FORK_MIN_N a step runs its phase branch on a thread of
    the stepper's own, joined before the new state is checked: the same
    result bit for bit, the same errors, and no thread left behind."""

    params = SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)

    @staticmethod
    def start(grid, seed=3) -> SimState:
        """A band-limited state with its full-width coefficients."""
        rng = np.random.default_rng(seed)
        u = random_vector(grid, rng, band=grid.n // 4, solenoidal=True)
        return state_from_samples(grid, random_field(grid, rng, band=grid.n // 4), u, 0.0)

    @classmethod
    def trajectory(cls, stepper, grid, forcing, steps, renew=False) -> list[SimState]:
        """``steps`` steps from ``start``; with ``renew`` each from a new state
        with the last one's coefficients, whose F'(phi)^ and mu^ the stepper
        then makes again."""
        states = [cls.start(grid)]
        for _ in range(steps):
            h = forcing.field_at(grid, states[-1].t)
            last = SimState(grid, states[-1].hats, states[-1].t) if renew else states[-1]
            states.append(stepper.step(last, h))
        return states

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
                                      KernelSpec.mollifier(radius=0.25 * TWO_PI, strength=4.0),
                                      KernelSpec.spectral({(0, 0): 6.0, (1, 0): 0.3, (0, 1): 0.3})],
                             ids=["gaussian", "mollifier", "spectral"])
    @pytest.mark.parametrize("forcing", [ForcingSpec(),
                                         ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5)],
                             ids=["zero", "single_mode"])
    @pytest.mark.parametrize("returned", [True, False])
    def test_forked_steps_are_the_serial_steps(self, monkeypatch, spec, forcing, returned):
        # each step from the state the stepper returned, whose F'(phi)^ and
        # mu^ the worker made in the row block it used, or from a new state
        # whose hats the calling thread makes in the stepper's own
        kernel = kernel_on(32, spec)
        forked, serial = (stepper_for(monkeypatch, kernel, self.params, f) for f in (True, False))
        assert forked.fork is not None and serial.fork is None
        assert_same_states(self.trajectory(forked, kernel.grid, forcing, 50, renew=not returned),
                           self.trajectory(serial, kernel.grid, forcing, 50, renew=not returned))

    @pytest.mark.parametrize("spec", [KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
                                      KernelSpec.mollifier(radius=0.25 * TWO_PI, strength=4.0),
                                      KernelSpec.spectral({(0, 0): 6.0, (1, 0): 0.3, (0, 1): 0.3})],
                             ids=["gaussian", "mollifier", "spectral"])
    @pytest.mark.parametrize("forcing", [ForcingSpec(),
                                         ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5)],
                             ids=["zero", "single_mode"])
    @pytest.mark.parametrize("from_config", [True, False])
    @pytest.mark.parametrize("every", [1, 7])
    def test_forked_trajectories_are_the_serial_trajectories(self, monkeypatch, spec, forcing, from_config, every):
        # a forked trajectory makes each new state's F'(phi)^ and mu^ on the
        # fork's thread, in the row block the flow does not use; it starts
        # from the config's initial data or from a full-width state handed in
        cfg = make_cfg(
            kernel=spec, forcing=forcing, sim=replace(self.params, t_end=50 * self.params.dt),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=5),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.7), output=OutputConfig(record_every=every),
            checks=ChecksConfig(enforce_hypotheses=False),
        )
        start = None if from_config else self.start(cfg.grid)

        def frames(fork_min_n):
            monkeypatch.setattr(solver, "_FORK_MIN_N", fork_min_n)
            before, seen, threads = phase_threads(), [], set()
            for _, state, rec, _ in trajectory(cfg, initial_state=start)[2]:
                threads.update(t for t in phase_threads() if t not in before)
                seen.append([a.tobytes() for a in state_arrays(state)])
                seen.append(rec and np.array(rec.as_row()).tobytes())
            return seen, len(threads)

        (got, forked), (want, serial) = frames(cfg.grid.n), frames(2 * cfg.grid.n)
        assert (forked, serial) == (1, 0)
        assert len(got) == 2 * 51 and sum(r is not None for r in got[1::2]) == len(range(0, 50, every)) + 1
        assert got == want

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_steppers_on_one_kernel_step_at_once(self, monkeypatch, forked):
        # two steppers share a kernel and params and nothing else: stepped
        # at once from two threads (each with a fork thread of its own when
        # forked), switching often, each gives the one-thread trajectory
        kernel = kernel_on(32)
        forcing = ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5)
        want = self.trajectory(stepper_for(monkeypatch, kernel, self.params, forked), kernel.grid, forcing, 50)
        steppers = [stepper_for(monkeypatch, kernel, self.params, forked) for _ in range(2)]
        assert [s.fork is not None for s in steppers] == [forked, forked]
        barrier, got = threading.Barrier(2), [None, None]

        def run_one(i):
            barrier.wait()
            got[i] = self.trajectory(steppers[i], kernel.grid, forcing, 50)

        threads = [threading.Thread(target=run_one, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for states in got:
            assert states is not None
            assert_same_states(states, want)

    def assert_forks_at(self, monkeypatch, n):
        """An unpatched stepper on n points forks, and its forced steps are
        those of a stepper that does not."""
        kernel = kernel_on(n)
        forked = Stepper(kernel, self.params, DW)
        monkeypatch.setattr(solver, "_FORK_MIN_N", 2 * n)
        serial = Stepper(kernel, self.params, DW)
        assert forked.fork is not None and serial.fork is None
        forcing = ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3)
        got, want = (self.trajectory(s, kernel.grid, forcing, 3) for s in (forked, serial))
        assert_same_states(got, want)

    def test_forks_from_n_128(self, monkeypatch):
        self.assert_forks_at(monkeypatch, 128)

    def test_forks_from_n_256(self, monkeypatch):
        self.assert_forks_at(monkeypatch, 256)

    def test_no_thread_below_the_threshold(self, rng):
        before = threading.enumerate()
        kernel = kernel_on(64)
        stepper = Stepper(kernel, self.params, DW)
        stepped_state(stepper, kernel.grid, rng)
        assert (stepper.fork, stepper.phase_real, stepper.phase_rows, stepper.phase_flux,
                stepper.phase_force) == (None,) * 5
        assert [t for t in threading.enumerate() if t not in before] == []

    @pytest.mark.parametrize("failing", ["phase", "flow", "chemical_hats", "capillary"])
    def test_a_failing_branch_waits_for_the_other(self, monkeypatch, failing):
        # the error reaches the caller only once the other branch, slowed
        # down here, has made its last write (an inverse pass).  A step also
        # makes what the new state carries on the fork's thread, after the
        # inverse of the new phi: its F'(phi)^ and mu^ (eval_df first), then
        # dx mu inverse and dy mu's column pass (inverse_cols last).  The
        # flow, on this thread, runs dy mu's row pass (inverse_rows), whose
        # column pass the state carries
        kernel = kernel_on(32)
        stepper, serial = (stepper_for(monkeypatch, kernel, self.params, f) for f in (True, False))
        start = self.trajectory(stepper, kernel.grid, ForcingSpec(), 1)[-1]
        inverses = []

        def noted(name):
            def call(*args, _fn=getattr(solver, name), **kwargs):
                out = _fn(*args, **kwargs)
                inverses.append((name, threading.current_thread() is threading.main_thread()))
                return out
            return call

        def fail(*args, **kwargs):
            raise RuntimeError(f"{failing} failed")

        failing_name, slow_name = {"phase": ("flux_divergence", "inverse_rows"),
                                   "flow": ("inverse_rows", "flux_divergence"),
                                   "chemical_hats": ("eval_df", "inverse_rows"),
                                   "capillary": ("inverse_cols", "inverse_rows")}[failing]

        with monkeypatch.context() as patched:
            for name in ("irfft2_cols", "inverse_cols", "inverse_rows"):
                patched.setattr(solver, name, noted(name))

            def slow(*args, _fn=getattr(solver, slow_name), **kwargs):
                time.sleep(0.2)
                return _fn(*args, **kwargs)

            patched.setattr(solver, failing_name, fail)
            patched.setattr(solver, slow_name, slow)
            with pytest.raises(RuntimeError, match=f"^{failing} failed$"):
                stepper.step(start)  # from the state it returned, whose carry it holds
            # the flow branch inverts omega, dy mu and then the new u on this
            # thread; the phase branch the new phi and dx mu, and runs dy mu's
            # column pass, on the fork's
            flow = [("irfft2_cols", True), ("inverse_rows", True), ("irfft2_cols", True)]
            phase = [("irfft2_cols", False), ("irfft2_cols", False), ("inverse_cols", False)]
            assert sorted(inverses) == sorted({"phase": flow, "flow": flow[:1] + phase,
                                               "chemical_hats": flow + phase[:1],
                                               "capillary": flow + phase[:2]}[failing])
        # the thread outlives the error, and the next step, which makes what
        # the state carries again, is the serial one
        assert_same_states([stepper.step(start)], [serial.step(start)])

    def test_blow_up_names_phi_before_u(self, monkeypatch):
        kernel = kernel_on(32)
        stepper = stepper_for(monkeypatch, kernel, self.params)
        g = kernel.grid
        nan = nan_force(g)
        state = state_from_samples(g, constant_field(g, 0.2), zero_vector(g), 0.0)
        with pytest.raises(BlowUpError, match="non-finite values in u$"):
            stepper.step(state, nan)
        state = state_from_samples(g, constant_field(g, np.nan), zero_vector(g), 0.0)
        with pytest.raises(BlowUpError, match="non-finite values in phi$"):
            stepper.step(state, nan)
        assert stepper.fork is not None

    def test_thread_exits_with_its_stepper(self, monkeypatch, rng):
        before = phase_threads()
        kernel = kernel_on(32)
        stepper = stepper_for(monkeypatch, kernel, self.params)
        state = stepped_state(stepper, kernel.grid, rng)
        (thread,) = [t for t in phase_threads() if t not in before]
        assert thread.daemon
        del stepper, state
        gc.collect()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert [t for t in phase_threads() if t not in before] == []

    def test_closed_stepper_steps_serially(self, monkeypatch):
        # close() joins the fork's thread and drops it: a later step runs on
        # this thread, with the serial step's bits, and returns
        kernel = kernel_on(32)
        forked, serial = (stepper_for(monkeypatch, kernel, self.params, f) for f in (True, False))
        first = forked.step(self.start(kernel.grid))
        forked.close()
        got = []
        stepping = threading.Thread(target=lambda: got.append(forked.step(first)), daemon=True)
        stepping.start()
        stepping.join(timeout=10)
        assert not stepping.is_alive() and forked.fork is None
        assert_same_states(got, [serial.step(serial.step(self.start(kernel.grid)))])

    @pytest.mark.parametrize("ending", ["completed", "blown_up", "abandoned"])
    def test_no_thread_outlives_a_forked_trajectory(self, monkeypatch, ending):
        # the frames close their stepper when they end, whichever way: its
        # thread is joined, with no collection of cycles to wait for
        cfg = parse_config_file(CONFIGS / "spinodal.cfg", ["grid.n=32", "t_end=0.005"])
        monkeypatch.setattr(solver, "_FORK_MIN_N", 32)
        before = phase_threads()
        if ending == "completed":
            run(cfg)
        elif ending == "blown_up":
            monkeypatch.setattr(ForcingSpec, "field_at", lambda self, grid, t: nan_force(grid))
            with pytest.raises(BlowUpError) as err:
                run(cfg)
            assert err.value.step == 1
        else:
            frames = trajectory(cfg)[2]
            next(frames), next(frames)
            assert len([t for t in phase_threads() if t not in before]) == 1
            del frames
        assert [t for t in phase_threads() if t not in before] == []

    def test_no_thread_outlives_a_run_at_n_128(self):
        # the shipped vortex config at n = 128 forks with no patch, and its
        # thread is joined before run() returns
        cfg = parse_config_file(CONFIGS / "taylor_green.cfg", ["grid.n=128", "output.out_dir=", "t_end=0.003"])
        before = phase_threads()
        run(cfg)
        assert cfg.grid.n >= solver._FORK_MIN_N
        assert [t for t in phase_threads() if t not in before] == []

    def test_thread_does_not_hold_up_exit(self, tmp_path):
        # a stepper alive at exit leaves its thread waiting for work
        script = tmp_path / "exit.py"
        script.write_text(
            "import numpy as np\n"
            "from nlchns import solver\n"
            "from nlchns.kernels import KernelSpec, build_kernel\n"
            "from nlchns.potentials import PotentialSpec\n"
            "from nlchns.spectral import Grid\n"
            "solver._FORK_MIN_N = 32\n"
            "kernel = build_kernel(KernelSpec.gaussian(0.5, 6.0), Grid(32, 2 * np.pi))\n"
            "params = solver.SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)\n"
            "stepper = solver.Stepper(kernel, params, PotentialSpec.double_well())\n"
            "hats = np.zeros((3, 32, 17), dtype=complex)\n"
            "hats[0, 0, 0] = 0.2 * 32**2\n"
            "stepper.step(solver.SimState(kernel.grid, hats, 0.0))\n"
            "assert stepper.fork is not None\n"
            "print('stepped')\n")
        src = str(Path(solver.__file__).resolve().parents[1])
        done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": src})
        assert (done.returncode, done.stdout) == (0, "stepped\n"), done.stderr


class TestRecordCarry:
    """A stepper makes a state's F'(phi)^ and mu^ once, for its record and
    for the step from it, and again for a state it did not just return, so
    the result is the same bit for bit whether a state is recorded, or
    stepped, once or twice."""

    params = SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)

    def test_same_state_twice(self, kernel32, rng):
        stepper = Stepper(kernel32, self.params, DW)
        state = stepped_state(stepper, kernel32.grid, rng)
        carried = stepper.step(state)  # with the F'(phi)^ and mu^ the step to state made
        again = stepper.step(state)  # with those made again
        assert_same_states([carried], [again])

    def test_mu_hat_of_a_returned_state_is_made_again_the_same(self, kernel32, rng):
        stepper = Stepper(kernel32, self.params, DW)
        state = stepped_state(stepper, kernel32.grid, rng)
        carried = stepper.mu_hat(state).copy()
        assert carried.tobytes() == Stepper(kernel32, self.params, DW).mu_hat(state).tobytes()

    def test_record_interval_leaves_the_trajectory(self):
        cfg = make_cfg(
            sim=SimParams(nu=0.05, dt=2e-3, t_end=0.04),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=5),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.7),
        )
        every, sparse = (run(replace(cfg, output=OutputConfig(record_every=k))) for k in (1, 7))
        assert (len(every.records), len(sparse.records)) == (21, 4)  # steps 0, 7, 14, 20
        assert_same_states([every.state], [sparse.state])


class TestRecordBuffers:
    """A record works in its stepper's buffers and gives the record of one
    allocating call per quantity (``conftest.reference_record``), bit for bit."""

    params = SimParams(nu=0.05, dt=2e-3, t_end=20 * 2e-3)

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    @pytest.mark.parametrize("forcing", [ForcingSpec(),
                                         ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5)],
                             ids=["zero", "single_mode"])
    def test_every_record_is_the_reference(self, monkeypatch, forked, forcing):
        cfg = make_cfg(
            sim=self.params, forcing=forcing, output=OutputConfig(record_every=1),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=5),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.7),
        )
        monkeypatch.setattr(solver, "_FORK_MIN_N", cfg.grid.n if forked else 2 * cfg.grid.n)
        made = []

        def spy(*args, work, **kwargs):
            rec = make_record(*args, work=work, **kwargs)
            made.append((rec, reference_record(*args, **kwargs)))
            return rec

        make_record = diagnostics.make_record
        monkeypatch.setattr(diagnostics, "make_record", spy)
        records = [rec for _, _, rec, _ in trajectory(cfg)[2]]
        assert len(records) == len(made) == 21
        for rec, (got, want) in zip(records, made):
            assert rec is got
            assert record_bytes(got) == record_bytes(want)

    def test_full_spectrum_state(self, kernel32, rng):
        # without buffers, make_record allocates its own, for a state of any width
        g = kernel32.grid
        state = state_from_samples(g, random_field(g, rng), random_vector(g, rng, solenoidal=True), 0.3)
        mu = mu_coefficients(kernel32, DW, state.samples[0])
        got = diagnostics.make_record(state, mu, kernel32, DW, 0.1, 0.7, 0.2, None)
        assert record_bytes(got) == record_bytes(reference_record(state, mu, kernel32, DW, 0.1, 0.7, 0.2, None))


class TestForcing:
    def test_single_mode_is_solenoidal_and_mean_free(self):
        # k . h^ = 0 at every mode, and h^ = 0 at k = 0
        g = Grid(32, TWO_PI)
        hx, hy = ForcingSpec(family="single_mode", mode=(2, -1), scale=0.7, decay=0.5).field_at(g, 0.3)
        assert np.max(np.abs(hx)) > 0
        assert hx[0, 0] == 0 and hy[0, 0] == 0
        assert np.max(np.abs(g.half.ikx * hx + g.half.iky * hy)) < 1e-14 * np.max(np.abs(hx))

    def test_dual_norm_integral_matches_spectral_sum(self):
        g = Grid(32, TWO_PI)
        spec = ForcingSpec(family="single_mode", mode=(2, -1), scale=0.7, decay=0.5)
        h0 = spec.field_at(g, 0.0)
        k2 = (2 * np.pi / g.l) ** 2 * 5
        dual0 = parseval(g.half.weight, power(*h0)) / k2  # ||h(0)||^2 by Parseval, single shell
        expected = dual0 / (2 * spec.decay)
        assert abs(spec.dual_norm_sq_integral(g) - expected) < 1e-12 * expected

    @pytest.mark.parametrize("spec", [
        ForcingSpec(family="body", amplitude=(0.3, -0.1), decay=0.5),
        ForcingSpec(family="single_mode", mode=(2, 3), scale=0.7, decay=0.5),
        ForcingSpec(family="single_mode", mode=(2, -3), scale=0.7, decay=0.5),
        ForcingSpec(family="single_mode", mode=(3, 0), scale=0.7, decay=0.5),
        ForcingSpec(family="single_mode", mode=(-5, 1), scale=0.7, decay=0.5),
        ForcingSpec(family="single_mode", mode=(-15, -15), scale=0.7, decay=0.5),
    ], ids=["body", "m2>0", "m2<0", "m2=0", "m1<0", "edge"])
    def test_coefficients_are_those_of_the_samples(self, spec):
        # field_at gives the rfft2 of the mesh samples of h(t), in closed form
        g = Grid(32, TWO_PI)
        for t in (0.0, 0.3):
            h = forcing_samples(spec, g, t)
            want = spectral.rfft2_cols(h, g.n // 2 + 1)
            got = spec.field_at(g, t)
            assert got.shape == want.shape == (2, g.n, g.n // 2 + 1)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_mode_the_grid_cannot_resolve(self):
        # the refinement study steps a parsed config on other grids: a mode
        # with |m1| or |m2| >= n/2 raises, not aliased to another mode
        spec = ForcingSpec(family="single_mode", mode=(1, 8), scale=0.7, decay=0.5)
        assert spec.field_at(Grid(32, TWO_PI), 0.0) is not None
        outside = "is outside -(n/2 - 1) .. n/2 - 1 (grid.n = 16)"
        for mode, message in (((1, 8), f"forcing.mode_y: 8 {outside}"), ((-8, 0), f"forcing.mode_x: -8 {outside}"),
                              ((0, 0), "forcing.mode_x/mode_y must not both be zero")):
            bad = replace(spec, mode=mode)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                bad.field_at(Grid(16, TWO_PI), 0.0)
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                bad.dual_norm_sq_integral(Grid(16, TWO_PI))

    @pytest.mark.parametrize("mode", [(12, 1), (1, 12)])
    def test_mode_outside_the_band_never_reaches_u(self, kernel32, mode):
        # n = 32 resolves |m| < 16 and keeps |m| <= 10: the force's mode is cut
        g = kernel32.grid
        spec = ForcingSpec(family="single_mode", mode=mode, scale=0.7)
        params = SimParams(nu=0.1, dt=1e-2, stabilizer=1.0, t_end=1.0)
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        u = one_step(state, params, kernel32, spec.field_at(g, 0.0)).samples[1:]
        assert not np.any(u[0]) and not np.any(u[1])

    @pytest.mark.parametrize("forcing", [ForcingSpec(family="body", amplitude=(0.3, -0.1), decay=0.5),
                                         ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5)],
                             ids=["body", "single_mode"])
    def test_record_forcing_power_is_the_sample_sum(self, rng, forcing):
        # <h, u> by Parseval from the coefficients is the sample sum; the
        # record of step i > 0 takes the h(t^{i-1}) the step took
        g = Grid(32, TWO_PI)
        u = random_vector(g, rng, band=8, solenoidal=True)
        cfg = replace(forced_cfg(output=OutputConfig(record_every=1)), forcing=forcing)
        start = state_from_samples(g, random_field(g, rng, band=8), u, 0.0)
        _, params, frames = trajectory(cfg, initial_state=start)
        records = 0
        for i, state, rec, _ in frames:
            want = inner(g, forcing_samples(forcing, g, max(i - 1, 0) * params.dt), state.samples[1:])
            assert abs(rec.forcing_power - want) <= 1e-13 * abs(want)
            records += 1
        assert records == 11

    def test_negative_decay_raises_for_every_family(self):
        # a body force with lambda < 0 would grow as e^{|lambda| t}: 2.718 n^2 at t = 1
        g = Grid(16, TWO_PI)
        for spec in (ForcingSpec(family="body", amplitude=(1.0, 0.0), decay=-1.0),
                     ForcingSpec(family="body", decay=-1.0),
                     ForcingSpec(family="single_mode", mode=(1, 0), scale=1.0, decay=-1.0)):
            with pytest.raises(ValueError, match="^forcing.decay must be nonnegative$"):
                spec.field_at(g, 1.0)
            with pytest.raises(ValueError, match="^forcing.decay must be nonnegative$"):
                spec.dual_norm_sq_integral(g)

    def test_body_and_zero_families(self):
        g = Grid(16, TWO_PI)
        assert ForcingSpec().field_at(g, 1.0) is None
        assert ForcingSpec().dual_norm_sq_integral(g) == 0.0
        body = ForcingSpec(family="body", amplitude=(1.0, 0.0), decay=1.0)
        assert body.dual_norm_sq_integral(g) is None  # mean momentum only
        undecayed = ForcingSpec(family="single_mode", mode=(1, 0), scale=1.0, decay=0.0)
        assert undecayed.dual_norm_sq_integral(g) is None


class TestRun:
    def test_zero_data_zero_trajectory(self):
        cfg = make_cfg()
        res = run(cfg)
        for rec in res.records:
            assert rec.kinetic == 0.0
            assert rec.phi_min == rec.phi_max == 0.0
            assert abs(rec.total_energy - res.records[0].total_energy) < 1e-12

    def test_energy_monotone_on_small_spinodal(self):
        cfg = make_cfg(
            sim=SimParams(nu=0.1, dt=2e-3, t_end=0.4),
            initial=InitialSpec(family="random", amplitude=1e-3, mean=0.0, seed=9),
        )
        res = run(cfg)
        E = [r.total_energy for r in res.records]
        assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(E, E[1:]))
        assert not res.invariant_failures

    def test_mean_preserved_long_run(self):
        cfg = make_cfg(
            sim=SimParams(nu=0.1, dt=1e-3, t_end=1.0),
            initial=InitialSpec(family="random", amplitude=0.1, mean=0.3, seed=4),
        )
        res = run(cfg)
        masses = [r.mass for r in res.records]
        vol = TWO_PI**2
        assert len(set(masses)) == 1  # the carried k = 0 coefficient, copied through every step
        assert abs(masses[0] / vol - 0.3) < 1e-12

    def test_divergence_invariant_along_run(self):
        cfg = make_cfg(
            sim=SimParams(nu=0.05, dt=2e-3, t_end=0.2),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.0, seed=12),
            velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
        )
        res = run(cfg)
        g = cfg.grid
        umax = np.max(np.abs(res.state.samples[1:])) + 1e-30
        div = np.max(np.abs(divergence(g, res.state.samples[1:])))
        assert div < 1e-11 * umax * 2 * np.pi * g.n / g.l

    def test_divergence_audit_reports_a_non_solenoidal_start(self, rng):
        # run() does not project an initial state it is given: the record at
        # step 0 reports its divergence, with the coefficient bound, and the
        # first step's projection leaves none for the later records
        g = Grid(32, TWO_PI)
        u = random_vector(g, rng, band=8)
        cfg = make_cfg(sim=SimParams(nu=0.1, dt=1e-3, t_end=5e-3), output=OutputConfig(record_every=1))
        res = run(cfg, initial_state=state_from_samples(g, constant_field(g, 0.0), u, 0.0))
        assert len(res.records) == 6
        assert len(res.invariant_failures) == 1
        found = re.fullmatch(r"divergence (\S+) at step 0", res.invariant_failures[0])
        assert found
        sampled = np.max(np.abs(divergence(g, u)))
        assert float(found.group(1)) >= float(f"{sampled:.3e}") > 1e-3

    def test_random_data_mass_is_exact(self):
        # the k = 0 coefficient of random data is mean n^2, not the
        # round-off sum of its samples (which misses by an ulp for seed 8)
        for seed in range(1, 11):
            cfg = make_cfg(sim=SimParams(nu=0.1, dt=1e-3, t_end=2e-3),
                           initial=InitialSpec(family="random", amplitude=0.2, mean=0.1, seed=seed))
            res = run(cfg)
            assert [r.mass for r in res.records] == [0.1 * cfg.grid.volume] * 3

    def test_near_rest_velocity_is_divergence_free_to_its_own_round_off(self):
        # from rest, near-uniform phi: the capillary force is nearly a pure
        # gradient, and the u the projection leaves is ~1e-5 of it; projected
        # as e (e . b), its divergence is round-off of u, not of the force
        for seed in range(1, 6):
            cfg = make_cfg(sim=SimParams(nu=0.1, dt=2e-3, t_end=4e-3), output=OutputConfig(record_every=1),
                           initial=InitialSpec(family="random", amplitude=1e-5, mean=0.45, seed=seed))
            res = run(cfg)
            assert 0 < res.records[-1].kinetic < 1e-20
            assert res.invariant_failures == []

    def test_hypothesis_gate(self):
        # one switch: the error names the key that lets the run proceed
        cfg = make_cfg(kernel=KernelSpec.gaussian(0.08 * TWO_PI, 1.0))  # a = 1 < 4
        with pytest.raises(HypothesisGateError, match=r"set checks\.enforce_hypotheses = false to proceed"):
            run(cfg)
        cfg_off = replace(cfg, checks=ChecksConfig(enforce_hypotheses=False))
        assert run(cfg_off).records, "an ungated run must still produce records"

    def test_stabilizer_range_abort(self):
        cfg = make_cfg(
            sim=SimParams(nu=0.1, dt=2e-3, t_end=4.0, stabilizer=2.0),
            initial=InitialSpec(family="random", amplitude=1e-2, mean=0.0, seed=8),
            checks=ChecksConfig(s_lo=-0.6, s_hi=0.6),
        )
        with pytest.raises(StabilizerRangeError) as err:
            run(cfg)
        assert err.value.step > 0
        assert err.value.last_record is not None

    def test_stabilizer_abort_reports_the_last_written_record(self, tmp_path):
        # the record at the abort step left the range; the one before it is
        # the last one audited and written
        cfg = make_cfg(
            sim=SimParams(nu=0.1, dt=1e-2, t_end=4.0, stabilizer=0.5),
            initial=InitialSpec(family="random", amplitude=1e-2, mean=0.0, seed=8),
            checks=ChecksConfig(s_lo=-0.6, s_hi=0.6),
            output=OutputConfig(record_every=1, out_dir=str(tmp_path)),
        )
        with pytest.raises(StabilizerRangeError) as err:
            run(cfg)
        rows = storage.read_diagnostics_csv(str(tmp_path / storage.CSV_NAME))
        assert len(rows) == err.value.step
        assert err.value.last_record.as_row() == rows[-1].as_row()

    def test_step_couples_in_declared_order(self, kernel32):
        g = kernel32.grid
        state = state_from_samples(g, constant_field(g, 0.2), taylor_green_u(g, 0.5), 0.0)
        params = SimParams(nu=0.1, dt=1e-3, stabilizer=5.0, t_end=1.0)
        new = one_step(state, params, kernel32)
        assert new.t == pytest.approx(1e-3)
        # constant phi is an equilibrium of the phase equation under any u
        assert rel_err(new.samples[0], state.samples[0]) < 1e-12

    def test_mollifier_kernel_run(self):
        # compactly supported kernel with a convex quartic: same invariants
        cfg = make_cfg(
            kernel=KernelSpec.mollifier(radius=0.25 * TWO_PI, strength=4.0),
            potential=PotentialSpec.quartic(1.0, 1.0),
            sim=SimParams(nu=0.1, dt=2e-3, t_end=0.1),
            initial=InitialSpec(family="random", amplitude=0.1, mean=0.0, seed=6),
        )
        res = run(cfg)
        assert not res.invariant_failures
        E = [r.total_energy for r in res.records]
        assert all(b <= a + 1e-10 * (1 + abs(a)) for a, b in zip(E, E[1:]))

    def test_tanh_strip_initial_run(self):
        cfg = make_cfg(
            sim=SimParams(nu=0.1, dt=1e-3, t_end=0.05),
            initial=InitialSpec(family="tanh_strip", width=0.4),
        )
        res = run(cfg)
        assert not res.invariant_failures
        assert res.records[-1].phi_min < -0.5 < 0.5 < res.records[-1].phi_max

    def test_body_forcing_integrates_mean_momentum(self):
        # spatially uniform force: the k = 0 velocity mode obeys the exact
        # recurrence u(0) <- u(0) + dt A exp(-lambda t_n)
        amp, decay = (0.4, -0.2), 1.5
        cfg = make_cfg(
            sim=SimParams(nu=0.1, dt=1e-2, t_end=0.2),
            forcing=ForcingSpec(family="body", amplitude=amp, decay=decay),
        )
        res = run(cfg)
        n_steps = 20
        expected = sum(1e-2 * amp[0] * np.exp(-decay * 1e-2 * k) for k in range(n_steps))
        got = float(np.mean(res.state.samples[1]))
        assert abs(got - expected) < 1e-13 * (1 + abs(expected))
        got_y = float(np.mean(res.state.samples[2]))
        expected_y = expected / amp[0] * amp[1]
        assert abs(got_y - expected_y) < 1e-13 * (1 + abs(expected_y))


class CountingForcing:
    """Stands in for a config's forcing and keeps the time of each
    ``field_at`` call."""

    def __init__(self, forcing: ForcingSpec):
        self.forcing = forcing
        self.times: list[float] = []

    def field_at(self, grid, t):
        self.times.append(t)
        return self.forcing.field_at(grid, t)

    def __getattr__(self, name):
        return getattr(self.forcing, name)


def forced_cfg(**over) -> SimConfig:
    return make_cfg(
        sim=SimParams(nu=0.1, dt=1e-2, t_end=0.1),
        initial=InitialSpec(family="random", amplitude=0.1, mean=0.0, seed=5),
        velocity=VelocitySpec(family="taylor_green", amplitude=0.5),
        forcing=ForcingSpec(family="single_mode", mode=(1, 2), scale=0.3, decay=0.5),
        **over,
    )


class TestTrajectory:
    def test_forcing_asked_once_after_set_up_and_once_a_step(self):
        # a timer that wraps field_at sees where the set-up ends and each step starts
        cfg = forced_cfg()
        clock = CountingForcing(cfg.forcing)
        _, params, frames = trajectory(replace(cfg, forcing=clock))
        assert clock.times == []
        first = next(frames)
        assert first[0] == 0 and first[2] is not None and clock.times == [0.0]
        clock = CountingForcing(cfg.forcing)
        run(replace(cfg, forcing=clock))
        assert clock.times == [0.0] + [i * params.dt for i in range(10)]

    def test_step_clock_starts_at_the_initial_state_time(self):
        # a state handed in at t0 = 0.5: step i ends at t0 + i dt, and the
        # forcing is still asked once after set-up and once a step
        cfg = forced_cfg(output=OutputConfig(record_every=1))
        start = run(replace(cfg, sim=replace(cfg.sim, t_end=0.0))).state
        clock = CountingForcing(cfg.forcing)
        res = run(replace(cfg, forcing=clock), initial_state=SimState(start.grid, start.hats, 0.5))
        dt = res.params.dt
        assert clock.times == [0.5] + [0.5 + i * dt for i in range(10)]
        assert [r.t for r in res.records] == [0.5 + i * dt for i in range(11)]
        assert all(r1.t > r0.t for r0, r1 in zip(res.records, res.records[1:]))
        assert res.state.t == 0.5 + 10 * dt

    def test_run_keeps_the_frames_records_and_final_state(self, tmp_path):
        cfg = forced_cfg(output=OutputConfig(record_every=3, snapshot_every=4, out_dir=str(tmp_path)))
        res = run(cfg)
        _, _, frames = trajectory(cfg)
        frames = list(frames)
        assert [f[0] for f in frames] == list(range(11))
        records = [rec for _, _, rec, _ in frames if rec is not None]
        assert [r.t for r in records] == pytest.approx([0.0, 0.03, 0.06, 0.09, 0.1])
        rows = np.array([r.as_row() for r in records])
        assert np.array([r.as_row() for r in res.records]).tobytes() == rows.tobytes()
        last = frames[-1][1]
        assert res.state.samples.tobytes() == last.samples.tobytes()
        assert res.state.t == last.t
        assert sorted(p.name for p in tmp_path.glob("phi_*")) == [f"phi_{i:08d}.f64" for i in (0, 4, 8)]
