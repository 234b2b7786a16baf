import inspect
import math

import numpy as np
import pytest

from conftest import (
    TWO_PI,
    constant_field,
    energy,
    full_plane,
    mu_coefficients,
    random_field,
    random_vector,
    state_from_samples,
    weak_gradient_margin,
    zero_vector,
)
from nlchns import hypotheses
from nlchns.config import ChecksConfig, OutputConfig, SimConfig
from nlchns.diagnostics import (
    DiagnosticsRecord,
    dissipative_envelope,
    energy_inequality_check,
    gradient_control_check,
    identity_residual,
    make_record,
)
from nlchns.initialdata import InitialSpec, VelocitySpec
from nlchns.kernels import KernelSpec, build_kernel
from nlchns.potentials import PotentialSpec, eval_f
from nlchns.solver import ForcingSpec, SimParams, run
from nlchns.spectral import Grid

DW = PotentialSpec.double_well()


@pytest.fixture(scope="module")
def kernel16():
    return build_kernel(KernelSpec.gaussian(0.15 * TWO_PI, 2.0), Grid(16, TWO_PI))


class TestTotalEnergy:
    """The energy columns of a record, as make_record takes them."""

    def test_zero_state_is_bulk_only(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        parts = energy(state, kernel16, DW)
        assert parts.kinetic == 0.0
        assert abs(parts.interaction) < 1e-12
        assert abs(parts.bulk - g.volume) < 1e-12  # F(0) = 1
        assert abs(parts.total_energy - g.volume) < 1e-12

    def test_pure_phase_is_zero(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 1.0), zero_vector(g), 0.0)
        parts = energy(state, kernel16, DW)
        assert abs(parts.total_energy) < 1e-12

    def test_matches_independent_quadrature(self, kernel16, rng):
        g = kernel16.grid
        phi = random_field(g, rng)
        u = random_vector(g, rng)
        state = state_from_samples(g, phi, u, 0.0)
        parts = energy(state, kernel16, DW)

        w = g.cell_volume
        kinetic = 0.5 * float(np.sum(u[0]**2 + u[1]**2) * w)
        bulk = float(np.sum(eval_f(DW, phi)) * w)
        n = g.n
        J = kernel16.samples
        acc = 0.0
        for i in range(n):
            for j in range(n):
                diff = phi[i, j] - phi
                acc += np.sum(
                    J[(i - np.arange(n))[:, None] % n, (j - np.arange(n))[None, :] % n] * diff**2
                )
        interaction = 0.25 * acc * w * w
        assert abs(parts.kinetic - kinetic) < 1e-12 * (1 + kinetic)
        assert abs(parts.bulk - bulk) < 1e-12 * (1 + abs(bulk))
        assert abs(parts.interaction - interaction) < 1e-9 * (1 + interaction)
        assert parts.total_energy == parts.kinetic + parts.interaction + parts.bulk


def quadrature_record(state, kernel, beta):
    """Every quadratic record field from samples alone: brute-force periodic
    convolution and double sum, full-plane fft2 gradients with the Nyquist
    line zeroed, and sample sums with the cell volume."""
    g = kernel.grid
    n, w = g.n, g.cell_volume
    phi, ux, uy = state.samples
    i = np.arange(n)
    # shifted[x1, x2, y1, y2] = J(x - y)
    shifted = kernel.samples[(i[:, None, None, None] - i[None, None, :, None]) % n,
                             (i[None, :, None, None] - i[None, None, None, :]) % n]
    conv = np.einsum("abcd,cd->ab", shifted, phi) * w
    a = float(np.sum(kernel.samples) * w)
    mu = a * phi - conv + 4.0 * phi**3 - 4.0 * phi  # double well F' = 4s^3 - 4s

    kx, ky, _, _ = full_plane(g)

    def grad_sq(*fields):
        total = 0.0
        for f in fields:
            f_hat = np.fft.fft2(f)
            for k in (kx, ky):
                d = np.fft.ifft2(1j * k * f_hat)
                assert np.max(np.abs(d.imag)) < 1e-12 * (1 + np.max(np.abs(d.real)))
                total += float(np.sum(d.real**2) * w)
        return total

    kinetic = 0.5 * float(np.sum(ux**2 + uy**2) * w)
    interaction = 0.25 * float(np.sum(shifted * (phi[:, :, None, None] - phi) ** 2) * w * w)
    bulk = float(np.sum((1.0 - phi**2) ** 2) * w)
    grad_mu_sq, grad_phi_sq = grad_sq(mu), grad_sq(phi)
    return dict(
        mass=float(np.sum(phi) * w), kinetic=kinetic, interaction=interaction, bulk=bulk,
        total_energy=kinetic + interaction + bulk, grad_u_sq=grad_sq(ux, uy),
        grad_mu_sq=grad_mu_sq, grad_phi_sq=grad_phi_sq,
        grad_control_margin=grad_mu_sq - beta * grad_phi_sq,
        phi_min=float(np.min(phi)), phi_max=float(np.max(phi)),
    )


class TestRecordOracle:
    """The records run() writes against an independent quadrature at n = 16,
    with u != 0 and mean(phi) != 0; a run cuts its data to the band, so the
    full-spectrum case takes the record of the state itself, which keeps its
    Nyquist content and pins the half-plane weights and the zeroed-Nyquist
    derivative convention."""

    @pytest.mark.parametrize("band", [5, None], ids=["band-limited", "full-spectrum"])
    def test_record_fields_match_quadrature(self, rng, band):
        g = Grid(16, TWO_PI)
        phi = 0.3 + 0.5 * random_field(g, rng, band)
        u = random_vector(g, rng, band, solenoidal=True)
        u = np.stack([0.2 + u[0], u[1] - 0.1])
        nu, dt = 0.1, 1e-3
        cfg = SimConfig(
            grid=Grid(16, TWO_PI),
            kernel=KernelSpec.gaussian(0.15 * TWO_PI, 2.0),
            potential=DW,
            sim=SimParams(nu=nu, dt=dt, t_end=dt),
            output=OutputConfig(record_every=1),
            checks=ChecksConfig(enforce_hypotheses=False),
        )
        start = state_from_samples(g, phi, u, 0.0)
        kernel = build_kernel(cfg.kernel, g)
        assert abs(np.mean(phi)) > 0.1
        if band is None:
            beta = hypotheses.audit(kernel, DW).beta
            rec = make_record(start, mu_coefficients(kernel, DW, phi), kernel, DW, nu, beta, 0.0, None)
            pairs = [(start, rec)]
        else:
            res = run(cfg, initial_state=start)
            assert not res.invariant_failures
            beta, pairs = res.report.beta, [(start, res.records[0]), (res.state, res.records[1])]
        assert pairs[0][1].kinetic > 0.1
        for state, rec in pairs:
            want = quadrature_record(state, kernel, beta)
            for name, value in want.items():
                assert abs(getattr(rec, name) - value) <= 1e-12 * abs(value), name
        if band is not None:
            prev, cur = res.records
            terms = (cur.total_energy - prev.total_energy) / dt, nu * cur.grad_u_sq, cur.grad_mu_sq
            assert abs(cur.identity_residual - sum(terms)) <= 1e-12 * sum(map(abs, terms))


class TestIdentityResidual:
    def test_steady_state_zero(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 1.0), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        r0 = make_record(state, mu, kernel16, DW, nu=0.1, beta=1.0, forcing_power=0.0, prev=None)
        state1 = state_from_samples(g, state.samples[0], state.samples[1:], 0.1)
        r1 = make_record(state1, mu, kernel16, DW, nu=0.1, beta=1.0, forcing_power=0.0, prev=r0)
        assert r1.identity_residual == 0.0

    def test_viscous_decay_scalar_oracle(self):
        # uniform phi, one vortex shell: per-step residual has the closed form
        # KE * ((rho^2 - 1)/dt + 4 nu rho^2) with rho = 1/(1 + 2 nu dt)
        nu, dt = 0.05, 2e-3
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=nu, dt=dt, t_end=10 * dt),
            initial=InitialSpec(family="uniform", c=0.0),
            velocity=VelocitySpec(family="taylor_green", amplitude=1.0),
            output=OutputConfig(record_every=1),
        )
        res = run(cfg)
        rho = 1.0 / (1.0 + 2.0 * nu * dt)
        for prev, cur in zip(res.records, res.records[1:]):
            expected = prev.kinetic * ((rho**2 - 1.0) / dt + 4.0 * nu * rho**2)
            assert abs(cur.identity_residual - expected) < 1e-10 * (1 + abs(expected))

    def test_refinement_halves_residual(self):
        base = dict(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.15 * TWO_PI, 1.0),
            potential=PotentialSpec.quartic(1.0, 0.5),
            initial=InitialSpec(family="random", amplitude=0.05, mean=0.0, seed=11, band=1),
            velocity=VelocitySpec(family="taylor_green", amplitude=0.25),
            output=OutputConfig(record_every=1),
        )
        maxr = []
        for dt in (4e-3, 2e-3):
            cfg = SimConfig(sim=SimParams(nu=0.05, dt=dt, t_end=0.2, stabilizer=1.0), **base)
            res = run(cfg)
            maxr.append(max(abs(r.identity_residual) for r in res.records[1:]))
        assert 1.7 < maxr[0] / maxr[1] < 2.3


class TestEnergyInequality:
    def test_constant_series_equality(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 1.0), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        recs = [
            make_record(state_from_samples(g, state.samples[0], state.samples[1:], t), mu, kernel16, DW, 0.1, 1.0,
                        0.0, None)
            for t in (0.0, 0.1, 0.2)
        ]
        v = energy_inequality_check(recs, nu=0.1)
        assert v.passes and v.worst_margin == 0.0

    def test_gentle_relaxation_passes(self):
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.15 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=0.1, dt=1e-3, t_end=0.5),
            initial=InitialSpec(family="random", amplitude=1e-5, mean=0.45, seed=13),
            output=OutputConfig(record_every=1),
        )
        res = run(cfg)
        v = energy_inequality_check(res.records, nu=0.1)
        assert v.passes, f"worst margin {v.worst_margin}"

    def test_violated_budget_reported_as_fail(self):
        # a series whose energy exceeds its dissipation budget must FAIL
        def rec(t, e, d):
            return DiagnosticsRecord(
                t=t, mass=0.0, kinetic=0.0, interaction=0.0, bulk=e, total_energy=e,
                grad_u_sq=0.0, grad_mu_sq=d, forcing_power=0.0,
                identity_residual=0.0, grad_control_margin=0.0, phi_min=0.0, phi_max=0.0,
            )

        rising = [rec(0.0, 1.0, 0.5), rec(0.1, 1.2, 0.5), rec(0.2, 1.5, 0.5)]
        v = energy_inequality_check(rising, nu=1.0)
        assert not v.passes
        assert v.worst_margin < -0.5

    def test_slack_and_horizon_are_fixed(self):
        # the verdict takes the records and nu only: no caller can hand
        # criterion 3b more slack or cut the series short
        assert list(inspect.signature(energy_inequality_check).parameters) == ["records", "nu"]

    def test_unstabilized_run_reported_not_asserted(self):
        # S = 0 with a large step: the audit may legitimately fail; either
        # way the verdict must agree with the recorded budget
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=0.1, dt=5e-2, t_end=2.5, stabilizer=0.0),
            initial=InitialSpec(family="random", amplitude=0.5, mean=0.0, seed=3),
            checks=ChecksConfig(s_lo=-50.0, s_hi=50.0),
            output=OutputConfig(record_every=1),
        )
        res = run(cfg)
        v = energy_inequality_check(res.records, nu=0.1)
        assert isinstance(v.passes, bool)
        assert v.worst_margin <= 0.0 or v.passes


class TestDissipativeEnvelope:
    def test_zero_state_inside(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        recs = [make_record(state, mu, kernel16, DW, 0.1, 1.0, 0.0, None)]
        env = dissipative_envelope(recs, kernel16, DW, g, 0.1, 0.0, 0.0)
        assert env.applicable and env.passes

    def test_decay_rate_constant(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        recs = [make_record(state, mu, kernel16, DW, 0.25, 1.0, 0.0, None)]
        env = dissipative_envelope(recs, kernel16, DW, g, 0.25, 0.0, 0.0)
        lam1 = (2 * np.pi / g.l) ** 2
        assert env.k == 1.0 / (2.0 * max(1.0, 1.0 / (2.0 * lam1 * 0.25)))

    def test_mean_shift_offset(self, kernel16):
        g = kernel16.grid
        m = 0.3
        state = state_from_samples(g, constant_field(g, m), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        recs = [make_record(state, mu, kernel16, DW, 0.1, 1.0, 0.0, None)]
        env = dissipative_envelope(recs, kernel16, DW, g, 0.1, m, 0.0)
        assert abs(env.offset - eval_f(DW, m) * g.volume) < 1e-12
        assert env.passes

    def test_not_applicable_forcing(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        recs = [make_record(state, mu, kernel16, DW, 0.1, 1.0, 0.0, None)]
        env = dissipative_envelope(recs, kernel16, DW, g, 0.1, 0.0, None)
        assert not env.applicable

    def test_short_relaxation_run_passes(self, kernel16):
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=0.02, dt=2e-3, t_end=0.5),
            initial=InitialSpec(family="random", amplitude=0.05, mean=0.0, seed=21),
        )
        res = run(cfg)
        g = Grid(32, TWO_PI)
        k = build_kernel(cfg.kernel, g)
        env = dissipative_envelope(res.records, k, DW, g, 0.02, 0.0, 0.0)
        assert env.applicable and env.passes

    def test_decaying_single_mode_forcing_admissible(self):
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(0.08 * TWO_PI, 6.0),
            potential=DW,
            sim=SimParams(nu=0.05, dt=2e-3, t_end=0.4),
            initial=InitialSpec(family="random", amplitude=0.02, mean=0.0, seed=30),
            forcing=ForcingSpec(family="single_mode", mode=(1, 1), scale=0.2, decay=2.0),
        )
        res = run(cfg)
        g = Grid(32, TWO_PI)
        k = build_kernel(cfg.kernel, g)
        integral = cfg.forcing.dual_norm_sq_integral(g)
        assert integral is not None and integral > 0
        env = dissipative_envelope(res.records, k, DW, g, 0.05, 0.0, integral)
        assert env.applicable and env.passes


class TestGradientControl:
    def test_constant_phi_zero_margin(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 0.4), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        rec = make_record(state, mu, kernel16, DW, 0.1, beta=1.0, forcing_power=0.0, prev=None)
        margin, verdict = gradient_control_check(rec, beta=1.0, condition_ok=True)
        assert abs(margin) < 1e-13 and verdict == "pass"

    def test_not_applicable_when_condition_fails(self, kernel16):
        g = kernel16.grid
        state = state_from_samples(g, constant_field(g, 0.0), zero_vector(g), 0.0)
        mu = mu_coefficients(kernel16, DW, state.samples[0])
        rec = make_record(state, mu, kernel16, DW, 0.1, beta=5.0, forcing_power=0.0, prev=None)
        _, verdict = gradient_control_check(rec, beta=5.0, condition_ok=False)
        assert verdict == "n/a"

    def test_wide_gaussian_with_convex_quartic_passes(self):
        # c0 = 2 a2 + a beats 2 C_P ||grad J||_L1 for a stiff convex quartic
        quartic = PotentialSpec.quartic(1.0, 5.0)
        cfg = SimConfig(
            grid=Grid(32, TWO_PI),
            kernel=KernelSpec.gaussian(TWO_PI / 6.0, 6.0),
            potential=quartic,
            sim=SimParams(nu=0.1, dt=1e-3, t_end=0.3),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.0, seed=17),
            checks=ChecksConfig(grad_control=True),
        )
        res = run(cfg)
        assert res.report.condition_altass, "configuration must satisfy the sharp condition"
        scale = 1.0 + max(r.grad_mu_sq for r in res.records)
        assert min(r.grad_control_margin for r in res.records) >= -1e-8 * scale
        rep = res.report
        weak = [weak_gradient_margin(r.grad_mu_sq, r.grad_phi_sq, r.phi_sq, rep.c0, rep.norm_gradj_l1)
                for r in res.records[1:]]
        assert min(weak) >= -1e-8 * scale
        assert not res.invariant_failures

    @staticmethod
    def _control_cfg(grad_control):
        return SimConfig(
            grid=Grid(16, TWO_PI),
            kernel=KernelSpec.gaussian(TWO_PI / 6.0, 6.0),
            potential=PotentialSpec.quartic(1.0, 5.0),
            sim=SimParams(nu=0.1, dt=1e-3, t_end=3e-3),
            initial=InitialSpec(family="random", amplitude=0.2, mean=0.0, seed=17),
            checks=ChecksConfig(grad_control=grad_control),
            output=OutputConfig(record_every=1),
        )

    def test_run_fails_on_violated_control(self, monkeypatch):
        # a beta too large for the data, with the condition on: every record fails
        monkeypatch.setattr(hypotheses, "compute_beta", lambda report: (1e6, True))
        res = run(self._control_cfg(True))
        assert res.report.condition_altass
        margins = [r.grad_control_margin for r in res.records]
        assert max(margins) < 0
        assert res.invariant_failures == [
            f"gradient control margin {m:.3e} at step {i}" for i, m in enumerate(margins)]

    def test_violation_ignored_unless_requested_or_applicable(self, monkeypatch):
        monkeypatch.setattr(hypotheses, "compute_beta", lambda report: (1e6, True))
        assert not run(self._control_cfg(False)).invariant_failures
        monkeypatch.setattr(hypotheses, "compute_beta", lambda report: (1e6, False))
        assert not run(self._control_cfg(True)).invariant_failures
