"""Trajectory functionals and the discrete counterparts of the analytic
energy laws.

Per-record quantities: total energy E = (1/2)||u||^2 + interaction + bulk,
its components, ||grad u||^2, ||grad mu||^2, the forcing power, the discrete
energy-identity residual, and the gradient-control margin.  Series-level
audits: the cumulative energy inequality

    E(t) + int_0^t (nu ||grad u||^2 + ||grad mu||^2) <= E(0) + int_0^t <h, u>

with left-endpoint quadrature over record intervals, and the dissipative
envelope E(t) <= E(0) exp(-k t) + F(m)|Omega| + K with (k, K) assembled from
the fitted admissibility constants of the mean-shifted potential.

A record takes the kinetic and interaction energies, ||grad u||^2,
||grad mu||^2, ||grad phi||^2 and ||phi||^2 by Parseval from the rfft2
coefficients of the state and of mu, with no transform: |c^|^2 is formed
once a field (``spectral.power``), and each form is its dot product with a
weight array the grid or the kernel holds (``spectral.parseval``).  The
bulk energy int F(phi), phi_min and phi_max come from the samples, and the
mass from the carried k = 0 coefficient of phi.

Verdicts use a relative slack of 1e-8 * (1 + |E(0)|) to absorb round-off
accumulation over long runs.  All evaluators are pure functions over
immutable records.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .hypotheses import PASS, verify_h6
from .kernels import KernelOnGrid, interaction_energy
from .potentials import PotentialSpec, eval_f
from .spectral import Grid, parseval, power

INEQUALITY_SLACK = 1e-8


@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    kinetic: float
    interaction: float
    bulk: float
    total_energy: float
    grad_u_sq: float
    grad_mu_sq: float
    forcing_power: float
    identity_residual: float
    grad_control_margin: float
    phi_min: float
    phi_max: float
    # ||grad phi||^2 and ||phi||^2 for the gradient margins and the refinement
    # study; not CSV columns (NaN when read back)
    grad_phi_sq: float = field(default=math.nan, compare=False)
    phi_sq: float = field(default=math.nan, compare=False)

    def as_row(self) -> tuple[float, ...]:
        return tuple(getattr(self, c) for c in COLUMNS)


COLUMNS = tuple(f.name for f in fields(DiagnosticsRecord) if f.compare)  # the CSV columns


def identity_residual(prev: DiagnosticsRecord, cur: DiagnosticsRecord, dt: float, nu: float) -> float:
    """Discrete residual of d/dt E + nu ||grad u||^2 + ||grad mu||^2 = <h, u>."""
    return (
        (cur.total_energy - prev.total_energy) / dt
        + nu * cur.grad_u_sq
        + cur.grad_mu_sq
        - cur.forcing_power
    )


def make_record(state, mu_hat: np.ndarray, kernel: KernelOnGrid, potential: PotentialSpec, nu: float,
                beta: float, forcing_power: float, prev: DiagnosticsRecord | None,
                work: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None) -> DiagnosticsRecord:
    """The record of ``state``; ``mu_hat`` holds the rfft2 coefficients of mu.
    ``work``, a ``Stepper``'s or allocated when None: the Parseval weights
    ``Grid.half.weight``, ``weight_k2`` and ``weight_a_minus_j`` on the state's
    c columns, contiguous (3, n, c), so that no dot product copies a column
    slice; a float buffer of n^2 and 3 mu_hat.size elements; a (2, n, c) complex one."""
    g, half = state.phi.grid, state.phi.grid.half
    n, c = g.n, state.hats.shape[-1]
    if work is None:
        weights = np.stack([w[:, :c] for w in (half.weight, half.weight_k2, kernel.weight_a_minus_j)])
        work = weights, np.empty(max(n * n, 3 * mu_hat.size)), np.empty((2, n, c), dtype=complex)
    (weight, weight_k2, weight_a_minus_j), scratch, squares = work[0], work[1].reshape(-1), work[2]
    # E(u, phi) = (1/2)||u||^2 + (1/4) iint J (phi(x)-phi(y))^2 + int F(phi), the first two by Parseval
    bulk = float(eval_f(potential, state.phi.values, out=scratch[:n * n].reshape(n, n)).sum() * g.cell_volume)
    # |f^|^2 in spectral.power's order, in fewer passes: the squares of u_x^ and u_y^ in one, those
    # of u_y^ added into u_x^'s, phi^'s beside them, and one pair sum of the real and imaginary parts
    sq = np.square(state.hats[1:].view(float), out=squares.view(float))
    np.add(sq[0], sq[1], out=sq[0])
    np.square(state.hats[0].view(float), out=sq[1])
    p_u, p_phi = np.add(sq[..., ::2], sq[..., 1::2], out=scratch[:2 * n * c].reshape(2, n, c))
    kinetic, grad_u_sq = 0.5 * parseval(weight, p_u), parseval(weight_k2, p_u)
    interaction = interaction_energy(kernel, p_phi, weight_a_minus_j)
    grad_phi_sq, phi_sq = parseval(weight_k2, p_phi), parseval(weight, p_phi)
    grad_mu_sq = parseval(half.weight_k2, power(mu_hat, work=scratch))
    rec = DiagnosticsRecord(
        t=state.t,
        mass=float(state.hats[0][0, 0].real) * g.volume / g.n**2,
        kinetic=kinetic,
        interaction=interaction,
        bulk=bulk,
        total_energy=kinetic + interaction + bulk,
        grad_u_sq=grad_u_sq,
        grad_mu_sq=grad_mu_sq,
        forcing_power=forcing_power,
        identity_residual=0.0,
        grad_control_margin=grad_mu_sq - beta * grad_phi_sq,
        phi_min=state.extrema[0][0],
        phi_max=state.extrema[1][0],
        grad_phi_sq=grad_phi_sq,
        phi_sq=phi_sq,
    )
    if prev is not None:
        rec.identity_residual = identity_residual(prev, rec, rec.t - prev.t, nu)
    return rec


# ---------------------------------------------------------------------------
# series-level audits

@dataclass(frozen=True)
class InequalityVerdict:
    passes: bool
    worst_margin: float
    worst_t: float
    scale: float


def energy_inequality_check(records: list[DiagnosticsRecord], nu: float) -> InequalityVerdict:
    """Cumulative energy inequality over the recorded series.

    Left-endpoint quadrature of the dissipation and forcing-power integrals
    over each record interval; the margin at t is
    E(0) + int power - E(t) - int dissipation, required >= -slack at every
    sample, the slack being ``INEQUALITY_SLACK`` (1 + |E(0)|).
    """
    if not records:
        raise ValueError("empty record series")
    e0 = records[0].total_energy
    scale = 1.0 + abs(e0)
    cum_d = 0.0
    cum_p = 0.0
    worst = 0.0
    worst_t = records[0].t
    for prev, cur in zip(records, records[1:]):
        h = cur.t - prev.t
        cum_d += h * (nu * prev.grad_u_sq + prev.grad_mu_sq)
        cum_p += h * prev.forcing_power
        margin = e0 + cum_p - cur.total_energy - cum_d
        if margin < worst:
            worst = margin
            worst_t = cur.t
    return InequalityVerdict(
        passes=bool(worst >= -INEQUALITY_SLACK * scale),
        worst_margin=worst,
        worst_t=worst_t,
        scale=scale,
    )


@dataclass(frozen=True)
class EnvelopeCheck:
    applicable: bool
    k: float
    big_k: float
    offset: float
    passes: bool
    worst_margin: float
    worst_t: float
    reason: str = ""


def dissipative_envelope(
    records: list[DiagnosticsRecord],
    kernel: KernelOnGrid,
    potential: PotentialSpec,
    grid: Grid,
    nu: float,
    mean_phi0: float,
    h_dual_sq_integral: float | None,
) -> EnvelopeCheck:
    """Exponential absorbing-set envelope E(t) <= E(0) e^{-kt} + F(m)|O| + K.

    The constants follow the proof chain: shift the potential by the
    conserved mean m so it vanishes at 0, refit the coercive-growth
    constants (c5..c8) on the shifted potential, absorb the quadratic terms
    ((3/2)||J||_L1 + C_P^2/2 + a*/2)||phi||^2 into the coercive term by the
    exact Young constant, and set c11 = max(1, 1/(2 lambda_1 nu)),
    k = 1/(2 c11), K = 2 c10 + ||h||^2_{L2(0,inf;V')} / (2 nu), with
    lambda_1 = (2 pi / l)^2 the torus spectral gap.
    """
    if h_dual_sq_integral is None:
        return EnvelopeCheck(False, 0.0, 0.0, 0.0, False, 0.0, 0.0,
                             reason="forcing is not square integrable in V'_div over (0, inf)")
    m = mean_phi0
    shifted = potential.shifted(m)
    q, _, _, c7, c8, verdict, _ = verify_h6(shifted, kernel.a_star)
    if verdict != PASS:
        return EnvelopeCheck(False, 0.0, 0.0, 0.0, False, 0.0, 0.0,
                             reason="potential has no coercive-growth fit (degree < 4)")
    if q <= 0:
        return EnvelopeCheck(False, 0.0, 0.0, 0.0, False, 0.0, 0.0,
                             reason="coercive exponent q must be positive")
    vol = grid.volume
    c_p = grid.l / (2.0 * np.pi)
    a2 = 1.5 * kernel.norm_l1 + 0.5 * c_p**2 + 0.5 * kernel.a_star
    eps = c7 / (2.0 * a2)
    r_sq = (2.0 / (eps * (2.0 + 2.0 * q))) ** (1.0 / q)
    young_const = r_sq * q / (1.0 + q)
    c9 = 0.5 * c8 * vol
    c10 = c9 + a2 * young_const * vol  # F~(0) = 0 by the shift
    lam1 = (2.0 * np.pi / grid.l) ** 2
    c11 = max(1.0, 1.0 / (2.0 * lam1 * nu))
    k = 1.0 / (2.0 * c11)
    big_k = 2.0 * c10 + h_dual_sq_integral / (2.0 * nu)
    offset = float(eval_f(potential, m)) * vol

    e0 = records[0].total_energy
    worst = np.inf
    worst_t = records[0].t
    for rec in records:
        margin = e0 * np.exp(-k * rec.t) + offset + big_k - rec.total_energy
        if margin < worst:
            worst = margin
            worst_t = rec.t
    scale = 1.0 + abs(e0)
    return EnvelopeCheck(
        applicable=True,
        k=k,
        big_k=big_k,
        offset=offset,
        passes=bool(worst >= -INEQUALITY_SLACK * scale),
        worst_margin=float(worst),
        worst_t=worst_t,
    )


def gradient_control_check(record: DiagnosticsRecord, beta: float, condition_ok: bool):
    """Margin ||grad mu||^2 - beta ||grad phi||^2 stored on the record;
    asserted nonnegative (to slack) only when the applicability condition
    holds.  ``run`` reports a "fail" when ``checks.grad_control`` is on."""
    margin = record.grad_control_margin
    if not condition_ok:
        return margin, "n/a"
    scale = 1.0 + abs(record.grad_mu_sq)
    return margin, (PASS if margin >= -INEQUALITY_SLACK * scale else "fail")

