"""Coupled time integrator for the nonlocal phase-field / incompressible
flow system

    phi_t + u . grad phi = lap mu,      mu = a phi - J*phi + F'(phi)
    u_t - nu lap u + (u . grad) u + grad pi = -phi grad mu + h,   div u = 0

on the periodic square, with unit mobility.  One step is first order and
linearly implicit: the phase update treats the convex part (a + S) phi
implicitly and the rest explicitly with a stabilizer S >= max|F''|/2,

    (phi^+ - phi)/dt = -|k|^2 [ (a+S) phi^+ - S phi + (F'(phi))^ - J^ phi^ ]
                       - i k . (u phi)^,

so each mode solves a scalar equation and the phase energy decays per step;
the velocity update is implicit in the viscosity, explicit in the capillary
force at (phi^n, mu^n) and in the self-advection in rotational form
omega (u_y, -u_x), omega = curl u (the Leray projection that follows removes
the rest, -grad |u|^2/2).  Products are formed pointwise and 2/3-dealiased in
the state's band K (n >= 3K + 1), so none aliases into a kept mode: advection
identities are exact, and the divergence and rotational forms give the
convective results to round-off.
The k = 0 row of the phase update is copied through: mass is kept to the bit.

``Stepper`` is the only implementation of the scheme.  One is built per
trajectory, for its kernel, params and potential: it holds the solve
operators, the buffers every intermediate is written to and, from n =
``_FORK_MIN_N`` (128), a worker thread.  ``Stepper.step`` ends by making
what the new state carries into the step from it: its F'(phi)^ and mu^,
which its record (``Stepper.mu_hat``) and that step use, and ahead of that
step its capillary force's phi dx mu and the column pass of dy mu.  A
state the stepper did not just return, or any state after a failed step,
first gets its own, two transforms and a column pass more.
``trajectory`` sets a configured run up (grid, kernel, the hypothesis
gate, S, and the initial state resampled to the run's columns and cut to
the band, the one place that does so) and returns a generator of frames
that steps with one stepper and audits each record; ``run`` consumes the
frames and writes the records and snapshots.  A state is made from the
rfft2 half-plane coefficients of phi, u_x and u_y, one (3, n, c) block, and
carries its samples, made from them, one (3, n, n) block; the package reads
it through these two, its grid and t only.  A run's states hold the first
``Grid.half.kept_cols`` columns, the rest being zero.  Initial data is built
in coefficients (``initialdata.build_hats``), and a state's samples are
only ever made from its coefficients.  A step steps the coefficients it is
given.  The transport is taken in divergence form, ik . (u phi)^
(``spectral.flux_divergence``), the weak form's (u, phi grad psi), which
equals u . grad phi because div u = 0.  Every transform goes through
``spectral.rfft2_cols`` and ``spectral.irfft2_cols``, a row and a column
pass each, or through the latter's two passes called apart.  The force
enters as its coefficients (``ForcingSpec.field_at``), so a step from the state
the stepper returned, forced or not, takes 11 transforms.  3 are full:
the new F'(phi), not band-limited, forward in place, and the inverses of
the new dx mu and of dy mu, whose column pass (``spectral.inverse_cols``)
runs at the end of the step that makes mu and whose row pass
(``spectral.inverse_rows``) in the step from it.  8 are on the first
``Grid.half.kept_cols`` = n//3 + 1 columns: u phi and both momentum
right-hand sides forward, in two stacked calls; omega inverse, and the new
phi, u_x and u_y in one stacked call (in two, phi apart, when the step
forks).  mu^ = (a - J^) phi^ + F'(phi)^ reuses the phase solve's F'(phi)^.
A record takes no transform of its own, so a recorded step is 11
transforms too.
Its mass is the carried k = 0 coefficient of phi, its norms are read from
the coefficients by Parseval, and the divergence audit bounds max |div u|
by the coefficients' absolute sum.  The Leray projector P is applied once: it
is linear, idempotent and commutes with the mode-diagonal viscous solve D,
so P D (u/dt + P r) = P D (u/dt + r).  It is applied as e (e . b), e =
(-ky, kx) / |k|, whose divergence is round-off of u rather than of b.

A step allocates only the state it returns, one (3, n, c) complex block of
coefficients and one (3, n, n) real block of samples.  numpy buffers a
ufunc operand that is a column slice or a broadcast, in an allocation of
its own, so the operators are held contiguous on the kept columns,
F'(phi)^'s and the force's kept columns are copied into contiguous planes
and mu^'s made in another, and no ufunc of a stepped state's step takes
such an operand.  A state's record and audit allocate only the record:
they work in the stepper's buffers and against its contiguous weights.  A
stepper serves one caller at a time; steppers share nothing, a kernel
included, so trajectories may step concurrently.  The returned states
never share memory with the stepper, or with each other.

Within a step, the phase and flow updates couple only through data at t^n,
so from n = ``_FORK_MIN_N`` a step runs its phase branch (u phi, its
transform, the phase solve and the inverse of the new phi) on the worker
thread while the calling thread runs the flow branch, and joins it before
the new samples are checked for blow-up.  The worker goes on, if its phi
is finite, to what the new state carries, so that the two branches take
about as long; a serial step makes it last.  numpy's pocketfft gufuncs
and large ufunc loops release the GIL, so the two overlap on two CPUs.
The branches write disjoint buffers, the worker's own among them, and
every 1-D pass is independent, so the result is the same bit for bit; an
error on either branch reaches the caller only after the other branch has
finished.  The thread, a daemon, exits once the stepper
is closed (as a trajectory's frames end; a closed stepper steps serially)
or collected.  Below that size, at n = 64, the hand-off costs more than
the overlap saves (a forked step there is 22-26 % slower), and no thread
is started.
"""

from __future__ import annotations

import queue
import threading
import weakref
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import diagnostics
from .hypotheses import HypothesisReport, audit
from .initialdata import build_hats
from .kernels import KernelOnGrid, build_kernel
from .potentials import PotentialSpec, eval_df, stabilizer_bound
from .spectral import (
    Grid,
    ScalarField,
    divergence_bound,
    flux_divergence,
    inverse_cols,
    inverse_rows,
    irfft2_cols,
    parseval,
    resample,
    rfft2_cols,
    unresolved_modes,
)

if TYPE_CHECKING:  # pragma: no cover
    from collections.abc import Callable, Iterator

    from .config import SimConfig


class BlowUpError(RuntimeError):
    """Non-finite values appeared in the state."""

    def __init__(self, message: str, step: int | None = None, last_record=None):
        super().__init__(message)
        self.step = step
        self.last_record = last_record


class StabilizerRangeError(RuntimeError):
    """The solution left the range on which the stabilizer was validated."""

    def __init__(self, message: str, step: int, last_record=None):
        super().__init__(message)
        self.step = step
        self.last_record = last_record


class HypothesisGateError(RuntimeError):
    """The configuration fails the admissibility conditions h1-h3."""

    def __init__(self, report: HypothesisReport):
        failing = [h for h in ("h1", "h2", "h3") if getattr(report, h) != "pass"]
        super().__init__(
            "configuration fails admissibility checks "
            f"{', '.join(failing)}; set checks.enforce_hypotheses = false to proceed anyway"
        )
        self.report = report


class SimState:
    """Order parameter, velocity and time on ``grid``; div u stays spectrally
    zero and mean(phi) is constant along the trajectory.  A state is made
    from its coefficients: ``hats``, the (3, n, c) block of the rfft2
    coefficients of (phi, u_x, u_y) on their first c columns, the rest being
    zero, which it keeps.  ``samples`` is their (3, n, n) block: the one
    given (the inverse transform of ``hats``), else one stacked inverse
    transform.  New coefficients make a new state, so the two never
    disagree.  The package reads a state through ``grid``, ``hats``,
    ``samples`` and ``t`` only."""

    def __init__(self, grid: Grid, hats: np.ndarray, t: float, samples: np.ndarray | None = None):
        if samples is None:
            samples = irfft2_cols(grid, hats)
        self.grid, self.hats, self.samples, self.t = grid, hats, samples, t

    @property
    def phi(self) -> ScalarField:
        """A view of ``samples[0]`` with the grid, for the benchmark; the package reads ``samples``."""
        return ScalarField(self.grid, self.samples[0])

    @cached_property
    def extrema(self) -> tuple[list[float], list[float]]:
        """The least and the greatest samples of (phi, u.x, u.y), in one reduction
        each over the block, for a record and its audit."""
        return self.samples.min(axis=(1, 2)).tolist(), self.samples.max(axis=(1, 2)).tolist()


@dataclass(frozen=True)
class SimParams:
    """Scheme parameters, the config's ``sim`` section; mobility is fixed to
    one.  ``stabilizer``: S >= 0, or "auto" until ``run`` resolves it."""

    nu: float
    dt: float
    t_end: float
    stabilizer: float | str = "auto"

    @property
    def n_steps(self) -> int:
        """The number of steps from t = 0 to t_end."""
        return int(round(self.t_end / self.dt))

    def __post_init__(self):
        # full runs require nu > 0 (enforced at config parse); nu = 0 is
        # admitted here so the inviscid flow substep can be exercised alone
        if self.nu < 0:
            raise ValueError("nu must be nonnegative")
        if errors := list(step_errors(self.dt, self.stabilizer)):
            raise ValueError("; ".join(errors))


MAX_STEPS = 10**9  # more steps than any run needs: a typo in t_end or dt


def step_errors(dt: float | None, stabilizer: float | str, t_end: float | None = None):
    """Yield the step's rules that dt and S break, and given t_end its own; ``SimParams``
    gives none, so that params of any length may be stepped.  None is not checked."""
    if dt is not None and not dt > 0:
        yield "dt must be positive"
    elif dt is not None and t_end is not None:
        if t_end < dt:
            yield "t_end must be at least one time step"
        elif t_end / dt > MAX_STEPS:  # also catches t_end / dt overflowing to inf
            yield f"t_end / dt must be at most {MAX_STEPS:.0e} steps, got {t_end / dt:.3g}"
        elif abs(round(t_end / dt) * dt - t_end) > 1e-9 * max(t_end, 1.0):
            yield "t_end must be an integer multiple of dt"
    if stabilizer != "auto" and (isinstance(stabilizer, str) or not stabilizer >= 0):
        yield "stabilizer must be nonnegative (or 'auto')"


@dataclass(frozen=True)
class ForcingSpec:
    """Volume force families, each one Fourier mode (``body`` k = 0,
    ``single_mode`` the pair +-m); decaying ones are square integrable in time."""

    family: str = "zero"  # zero | body | single_mode
    amplitude: tuple[float, float] = (0.0, 0.0)  # body force vector
    decay: float = 0.0  # exponential rate lambda >= 0
    mode: tuple[int, int] = (1, 0)  # single_mode integer wavevector
    scale: float = 0.0  # single_mode amplitude

    def is_zero(self) -> bool:
        if self.family == "zero":
            return True
        if self.family == "body":
            return self.amplitude == (0.0, 0.0)
        return self.scale == 0.0

    def _check(self, grid: Grid) -> None:
        """Raise a ValueError listing ``forcing_errors`` on the grid, if any."""
        if errors := list(forcing_errors(self, grid.n)):
            raise ValueError("; ".join(errors))

    def field_at(self, grid: Grid, t: float) -> np.ndarray | None:
        """The rfft2 coefficients of h(t) on the half plane, stacked (2, n,
        n//2 + 1), or None for zero: n^2 A e^{-lambda t} at k = 0 for
        ``body``, and (n^2/2) scale e^{-lambda t} (-m2, m1)/|m| at m and at
        -m, each where it falls on the half plane, for ``single_mode``."""
        self._check(grid)
        if self.is_zero():
            return None
        if self.family not in ("body", "single_mode"):
            raise ValueError(f"unknown forcing family {self.family!r}")
        n, damp = grid.n, np.exp(-self.decay * t)
        h = np.zeros((2, n, n // 2 + 1), dtype=complex)
        if self.family == "body":
            h[:, 0, 0] = np.multiply(self.amplitude, n * n * damp)
            return h
        m1, m2 = self.mode
        norm = np.hypot(m1, m2)
        for row, col in ((m1, m2), (-m1, -m2)):
            if col >= 0:  # on the half plane
                h[:, row % n, col] = np.multiply((-m2 / norm, m1 / norm), 0.5 * n * n * self.scale * damp)
        return h

    def dual_norm_sq_integral(self, grid: Grid) -> float | None:
        """integral_0^inf ||h(t)||^2_{V'_div} dt, or None when h is not an
        admissible V'_div forcing square integrable on (0, inf)."""
        self._check(grid)
        if self.is_zero():
            return 0.0
        if self.decay <= 0:
            return None
        if self.family == "body":
            # pure k = 0 momentum: not representable in V'_div on the torus
            return None
        m1, m2 = self.mode
        ksq = (2.0 * np.pi / grid.l) ** 2 * (m1 * m1 + m2 * m2)
        # ||h(t)||_L2^2 = scale^2 e^{-2 lambda t} |Omega| / 2, single shell
        return self.scale**2 * grid.volume / (4.0 * self.decay * ksq)


def forcing_errors(spec: ForcingSpec, n: int | None):
    """Yield the forcing's rules that ``spec`` breaks on n points, reading attributes only."""
    if spec.family in ("body", "single_mode") and not spec.decay >= 0:
        yield "forcing.decay must be nonnegative"
    if spec.family == "single_mode":
        m1, m2 = spec.mode
        if (m1, m2) == (0, 0):
            yield "forcing.mode_x/mode_y must not both be zero"
        yield from unresolved_modes([("forcing.mode_x", (m1,)), ("forcing.mode_y", (m2,))], n)


# ---------------------------------------------------------------------------
# pointwise operators

def mu_hat(a_minus_j: np.ndarray, phi_hat: np.ndarray, fp_hat: np.ndarray,
           out: np.ndarray | None = None, cols: np.ndarray | None = None) -> np.ndarray:
    """rfft2 coefficients of mu, (a - J^) phi^ + F'^, into ``out`` from those
    of F'(phi) and the first c columns of phi^ (the rest zero), a - J^ being
    on the half plane.  ``cols`` (2, n, c) takes F'^'s and then mu^'s first
    c columns, contiguous, so no ufunc takes a column slice (numpy would
    buffer it in an allocation); both are allocated when None."""
    c, out = phi_hat.shape[1], (np.empty_like(fp_hat) if out is None else out)
    fp, mu = np.empty((2,) + phi_hat.shape, dtype=complex) if cols is None else cols
    fp[...] = fp_hat[:, :c]
    out[:, :c] = np.add(fp, np.multiply(a_minus_j[:, :c], phi_hat, out=mu), out=mu)
    out[:, c:] = fp_hat[:, c:]
    return out


# ---------------------------------------------------------------------------
# the step

# the grid size from which a step forks its phase branch onto a worker
# thread, which then makes what the new state carries into the next step:
# in-process, a forked step is about 32 % faster at n = 128 and 22-26 %
# slower at n = 64, where the hand-off costs more than the overlap saves
_FORK_MIN_N = 128


def _serve(tasks: "queue.SimpleQueue", done: "queue.SimpleQueue") -> None:
    """A fork's thread: run each task handed to it and hand back its
    exception or None, until handed None.  A task is dropped once run, so
    that the thread keeps nothing it worked on alive."""
    while (task := tasks.get()) is not None:
        try:
            task()
        except BaseException as err:  # raised again by the caller, in ``_Fork.both``
            done.put(err)
        else:
            done.put(None)
        del task


class _Fork:
    """One daemon thread that runs a function while the caller runs another.
    Between calls the thread holds neither this object nor what its tasks
    worked on: it exits once this object is closed or collected, and it
    never holds up the interpreter's exit."""

    __slots__ = ("_tasks", "_done", "_thread", "_stop", "__weakref__")

    def __init__(self):
        self._tasks, self._done = queue.SimpleQueue(), queue.SimpleQueue()
        self._thread = threading.Thread(target=_serve, args=(self._tasks, self._done), name="nlchns-phase",
                                        daemon=True)
        self._thread.start()
        self._stop = weakref.finalize(self, self._tasks.put, None)

    def close(self) -> None:
        """Hand the thread its stop task, once, and wait for it to exit."""
        self._stop()
        self._thread.join()

    def both(self, branch: "Callable[[], None]", main: "Callable[[], None]") -> None:
        """Run ``branch`` on the thread and ``main`` here.  Returns, or
        raises what either raised (``main``'s first), only once both have
        finished."""
        self._tasks.put(branch)
        try:
            main()
        finally:
            err = self._done.get()
        if err is not None:
            raise err


class Stepper:
    """The step of one trajectory, for a kernel, params and potential.

    Operators, on the columns the step keeps: new phi^ = (keep phi^ - k2 F'^
    - adv^) solve; new u^ = perp (wperp . b^), the masked viscous solve
    projected as e (e . b^) with e = ``HalfPlane.perp``, and at k = 0
    (``still``) the solve alone; a - J^, for mu^; and the
    derivative multipliers (``HalfPlane.ik``).  Each is held complex, x +
    0j, and contiguous, so that no product casts or buffers an operand
    (either would allocate), with the same result bit for bit.

    Buffers, written by every step; those whose lifetimes do not overlap
    share memory, and a record and its audit take ``real`` and ``cols[1:]``,
    free between steps, with ``weights``, the record's Parseval weights:

    * ``real``: two (n, n) sample planes (F'(phi), -phi and the products of
      omega, the second holding omega until the flow's right-hand side is
      complete; then u phi);
    * ``rows``: (2, n, n//2 + 1), what a state carries into the step from
      it (``_carry``): F'(phi)^, then the column pass of dy mu, and mu^;
      then row passes;
    * ``force``: (n, n), the phi dx mu that a state carries;
    * ``cols``: (3, n, c), coefficients on the columns the step keeps;
    * ``finite``: the isfinite mask of a new state's samples.

    From n = ``_FORK_MIN_N`` the phase branch of a step runs on ``fork``'s
    thread, with buffers of its own: ``phase_real`` (2, n, n) for the u phi
    products, ``phase_rows`` (2, n, n//2 + 1) for their row pass, and
    ``phase_flux`` (2, n, c), a view of phase_real's memory, for their
    column pass, then for the column pass of the new phi.  The thread goes
    on to what the new state carries, in the row block it used and
    ``phase_force``, which the next step's flow takes: ``rows`` with
    ``force`` and ``phase_rows`` with ``phase_force`` swap roles each step.
    Below it these five are None, and no thread."""

    def __init__(self, kernel: KernelOnGrid, params: SimParams, potential: PotentialSpec):
        g = kernel.grid
        h, c = g.half, g.half.kept_cols
        k2, mask = h.k2[:, :c], h.mask[:, :c]
        flow, e = mask / (1.0 / params.dt + params.nu * k2), h.perp[:, :, :c]
        self.keep, self.solve, self.k2, self.perp, self.wperp, self.a_minus_j, self.ik = (
            a.astype(complex, copy=False) for a in (
                1.0 / params.dt + k2 * (params.stabilizer + kernel.multiplier[:, :c]),
                mask / (1.0 / params.dt + k2 * (kernel.a + params.stabilizer)),
                k2, e, flow * e, kernel.a_minus_j[:, :c], h.ik(c)))
        self.still = flow[0, 0]  # k = 0, the one kept mode with k2 = 0: row and column n/2 are cut
        self.weights = np.stack([w[:, :c] for w in (h.weight, h.weight_k2, kernel.weight_a_minus_j)])
        self.grid, self.dt, self.potential = g, params.dt, potential
        n = g.n
        self.real = np.empty((2, n, n))
        self.rows = np.empty((2, n, n // 2 + 1), dtype=complex)
        self.force = np.empty((n, n))
        self.cols = np.empty((3, n, c), dtype=complex)
        self.finite = np.empty((3, n, n), dtype=bool)
        self.fork = self.phase_real = self.phase_rows = self.phase_flux = self.phase_force = None
        if n >= _FORK_MIN_N:
            self.fork = _Fork()
            block = np.empty(max(2 * n * n, 4 * n * c))  # both views, in float64s
            self.phase_real = block[:2 * n * n].reshape(2, n, n)
            self.phase_rows = np.empty((2, n, n // 2 + 1), dtype=complex)
            self.phase_flux = block[:4 * n * c].view(complex).reshape(2, n, c)
            self.phase_force = np.empty((n, n))
        # the state the last step returned and what it carries, as _carry returns it
        self._state = self._carried = None

    def close(self) -> None:
        """Join the fork's thread, if any; the steps that follow run serially, with the same bits."""
        if self.fork is not None:
            self.fork.close()
            self.fork = None

    def mu_hat(self, state: SimState) -> np.ndarray:
        """The rfft2 coefficients of mu at ``state``, which the step from it
        uses; the next step overwrites them."""
        return self._carried_by(state)[1][1]

    def _carried_by(self, state: SimState) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """What ``state`` carries into the step from it (``_carry``): what the
        last step made if it returned ``state``, else made now."""
        if state is not self._state:
            self._state = None  # until it is made, the buffers hold no state's
            self._carried, self._state = self._carry(state.samples[0], state.hats[0]), state
        return self._carried

    def _carry(self, phi: np.ndarray, phi_hat: np.ndarray, buffers: tuple | None = None
               ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(F'(phi)^ on the kept columns, contiguous; a row block whose second
        plane holds mu^ and whose first the column pass of dy mu; phi dx mu)
        from the samples ``phi`` and ``phi_hat``, in ``buffers`` (real, rows,
        cols, force), the stepper's own when None: F'(phi) to ``real``, its
        full-width transform in place to rows[0], mu_hat's contiguous planes
        to cols[:2], then ik mu^ and its column pass to rows[0] for each
        derivative in turn, dx mu's row pass to ``force``.  The step's flow
        takes -phi grad mu from these: it differs from the strong form mu grad
        phi by grad(phi mu), which the Leray projection removes only where phi
        mu is resolved, and F'(phi) is not band-limited."""
        real, rows, cols, force = buffers or (self.real[0], self.rows, self.cols, self.force)
        fp, mu = rows
        rfft2_cols(eval_df(self.potential, phi, out=real), fp.shape[-1], out=fp, rows=fp)
        mu_hat(self.a_minus_j, phi_hat[:, :self.keep.shape[1]], fp, out=mu, cols=cols[:2])
        g, h = self.grid, self.grid.half
        np.multiply(irfft2_cols(g, np.multiply(h.ikx, mu, out=fp), out=force, work=fp), phi, out=force)
        inverse_cols(g, np.multiply(h.iky, mu, out=fp), out=fp)
        return cols[0], rows, force

    def step(self, state: SimState, forcing: np.ndarray | None = None) -> SimState:
        """One coupled step: phi^{n+1} from (phi^n, u^n), then u^{n+1} with the
        capillary force at (phi^n, mu^n); ``forcing`` holds the rfft2
        coefficients of h(t^n) (``ForcingSpec.field_at``), or is None for
        zero.  Steps the state's coefficients as given and keeps mean(phi)
        exactly; the new state owns a fresh coefficient block and a fresh
        sample block.  Past the first line of the phase update, the phase
        branch (``_phase``) and the flow branch (``_flow``) read only the
        state and what it carries, and write disjoint buffers; with a fork
        the phase branch, the inverse of the new phi and, if it is finite,
        what the new state carries (``_carry``) run on the fork's thread, in
        the row block and force plane the flow does not use, while this one
        runs the flow branch and the inverse of the new u.  Both have
        finished before the new samples are checked; a serial step makes
        what the new state carries after that."""
        fp_cols, rows, force = self._carried_by(state)
        self._state, carried = None, None  # until this step succeeds, no state's carry is held
        g, c = state.grid, self.keep.shape[1]
        new = np.empty((3, g.n, c), dtype=complex)

        # phase, up to the transport: the branches overwrite F'(phi)^'s columns
        np.multiply(self.keep, state.hats[0][:, :c], out=new[0])
        np.subtract(new[0], np.multiply(self.k2, fp_cols, out=fp_cols), out=new[0])

        # after the column slice of a full-width state's phi^, whose ufunc buffer would add to the step's peak
        samples = np.empty((3, g.n, g.n))

        if self.fork is None:
            self._flow(state, rows, force, forcing, new[1:], samples[1:])
            self._phase(state, new[0], self.real, rows, self.cols[:2])
            irfft2_cols(g, new, out=samples, work=self.cols)
        else:
            other_rows, other_force = ((self.phase_rows, self.phase_force) if rows is self.rows
                                       else (self.rows, self.force))

            def phase():
                nonlocal carried
                self._phase(state, new[0], self.phase_real, other_rows, self.phase_flux)
                irfft2_cols(g, new[0], out=samples[0], work=self.phase_flux[0])
                if np.isfinite(samples[0], out=self.finite[0]).all():
                    carried = self._carry(samples[0], new[0],
                                          (self.phase_real[0], other_rows, self.phase_flux, other_force))

            def flow():
                self._flow(state, rows, force, forcing, new[1:], samples[1:])
                irfft2_cols(g, new[1:], out=samples[1:], work=self.cols[:2])

            self.fork.both(phase, flow)
        if not np.isfinite(samples, out=self.finite).all():
            raise BlowUpError(f"non-finite values in {'u' if self.finite[0].all() else 'phi'}")
        self._carried = carried or self._carry(samples[0], new[0])
        self._state = SimState(g, new, state.t + self.dt, samples)
        return self._state

    def _phase(self, state: SimState, new_phi: np.ndarray, products: np.ndarray,
               rows: np.ndarray, flux: np.ndarray) -> None:
        """The new phi^ into ``new_phi``, which holds keep phi^ - k2 F'(phi)^:
        minus the transport div(u phi), taken through ``products`` (2, n, n),
        ``rows`` (2, n, n//2 + 1) and ``flux`` (2, n, c), then solved, with the
        k = 0 coefficient copied through."""
        adv_hat = flux_divergence(state.samples[1:], state.samples[0], self.ik, out=flux, products=products,
                                  rows=rows)
        np.multiply(np.subtract(new_phi, adv_hat, out=new_phi), self.solve, out=new_phi)
        new_phi[0, 0] = state.hats[0][0, 0]

    def _flow(self, state: SimState, rows: np.ndarray, force: np.ndarray, forcing: np.ndarray | None,
              new_u: np.ndarray, rhs: np.ndarray) -> None:
        """The new u^ into ``new_u`` (2, n, c): the capillary force -phi grad mu
        plus omega (u_y, -u_x) (omega = curl u in one inverse transform) in
        one stacked forward transform, plus the force's coefficients, then the
        projected viscous solve.  The state carries phi dx mu in ``force`` and
        the column pass of dy mu in rows[0], whose row pass this runs; ``rows``
        (2, n, n//2 + 1) then takes the row passes, overwriting mu^; ``rhs``
        (2, n, n) takes the samples of the right-hand sides, and the stepper's
        ``real`` and ``cols`` the rest."""
        g, c = state.grid, new_u.shape[-1]
        cols, (s1, omega), (ikx, iky) = self.cols, self.real, self.ik
        (phi, ux, uy), u_hat = state.samples, state.hats[1:, :, :c]

        np.subtract(np.multiply(ikx, u_hat[1], out=cols[1]), np.multiply(iky, u_hat[0], out=cols[2]), out=cols[2])
        irfft2_cols(g, cols[2], out=omega, work=cols[2])
        np.multiply(inverse_rows(g, rows[0], out=rhs[1]), np.negative(phi, out=s1), out=rhs[1])
        np.subtract(np.multiply(omega, uy, out=s1), force, out=rhs[0])  # -phi dx mu + omega u_y, exactly
        np.subtract(rhs[1], np.multiply(omega, ux, out=s1), out=rhs[1])
        bx, by = b = rfft2_cols(rhs, c, out=cols[:2], rows=rows)
        np.add(b, np.multiply(u_hat, 1.0 / self.dt, out=new_u), out=b)  # new_u is written last
        if forcing is not None:  # through a contiguous plane, which numpy does not buffer
            for bi, hi in zip(b, forcing):
                cols[2][...] = hi[:, :c]
                np.add(bi, cols[2], out=bi)
        s = np.add(np.multiply(self.wperp[0], bx, out=cols[2]), np.multiply(self.wperp[1], by, out=new_u[0]),
                   out=cols[2])
        np.multiply(self.perp[0], s, out=new_u[0])
        np.multiply(self.perp[1], s, out=new_u[1])
        new_u[0, 0, 0], new_u[1, 0, 0] = self.still * bx[0, 0], self.still * by[0, 0]


# ---------------------------------------------------------------------------
# full runs

@dataclass
class RunResult:
    records: list
    state: SimState
    report: HypothesisReport
    params: SimParams
    invariant_failures: list[str] = field(default_factory=list)
    out_dir: str | None = None


def resolve_stabilizer(cfg_mode: str | float, potential: PotentialSpec,
                       phi0: np.ndarray, s_range) -> tuple[float, tuple[float, float]]:
    """Auto stabilizer: the bound on the working range widened to cover the
    initial samples ``phi0`` with a 0.5 margin.  Returns (S, validated range)."""
    lo = min(s_range[0], float(np.min(phi0)) - 0.5)
    hi = max(s_range[1], float(np.max(phi0)) + 0.5)
    if cfg_mode == "auto":
        return stabilizer_bound(potential, (lo, hi)), (lo, hi)
    return float(cfg_mode), (lo, hi)


def trajectory(cfg: "SimConfig", *, initial_state: SimState | None = None
               ) -> tuple[HypothesisReport, SimParams, "Iterator[tuple]"]:
    """Set up a configured trajectory on [0, t_end]: grid, kernel, the
    hypothesis audit and gate (HypothesisGateError, unless
    ``checks.enforce_hypotheses`` is off), the initial state and S.  The
    initial state is made from coefficients, the builders' (at t = 0) or
    ``initial_state``'s, of any width and on any grid of the same domain
    length: resampled to the grid's run columns and cut to the dealiased
    band, the one place that does either.  Returns
    (report, params, frames); ``frames`` yields (step, state, record or None,
    invariant failures found at that record) for steps 0 .. n_steps, with
    a record every ``output.record_every`` steps and at the end.  Mass,
    divergence and (with ``checks.grad_control``) gradient control are
    audited at every record.  ``frames`` raises BlowUpError on non-finite
    values and StabilizerRangeError if the solution leaves the range where
    S >= max|F''|/2 was validated, each with the last record it yielded.
    """
    grid = cfg.grid
    kernel = build_kernel(cfg.kernel, grid)
    report = audit(kernel, cfg.potential, s_range=cfg.checks.s_range)
    # h4 is advisory for running; h1-h3 are what the dynamics needs
    if cfg.checks.enforce_hypotheses and any(getattr(report, h) != "pass" for h in ("h1", "h2", "h3")):
        raise HypothesisGateError(report)

    if initial_state is None:
        start, hats, t0 = grid, build_hats(cfg.initial, cfg.velocity, grid), 0.0
    else:
        start, hats, t0 = initial_state.grid, initial_state.hats, initial_state.t
    # the columns a step transforms, and the band; the mask multiplies the
    # real and imaginary parts as reals, so a cut block is cut again bit for bit
    hats = resample(hats, start, grid, grid.half.kept_cols)
    hats.view(float)[...] *= np.repeat(grid.half.mask[:, :hats.shape[-1]], 2, axis=-1)
    state = SimState(grid, hats, t0)

    s_value, validated = resolve_stabilizer(cfg.sim.stabilizer, cfg.potential, state.samples[0],
                                            cfg.checks.s_range)
    params = replace(cfg.sim, stabilizer=s_value)
    if kernel.a + params.stabilizer <= 0:
        raise ValueError("a + S must be positive for the phase solve")
    return report, params, _frames(cfg, kernel, report, params, state, validated)


def _frames(cfg: "SimConfig", kernel: KernelOnGrid, report: HypothesisReport, params: SimParams,
            state: SimState, validated: tuple[float, float]) -> "Iterator[tuple]":
    """The frames of ``trajectory``: step i ends at t0 + i dt, t0 being the
    initial state's t; h(t^n) is asked of the forcing once before the step-0
    record and once at the top of every step."""
    potential, every, n_steps = cfg.potential, cfg.output.record_every, params.n_steps
    mass0, t0 = state.hats[0][0, 0].real, state.t
    h, rec = cfg.forcing.field_at(kernel.grid, t0), None
    with closing(Stepper(kernel, params, potential)) as stepper:  # no thread outlives the frames
        for i in range(n_steps + 1):
            if i:
                h = cfg.forcing.field_at(kernel.grid, state.t)
                try:  # the new state's F'(phi)^ and mu^ too: its record's and the next step's
                    state = stepper.step(state, h)
                except BlowUpError as err:
                    raise BlowUpError(str(err), step=i, last_record=rec) from None
                state.t = t0 + i * params.dt  # not a running sum: no round-off builds up in t
            if i % every and i < n_steps:
                yield i, state, None, []
                continue
            new = diagnostics.make_record(
                state, stepper.mu_hat(state), kernel, potential, params.nu, report.beta,
                forcing_power=(_forcing_power(h, state) if h is not None else 0.0), prev=rec,
                work=(stepper.weights, stepper.real, stepper.cols[1:]),
            )
            found = _audit_record(cfg, report, state, new, i, mass0, stepper)
            # widen the validated range to the record's, while S still covers it
            lo, hi = new.phi_min, new.phi_max
            if lo < validated[0] or hi > validated[1]:
                wider = (min(lo, validated[0]), max(hi, validated[1]))
                needed = stabilizer_bound(potential, wider)
                if params.stabilizer + 1e-12 < needed:
                    raise StabilizerRangeError(
                        f"solution range [{lo:.3g}, {hi:.3g}] needs stabilizer {needed:.3g} "
                        f"> configured {params.stabilizer:.3g}", step=i, last_record=rec)
                validated = wider
            rec = new
            yield i, state, rec, found


def _forcing_power(h: np.ndarray, state: SimState) -> float:
    """<h, u> by Parseval, from h's coefficients and the first columns of u's."""
    c = state.hats[1].shape[1]
    return parseval(state.grid.half.weight, (h[..., :c] * np.conj(state.hats[1:])).real.sum(axis=0))


def _audit_record(cfg: "SimConfig", report: HypothesisReport, state: SimState, rec,
                  step_index: int, mass0: float, stepper: Stepper) -> list[str]:
    """The invariant failures of ``state`` and its record ``rec``: mass
    drift, from the k = 0 coefficient of phi (``mass0`` at the start),
    divergence (by a bound at least the sampled max, in ``stepper``'s
    buffers, free between its steps) and, with ``checks.grad_control``,
    gradient control."""
    grid, failures = state.grid, []
    drift = float(state.hats[0][0, 0].real - mass0) / grid.n**2  # of mean(phi)
    if abs(drift) > 1e-12:
        failures.append(f"mass drift {drift:.3e} at step {step_index}")
    lo, hi = state.extrema
    umax = max(hi[1], -lo[1]) + max(hi[2], -lo[2])  # max |u_x| + max |u_y|
    div_max = divergence_bound(grid, state.hats[1:], stepper.ik, stepper.weights[0], stepper.cols[1:])
    if div_max > 1e-11 * max(umax, 1e-300) * 2.0 * np.pi * grid.n / grid.l and umax > 0:
        failures.append(f"divergence {div_max:.3e} at step {step_index}")
    if cfg.checks.grad_control:
        margin, verdict = diagnostics.gradient_control_check(rec, report.beta, report.condition_altass)
        if verdict == "fail":
            failures.append(f"gradient control margin {margin:.3e} at step {step_index}")
    return failures


def run(cfg: "SimConfig", *, initial_state: SimState | None = None) -> RunResult:
    """Advance a configured trajectory (``trajectory``) on [0, t_end],
    keeping its records and invariant failures; with ``output.out_dir`` set,
    write each record to the diagnostics CSV and the state every
    ``output.snapshot_every`` steps.  Raises what ``trajectory`` raises."""
    from . import storage

    report, params, frames = trajectory(cfg, initial_state=initial_state)
    out_dir = cfg.output.out_dir or None
    writer = storage.DiagnosticsWriter(out_dir) if out_dir else None
    snapshot_every = cfg.output.snapshot_every if writer else 0
    records: list = []
    failures: list[str] = []
    try:
        for i, state, rec, found in frames:
            if rec is not None:
                records.append(rec)
                failures.extend(found)
                if writer:
                    writer.append(rec)
            if snapshot_every and i % snapshot_every == 0:
                storage.write_state_snapshots(out_dir, state, i)
            if i < params.n_steps:
                del state  # held through the next step's record, it raises the peak RSS
    finally:
        if writer:
            writer.close()
    return RunResult(records=records, state=state, report=report, params=params,
                     invariant_failures=failures, out_dir=out_dir)
