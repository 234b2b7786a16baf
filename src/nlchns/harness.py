"""Studies: the decaying-vortex benchmark for the flow substep, the
time-step order study, and the mode-truncation refinement study with its
uniform-bound table.

Refinement runs share one initial state, built in coefficients at the
finest level; each level's trajectory resamples it down and is consumed
frame by frame: its bounds come from the records (||u||, ||phi||, ||grad
phi||, ||grad mu|| by Parseval), and the L^2(0,T;H) difference between two
levels by Parseval on the rfft2 coefficients of phi kept at each record,
the coarse ones resampled, with no sample history and no transform.  Independent levels could run
concurrently; result assembly is single-owner.  Studies write nothing to
disk: their runs keep no ``output.out_dir``, so they never overwrite what
``nlchns run`` wrote there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .config import ConfigError, OutputConfig
from .initialdata import build_hats
from .kernels import kernel_errors
from .solver import BlowUpError, SimState, forcing_errors, run, step_errors, trajectory
from .spectral import Grid, grid_errors, parseval, power, resample


@dataclass
class StudyResult:
    kind: str
    levels: list
    metrics: dict[str, list[float]] = field(default_factory=dict)
    orders: dict[str, list[float]] = field(default_factory=dict)
    verdicts: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def passed(self) -> bool:
        return all(self.verdicts.values()) if self.verdicts else False

    def summary(self) -> str:
        lines = [f"study: {self.kind}", f"levels: {self.levels}"]
        for name, vals in self.metrics.items():
            lines.append(f"  {name}: " + ", ".join(f"{v:.6g}" for v in vals))
        for name, vals in self.orders.items():
            lines.append(f"  order[{name}]: " + ", ".join(f"{v:.3f}" for v in vals))
        for name, ok in self.verdicts.items():
            lines.append(f"  verdict[{name}]: {'PASS' if ok else 'FAIL'}")
        lines.extend(f"  note: {n}" for n in self.notes)
        return "\n".join(lines)


def _check_each(label: str, values, errors_of) -> None:
    """One ConfigError with the rules each value breaks, ``errors_of(v)``, the value named."""
    if errors := [f"{label} {v!r}: {e}" for v in values for e in errors_of(v)]:
        raise ConfigError(errors)


# ---------------------------------------------------------------------------
# decaying-vortex benchmark

def taylor_green(cfg) -> StudyResult:
    """Kinetic-energy decay of the cellular vortex against exp(-4 nu t).

    Requires l = 2*pi, a uniform order parameter and zero forcing, so the
    exact solution u = A (sin x cos y, -cos x sin y) e^{-2 nu t} applies.
    Runs at dt and dt/2; the relative energy error at t_end should sit at
    first order (halve with dt).
    """
    notes = []
    if not math.isclose(cfg.grid.l, 2.0 * math.pi, rel_tol=1e-12):
        notes.append(f"l = {cfg.grid.l} (benchmark assumes 2*pi)")
    if cfg.initial.family != "uniform":
        notes.append("order parameter is not uniform; benchmark invalid")
    if not cfg.forcing.is_zero():
        notes.append("forcing is not zero; benchmark invalid")

    errors = []
    dts = [cfg.sim.dt, cfg.sim.dt / 2.0]
    for dt in dts:
        rung = cfg.with_dt(dt)
        res = run(replace(rung, output=OutputConfig(record_every=max(1, rung.sim.n_steps))))
        ke0 = res.records[0].kinetic
        ke_end = res.records[-1].kinetic
        exact = ke0 * math.exp(-4.0 * cfg.sim.nu * res.records[-1].t)
        errors.append(abs(ke_end - exact) / exact)
    ratio = errors[0] / errors[1] if errors[1] > 0 else math.inf
    order = math.log2(ratio) if math.isfinite(ratio) and ratio > 0 else math.inf
    return StudyResult(
        kind="taylor_green",
        levels=dts,
        metrics={"relative_energy_error": errors, "halving_ratio": [ratio]},
        orders={"energy_error": [order]},
        verdicts={
            "error_below_1e-3": errors[0] <= 1e-3,
            "first_order": 1.7 <= ratio <= 2.3,
            "preconditions": not notes,
        },
        notes=notes,
    )


# ---------------------------------------------------------------------------
# refinement study

def _shared_initial(cfg, coarsest: int) -> SimState:
    """One initial state for every level: built on ``cfg``'s grid, the
    finest, with the band tied to the coarsest level; each level's
    trajectory resamples it to its own grid."""
    init = replace(cfg.initial, band=coarsest // 4) if cfg.initial.family == "random" else cfg.initial
    return SimState(cfg.grid, build_hats(init, cfg.velocity, cfg.grid), 0.0)


def _recorded_phi(cfg, initial_state: SimState) -> tuple[list, list[np.ndarray]]:
    """The records of a level's trajectory and, beside each, the rfft2
    coefficients of phi on their first columns (copied out of the state's
    block, so that the velocity's are not kept)."""
    _, _, frames = trajectory(cfg, initial_state=initial_state)
    records, hats = [], []
    for _, state, rec, _ in frames:
        if rec is not None:
            records.append(rec)
            hats.append(state.hats[0].copy())
    return records, hats


def _level_metrics(records) -> dict[str, float]:
    """The uniform-bound table of one level; the integrals by left-endpoint
    quadrature over the record intervals."""
    spans = [(r0, r1.t - r0.t) for r0, r1 in zip(records, records[1:])]
    return {
        "sup_u": max(math.sqrt(2.0 * r.kinetic) for r in records),
        "sup_phi": max(math.sqrt(r.phi_sq) for r in records),
        "int_grad_mu_sq": sum(dt * r.grad_mu_sq for r, dt in spans),
        "int_phi_v_sq": sum(dt * (r.phi_sq + r.grad_phi_sq) for r, dt in spans),
    }


def _level_gap_sq(coarse: np.ndarray, fine: np.ndarray, grid_c: Grid, grid_f: Grid) -> float:
    """||phi_f - phi_c||^2 by Parseval on the fine grid, from the first
    columns of each level's rfft2 coefficients, phi_c's resampled to the
    fine grid's columns."""
    return parseval(grid_f.half.weight, power(fine - resample(coarse, grid_c, grid_f, fine.shape[1])))


def galerkin_refinement(cfg, sizes) -> StudyResult:
    """Runs the same physical problem at increasing mode truncations.

    The uniform-bound table (sup_t ||u||, sup_t ||phi||, int ||grad mu||^2,
    int ||phi||_V^2) must stay within a factor 2 across levels, and the
    L^2(0,T;H) differences between successive levels must strictly decrease,
    which takes at least three levels.  Every level's grid, kernel and
    forcing are checked before the first runs.  A blow-up at any level
    aborts the study with partial results.
    """
    sizes = sorted(int(s) for s in sizes)
    if len(sizes) < 3 or len(set(sizes)) != len(sizes):
        raise ValueError("refinement needs at least three distinct sizes")
    l = cfg.grid.l
    _check_each("refinement level", sizes, lambda n: [
        *grid_errors(n, l), *kernel_errors(cfg.kernel, l, n), *forcing_errors(cfg.forcing, n)])
    level_cfgs = {n: cfg.with_grid_n(n) for n in sizes}
    state0 = _shared_initial(level_cfgs[sizes[-1]], sizes[0])

    levels = {}
    metrics: dict[str, list[float]] = {
        "sup_u": [], "sup_phi": [], "int_grad_mu_sq": [], "int_phi_v_sq": [],
    }
    notes: list[str] = []
    for n, level in level_cfgs.items():
        try:
            levels[n] = _recorded_phi(level, state0)
        except BlowUpError as err:
            notes.append(f"level {n} blew up at step {err.step}; partial results")
            break
        for key, val in _level_metrics(levels[n][0]).items():
            metrics[key].append(val)
    completed = list(levels)

    diffs: list[float] = []
    for n_c, n_f in zip(completed, completed[1:]):
        (records, coarse), (_, fine) = levels[n_c], levels[n_f]
        grid_c, grid_f = level_cfgs[n_c].grid, level_cfgs[n_f].grid
        acc = 0.0
        for r0, r1, hc, hf in zip(records, records[1:], coarse, fine):
            acc += (r1.t - r0.t) * _level_gap_sq(hc, hf, grid_c, grid_f)
        diffs.append(math.sqrt(acc))

    uniform_ok = bool(completed) and len(completed) == len(sizes)
    for key, vals in metrics.items():
        if not vals:
            continue
        lo, hi = min(vals), max(vals)
        if hi <= 1e-14:
            continue  # identically zero across levels: trivially uniform
        if lo <= 1e-14 * hi or hi / lo > 2.0:
            uniform_ok = False
    decreasing = all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:])) and len(diffs) >= 2

    return StudyResult(
        kind="galerkin_refinement",
        levels=completed,
        metrics={**metrics, "interlevel_l2h_diff": diffs},
        verdicts={"uniform_bounds": uniform_ok, "differences_decrease": decreasing},
        notes=notes,
    )


# ---------------------------------------------------------------------------
# time-step order study

def dt_order_study(cfg, dts) -> StudyResult:
    """Observed first-order convergence in dt.

    Residual order comes from max |identity residual| across steps at each
    dt.  Trajectory order uses differences between consecutive-dt final
    states (the vs-finest errors are biased for 3 geometric levels and are
    reported only as metrics).  Every rung is checked before the first runs.
    """
    dts = sorted((float(d) for d in dts), reverse=True)
    if len(dts) < 3:
        raise ValueError("order study needs at least 3 dt values")
    _check_each("dt rung", dts, lambda dt: step_errors(dt, cfg.sim.stabilizer, cfg.sim.t_end))
    finals: list[SimState] = []
    max_resid: list[float] = []
    for dt in dts:
        res = run(replace(cfg.with_dt(dt), output=OutputConfig(record_every=1)))
        finals.append(res.state)
        max_resid.append(max(abs(r.identity_residual) for r in res.records[1:]))

    def _state_diff(a: SimState, b: SimState) -> float:
        # ||phi_a - phi_b||^2 + ||u_a - u_b||^2 by Parseval on the final states' coefficients
        return math.sqrt(parseval(a.phi.grid.half.weight, power(*(x - y for x, y in zip(a.hats, b.hats)))))

    consec = [_state_diff(finals[i], finals[i + 1]) for i in range(len(dts) - 1)]
    vs_finest = [_state_diff(s, finals[-1]) for s in finals[:-1]]

    def _orders(errs: list[float], steps: list[float]) -> list[float]:
        out = []
        for (e1, e2), (d1, d2) in zip(zip(errs, errs[1:]), zip(steps, steps[1:])):
            if e2 <= 0 or e1 <= 0:
                out.append(math.nan)
            else:
                out.append(math.log(e1 / e2) / math.log(d1 / d2))
        return out

    resid_orders = _orders(max_resid, dts)
    traj_orders = _orders(consec, dts[:-1])
    in_band = lambda xs: all(0.8 <= x <= 1.2 for x in xs if not math.isnan(x)) and bool(xs)
    return StudyResult(
        kind="dt_order",
        levels=dts,
        metrics={
            "max_identity_residual": max_resid,
            "trajectory_diff_consecutive": consec,
            "trajectory_err_vs_finest": vs_finest,
        },
        orders={"residual": resid_orders, "trajectory": traj_orders},
        verdicts={
            "residual_order_in_band": in_band(resid_orders),
            "trajectory_order_in_band": in_band(traj_orders),
        },
    )
