"""Spans and counters recorded from outside the package.

The traced run wraps public functions of each ``nlchns`` layer, and the
``numpy.fft`` entry points they call, with a timing wrapper.  Targets are
named ``module:qualname``; a wrapper replaces every reference to the target
held by a loaded ``nlchns`` module (``from .kernels import convolve`` binds a
second name), and everything is restored when the context exits.  A target
that no longer resolves is listed in ``Tracer.absent`` instead of raising,
so the report keeps working when a refactor removes or renames a function.

Each finished span is kept in memory as a tuple
``(key, layer, t0, t1, self_s, span_id, parent_id, points, nbytes)``;
``self_s`` is the span's duration minus the time covered by its child spans.
``points`` and ``nbytes`` are nonzero only for outermost FFT calls: points
are the transform's output elements (for a real-to-complex transform the
half-plane it returns; for complex-to-real, the half-plane it reads), and
bytes are the input plus output array sizes, computed rather than measured.
"""

from __future__ import annotations

import bisect
import importlib
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

FFT_FORWARD = ("fft2", "rfft2", "fftn", "rfftn")
FFT_INVERSE = ("ifft2", "irfft2", "ifftn", "irfftn")
COMPLEX_TO_REAL = ("irfft2", "irfftn")

TARGETS = {
    "config": ("nlchns.config:parse_config_file",),
    "spectral": (
        "nlchns.spectral:transform",
        "nlchns.spectral:inverse_transform",
        "nlchns.spectral:dealias_field",
        "nlchns.spectral:gradient",
        "nlchns.spectral:divergence",
        "nlchns.spectral:laplacian",
        "nlchns.spectral:leray_project",
    ) + tuple(f"numpy.fft:{name}" for name in FFT_FORWARD + FFT_INVERSE),
    "kernels": (
        "nlchns.kernels:build_kernel",
        "nlchns.kernels:convolve",
        "nlchns.kernels:interaction_energy",
    ),
    "potentials": ("nlchns.potentials:eval_f", "nlchns.potentials:eval_df"),
    "hypotheses": ("nlchns.hypotheses:audit",),
    "initialdata": ("nlchns.initialdata:build_phi", "nlchns.initialdata:build_u"),
    "solver": (
        "nlchns.solver:run",
        "nlchns.solver:step",
        "nlchns.solver:chemical_potential",
        "nlchns.solver:step_ch",
        "nlchns.solver:step_ns",
        "nlchns.solver:korteweg_force",
    ),
    "diagnostics": (
        "nlchns.diagnostics:make_record",
        "nlchns.diagnostics:total_energy",
        "nlchns.diagnostics:energy_inequality_check",
        "nlchns.diagnostics:dissipative_envelope",
    ),
    "storage": (
        "nlchns.storage:DiagnosticsWriter.append",
        "nlchns.storage:write_state_snapshots",
        "nlchns.storage:read_diagnostics_csv",
        "nlchns.storage:read_snapshot",
    ),
    "harness": ("nlchns.harness:taylor_green",),
}

KEY, LAYER, T0, T1, SELF, ID, PARENT, POINTS, NBYTES = range(9)


def span_key(target: str) -> str:
    return target.replace(":", ".")


def _resolve(target: str):
    """(owner, attribute, function) for ``module:qualname``, or None."""
    module_name, qualname = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = getattr(owner, attr, None)
    return (owner, attr, fn) if callable(fn) else None


def _holders():
    """Loaded package modules, which may hold their own binding of a target."""
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "nlchns" or name.startswith("nlchns."))]


class Patches:
    """Replaces functions by identity in their owner and every package
    module, and puts the originals back on ``restore``."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attr: str, fn, wrapper) -> None:
        holders = [owner] + [m for m in _holders() if m is not owner]
        for holder in holders:
            names = [name for name, value in vars(holder).items() if value is fn]
            for name in names:
                self._undo.append((holder, name, fn))
                setattr(holder, name, wrapper)

    def restore(self) -> None:
        while self._undo:
            holder, name, fn = self._undo.pop()
            setattr(holder, name, fn)


class Tracer:
    """Collects spans while ``active()`` is entered."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self._stack: list[list] = []  # per open span: [id, child seconds, is_fft]
        self._next_id = 0

    def _wrap(self, key: str, layer: str, fn, fft_name: str | None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else None
            frame = [span_id, 0.0, fft_name is not None]
            stack.append(frame)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                duration = t1 - t0
                points = nbytes = 0
                if parent is not None:
                    parent[1] += duration
                if fft_name is not None and out is not None and not (parent and parent[2]):
                    src = np.asarray(args[0] if args else kwargs["a"])
                    points = src.size if fft_name in COMPLEX_TO_REAL else out.size
                    nbytes = src.nbytes + out.nbytes
                spans.append((key, layer, t0, t1, duration - frame[1], span_id,
                              parent[0] if parent else -1, points, nbytes))

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def active(self):
        patches = Patches()
        self.absent = []
        try:
            for layer, targets in TARGETS.items():
                for target in targets:
                    found = _resolve(target)
                    if found is None:
                        self.absent.append(span_key(target))
                        continue
                    owner, attr, fn = found
                    fft_name = attr if target.startswith("numpy.fft:") else None
                    patches.replace(owner, attr, fn,
                                    self._wrap(span_key(target), layer, fn, fft_name))
            yield self
        finally:
            patches.restore()


# ---------------------------------------------------------------------------
# per-layer summary

RUN_KEY = "nlchns.solver.run"
STEP_LAYERS = ("spectral", "solver", "kernels", "potentials", "diagnostics", "storage")

# metric -> keys whose per-call medians are added: one call of each
PER_CALL = {
    "spectral.divergence_ms": ("nlchns.spectral.divergence",),
    "solver.step_ch_ms": ("nlchns.solver.step_ch",),
    "solver.step_ns_ms": ("nlchns.solver.step_ns",),
    "solver.chemical_potential_ms": ("nlchns.solver.chemical_potential",),
    "kernels.convolve_ms": ("nlchns.kernels.convolve",),
    "kernels.interaction_energy_ms": ("nlchns.kernels.interaction_energy",),
    "kernels.build_ms": ("nlchns.kernels.build_kernel",),
    "potentials.eval_ms": ("nlchns.potentials.eval_f", "nlchns.potentials.eval_df"),
    "diagnostics.make_record_ms": ("nlchns.diagnostics.make_record",),
    "diagnostics.series_audit_ms": ("nlchns.diagnostics.energy_inequality_check",
                                    "nlchns.diagnostics.dissipative_envelope"),
    "storage.csv_append_ms": ("nlchns.storage.DiagnosticsWriter.append",),
    "storage.snapshot_write_ms": ("nlchns.storage.write_state_snapshots",),
    "storage.csv_read_ms": ("nlchns.storage.read_diagnostics_csv",),
    "hypotheses.audit_ms": ("nlchns.hypotheses.audit",),
    "config.parse_ms": ("nlchns.config.parse_config_file",),
    "initialdata.build_ms": ("nlchns.initialdata.build_phi", "nlchns.initialdata.build_u"),
}


def best(samples) -> float:
    """The smallest sample: what the work costs when the process has the
    core to itself (see README, "Why the minimum")."""
    return float(np.min(samples))


class LayerStats:
    """Per-call times of every key, and what happened inside the step
    windows of ``solver.run`` calls: calls, FFT work, self time per layer,
    and the loop's own time per step (step minus the run's child spans)."""

    def __init__(self):
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.self_times: dict[str, list[float]] = defaultdict(list)
        self.window_calls: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.fft_calls = self.fft_points = self.fft_bytes = 0
        self.fft_seconds = 0.0
        self.loop_self: list[float] = []
        self.step_seconds: list[float] = []
        self.steps = 0

    def add(self, spans: list[tuple], calls) -> None:
        for s in spans:
            self.durations[s[KEY]].append(s[T1] - s[T0])
            self.self_times[s[KEY]].append(s[SELF])
        for call in calls:
            bounds = call.step_bounds()
            runs = [s[ID] for s in spans
                    if s[KEY] == RUN_KEY and s[T0] <= call.t_call and s[T1] >= call.t_return]
            run_id = runs[-1] if runs else None
            covered = [0.0] * (len(bounds) - 1)
            for s in spans:
                if not bounds[0] <= s[T0] < bounds[-1]:
                    continue
                self.window_calls[s[KEY]] += 1
                self.layer_self[s[LAYER]] += s[SELF]
                if s[POINTS]:
                    self.fft_calls += 1
                    self.fft_points += s[POINTS]
                    self.fft_bytes += s[NBYTES]
                    self.fft_seconds += s[T1] - s[T0]
                if s[PARENT] == run_id:
                    covered[bisect.bisect_right(bounds, s[T0]) - 1] += s[T1] - s[T0]
            steps = call.step_seconds()
            self.loop_self.extend(w - c for w, c in zip(steps, covered))
            self.step_seconds.extend(steps)
            self.steps += len(steps)

    def key_table(self) -> list[dict]:
        rows = []
        for key in sorted(self.durations):
            ms = np.asarray(self.durations[key]) * 1e3
            rows.append({
                "key": key,
                "calls_per_step": self.window_calls[key] / self.steps if self.steps else 0.0,
                "median_ms": float(np.median(ms)),
                "p99_ms": float(np.percentile(ms, 99)),
                "self_median_ms": float(np.median(self.self_times[key]) * 1e3),
                "n": int(ms.size),
            })
        return rows

    def metrics(self, absent_keys: list[str], bytes_written: list[float],
                untraced_step_seconds: list[float]) -> tuple[dict[str, tuple[float, str]], list[str]]:
        """Named per-layer metrics as {name: (value, unit)}, and the names
        with nothing to measure (removed from the package, or not exercised
        by this workload), which are reported as 0."""
        out: dict[str, tuple[float, str]] = {}
        missing: list[str] = []
        steps = max(self.steps, 1)

        def put(name, value, unit):
            if value is None:
                missing.append(name)
                value = 0.0
            out[name] = (float(value), unit)

        def per_step(count):
            return count / steps if self.steps else None

        fft_names = [span_key(t) for t in TARGETS["spectral"] if t.startswith("numpy.fft:")]
        have_fft = any(self.durations.get(k) for k in fft_names)
        put("spectral.fft_calls_per_step", per_step(self.fft_calls) if have_fft else None, "1/step")
        put("spectral.fft_points_per_step", per_step(self.fft_points) if have_fft else None, "1/step")
        put("spectral.fft_bytes_per_step_computed", per_step(self.fft_bytes) if have_fft else None,
            "B/step")
        put("spectral.fft_ms_per_step", per_step(self.fft_seconds * 1e3) if have_fft else None,
            "ms/step")
        for name, keys in PER_CALL.items():
            got = [np.median(self.durations[k]) * 1e3 for k in keys
                   if k not in absent_keys and self.durations.get(k)]
            put(name, sum(got) if got else None, "ms")
        mu = self.window_calls.get("nlchns.solver.chemical_potential", 0)
        put("solver.mu_calls_per_step", per_step(mu) if mu else None, "1/step")
        put("solver.mu_useful_ratio", self.steps / mu if mu else None, "ratio")
        put("solver.loop_self_ms", np.mean(self.loop_self) * 1e3 if self.loop_self else None, "ms")
        rec = self.window_calls.get("nlchns.diagnostics.make_record", 0)
        put("diagnostics.records_per_step", per_step(rec) if rec else None, "1/step")
        put("storage.bytes_written", np.median(bytes_written) if bytes_written else None, "B")
        tg = self.self_times.get("nlchns.harness.taylor_green")
        put("harness.taylor_green_self_ms", np.median(tg) * 1e3 if tg else None, "ms")
        for layer in STEP_LAYERS:
            put(f"{layer}.self_ms_per_step", per_step(self.layer_self[layer] * 1e3), "ms/step")
        traced = best(self.step_seconds) * 1e3 if self.step_seconds else None
        untraced = best(untraced_step_seconds) * 1e3 if untraced_step_seconds else None
        put("trace.step_ms", traced, "ms")
        put("trace.step_ms_mean", np.mean(self.step_seconds) * 1e3 if self.step_seconds else None,
            "ms")
        put("trace.untraced_step_ms", untraced, "ms")
        put("trace.overhead_ms", traced - untraced if traced and untraced else None, "ms")
        return out, missing
