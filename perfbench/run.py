"""Outside-in benchmark of the nlchns time step.

    python3 perfbench/run.py --workload spinodal-256 --seed 1 --seconds 40 --trace 0

Run from the repository root; the package is imported from ``src/``.  One
process runs one workload, repeating instances of it for ``--seconds``
seconds, and checks every instance's outputs.  With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it measures untraced for half the
time and traced for the other half, and prints the per-layer split and the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A fuller record, with the environment and the
per-span table, goes to ``perfbench/out/``.  See perfbench/README.md.
"""

from __future__ import annotations

import os

# one process, one thread: set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("spinodal-256", "audit-64", "vortex-128")
SETUP_PROBES = 5  # single-step run() calls before each instance, for set-up samples


def _parse(argv):
    p = argparse.ArgumentParser(description="nlchns step benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=1, help="replaces initial.seed")
    p.add_argument("--seconds", type=float, default=40.0, help="measuring time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package() -> bool:
    """Import nlchns from this checkout's src/ and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import nlchns
    except ImportError:
        return False
    return Path(nlchns.__file__).resolve().is_relative_to(SRC.resolve())


def _command(*cmd: str) -> str:
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=10, cwd=ROOT).stdout
    except (OSError, subprocess.SubprocessError):
        return ""


def environment(wl, seed: int) -> dict:
    import numpy as np

    top = _command("git", "rev-parse", "--show-toplevel").strip()
    commit = _command("git", "rev-parse", "HEAD").strip() if top and Path(top) == ROOT else ""
    caches = {}
    for line in _command("lscpu").splitlines():
        name, _, value = line.partition(":")
        if name.strip() in ("L1d cache", "L2 cache", "L3 cache"):
            caches[name.strip()] = value.strip()
    return {
        "git_commit": commit or "unknown (not a git checkout)",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "caches": caches,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "seed": seed,
        "workload": wl.name,
        "n": wl.n,
        "steps_per_run_call": wl.steps,
        "complex_array_kib": wl.n * wl.n * 16 / 1024,
        "real_array_kib": wl.n * wl.n * 8 / 1024,
    }


def main(argv=None) -> int:
    args = _parse(argv)
    if not _import_package():
        print(f"perfbench: cannot import nlchns from {SRC}", file=sys.stderr)
        return 2
    import numpy as np

    import workloads as W
    from spans import STEP_LAYERS, LayerStats, Tracer, best

    wl = W.WORKLOADS[args.workload]
    out_dir = HERE / "out"
    work = out_dir / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    probe = W.RunProbe()
    report: dict = {"environment": environment(wl, args.seed), "trace": args.trace}
    lines: list[str] = []
    try:
        with probe.installed():
            if not args.trace:
                instances, steps, clock_ok = W.measure(wl, args.seed, probe, work, args.seconds,
                                                       setup_probes=SETUP_PROBES)
            else:
                before, untraced, _ = W.measure(wl, args.seed, probe, work, args.seconds / 2)
                tracer, stats = Tracer(), LayerStats()
                with tracer.active():
                    instances, steps, clock_ok = W.measure(wl, args.seed, probe, work,
                                                           args.seconds / 2, tracer, stats)
                instances = before + instances
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(instances)
    failures = [msg for inst in instances for msg in inst.failures]
    failed = sum(1 for inst in instances if inst.failures)
    if not steps:
        print("perfbench: no step completed; " + "; ".join(failures[:3]), file=sys.stderr)
        return 1
    ok = [inst for inst in instances if not inst.failures] or instances
    setups = [s for inst in ok for s in inst.setups]
    if not args.trace and not setups:
        print("perfbench: no set-up timed; run() never consulted the forcing", file=sys.stderr)
        return 1

    lines.append(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  "
                 f"seconds {args.seconds:g}  n {wl.n}")
    lines.append("environment " + json.dumps(report["environment"]))
    if not clock_ok:
        lines.append("step clock: run() did not consult the forcing once per step; "
                     "step times are whole-call means")
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        samples = {
            "step_ms": (np.asarray(steps) * 1e3, "ms", "steps"),
            "setup_s": (np.asarray(setups), "s", "set-ups"),
            "wall_s": (np.asarray([i.wall_s for i in ok]), "s", "instances"),
        }
        for name, (xs, unit, what) in samples.items():
            q1, med, q3 = np.percentile(xs, (25, 50, 75))
            lines.append(f"{name:<12} {best(xs):.6g} {unit}  (minimum of {xs.size} {what}; "
                         f"q1 {q1:.6g}, median {med:.6g}, q3 {q3:.6g}, "
                         f"p99 {np.percentile(xs, 99):.6g})")
            if name != "wall_s":  # printed, not reported: see README, "Why the minimum"
                metrics[name] = (best(xs), unit)
        report["wall_s"] = best(samples["wall_s"][0])
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB")
        lines.append(f"peak_rss_mb  {metrics['peak_rss_mb'][0]:.1f} MiB  (ru_maxrss of this process)")
    else:
        named, missing = stats.metrics(tracer.absent,
                                       [i.values["bytes_written"] for i in instances
                                        if "bytes_written" in i.values], untraced)
        metrics.update(named)
        table = stats.key_table()
        report["spans"] = table
        report["absent_targets"] = tracer.absent
        report["not_measured"] = missing
        lines.append(f"{'span':<44}{'calls/step':>11}{'median ms':>11}{'p99 ms':>10}"
                     f"{'self ms':>10}{'n':>8}")
        for row in table:
            lines.append(f"{row['key']:<44}{row['calls_per_step']:>11.3f}{row['median_ms']:>11.4f}"
                         f"{row['p99_ms']:>10.4f}{row['self_median_ms']:>10.4f}{row['n']:>8}")
        for name, (value, unit) in named.items():
            lines.append(f"{name:<40} {value:.6g} {unit}")
        accounted = sum(named[f"{layer}.self_ms_per_step"][0] for layer in STEP_LAYERS)
        accounted += named["solver.loop_self_ms"][0]
        lines.append(f"accounting: layer self times + loop self = {accounted:.4f} ms/step "
                     f"against traced mean step {named['trace.step_ms_mean'][0]:.4f} ms")
        if tracer.absent:
            lines.append("absent (no longer in the package): " + ", ".join(tracer.absent))
        if missing:
            lines.append("not measured here, reported as 0: " + ", ".join(missing))

    extras = {}
    for inst in ok:
        for key, value in inst.values.items():
            extras.setdefault(key, []).append(value)
    if "inequality_reference" in extras:
        checked = all(extras.pop("inequality_reference"))
        report["inequality_margin"] = "checked" if checked else "unchecked"
        if not checked:
            lines.append(f"energy-inequality worst margin UNCHECKED: seed {args.seed} is outside "
                         f"the reference table (seeds {W.REFERENCE_SEEDS.start}-"
                         f"{W.REFERENCE_SEEDS.stop - 1})")
    for key, values in extras.items():
        lines.append(f"{key:<24} {np.median(values):.6g}  (median of {len(values)})")
    lines.append(f"failed_frac  {failed / attempted:.4g}  ({failed} of {attempted} instances)")
    for msg in sorted(set(failures)):
        lines.append(f"check failed: {msg}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    report.update(result=result, failures=sorted(set(failures)),
                  extras={k: float(np.median(v)) for k, v in extras.items()})
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
