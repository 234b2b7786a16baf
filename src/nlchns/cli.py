"""Command-line entry points.

Subcommands:

* ``run <config>`` — full simulation; exit 0 iff no invariant failed.
* ``check <config>`` — print the admissibility report; exit 0 iff h1-h4
  pass (and h6 when the dissipative check is requested).
* ``convergence <config> --sizes 16,32,64`` and/or ``--dts 1e-2,5e-3,...``
  — refinement / time-step studies (``configs/refinement.cfg``,
  ``configs/dt_order.cfg``).
* ``benchmark taylor-green <config>`` — flow-substep benchmark
  (``configs/taylor_green.cfg``).
* ``report <csv> --config <config> | --nu <nu>`` — offline re-audit of a
  diagnostics file: the largest energy increase between records, the
  energy inequality, and the dissipative envelope when a config is supplied.

Every subcommand that reads a config takes a repeatable ``--set key=value``:
a config line that replaces the file's value for that key or adds the key,
checked as the file's lines are.  ``report`` takes it with ``--config``, so
that a run made with ``--set`` is audited with the same settings.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import diagnostics, harness, storage
from .config import ConfigError, parse_config_file
from .hypotheses import audit
from .kernels import KernelBuildError, build_kernel
from .solver import BlowUpError, HypothesisGateError, StabilizerRangeError, run


def _cmd_run(args) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    try:
        result = run(cfg)
    except HypothesisGateError as err:
        print(f"refused: {err}")
        return 3
    except (BlowUpError, StabilizerRangeError) as err:
        print(f"aborted at step {err.step}: {err}")
        if err.last_record is not None:
            print("last good record: t = "
                  f"{err.last_record.t:.6g}, E = {err.last_record.total_energy:.6g}")
        return 1
    last = result.records[-1]
    first = result.records[0]
    print(f"steps completed: {result.params.n_steps}")
    print(f"t = {last.t:.17g}")
    print(f"total energy: {first.total_energy:.17g} -> {last.total_energy:.17g}")
    print(f"mass: {first.mass:.17g} -> {last.mass:.17g}")
    print(f"phi range: [{last.phi_min:.6g}, {last.phi_max:.6g}]")
    if result.out_dir:
        print(f"diagnostics written to {result.out_dir}/diagnostics.csv")
    if result.invariant_failures:
        for msg in result.invariant_failures:
            print(f"invariant violation: {msg}")
        return 1
    return 0


def _cmd_check(args) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    kernel = build_kernel(cfg.kernel, cfg.grid)
    report = audit(kernel, cfg.potential, s_range=cfg.checks.s_range)
    sys.stdout.write(report.to_text())
    ok = report.passes_core()
    if cfg.checks.dissipative:
        ok = ok and report.h6 == "pass"
    return 0 if ok else 1


def _cmd_convergence(args) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    if not (args.sizes or args.dts):
        print("convergence: need --sizes and/or --dts")
        return 2
    ok = True
    if args.sizes:
        sizes = [int(s) for s in args.sizes.split(",")]
        study = harness.galerkin_refinement(cfg, sizes)
        print(study.summary())
        ok = ok and study.passed()
    if args.dts:
        dts = [float(d) for d in args.dts.split(",")]
        study = harness.dt_order_study(cfg, dts)
        print(study.summary())
        ok = ok and study.passed()
    return 0 if ok else 1


def _cmd_benchmark(args) -> int:
    cfg = parse_config_file(args.config, args.overrides)
    study = harness.taylor_green(cfg)
    print(study.summary())
    return 0 if study.passed() else 1


def _cmd_report(args) -> int:
    if args.nu is not None and not 0.0 <= args.nu < math.inf:
        print(f"report: --nu must be finite and nonnegative, got {args.nu}")
        return 2
    if args.overrides and not args.config:
        print("report: --set needs --config")
        return 2
    records = storage.read_diagnostics_csv(args.csv)
    if not records:
        print("empty diagnostics file")
        return 2
    cfg = parse_config_file(args.config, args.overrides) if args.config else None
    nu = cfg.sim.nu if cfg is not None else args.nu
    if nu is None:
        print("report: need --config or --nu for the viscosity")
        return 2
    if len(records) > 1:  # criterion 3a's quantity
        rise = max(b.total_energy - a.total_energy for a, b in zip(records, records[1:]))
        print(f"max per-record energy increase: {rise:.3e}")
    verdict = diagnostics.energy_inequality_check(records, nu)
    print(
        "energy inequality: "
        f"{'PASS' if verdict.passes else 'FAIL'} "
        f"(worst margin {verdict.worst_margin:.6g} at t = {verdict.worst_t:.6g}, "
        f"slack {diagnostics.INEQUALITY_SLACK * verdict.scale:.3g})"
    )
    ok = verdict.passes
    if cfg is not None and cfg.checks.dissipative:
        grid = cfg.grid
        kernel = build_kernel(cfg.kernel, grid)
        mean_phi0 = records[0].mass / grid.volume
        env = diagnostics.dissipative_envelope(
            records, kernel, cfg.potential, grid, nu,
            mean_phi0, cfg.forcing.dual_norm_sq_integral(grid),
        )
        if env.applicable:
            print(
                "dissipative envelope: "
                f"{'PASS' if env.passes else 'FAIL'} "
                f"(k = {env.k:.6g}, K = {env.big_k:.6g}, offset = {env.offset:.6g}, "
                f"worst margin {env.worst_margin:.6g} at t = {env.worst_t:.6g})"
            )
            ok = ok and env.passes
        else:
            print(f"dissipative envelope: not applicable ({env.reason})")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlchns",
        description="Pseudospectral nonlocal phase-field / incompressible-flow simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    settable = argparse.ArgumentParser(add_help=False)
    settable.add_argument("--set", action="append", default=[], dest="overrides", metavar="KEY=VALUE",
                          help="replace or add the config line KEY = VALUE (repeatable)")

    p = sub.add_parser("run", parents=[settable], help="run a configured simulation")
    p.add_argument("config")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("check", parents=[settable], help="print the admissibility report")
    p.add_argument("config")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("convergence", parents=[settable], help="refinement and time-step studies")
    p.add_argument("config")
    p.add_argument("--sizes", default="", help="comma list of at least three grid sizes")
    p.add_argument("--dts", default="", help="comma list of time steps")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("benchmark", parents=[settable], help="named benchmarks")
    p.add_argument("what", choices=["taylor-green"])
    p.add_argument("config")
    p.set_defaults(func=_cmd_benchmark)

    p = sub.add_parser("report", parents=[settable], help="re-audit a diagnostics CSV")
    p.add_argument("csv")
    viscosity = p.add_mutually_exclusive_group()  # the config's nu, or --nu
    viscosity.add_argument("--config", default=None)
    viscosity.add_argument("--nu", type=float, default=None)
    p.set_defaults(func=_cmd_report)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(err)
        return 2
    except (KernelBuildError, ValueError, OSError) as err:
        print(f"error: {err}")
        return 2


if __name__ == "__main__":
    sys.exit(main())
