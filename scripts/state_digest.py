#!/usr/bin/env python3
"""Fingerprint a run: the sha256 of the final phi, u_x and u_y sample bytes,
of the diagnostics record rows and of the admissibility report's text
(``report``), one line each.

Run it with ``PYTHONPATH`` pointing at one checkout's ``src`` and then at
another's: equal lines mean byte-identical trajectories.  ``--rows`` also
prints the record rows, for comparing records that differ by round-off.
The run writes nothing to disk.  ``--shared-initial`` builds the config's
initial coefficients with ``build_hats`` and hands them to ``run()`` as its
initial state, so that a change to ``run()``'s own set-up drops out of the
comparison.  ``--set key=value`` (repeatable) replaces the config's value
for that key or adds the key, as ``nlchns run --set`` does, so that one
command can fingerprint a branch the shipped configs leave at its default.
It refuses the keys that ``--n``, ``--steps`` and ``--record-every`` set,
and ``output.out_dir`` and ``output.snapshot_every``, which it sets so that
the run writes nothing.

``--save run.npz`` keeps the final samples and the record rows;
``--against run.npz`` then prints, for a run of the same shape, one line
``rel <name> <relative> <difference> <scale>`` each for phi, u_x, u_y and
every record column: the largest difference from the saved run (max norm),
the largest magnitude in the saved run, and their ratio.  So a change meant
to move results by round-off only is sized with one command per checkout;
a column that is itself round-off around zero (the mass of mean-zero data)
shows it by its scale.

    PYTHONPATH=src python scripts/state_digest.py --config configs/spinodal.cfg --n 64 --steps 60
    PYTHONPATH=src python scripts/state_digest.py --config configs/gradient_control.cfg \
        --n 32 --steps 60 --set forcing=single_mode --set forcing.scale=0.3 --set forcing.decay=0.5
    PYTHONPATH=src python scripts/state_digest.py --config configs/spinodal.cfg --n 64 \
        --steps 2000 --save before.npz        # in one checkout, then in the other:
    PYTHONPATH=src python scripts/state_digest.py --config configs/spinodal.cfg --n 64 \
        --steps 2000 --against before.npz
"""

import argparse
import hashlib
from dataclasses import replace

import numpy as np

from nlchns.config import ConfigError, parse_config_file
from nlchns.diagnostics import COLUMNS
from nlchns.initialdata import build_hats
from nlchns.solver import SimState, run


# the config keys that this script sets, and what sets them
FIXED_KEYS = {"grid.n": "--n", "t_end": "--steps", "output.record_every": "--record-every",
              **dict.fromkeys(("output.out_dir", "output.snapshot_every"), "the script, which writes nothing,")}


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def difference(got: np.ndarray, want: np.ndarray) -> tuple[float, float, float]:
    """(max |got - want| / max |want|, max |got - want|, max |want|); the
    ratio is 0 when equal and inf when only want is 0."""
    diff, scale = float(np.max(np.abs(got - want))), float(np.max(np.abs(want)))
    return (diff / scale if scale > 0 else (0.0 if diff == 0 else float("inf"))), diff, scale


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True)
    ap.add_argument("--record-every", type=int, default=None,
                    help="steps between records (default: the config's)")
    ap.add_argument("--shared-initial", action="store_true",
                    help="start from build_hats data passed as run()'s initial state")
    ap.add_argument("--rows", action="store_true",
                    help="also print every record row, each value with all its digits")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="replace or add the config line KEY = VALUE (repeatable)")
    ap.add_argument("--save", metavar="FILE.npz", help="save the final samples and record rows")
    ap.add_argument("--against", metavar="FILE.npz",
                    help="print the max relative difference from a run saved with --save")
    args = ap.parse_args()

    for line in args.set:
        key = line.partition("=")[0].strip()
        if key in FIXED_KEYS:
            ap.error(f"--set {key}: {FIXED_KEYS[key]} sets {key} here")
    try:
        cfg = parse_config_file(args.config, args.set)
    except ConfigError as err:
        ap.error(str(err))
    output = replace(cfg.output, out_dir="", snapshot_every=0,
                     record_every=args.record_every or cfg.output.record_every)
    cfg = replace(cfg, grid=replace(cfg.grid, n=args.n), output=output,
                  sim=replace(cfg.sim, t_end=args.steps * cfg.sim.dt))
    initial = None
    if args.shared_initial:
        initial = SimState(cfg.grid, build_hats(cfg.initial, cfg.velocity, cfg.grid), 0.0)
    res = run(cfg, initial_state=initial)

    for name, f in (("phi", res.state.phi), ("u_x", res.state.u.x), ("u_y", res.state.u.y)):
        print(f"{name} {sha(f.values.tobytes())}")
    rows = np.array([r.as_row() for r in res.records])
    print(f"records {sha(rows.tobytes())} ({len(res.records)} rows)")
    print(f"report {sha(res.report.to_text().encode())}")
    if args.rows:
        for row in rows:
            print(" ".join(repr(float(v)) for v in row))

    fields = {"phi": res.state.phi.values, "u_x": res.state.u.x.values, "u_y": res.state.u.y.values}
    if args.save:
        np.savez(args.save, records=rows, **fields)
    if args.against:
        with np.load(args.against) as saved:
            want = {name: saved[name] for name in saved.files}
        for name, got in (*fields.items(), ("records", rows)):
            if got.shape != want[name].shape:
                ap.error(f"{name} has shape {got.shape} here and {want[name].shape} in {args.against}")
        pairs = [*fields.items(), *((name, rows[:, j]) for j, name in enumerate(COLUMNS))]
        wanted = [*(want[name] for name in fields), *want["records"].T]
        for (name, got), ref in zip(pairs, wanted):
            print(f"rel {name} " + " ".join(f"{v:.3e}" for v in difference(got, ref)))


if __name__ == "__main__":
    main()
