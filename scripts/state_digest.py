#!/usr/bin/env python3
"""Fingerprint a run: the sha256 of the final phi, u_x and u_y sample bytes
and of the diagnostics record rows, one line each.

Run it with ``PYTHONPATH`` pointing at one checkout's ``src`` and then at
another's: equal lines mean byte-identical trajectories.  ``--rows`` also
prints the record rows, for comparing records that differ by round-off.
The run writes nothing to disk.  ``--shared-initial`` builds the config's initial data
with ``build_phi`` and ``build_u`` and hands it to ``run()`` as its initial
state, so that a change to ``run()``'s own set-up drops out of the
comparison.  ``--set key=value`` (repeatable) appends a line to the config
before it is parsed, so that one command can fingerprint a branch the
shipped configs leave at its default.

    PYTHONPATH=src python scripts/state_digest.py --config configs/spinodal.cfg --n 64 --steps 60
    PYTHONPATH=src python scripts/state_digest.py --config configs/gradient_control.cfg \
        --n 32 --steps 60 --set forcing=single_mode --set forcing.scale=0.3 --set forcing.decay=0.5
"""

import argparse
import hashlib
from dataclasses import replace

import numpy as np

from nlchns.config import parse_config
from nlchns.initialdata import build_phi, build_u
from nlchns.solver import SimState, run
from nlchns.spectral import Grid


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", required=True)
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--steps", type=int, required=True)
    ap.add_argument("--record-every", type=int, default=None,
                    help="steps between records (default: the config's)")
    ap.add_argument("--shared-initial", action="store_true",
                    help="start from build_phi/build_u data passed as run()'s initial state")
    ap.add_argument("--rows", action="store_true",
                    help="also print every record row, each value with all its digits")
    ap.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                    help="append the config line 'KEY = VALUE' before parsing (repeatable)")
    args = ap.parse_args()
    for line in args.set:
        if "=" not in line:
            ap.error(f"--set expects key=value, got {line!r}")

    with open(args.config, encoding="utf-8") as fh:
        cfg = parse_config("\n".join([fh.read(), *args.set]))
    output = replace(cfg.output, out_dir="", snapshot_every=0,
                     record_every=args.record_every or cfg.output.record_every)
    cfg = replace(cfg, grid=replace(cfg.grid, n=args.n), output=output,
                  sim=replace(cfg.sim, t_end=args.steps * cfg.sim.dt))
    initial = None
    if args.shared_initial:
        grid = Grid(cfg.grid.n, cfg.grid.l)
        initial = SimState(build_phi(cfg.initial, grid), build_u(cfg.velocity, grid), 0.0)
    res = run(cfg, initial_state=initial)

    for name, f in (("phi", res.state.phi), ("u_x", res.state.u.x), ("u_y", res.state.u.y)):
        print(f"{name} {sha(f.values.tobytes())}")
    rows = np.array([r.as_row() for r in res.records])
    print(f"records {sha(rows.tobytes())} ({len(res.records)} rows)")
    if args.rows:
        for row in rows:
            print(" ".join(repr(float(v)) for v in row))


if __name__ == "__main__":
    main()
