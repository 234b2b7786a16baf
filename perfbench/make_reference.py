"""Write perfbench/reference_audit64.json.

    python3 perfbench/make_reference.py

For each seed in ``workloads.REFERENCE_SEEDS`` it runs one audit-64 instance
and stores the offline re-audit's cumulative energy-inequality verdict and
worst margin.
The benchmark checks later code against these values (tolerance
1e-8 * (1 + |E(0)|)), so regenerate the file only at a commit whose
numerics are meant to become the new reference, and say so in the log.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main() -> int:
    if not run._import_package():
        print(f"make_reference: cannot import nlchns from {run.SRC}", file=sys.stderr)
        return 2
    import workloads as W

    wl = W.WORKLOADS["audit-64"]
    work = run.HERE / "out" / "make-reference"
    work.mkdir(parents=True, exist_ok=True)
    probe = W.RunProbe()
    seeds = {}
    try:
        with probe.installed():
            for seed in W.REFERENCE_SEEDS:
                inst, _ = W.run_instance(wl, seed, probe, work)
                if "inequality_worst_margin" not in inst.values:
                    print(f"seed {seed}: {inst.failures}", file=sys.stderr)
                    return 1
                seeds[str(seed)] = {
                    "passes": bool(inst.values["inequality_passes"]),
                    "worst_margin": inst.values["inequality_worst_margin"],
                }
                print(seed, seeds[str(seed)], flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    env = run.environment(wl, 0)
    table = {
        "what": "audit-64 offline re-audit: energy_inequality_check on the re-read CSV",
        "git_commit": env["git_commit"],
        "numpy": env["numpy"],
        "seeds": seeds,
    }
    W.REFERENCE_PATH.write_text(json.dumps(table, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
