"""What the benchmark reads of the package, checked here so that a rename
fails the suite and not only a benchmark run: ``perfbench/run.py`` ends each
workload, and a run's final state keeps the two surfaces ``perfbench``
reads, ``state.phi`` and the snapshot files."""

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from conftest import CONFIGS
from nlchns import solver, storage
from nlchns.config import OutputConfig, parse_config_file
from nlchns.solver import trajectory

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["spinodal-256", "audit-64", "vortex-128"])
def test_benchmark_workload_runs_and_checks(workload):
    # one instance of the workload, untraced: it rewrites the git-ignored
    # perfbench/out/<workload>-seed1-trace0.json
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                           "--seconds", "0", "--trace", "0"], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout


@pytest.mark.parametrize("n", [32, solver._FORK_MIN_N], ids=["serial", "forked"])
def test_state_phi_and_snapshots_are_the_samples(monkeypatch, tmp_path, n):
    # the set-up state and the stepped ones: phi is a view of samples[0],
    # and the three snapshot files re-read to the samples, byte for byte
    steppers = []

    class Kept(solver.Stepper):
        def __init__(self, *args):
            super().__init__(*args)
            steppers.append(self)

    monkeypatch.setattr(solver, "Stepper", Kept)
    cfg = parse_config_file(CONFIGS / "spinodal.cfg")
    cfg = replace(cfg, grid=replace(cfg.grid, n=n), sim=replace(cfg.sim, t_end=3 * cfg.sim.dt),
                  output=OutputConfig(record_every=1))
    _, _, frames = trajectory(cfg)
    for i, state, _, _ in frames:
        assert (steppers[0].fork is not None) == (n >= solver._FORK_MIN_N)
        assert state.phi.grid == state.grid == cfg.grid
        assert np.shares_memory(state.phi.values, state.samples[0])
        assert state.phi.values.tobytes() == state.samples[0].tobytes()
        storage.write_state_snapshots(str(tmp_path), state, i)
        for name, values in zip(("phi", "ux", "uy"), state.samples):
            field, got_name, t = storage.read_snapshot(str(tmp_path / f"{name}_{i:08d}.f64"))
            assert (got_name, t, field.grid) == (name, state.t, state.grid)
            assert field.values.tobytes() == values.tobytes()
    assert i == 3
