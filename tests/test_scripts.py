"""Smoke tests of ``scripts/``: each script runs in a subprocess on a tiny
problem, exits 0 and prints its verdict lines."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_taylor_green_bench():
    out = run_script("taylor_green_bench.py", "--n", "16", "--t-end", "0.02")
    for verdict in ("error_below_1e-3", "first_order", "preconditions"):
        assert f"verdict[{verdict}]: PASS" in out


def test_spinodal_demo():
    out = run_script("spinodal_demo.py", "--n", "16", "--t-end", "0.02")
    assert "records: 21, final t = 0.02" in out
    assert "max mean drift:" in out and "cumulative inequality margin" in out
    assert "invariant failures" not in out


def test_refinement_study():
    out = run_script("refinement_study.py", "--sizes", "16,32,64")
    for verdict in ("uniform_bounds", "differences_decrease",
                    "residual_order_in_band", "trajectory_order_in_band"):
        assert f"verdict[{verdict}]: PASS" in out


def test_state_digest_repeats():
    args = ("--config", str(ROOT / "configs" / "gradient_control.cfg"), "--n", "16", "--steps", "5",
            "--record-every", "2", "--rows")
    out = run_script("state_digest.py", *args)
    assert out == run_script("state_digest.py", *args)
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:4]] == ["phi", "u_x", "u_y", "records"]
    assert all(len(line.split()[1]) == 64 for line in lines[:4])
    assert lines[3].endswith("(4 rows)")  # steps 0, 2, 4 and the last
    rows = [[float(v) for v in line.split()] for line in lines[4:]]
    assert len(rows) == 4 and all(len(r) == 13 for r in rows)
    assert [r[0] for r in rows] == [0.0, 0.002, 0.004, 0.005]


def test_state_digest_sets_config_lines():
    # the step's non-default branches, each set on the command line
    base = ("--config", str(ROOT / "configs" / "gradient_control.cfg"), "--n", "16", "--steps", "3")
    plain = run_script("state_digest.py", *base).splitlines()
    for lines in (("dealias=false",), ("stabilizer = 8",),
                  ("forcing=single_mode", "forcing.scale=0.3", "forcing.decay=0.5")):
        out = run_script("state_digest.py", *base, *(a for line in lines for a in ("--set", line)))
        assert out.splitlines()[0].split()[0] == "phi"
        assert out.splitlines()[:3] != plain[:3]


def test_state_digest_against_a_saved_run(tmp_path):
    base = ("--config", str(ROOT / "configs" / "gradient_control.cfg"), "--n", "16", "--steps", "5")
    saved = str(tmp_path / "run.npz")
    digest = run_script("state_digest.py", *base, "--save", saved).splitlines()
    names = ["phi", "u_x", "u_y", "t", "mass", "kinetic", "interaction", "bulk", "total_energy",
             "grad_u_sq", "grad_mu_sq", "forcing_power", "identity_residual", "grad_control_margin",
             "phi_min", "phi_max"]

    def rel(*extra):
        lines = run_script("state_digest.py", *base, *extra, "--against", saved).splitlines()
        parsed = [line.split()[1:] for line in lines if line.startswith("rel ")]
        assert [fields[0] for fields in parsed] == names
        # the ratio of the difference to the scale
        for _, ratio, diff, scale in parsed:
            want = float(diff) / float(scale) if float(scale) else 0.0
            assert float(ratio) == pytest.approx(want, rel=1e-2)
        return lines[:4], {name: float(ratio) for name, ratio, *_ in parsed}

    same_digest, same = rel()
    assert same_digest == digest and set(same.values()) == {0.0}
    _, moved = rel("--set", "stabilizer = 8")
    assert all(0.0 < moved[name] < float("inf") for name in ("phi", "u_x", "u_y", "kinetic"))
    assert moved["t"] == 0.0
    # a run of another shape is refused
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "state_digest.py"), *base[:-1], "6", "--against", saved],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2 and "records has shape (7, 13) here and (6, 13)" in proc.stderr
