"""Smoke tests of ``scripts/state_digest.py``, run in a subprocess on a tiny
problem.  The studies have no scripts: ``tests/test_cli.py`` runs each from
its shipped config."""

import hashlib
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from nlchns.config import parse_config_file
from nlchns.hypotheses import audit
from nlchns.kernels import build_kernel

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_state_digest_repeats():
    args = ("--config", str(ROOT / "configs" / "gradient_control.cfg"), "--n", "16", "--steps", "5",
            "--record-every", "2", "--rows")
    out = run_script("state_digest.py", *args)
    assert out == run_script("state_digest.py", *args)
    lines = out.splitlines()
    assert [line.split()[0] for line in lines[:5]] == ["phi", "u_x", "u_y", "records", "report"]
    assert all(len(line.split()[1]) == 64 for line in lines[:5])
    assert lines[3].endswith("(4 rows)")  # steps 0, 2, 4 and the last
    rows = [[float(v) for v in line.split()] for line in lines[5:]]
    assert len(rows) == 4 and all(len(r) == 13 for r in rows)
    assert [r[0] for r in rows] == [0.0, 0.002, 0.004, 0.005]


def test_state_digest_report_is_the_audit_text():
    # the report line is the sha256 of the run's admissibility report, and
    # it follows the config's potential, not the run's length
    config = ROOT / "configs" / "gradient_control.cfg"
    out = run_script("state_digest.py", "--config", str(config), "--n", "16", "--steps", "3")
    report = [line for line in out.splitlines() if line.startswith("report ")]
    cfg = parse_config_file(config)
    kernel = build_kernel(cfg.kernel, replace(cfg.grid, n=16))
    text = audit(kernel, cfg.potential, cfg.checks.s_range).to_text()
    assert report == [f"report {hashlib.sha256(text.encode()).hexdigest()}"]
    assert report[0] in run_script("state_digest.py", "--config", str(config), "--n", "16", "--steps", "5")
    moved = run_script("state_digest.py", "--config", str(config), "--n", "16", "--steps", "3",
                       "--set", "potential=quartic", "--set", "potential.a4=2")
    assert report[0] not in moved.splitlines()


def test_state_digest_sets_config_lines():
    # the step's non-default branches, each set on the command line
    base = ("--config", str(ROOT / "configs" / "gradient_control.cfg"), "--n", "16", "--steps", "3")
    plain = run_script("state_digest.py", *base).splitlines()
    for lines in (("forcing=body", "forcing.amplitude_x=0.3", "forcing.decay=0.5"), ("stabilizer = 8",),
                  ("forcing=single_mode", "forcing.scale=0.3", "forcing.decay=0.5")):
        out = run_script("state_digest.py", *base, *(a for line in lines for a in ("--set", line)))
        assert out.splitlines()[0].split()[0] == "phi"
        assert out.splitlines()[:3] != plain[:3]


def test_state_digest_set_replaces_a_key_of_the_file(tmp_path):
    # gradient_control.cfg sets nu = 0.1; --set nu=0.05 runs the file with that line edited
    config = ROOT / "configs" / "gradient_control.cfg"
    edited = tmp_path / "edited.cfg"
    edited.write_text(config.read_text().replace("nu = 0.1\n", "nu = 0.05\n"))
    steps = ("--n", "16", "--steps", "3")
    overridden = run_script("state_digest.py", "--config", str(config), *steps, "--set", "nu=0.05")
    assert overridden == run_script("state_digest.py", "--config", str(edited), *steps)
    assert overridden != run_script("state_digest.py", "--config", str(config), *steps)


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
        return lines[:5], {name: float(ratio) for name, ratio, *_ in parsed}

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


@pytest.mark.parametrize("line, flag", [
    ("grid.n=32", "--n"), ("t_end = 1", "--steps"), ("output.record_every=3", "--record-every"),
    ("output.out_dir=snaps", "the script, which writes nothing,"),
    ("output.snapshot_every=1", "the script, which writes nothing,"),
])
def test_state_digest_refuses_a_key_its_flag_sets(line, flag):
    # --n, --steps, --record-every and the script's writing nothing would
    # silently replace the --set value
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "state_digest.py"), "--config",
         str(ROOT / "configs" / "gradient_control.cfg"), "--n", "16", "--steps", "3", "--set", line],
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")), capture_output=True, text=True, timeout=300)
    key = line.partition("=")[0].strip()
    assert proc.returncode == 2 and proc.stdout == ""
    assert f"error: --set {key}: {flag} sets {key} here" in proc.stderr
