import contextlib
import dataclasses
import math
import signal
import warnings

import numpy as np
import pytest

from numpy.polynomial import polynomial as npoly

from conftest import (
    CONFIGS,
    TWO_PI,
    bits,
    gradient,
    norm_l2,
    ref_eval,
    ref_golden_min,
    ref_poly_extrema_on_range,
    ref_poly_sup_global,
)
from nlchns import cli, hypotheses
from nlchns.config import parse_config_file
from nlchns.hypotheses import (
    FAIL,
    NA,
    PASS,
    audit,
    check_h1,
    compute_beta,
    estimate_c0,
    fit_h3,
    global_m0,
    golden_min,
    poincare_constant,
    verify_h4,
    verify_h6,
)
from nlchns.kernels import KernelSpec, build_kernel
from nlchns.potentials import PotentialSpec, eval_ddf, eval_df, eval_f
from nlchns.spectral import Grid, ScalarField

DW = PotentialSpec.double_well()


@pytest.fixture(scope="module")
def gauss_kernel():
    return build_kernel(KernelSpec.gaussian(0.05 * TWO_PI, 6.0), Grid(64, TWO_PI))


class TestH1:
    def test_gaussian_passes(self, gauss_kernel):
        verdict, asym = check_h1(gauss_kernel)
        assert verdict == PASS
        assert asym < 1e-13

    def test_shifted_samples_fail(self, gauss_kernel):
        v = gauss_kernel.samples.values
        doctored = dataclasses.replace(
            gauss_kernel,
            samples=ScalarField(gauss_kernel.grid, np.roll(v, 3, axis=0)),
        )
        verdict, asym = check_h1(doctored)
        assert verdict == FAIL
        assert asym > 1e-6

    def test_zero_kernel_passes_with_zero_mass(self):
        k = build_kernel(KernelSpec.spectral({(0, 0): 0.0}), Grid(16, TWO_PI))
        verdict, _ = check_h1(k)
        assert verdict == PASS
        assert k.a == 0.0


class TestC0:
    def test_double_well_thresholds(self):
        # exact: the minimum of the polynomial 12 s^2 - 4 + a* at its critical point
        c0, w = estimate_c0(DW, 6.0)
        assert c0 == 2.0 and w.s == 0.0 and w.margin == c0
        c0_fail, _ = estimate_c0(DW, 4.0)
        assert c0_fail == 0.0  # touches zero: strict positivity fails

    def test_convex_quartic_without_kernel_mass(self):
        q = PotentialSpec.quartic(1.0, 2.0)
        c0, _ = estimate_c0(q, 0.0)
        assert c0 == 4.0

    def test_minimum_at_range_end(self):
        # F'' + a* = 12 s^2 - 2 + a* for s^4 - s^2 + 3 s: on [0.5, 2] its minimum is at 0.5
        f = PotentialSpec((0.0, 3.0, -1.0, 0.0, 1.0))
        c0, w = estimate_c0(f, 1.0, (0.5, 2.0))
        assert w.s == 0.5 and c0 == pytest.approx(2.0, abs=1e-14)
        assert estimate_c0(PotentialSpec((3.0,)), 0.5)[0] == 0.5  # constant F: F'' = 0

    def test_golden_min_matches_dense_scan(self):
        fun = lambda s: np.cos(3.0 * np.asarray(s)) + 0.1 * np.asarray(s) ** 2
        s_star, val = golden_min(fun, -2.0, 2.0)
        scan = np.linspace(-2, 2, 2000001)
        assert val <= np.min(fun(scan)) + 1e-12


class TestH3:
    def test_double_well_unit_kernel(self):
        c1, c2, alpha, verdict, w = fit_h3(DW, 1.0)
        assert verdict == PASS
        assert c1 == 1.5
        # sup(1.5 s^2 - (1-s^2)^2) = 33/16 at s^2 = 7/4 (critical-point oracle)
        assert abs(c2 - 33.0 / 16.0) < 1e-12
        assert alpha == 2 * c1 - 1.0
        s = np.linspace(-10, 10, 100001)
        assert np.all(eval_f(DW, s) >= c1 * s**2 - c2 - 1e-9)

    def test_pure_quartic(self):
        q = PotentialSpec((0.0, 0.0, 0.0, 0.0, 1.0))
        c1, c2, alpha, verdict, _ = fit_h3(q, 1.0)
        assert verdict == PASS
        # sup(c1 s^2 - s^4) = c1^2/4
        assert abs(c2 - c1**2 / 4.0) < 1e-12

    def test_degree_two_fallback(self):
        f = PotentialSpec((0.0, 0.0, 1.0))  # F = s^2
        c1, c2, alpha, verdict, _ = fit_h3(f, 1.0)
        assert verdict == PASS
        assert c1 == 1.0 and c2 == 0.0 and alpha == 1.0
        # with a heavier kernel the fallback is no longer above ||J||/2
        _, _, _, verdict2, _ = fit_h3(f, 3.0)
        assert verdict2 == FAIL


class TestH4:
    def test_double_well_exponent(self):
        p, c3, c4, verdict, w = verify_h4(DW)
        assert verdict == PASS
        assert p == 4.0 / 3.0
        s = np.linspace(-20, 20, 200001)
        assert np.all(np.abs(eval_df(DW, s)) ** p <= c3 * np.abs(eval_f(DW, s)) + c4 + 1e-9)

    def test_sextic_exponent(self):
        f = PotentialSpec((0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 2.0))
        p, _, _, verdict, _ = verify_h4(f)
        assert p == 6.0 / 5.0 and verdict == PASS

    def test_constant_potential(self):
        p, c3, c4, verdict, _ = verify_h4(PotentialSpec((5.0,)))
        assert (p, c4, verdict) == (2.0, 0.0, PASS)


@contextlib.contextmanager
def within(seconds: float):
    """Raise TimeoutError in the block once it has run ``seconds`` of wall time."""

    def out_of_time(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, out_of_time)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


class TestEveryAcceptedPotential:
    """Potentials the parser accepts whose h4 bracket lies where floats are
    spaced wider than golden_min's tol, or whose fit takes a float power
    past the largest double: the audit ends with a report, the latter with
    h4 failing on non-finite constants.  Neither warns: a dense scan that
    overflows ends in inf or nan, and the report stands alone."""

    @pytest.mark.parametrize("coefficients, h4", [("0,0,-1e10,0,1", PASS), ("0,0,-1,0,1e-12", PASS),
                                                  ("0,0,-1,0,1e300", FAIL), ("0,0,-1e200,0,1", FAIL)])
    def test_audit_ends_in_a_second(self, capsys, coefficients, h4):
        sets = ["potential=polynomial", f"potential.coefficients={coefficients}"]
        cfg = parse_config_file(CONFIGS / "spinodal.cfg", sets)
        kernel = build_kernel(cfg.kernel, cfg.grid)
        with within(1.0), warnings.catch_warnings():
            warnings.simplefilter("error")
            report = audit(kernel, cfg.potential, cfg.checks.s_range)
        assert report.h4 == h4
        assert math.isfinite(report.c3 + report.c4) == (h4 == PASS)
        with within(5.0), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["check", str(CONFIGS / "spinodal.cfg")] + [a for kv in sets for a in ("--set", kv)])
        assert code == int(not report.passes_core())
        assert capsys.readouterr() == (report.to_text(), "")


class TestH6:
    def test_double_well_fit(self):
        q, c5, c6, c7, c8, verdict, wit = verify_h6(DW, 6.0)
        assert verdict == PASS
        assert q == 1.0
        assert c5 == 6.0  # half of the F'' leading bound 12
        assert c6 == pytest.approx(1e-9)  # 4 - a* < 0, clamped positive
        assert c7 == 0.5
        assert abs(c8 - 1.0) < 1e-12  # sup(0.5 s^4 - (1-s^2)^2) = 1 at s^2 = 2
        s = np.linspace(-15, 15, 10001)
        assert np.all(eval_f(DW, s) >= c7 * np.abs(s) ** 4 - c8 - 1e-9)
        assert np.all(eval_ddf(DW, s) + 6.0 >= c5 * np.abs(s) ** 2 - c6 - 1e-9)

    def test_small_kernel_mass_gives_positive_c6(self):
        _, _, c6, _, _, _, _ = verify_h6(DW, 2.0)
        assert abs(c6 - 2.0) < 1e-12  # 4 - a* = 2

    def test_quadratic_not_applicable(self):
        out = verify_h6(PotentialSpec((0.0, 0.0, 1.0)), 1.0)
        assert out[5] == NA


class TestPoincareBeta:
    def test_unit_constant_on_2pi_torus(self):
        assert poincare_constant(Grid(32, TWO_PI)) == pytest.approx(1.0, abs=1e-15)

    def test_sharpness_on_lowest_mode(self):
        g = Grid(64, 5.0)
        xx, _ = g.mesh
        f = ScalarField(g, np.cos(2 * np.pi * xx / g.l))
        cp = poincare_constant(g)
        assert abs(norm_l2(f) - cp * norm_l2(gradient(f))) < 1e-12 * norm_l2(f)

    def test_beta_formula(self):
        from nlchns.hypotheses import HypothesisReport

        rep = HypothesisReport(c0=2.0, norm_gradj_l1=0.5, c_poincare=1.0)
        beta, cond = compute_beta(rep)
        assert beta == 1.0 and cond is True
        rep2 = HypothesisReport(c0=2.0, norm_gradj_l1=5.0, c_poincare=1.0)
        _, cond2 = compute_beta(rep2)
        assert cond2 is False


class TestAudit:
    def test_double_well_report_ground_truth(self, gauss_kernel):
        rep = audit(gauss_kernel, DW)
        assert rep.passes_core()
        assert rep.h5 == PASS and rep.h6 == PASS
        assert abs(rep.m0 - 4.0) < 1e-10
        assert rep.p == 4.0 / 3.0
        assert abs(rep.c0 - 2.0) < 1e-8
        assert rep.alpha == 2 * rep.c1 - rep.norm_j_l1
        assert rep.alpha > 0

    def test_witnesses_reproduce_margins(self, gauss_kernel):
        rep = audit(gauss_kernel, DW)
        w2 = rep.witnesses["h2"]
        assert abs((eval_ddf(DW, w2.s) + rep.a_star) - w2.margin) < 1e-12
        w3 = rep.witnesses["h3"]
        assert abs((eval_f(DW, w3.s) - rep.c1 * w3.s**2 + rep.c2) - w3.margin) < 1e-12
        w4 = rep.witnesses["h4"]
        re_eval = rep.c3 * abs(eval_f(DW, w4.s)) + rep.c4 - abs(eval_df(DW, w4.s)) ** rep.p
        assert abs(re_eval - w4.margin) < 1e-12
        w6 = rep.witnesses["h6_c8"]
        re6 = eval_f(DW, w6.s) - rep.c7 * abs(w6.s) ** (2 + 2 * rep.q) + rep.c8
        assert abs(re6 - w6.margin) < 1e-12

    def test_alpha_beta_recompute_bitwise(self, gauss_kernel):
        rep = audit(gauss_kernel, DW)
        assert rep.alpha == 2.0 * rep.c1 - rep.norm_j_l1
        gap = rep.c0 - 2.0 * rep.c_poincare * rep.norm_gradj_l1
        assert rep.beta == gap * gap

    def test_m0_exact_for_double_well(self):
        assert global_m0(DW) == pytest.approx(4.0, abs=1e-12)

    def test_report_serializes_flat(self, gauss_kernel):
        rep = audit(gauss_kernel, DW)
        text = rep.to_text()
        lines = [ln for ln in text.splitlines() if ln]
        assert all("=" in ln for ln in lines)
        assert any(ln.startswith("h2 = pass") for ln in lines)
        assert any(ln.startswith("m0 = ") for ln in lines)


def numpy_audit(monkeypatch, kernel, potential, s_range):
    """``audit`` with every scalar helper it calls in its numpy form: the
    conftest references, ``polyadd``/``polysub`` and ``polyval`` of ``polyder``."""
    for name, ref in (("golden_min", ref_golden_min), ("poly_sup_global", ref_poly_sup_global),
                      ("poly_extrema_on_range", ref_poly_extrema_on_range),
                      ("poly_add", lambda a, b, sign=1.0: (npoly.polyadd if sign > 0 else npoly.polysub)(a, b)),
                      ("eval_f", lambda spec, s: ref_eval(spec, s)),
                      ("eval_df", lambda spec, s: ref_eval(spec, s, 1)),
                      ("eval_ddf", lambda spec, s: ref_eval(spec, s, 2))):
        monkeypatch.setattr(hypotheses, name, ref)
    try:
        return audit(kernel, potential, s_range)
    finally:
        monkeypatch.undo()


class TestPythonFloatBits:
    """The audit's scalar work runs in Python floats, in numpy's steps: its
    report is the numpy form's byte for byte."""

    @pytest.mark.parametrize("name", ["spinodal", "taylor_green", "gradient_control"])
    def test_shipped_reports(self, monkeypatch, name):
        cfg = parse_config_file(CONFIGS / f"{name}.cfg")
        kernel = build_kernel(cfg.kernel, cfg.grid)
        got = audit(kernel, cfg.potential, cfg.checks.s_range).to_text()
        assert got == numpy_audit(monkeypatch, kernel, cfg.potential, cfg.checks.s_range).to_text()

    def test_random_potentials(self, monkeypatch, gauss_kernel):
        rng = np.random.default_rng(29)
        for deg in (0, 2, 4, 4, 6, 6, 8, 8) * 3:
            coef = rng.standard_normal(deg + 1) * 10.0 ** float(rng.integers(-1, 2))
            coef[rng.random(deg + 1) < 0.2] = 0.0
            coef[-1] = abs(coef[-1]) + 0.1
            spec = PotentialSpec(tuple(coef))
            s_range = (float(rng.uniform(-3.0, -0.5)), float(rng.uniform(0.5, 3.0)))
            got = audit(gauss_kernel, spec, s_range).to_text()
            assert got == numpy_audit(monkeypatch, gauss_kernel, spec, s_range).to_text()

    def test_golden_min(self):
        for lo, hi, samples in ((-2.0, 2.0, 4001), (-7.5, 3.25, 20001), (0.0, 1.0, 11)):
            fun = lambda s: np.cos(3.0 * s) + 0.1 * s**2 - 0.3 * s
            assert bits(golden_min(fun, lo, hi, samples)) == bits(ref_golden_min(fun, lo, hi, samples))
