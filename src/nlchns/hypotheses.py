"""Numerical auditor for the admissibility conditions on (kernel, potential).

The package runs the coupled dynamics only for data satisfying a small list
of numbered hypotheses, verified here on a working range and over the
polynomial tails:

* h1 — the kernel is even, integrable with integrable gradient, and a >= 0;
* h2 — F''(s) + a* >= c0 > 0 (F is a quadratic perturbation of a convex G);
* h3 — F(s) >= c1 s^2 - c2 with 2 c1 > ||J||_L1 (so alpha = 2 c1 - ||J||_L1 > 0);
* h4 — |F'(s)|^p <= c3 |F(s)| + c4 for some p in (1, 2];
* h5 — the forcing is locally square integrable in time (all shipped families);
* h6 — F''(s) + a* >= c5 |s|^{2q} - c6, which forces the coercive floor
  F(s) >= c7 |s|^{2+2q} - c8 with c7 = c5 / ((2q+1)(2q+2)).

Each fitted constant carries a witness: the sample where the inequality is
tightest, stored so the margin can be reproduced by re-evaluation.  The
report also assembles the derived constants used by the diagnostics: alpha,
the torus Poincare constant C_P = l/(2 pi), and the gradient-control constant
beta = (c0 - 2 C_P ||grad J||_L1)^2 together with its applicability condition
C_P < c0 / (2 ||grad J||_L1).

Everything in sight is polynomial, so c0 (h2), c2, c6 and c8 are exact
extrema from real critical points; only c4 (h4) is found by dense sampling
with golden-section refinement.  Past that dense array scan, the scalar work
runs in Python floats, in numpy's steps and so with the same bits.  Pure
analysis; safe to run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np
from numpy.polynomial import polynomial as npoly

from .kernels import KernelOnGrid
from .potentials import (
    PotentialSpec,
    eval_ddf,
    eval_df,
    eval_f,
    poly_add,
    poly_extrema_on_range,
    poly_sup_global,
)
from .spectral import Grid

PASS = "pass"
FAIL = "fail"
NA = "n/a"

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


@dataclass(frozen=True)
class Witness:
    """Sample at which a fitted inequality is tightest."""

    s: float
    margin: float


def golden_min(fun, lo: float, hi: float, samples: int = 4001, tol: float = 1e-11):
    """Minimize a scalar function: a dense scan (``fun`` of an array), then
    golden-section refinement of the best bracket on floats, until it is
    ``tol`` wide or stops shrinking.  Returns (argmin, value)."""
    xs = np.linspace(lo, hi, samples)
    vals = np.asarray(fun(xs), dtype=float)
    i = int(np.argmin(vals))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, samples - 1)])
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2, width = float(fun(x1)), float(fun(x2)), math.inf
    while tol < b - a < width:
        width = b - a
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = float(fun(x1))
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = float(fun(x2))
    x = 0.5 * (a + b)
    return float(x), float(fun(x))


@dataclass
class HypothesisReport:
    """Verdicts, fitted constants, and their witnesses."""

    h1: str = NA
    h2: str = NA
    h3: str = NA
    h4: str = NA
    h5: str = NA
    h6: str = NA
    c0: float = 0.0
    c1: float = 0.0
    c2: float = 0.0
    c3: float = 0.0
    c4: float = 0.0
    p: float = 0.0
    c5: float = 0.0
    c6: float = 0.0
    q: float = 0.0
    c7: float = 0.0
    c8: float = 0.0
    alpha: float = 0.0
    beta: float = 0.0
    c_poincare: float = 0.0
    a: float = 0.0
    a_star: float = 0.0
    norm_j_l1: float = 0.0
    norm_gradj_l1: float = 0.0
    m0: float = 0.0
    condition_altass: bool = False
    s_range: tuple[float, float] = (-2.0, 2.0)
    witnesses: dict[str, Witness] = field(default_factory=dict)

    def passes_core(self) -> bool:
        return all(v == PASS for v in (self.h1, self.h2, self.h3, self.h4))

    def to_text(self) -> str:
        """One ``name = value`` line a field, in field order, floats to 17 digits."""
        lines = []
        for f in fields(self)[:-1]:  # the witnesses last, by key
            v = getattr(self, f.name)
            v = (v if isinstance(v, str) else str(v).lower() if isinstance(v, bool)
                 else ",".join(f"{x:.17g}" for x in v) if isinstance(v, tuple) else f"{v:.17g}")
            lines.append(f"{f.name} = {v}")
        for key in sorted(self.witnesses):
            w = self.witnesses[key]
            lines.append(f"witness.{key}.s = {w.s:.17g}")
            lines.append(f"witness.{key}.margin = {w.margin:.17g}")
        return "\n".join(lines) + "\n"


def check_h1(kernel: KernelOnGrid) -> tuple[str, float]:
    """Evenness of the samples under x -> -x, a >= 0, finite W^{1,1} norms.

    Returns the verdict and the maximum pointwise asymmetry.
    """
    v = kernel.samples.values
    mirrored = v[::-1, ::-1]
    mirrored = np.roll(np.roll(mirrored, 1, axis=0), 1, axis=1)  # index -i mod n
    scale = max(float(np.max(np.abs(v))), 1.0)
    asym = float(np.max(np.abs(v - mirrored)))
    ok = (
        asym <= 1e-12 * scale
        and kernel.a >= -1e-12
        and np.isfinite(kernel.norm_l1)
        and np.isfinite(kernel.grad_norm_l1)
    )
    return (PASS if ok else FAIL), asym


def estimate_c0(potential: PotentialSpec, a_star: float, s_range=(-2.0, 2.0)):
    """c0 = min over the range of the polynomial F''(s) + a*, exact via its
    real critical points.

    Returns (c0, witness at the argmin); the verdict requires strict positivity.
    """
    gpp = poly_add(potential.ddf_coefficients, (a_star,))
    c0, s_min, _, _ = poly_extrema_on_range(gpp, s_range)
    return c0, Witness(s=s_min, margin=c0)


def fit_h3(potential: PotentialSpec, norm_j_l1: float):
    """Fit c1, c2 with F >= c1 s^2 - c2 and c1 > ||J||_L1 / 2.

    Preferred c1 exceeds ||J||_L1/2 by max(1, ||J||_L1/2); if that makes
    c1 s^2 - F unbounded (degree-2 potentials), fall back to the quadratic
    coefficient itself.  c2 is the exact global envelope via critical points.
    """
    half = 0.5 * norm_j_l1
    candidates = [half + max(1.0, half)]
    if potential.degree == 2:
        candidates.append(potential.leading)
    for c1 in candidates:
        excess = poly_add((0.0, 0.0, c1), potential.coefficients, -1.0)
        try:
            sup, s_sup = poly_sup_global(excess)
        except ValueError:
            continue
        c2 = max(0.0, sup)
        margin = float(eval_f(potential, s_sup) - c1 * s_sup**2 + c2)
        verdict = PASS if c1 > half else FAIL
        alpha = 2.0 * c1 - norm_j_l1
        return float(c1), float(c2), float(alpha), verdict, Witness(s=s_sup, margin=margin)
    return 0.0, 0.0, -norm_j_l1, FAIL, Witness(s=0.0, margin=0.0)


def _h4_tail_scale(potential: PotentialSpec) -> float:
    roots = npoly.polyroots(potential.coefficients)
    r = float(np.max(np.abs(roots))) if roots.size else 1.0
    return max(10.0, 4.0 * (1.0 + r))


def verify_h4(potential: PotentialSpec):
    """Fit (p, c3, c4) with |F'|^p <= c3 |F| + c4.

    p = deg/(deg-1) from the leading exponents; c3 doubles the exact tail
    ratio (deg * lead)^p / lead; c4 is the sampled-and-refined envelope of
    the excess, which tends to -inf in both tails.
    """
    deg = potential.degree
    if deg == 0:
        return 2.0, 1.0, 0.0, PASS, Witness(s=0.0, margin=0.0)
    p = deg / (deg - 1.0)

    def excess(s):  # an array or a float
        return abs(eval_df(potential, s)) ** p - c3 * abs(eval_f(potential, s))
    try:
        c3 = 2.0 * (deg * potential.leading) ** p / potential.leading  # twice the tail ratio
        big = _h4_tail_scale(potential)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing scan ends in inf or nan, not a warning
            s_sup, neg = golden_min(lambda s: -excess(s), -big, big, samples=20001)
        c4 = max(0.0, -neg)
        margin = float(c3 * abs(eval_f(potential, s_sup)) + c4 - abs(eval_df(potential, s_sup)) ** p)
    except OverflowError:  # a float power past the largest double: no finite constants
        return float(p), math.inf, math.inf, FAIL, Witness(s=math.nan, margin=math.nan)
    verdict = PASS if 1.0 < p <= 2.0 else FAIL
    return float(p), float(c3), float(c4), verdict, Witness(s=s_sup, margin=margin)


def verify_h6(potential: PotentialSpec, a_star: float):
    """Fit (q, c5, c6) with F'' + a* >= c5 |s|^{2q} - c6, and derive the
    coercive floor constants (c7, c8) with F >= c7 |s|^{2+2q} - c8.

    c5 takes half the leading coefficient of F'' (tail margin 1/2), leaving
    the envelopes polynomial with negative leading term, so c6 and c8 are
    exact global suprema; c7 = c5 / ((2q+1)(2q+2)) from double integration.
    Returns (q, c5, c6, c7, c8, verdict, witnesses).
    """
    deg = potential.degree
    if deg < 4:
        return 0.0, 0.0, 0.0, 0.0, 0.0, NA, {}
    q = (deg - 2) / 2.0
    two_q = deg - 2
    fpp_lead = deg * (deg - 1) * potential.leading
    c5 = 0.5 * fpp_lead

    # c6: sup of c5 s^{2q} - F''(s) - a*
    excess6 = poly_add(poly_add((0.0,) * two_q + (c5,), potential.ddf_coefficients, -1.0), (a_star,), -1.0)
    sup6, s6 = poly_sup_global(excess6)
    c6 = max(1e-9, sup6)
    c7 = c5 / ((2.0 * q + 1.0) * (2.0 * q + 2.0))
    excess8 = poly_add((0.0,) * deg + (c7,), potential.coefficients, -1.0)
    sup8, s8 = poly_sup_global(excess8)
    c8 = max(1e-9, sup8)
    try:
        w6 = Witness(s=s6, margin=float(eval_ddf(potential, s6) + a_star - c5 * abs(s6) ** two_q + c6))
        w8 = Witness(s=s8, margin=float(eval_f(potential, s8) - c7 * abs(s8) ** deg + c8))
    except OverflowError:  # a float power past the largest double: no finite constants
        return float(q), float(c5), math.inf, float(c7), math.inf, FAIL, {}
    witnesses = {"h6_c6": w6, "h6_c8": w8}
    return float(q), float(c5), float(c6), float(c7), float(c8), PASS, witnesses


def poincare_constant(grid: Grid) -> float:
    """Best constant in ||f|| <= C_P ||grad f|| for mean-zero f on the torus:
    the inverse spectral gap l / (2 pi), attained by the lowest mode."""
    return grid.l / (2.0 * np.pi)


def compute_beta(report: HypothesisReport) -> tuple[float, bool]:
    """Gradient-control constant beta = (c0 - 2 C_P ||grad J||_L1)^2 and the
    applicability condition C_P < c0 / (2 ||grad J||_L1)."""
    c0, gj, cp = report.c0, report.norm_gradj_l1, report.c_poincare
    gap = c0 - 2.0 * cp * gj
    return gap * gap, bool(gap > 0.0)


def global_m0(potential: PotentialSpec) -> float:
    """m0 = -min over R of F'' (0 for degree < 4 potentials with F'' const)."""
    if potential.degree < 2:
        return 0.0
    fpp = potential.ddf_coefficients
    if potential.degree == 2:
        return float(-fpp[0])
    neg_sup, _ = poly_sup_global(npoly.polymul((-1.0,), fpp))
    return float(neg_sup)


def audit(kernel: KernelOnGrid, potential: PotentialSpec, s_range=(-2.0, 2.0)) -> HypothesisReport:
    """Run every check and assemble the full report for one configuration."""
    rep = HypothesisReport(s_range=(float(s_range[0]), float(s_range[1])))
    rep.a = kernel.a
    rep.a_star = kernel.a_star
    rep.norm_j_l1 = kernel.norm_l1
    rep.norm_gradj_l1 = kernel.grad_norm_l1

    rep.h1, asym = check_h1(kernel)
    rep.witnesses["h1"] = Witness(s=0.0, margin=asym)

    rep.c0, w2 = estimate_c0(potential, rep.a_star, s_range)
    rep.h2 = PASS if rep.c0 > 0 else FAIL
    rep.witnesses["h2"] = w2

    rep.c1, rep.c2, rep.alpha, rep.h3, w3 = fit_h3(potential, rep.norm_j_l1)
    rep.witnesses["h3"] = w3

    rep.p, rep.c3, rep.c4, rep.h4, w4 = verify_h4(potential)
    rep.witnesses["h4"] = w4

    rep.h5 = PASS  # every shipped forcing family is L^2 in time on bounded intervals

    rep.q, rep.c5, rep.c6, rep.c7, rep.c8, rep.h6, w6 = verify_h6(potential, rep.a_star)
    rep.witnesses.update(w6)

    rep.m0 = global_m0(potential)
    rep.c_poincare = poincare_constant(kernel.grid)
    rep.beta, rep.condition_altass = compute_beta(rep)
    return rep
