"""Smooth polynomial potentials.

The potential F drives the phase dynamics through F'; the decomposition
F(s) = G(s) - (a*/2) s^2 with G convex (G'' >= c0 > 0 on the working range,
hypothesis h2 in ``hypotheses``) underlies both the stabilized time step and
the admissibility auditor.

Families: the canonical double well (1 - s^2)^2, quartics a4 s^4 + a2 s^2 +
a0, and general even-top-degree polynomials with positive leading
coefficient.  Coefficients are stored in ascending order and evaluated by
Horner's rule, in place when given an ``out`` array and bit-identically to
``numpy.polynomial.polynomial.polyval``; scalars and the polynomial algebra
(derivatives, sums, real roots, extrema) run in Python floats, in numpy's own
steps and so with the same bits.  Everything here is an immutable value;
evaluation is pure apart from the ``out`` it is given.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial import polynomial as npoly


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential, coefficients in ascending powers."""

    coefficients: tuple[float, ...]
    family: str = "polynomial"

    def __post_init__(self):
        coef = tuple(float(c) for c in self.coefficients)
        while len(coef) > 1 and coef[-1] == 0.0:
            coef = coef[:-1]
        object.__setattr__(self, "coefficients", coef)
        deg = len(coef) - 1
        if deg >= 1:
            if deg % 2 != 0:
                raise ValueError(f"potential degree must be even, got {deg}")
            if coef[-1] <= 0:
                raise ValueError("potential needs a positive leading coefficient")

    @staticmethod
    def double_well() -> "PotentialSpec":
        # (1 - s^2)^2 = 1 - 2 s^2 + s^4
        return PotentialSpec((1.0, 0.0, -2.0, 0.0, 1.0), family="double_well")

    @staticmethod
    def quartic(a4: float, a2: float = 0.0, a0: float = 0.0) -> "PotentialSpec":
        if not a4 > 0:  # F grows like s^4; the parser reports this message as it is
            raise ValueError("potential.a4 must be positive")
        return PotentialSpec((a0, 0.0, a2, 0.0, a4), family="quartic")

    @staticmethod
    def polynomial(coefficients) -> "PotentialSpec":
        return PotentialSpec(tuple(coefficients), family="polynomial")

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    @property
    def leading(self) -> float:
        return self.coefficients[-1]

    @cached_property
    def df_coefficients(self) -> tuple[float, ...]:
        """F' in ascending powers, derived once per spec."""
        return _derivative(self.coefficients)

    @cached_property
    def ddf_coefficients(self) -> tuple[float, ...]:
        """F'' in ascending powers, derived once per spec."""
        return _derivative(self.df_coefficients)

    def shifted(self, m: float) -> "PotentialSpec":
        """The potential s -> F(s + m) - F(m) (vanishes at 0)."""
        base = npoly.Polynomial(self.coefficients)
        comp = base(npoly.Polynomial([m, 1.0]))
        coef = comp.coef.copy()
        coef[0] -= eval_f(self, m)
        return PotentialSpec(tuple(coef), family=f"{self.family}_shifted")


def _horner(coefficients: tuple[float, ...], s, out=None):
    """``polyval(s, coefficients)`` in polyval's own steps, s*0 + c[-1] and
    then acc*s + c[-i], so the result is bit-identical; for an array ``s``
    every step writes into ``out`` (allocated once when None), and a scalar
    ``s`` runs them in Python floats and gives a float.  The array path
    skips the add of a zero c[i] that a nonzero c[i - 1] follows: it could
    change only the sign of a zero, and (+-0)*s + c[i - 1] is the same for
    either sign."""
    if out is None and (isinstance(s, float) or not np.ndim(s)):
        s = float(s)
        acc = s * 0.0 + coefficients[-1]
        for c in coefficients[-2::-1]:
            acc = acc * s + c
        return acc
    if out is None:
        out = np.empty(np.shape(s))
    acc = np.add(np.multiply(s, 0.0, out=out), coefficients[-1], out=out)
    for i in range(len(coefficients) - 2, -1, -1):
        c = coefficients[i]
        acc = np.multiply(acc, s, out=out)
        if c or not i or not coefficients[i - 1]:
            acc = np.add(acc, c, out=out)
    return acc


def eval_f(spec: PotentialSpec, s, out=None):
    return _horner(spec.coefficients, s, out)


def eval_df(spec: PotentialSpec, s, out=None):
    return _horner(spec.df_coefficients, s, out)


def eval_ddf(spec: PotentialSpec, s, out=None):
    return _horner(spec.ddf_coefficients, s, out)


def _trimmed(coef, keep: int = 0) -> list[float]:
    """The coefficients as floats less trailing zeros, at least ``keep`` left (0: trim_zeros, 1: trimseq)."""
    coef = [float(c) for c in coef]
    while len(coef) > keep and coef[-1] == 0.0:
        coef.pop()
    return coef


def _derivative(coef) -> tuple[float, ...]:
    """``npoly.polyder``'s steps: j * c[j], and c[0] * 0 for a constant."""
    return tuple(j * c for j, c in enumerate(coef[1:], 1)) or tuple(c * 0 for c in coef[:1])


def poly_add(a, b, sign: float = 1.0) -> tuple[float, ...]:
    """a + sign * b for sign +-1 in ``npoly.polyadd``'s and ``polysub``'s steps:
    the operands trimmed, the overlap summed, both tails kept, the sum trimmed."""
    a, b = _trimmed(a, 1), [sign * y for y in _trimmed(b, 1)]
    n = min(len(a), len(b))
    return tuple(_trimmed([x + y for x, y in zip(a, b)] + a[n:] + b[n:], 1))


def _real_roots(coef) -> list[float]:
    """Real roots: numpy's linear -c0/c1, else ``polyroots``' with |imag| <= 1e-9 (1 + |real|)."""
    coef = _trimmed(coef)
    if len(coef) <= 1:
        return []
    roots = [-coef[0] / coef[1]] if len(coef) == 2 else npoly.polyroots(coef).tolist()
    return [r.real + 0.0 for r in roots if abs(r.imag) <= 1e-9 * (1.0 + abs(r.real))]  # -0.0 -> 0.0


def poly_extrema_on_range(coef, s_range) -> tuple[float, float, float, float]:
    """(min, argmin, max, argmax) of a polynomial over [lo, hi], exact via
    the real critical points; ties go to the first of lo, hi, the roots."""
    lo, hi = float(s_range[0]), float(s_range[1])
    if not lo < hi:
        raise ValueError(f"empty range {s_range}")
    pts = [lo, hi, *(r for r in _real_roots(_derivative(coef)) if lo < r < hi)]
    vals = [_horner(coef, s) for s in pts]
    imin = min(range(len(pts)), key=vals.__getitem__)
    imax = max(range(len(pts)), key=vals.__getitem__)
    return vals[imin], pts[imin], vals[imax], pts[imax]


def poly_sup_global(coef) -> tuple[float, float]:
    """(sup, argsup) of a polynomial over all of R.

    Requires the polynomial to be bounded above (even degree with negative
    leading coefficient, or constant); raises otherwise.
    """
    coef = _trimmed(coef)
    if len(coef) <= 1:
        return (coef[0] if coef else 0.0), 0.0
    if len(coef) % 2 == 0 or coef[-1] >= 0:  # odd degree or a nonnegative lead
        raise ValueError("polynomial unbounded above on R")
    crit = _real_roots(_derivative(coef)) or [0.0]
    vals = [_horner(coef, s) for s in crit]
    i = max(range(len(crit)), key=vals.__getitem__)
    return vals[i], crit[i]


def stabilizer_bound(spec: PotentialSpec, s_range=(-2.0, 2.0)) -> float:
    """S_min = (1/2) max |F''| over the range; S >= S_min gives per-step
    energy decay of the stabilized scheme."""
    if spec.degree < 2:
        return 0.0
    mn, _, mx, _ = poly_extrema_on_range(spec.ddf_coefficients, s_range)
    return 0.5 * max(abs(mn), abs(mx))
