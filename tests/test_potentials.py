import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import bits, ref_eval, ref_poly_extrema_on_range, ref_poly_sup_global
from nlchns.hypotheses import estimate_c0
from nlchns.potentials import (
    PotentialSpec,
    _horner,
    eval_ddf,
    eval_df,
    eval_f,
    poly_add,
    poly_extrema_on_range,
    poly_sup_global,
    stabilizer_bound,
)

DW = PotentialSpec.double_well()

finite_s = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


class TestEvaluation:
    def test_double_well_values(self):
        # (1 - s^2)^2: zero wells at +-1 with zero slope, curvature -4 at 0
        assert eval_f(DW, 1.0) == 0.0
        assert eval_f(DW, -1.0) == 0.0
        assert eval_df(DW, 1.0) == 0.0
        assert eval_df(DW, -1.0) == 0.0
        assert eval_df(DW, 0.0) == 0.0
        assert eval_ddf(DW, 0.0) == -4.0

    def test_broadcasts_over_arrays(self):
        s = np.linspace(-2, 2, 41)
        np.testing.assert_allclose(eval_f(DW, s), (1 - s**2) ** 2, atol=1e-12)
        np.testing.assert_allclose(eval_df(DW, s), 4 * s**3 - 4 * s, atol=1e-12)
        np.testing.assert_allclose(eval_ddf(DW, s), 12 * s**2 - 4, atol=1e-12)

    def test_derivatives_derived_once_and_exactly(self):
        spec = PotentialSpec.polynomial((0.3, -1.0, 0.5, 2.0, 1.5))
        assert spec.df_coefficients is spec.df_coefficients
        assert spec == PotentialSpec.polynomial((0.3, -1.0, 0.5, 2.0, 1.5))
        s = np.linspace(-2, 2, 41)
        fresh_df = npoly.polyval(s, npoly.polyder(spec.coefficients))
        fresh_ddf = npoly.polyval(s, npoly.polyder(spec.coefficients, 2))
        assert eval_df(spec, s).tobytes() == fresh_df.tobytes()
        assert eval_ddf(spec, s).tobytes() == fresh_ddf.tobytes()

    def test_in_place_horner_is_polyval_bit_for_bit(self):
        # the step evaluates F' into a workspace plane; polyval is the reference
        spec = PotentialSpec.polynomial((0.3, -1.0, 0.5, 2.0, 1.5, 0.0, 0.25))
        s = np.random.default_rng(3).standard_normal((16, 16)) * 2.0
        s[0, :4] = (-0.0, np.inf, -np.inf, np.nan)
        for fn, coef in ((eval_f, spec.coefficients), (eval_df, spec.df_coefficients),
                         (eval_ddf, spec.ddf_coefficients)):
            out = np.empty_like(s)
            with np.errstate(invalid="ignore"):
                want = npoly.polyval(s, coef)
                assert fn(spec, s, out=out) is out
                assert out.tobytes() == want.tobytes() == fn(spec, s).tobytes()
            for x in (-1.5, 0.0, 2):
                assert fn(spec, x) == npoly.polyval(x, coef)
                assert np.ndim(fn(spec, x)) == 0

    @settings(derandomize=True, max_examples=2000, deadline=None, database=None)
    @given(coef=st.lists(st.sampled_from([0.0, -0.0, 1.0, -2.0, 0.5, 3.0, -1e-300, 1e-200, 1e300]),
                         min_size=1, max_size=9))
    def test_skipped_zero_adds_keep_polyval_bits(self, coef):
        # the array path skips the add of a zero that a nonzero follows, the
        # scalar path does not: with a signed zero, an underflow, an
        # overflow or a nan both give polyval's bits
        s = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-320, -1e-320, 1e308, -1e308, 0.7, -1.3, 2.0])
        with np.errstate(all="ignore"):
            want = npoly.polyval(s, coef).tobytes()
            assert _horner(tuple(coef), s).tobytes() == want
            assert bits([_horner(tuple(coef), x) for x in s.tolist()]) == want

    @settings(max_examples=50, deadline=None)
    @given(s=finite_s)
    def test_derivative_matches_finite_differences(self, s):
        h = 1e-6
        fd = (eval_f(DW, s + h) - eval_f(DW, s - h)) / (2 * h)
        assert abs(eval_df(DW, s) - fd) < 5e-7 * (1 + abs(fd))

    def test_rejects_odd_degree_and_negative_leading(self):
        with pytest.raises(ValueError):
            PotentialSpec((0.0, 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            PotentialSpec((0.0, 0.0, -1.0))
        with pytest.raises(ValueError):
            PotentialSpec.quartic(-1.0)

    def test_shifted_vanishes_at_zero(self):
        sh = DW.shifted(0.3)
        assert abs(eval_f(sh, 0.0)) < 1e-14
        s = np.linspace(-2, 2, 21)
        np.testing.assert_allclose(eval_f(sh, s), eval_f(DW, s + 0.3) - eval_f(DW, 0.3), atol=1e-12)


class TestPolyUtils:
    def test_extrema_on_range(self):
        mn, smn, mx, smx = poly_extrema_on_range((0.0, 0.0, 1.0), (-2.0, 3.0))
        assert mn == 0.0 and smn == 0.0
        assert mx == 9.0 and smx == 3.0

    def test_sup_global(self):
        # -(s^2 - 1)^2 has sup 0 at +-1
        sup, arg = poly_sup_global((-1.0, 0.0, 2.0, 0.0, -1.0))
        assert abs(sup) < 1e-12 and abs(abs(arg) - 1.0) < 1e-9
        with pytest.raises(ValueError):
            poly_sup_global((0.0, 1.0))


def random_coefficients(rng, deg: int) -> np.ndarray:
    """deg + 1 normal coefficients of a random scale, about a fifth of them zero."""
    coef = rng.standard_normal(deg + 1) * 10.0 ** float(rng.integers(-2, 3))
    coef[rng.random(deg + 1) < 0.2] = 0.0
    return coef


class TestPythonFloatBits:
    """Scalars and the polynomial algebra run in Python floats; numpy's
    ``polyval``, ``polyder``, ``polyadd``/``polysub`` and the numpy forms in
    conftest give the bits they must keep."""

    def test_scalar_horner_is_polyval(self):
        rng = np.random.default_rng(25)
        for trial in range(10_000):
            deg = int(rng.integers(0, 9))
            coef = random_coefficients(rng, deg)
            special = (0.0, -0.0, 2, -1.0, np.inf, -np.inf, np.nan)
            s = special[trial] if trial < len(special) else float(rng.standard_normal() * 3.0)
            got = _horner(tuple(coef.tolist()), s)
            with np.errstate(invalid="ignore"):
                want = npoly.polyval(s, coef)
            assert type(got) is float and bits(got) == bits(want)
            assert got == want or np.isnan(want)
            if deg % 2 == 0:
                coef[-1] = abs(coef[-1]) + 0.1
                spec = PotentialSpec(tuple(coef))
                for order, fn in enumerate((eval_f, eval_df, eval_ddf)):
                    with np.errstate(invalid="ignore"):
                        assert bits(fn(spec, s)) == bits(ref_eval(spec, s, order))

    def test_derivatives_are_polyder(self):
        rng = np.random.default_rng(26)
        for deg in (0, 0, 2, 2, 4, 4, 6, 8) * 20:
            coef = random_coefficients(rng, deg)
            coef[-1] = abs(coef[-1]) + 0.1
            if deg == 0:
                coef[0] = -coef[0]  # F' of a negative constant is -0.0
            spec = PotentialSpec(tuple(coef))
            assert bits(spec.df_coefficients) == bits(npoly.polyder(spec.coefficients))
            assert bits(spec.ddf_coefficients) == bits(npoly.polyder(spec.coefficients, 2))

    def test_sums_are_polyadd_and_polysub(self):
        rng = np.random.default_rng(27)
        for _ in range(2000):
            a, b = (random_coefficients(rng, int(rng.integers(0, 9))) for _ in range(2))
            a[rng.random(a.size) < 0.1] = -0.0
            assert bits(poly_add(a.tolist(), tuple(b))) == bits(npoly.polyadd(a, b))
            assert bits(poly_add(tuple(a), b.tolist(), -1.0)) == bits(npoly.polysub(a, b))

    def test_extrema_are_the_numpy_forms(self):
        rng = np.random.default_rng(28)
        for _ in range(2000):
            coef = random_coefficients(rng, 2 * int(rng.integers(0, 5)))
            lo = float(rng.uniform(-3.0, 1.0))
            s_range = (lo, lo + float(rng.uniform(0.1, 4.0)))
            assert bits(poly_extrema_on_range(tuple(coef), s_range)) == \
                bits(ref_poly_extrema_on_range(tuple(coef), s_range))
            coef[-1] = -abs(coef[-1]) - 0.1  # bounded above
            assert bits(poly_sup_global(tuple(coef))) == bits(ref_poly_sup_global(tuple(coef)))


class TestConvexSplit:
    """F = G - (a*/2) s^2 with G' = F' + a* s strongly monotone: h2's c0 as
    ``hypotheses.estimate_c0`` computes it."""

    def test_strictness_threshold(self):
        # F'' + a* = 12 s^2 - 4 + a*: a* = 4 touches zero, 4.5 leaves 0.5
        c0, w = estimate_c0(DW, 4.0)
        assert c0 == 0.0 and w.s == 0.0
        assert abs(estimate_c0(DW, 4.5)[0] - 0.5) < 1e-12
        assert abs(estimate_c0(DW, 6.0, (-2.0, 2.0))[0] - 2.0) < 1e-12

    def test_g_vanishes_at_zero_and_is_coercively_monotone(self):
        a_star = 6.0
        c0, _ = estimate_c0(DW, a_star)
        g = lambda s: eval_df(DW, s) + a_star * s
        assert g(0.0) == 0.0
        s = np.linspace(-2, 2, 501)
        t = s[::-1]
        lhs = (g(s) - g(t)) * (s - t)
        assert np.all(lhs >= c0 * (s - t) ** 2 - 1e-10)

    @settings(max_examples=30, deadline=None)
    @given(s=finite_s, t=finite_s)
    def test_monotonicity_property(self, s, t):
        a_star = 6.0
        c0, _ = estimate_c0(DW, a_star, (-3.0, 3.0))
        gap = (eval_df(DW, s) + a_star * s - eval_df(DW, t) - a_star * t) * (s - t)
        assert gap >= c0 * (s - t) ** 2 - 1e-9 * (1 + abs(gap))


class TestStabilizerBound:
    def test_double_well_ranges(self):
        assert stabilizer_bound(DW, (-1.5, 1.5)) == pytest.approx(11.5, abs=1e-12)
        assert stabilizer_bound(DW, (-1.0, 1.0)) == pytest.approx(4.0, abs=1e-12)

    def test_constant_potential(self):
        assert stabilizer_bound(PotentialSpec((3.0,)), (-2.0, 2.0)) == 0.0

    def test_oracle_dense_scan(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            coeffs = np.r_[rng.standard_normal(4), abs(rng.standard_normal()) + 0.1]
            spec = PotentialSpec(tuple(coeffs))
            s = np.linspace(-1.7, 1.3, 200001)
            oracle = 0.5 * np.max(np.abs(eval_ddf(spec, s)))
            got = stabilizer_bound(spec, (-1.7, 1.3))
            assert abs(got - oracle) < 1e-7 * (1 + oracle)
