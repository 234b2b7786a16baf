import numpy as np
import pytest
from scipy import integrate

from conftest import (
    TWO_PI, constant_field, convolve, gaussian_image_sum, inner, mean, norm_l2, random_field, rel_err, seminorm_h1,
)
from nlchns.kernels import (
    KernelBuildError,
    KernelSpec,
    build_kernel,
    interaction_energy,
)
from nlchns.spectral import (
    Grid,
    ScalarField,
    power,
)


@pytest.fixture(scope="module")
def gauss64():
    g = Grid(64, TWO_PI)
    return build_kernel(KernelSpec.gaussian(sigma=0.05 * TWO_PI, strength=6.0), g)


@pytest.fixture(scope="module")
def wide16():
    g = Grid(16, TWO_PI)
    return build_kernel(KernelSpec.gaussian(sigma=0.15 * TWO_PI, strength=2.0), g)


class TestBuild:
    def test_gaussian_mass_equals_strength(self, gauss64):
        # wrapping conserves the full-plane mass exactly; quadrature of the
        # smooth periodic samples is spectrally accurate
        assert abs(gauss64.a - 6.0) < 1e-10

    def test_gaussian_grad_norm_quadrature_oracle(self):
        # free-space analytic value: strength * sqrt(pi/2) / sigma, itself
        # cross-checked by radial quadrature; grid value converges at O(h^2)
        sigma, strength = 0.05 * TWO_PI, 6.0
        radial, _ = integrate.quad(
            lambda r: (r / sigma**2)
            * (strength / (2 * np.pi * sigma**2))
            * np.exp(-(r**2) / (2 * sigma**2))
            * 2
            * np.pi
            * r,
            0.0,
            12 * sigma,
        )
        assert abs(radial - strength * np.sqrt(np.pi / 2) / sigma) < 1e-10
        errs = []
        for n in (64, 128):
            k = build_kernel(KernelSpec.gaussian(sigma, strength), Grid(n, TWO_PI))
            errs.append(abs(k.grad_norm_l1 - radial))
        assert errs[0] / radial < 2e-3
        assert errs[0] > 3.0 * errs[1]  # quadrature converging to the oracle

    @pytest.mark.parametrize("n", [16, 64, 256])
    @pytest.mark.parametrize("divisor", [6.0, 8.0, 20.0])
    def test_gaussian_matches_image_sum_oracle(self, n, divisor):
        # the product of 1-D image sums is the 2-D image sum, to round-off;
        # divisor 6 is the widest admissible sigma, where wrapping matters most
        g = Grid(n, TWO_PI)
        sigma = g.l / divisor
        k = build_kernel(KernelSpec.gaussian(sigma, 6.0), g)
        val, gmag = gaussian_image_sum(g, sigma, 6.0)
        w = g.cell_volume
        assert rel_err(k.samples.values, val) < 1e-14
        assert rel_err(k.multiplier, np.fft.rfft2(val).real * w) < 1e-14
        for got, want in ((k.a, np.sum(val) * w), (k.norm_l1, np.sum(np.abs(val)) * w),
                          (k.grad_norm_l1, np.sum(gmag) * w)):
            assert abs(got - want) < 1e-14 * want

    def test_mollifier_mass_quadrature_oracle(self):
        radius, strength = 1.0, 3.0
        mass, _ = integrate.quad(
            lambda r: strength * np.exp(-1.0 / (1.0 - (r / radius) ** 2)) * 2 * np.pi * r,
            0.0,
            radius,
        )
        k = build_kernel(KernelSpec.mollifier(radius, strength), Grid(128, TWO_PI))
        assert abs(k.a - mass) < 1e-6 * mass

    def test_mollifier_grad_norm_quadrature_oracle(self):
        radius, strength = 1.0, 3.0

        def dj(r):
            t = (r / radius) ** 2
            return strength * np.exp(-1.0 / (1.0 - t)) * 2 * r / radius**2 / (1 - t) ** 2

        grad_l1, _ = integrate.quad(lambda r: dj(r) * 2 * np.pi * r, 0.0, radius)
        k = build_kernel(KernelSpec.mollifier(radius, strength), Grid(128, TWO_PI))
        assert abs(k.grad_norm_l1 - grad_l1) < 5e-4 * grad_l1

    def test_spectral_constant_kernel(self):
        g = Grid(16, TWO_PI)
        k = build_kernel(KernelSpec.spectral({(0, 0): 2.5}), g)
        assert abs(k.a - 2.5) < 1e-12
        assert k.grad_norm_l1 == 0.0
        np.testing.assert_allclose(k.samples.values, 2.5 / g.volume, atol=1e-14)

    def test_symbol_real_even_and_zero_mode_is_a(self, gauss64):
        c = gauss64.multiplier
        n = gauss64.grid.n
        assert c.shape == (n, n // 2 + 1) and c.dtype == float
        # J^(-m) = J^(m): on the column m_y = 0 the rows m_x and -m_x agree
        col = c[:, 0]
        assert np.max(np.abs(col - np.roll(col[::-1], 1))) < 1e-13 * np.max(np.abs(c))
        assert abs(c[0, 0] - gauss64.a) < 1e-12

    def test_a_le_l1_with_equality_for_nonnegative(self, gauss64):
        a, l1, a_star = gauss64.a, gauss64.norm_l1, gauss64.a_star
        assert a <= l1 + 1e-12
        assert abs(a - l1) < 1e-12
        assert a_star == a

    def test_errors(self):
        g = Grid(32, TWO_PI)
        with pytest.raises(KernelBuildError):
            build_kernel(KernelSpec.gaussian(-0.1, 1.0), g)
        with pytest.raises(KernelBuildError):
            build_kernel(KernelSpec.gaussian(0.2 * TWO_PI, 1.0), g)  # > l/6
        with pytest.raises(KernelBuildError):
            build_kernel(KernelSpec.mollifier(0.6 * TWO_PI, 1.0), g)  # > l/2
        with pytest.raises(KernelBuildError):
            build_kernel(KernelSpec.spectral({(0, 0): 1.0, (1, 0): 5.0}), g)  # J < 0
        with pytest.raises(KernelBuildError):
            build_kernel(KernelSpec(family="triangle"), g)


class TestConvolve:
    def test_constant_field_gives_a(self, gauss64):
        out = convolve(gauss64, constant_field(gauss64.grid, 1.0))
        np.testing.assert_allclose(out.values, gauss64.a, atol=1e-12)

    def test_single_mode_multiplier(self, gauss64):
        g = gauss64.grid
        xx, yy = g.mesh
        f = ScalarField(g, np.cos(2 * np.pi * (2 * xx + yy) / g.l))
        out = convolve(gauss64, f)
        # quadrature oracle for the symbol at that mode
        kdotx = 2 * np.pi * (2 * xx + yy) / g.l
        jhat = float(np.sum(gauss64.samples.values * np.cos(kdotx)) * g.cell_volume)
        assert rel_err(out.values, jhat * f.values) < 1e-11

    def test_linearity_and_translation(self, gauss64, rng):
        g = gauss64.grid
        f1, f2 = random_field(g, rng), random_field(g, rng)
        lhs = convolve(gauss64, ScalarField(g, 2.0 * f1.values - 0.5 * f2.values))
        rhs = 2.0 * convolve(gauss64, f1).values - 0.5 * convolve(gauss64, f2).values
        assert rel_err(lhs.values, rhs) < 1e-12
        shifted = ScalarField(g, np.roll(f1.values, (3, -5), axis=(0, 1)))
        out_shifted = convolve(gauss64, shifted)
        shifted_out = np.roll(convolve(gauss64, f1).values, (3, -5), axis=(0, 1))
        assert rel_err(out_shifted.values, shifted_out) < 1e-12

    def test_mean_scaling(self, gauss64, rng):
        f = random_field(gauss64.grid, rng)
        assert abs(mean(convolve(gauss64, f)) - gauss64.a * mean(f)) < 1e-12

    def test_self_adjoint(self, gauss64, rng):
        g = gauss64.grid
        f, h = random_field(g, rng), random_field(g, rng)
        lhs = inner(convolve(gauss64, f), h)
        rhs = inner(f, convolve(gauss64, h))
        assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))

    def test_young_bounds(self, gauss64, rng):
        for _ in range(20):
            f = random_field(gauss64.grid, rng)
            assert norm_l2(convolve(gauss64, f)) <= gauss64.norm_l1 * norm_l2(f) * (1 + 1e-12)
            assert seminorm_h1(convolve(gauss64, f)) <= gauss64.grad_norm_l1 * norm_l2(f) * (1 + 1e-12)

    def test_grid_mismatch(self, gauss64, rng):
        with pytest.raises(ValueError):
            convolve(gauss64, random_field(Grid(32, TWO_PI), rng))


class TestInteractionEnergy:
    def test_constant_is_zero(self, wide16):
        f = constant_field(wide16.grid, 1.7)
        assert abs(interaction_energy(wide16, power(np.fft.rfft2(f.values)))) < 1e-12

    def test_single_mode_value(self, wide16):
        g = wide16.grid
        xx, _ = g.mesh
        f = ScalarField(g, np.cos(2 * np.pi * xx / g.l))
        jhat = float(np.sum(wide16.samples.values * np.cos(2 * np.pi * xx / g.l)) * g.cell_volume)
        expected = 0.5 * (wide16.a - jhat) * norm_l2(f) ** 2
        got = interaction_energy(wide16, power(np.fft.rfft2(f.values)))
        assert abs(got - expected) < 1e-10 * (1 + abs(expected))

    def test_double_sum_oracle(self, wide16, rng):
        g = wide16.grid
        n, w = g.n, g.cell_volume
        J = wide16.samples.values
        for _ in range(3):
            f = random_field(g, rng)
            v = f.values
            acc = 0.0
            for i in range(n):
                for j in range(n):
                    diff = v[i, j] - v
                    acc += np.sum(J[(i - np.arange(n))[:, None] % n, (j - np.arange(n))[None, :] % n] * diff**2)
            direct = 0.25 * acc * w * w
            got = interaction_energy(wide16, power(np.fft.rfft2(f.values)))
            assert abs(got - direct) < 1e-9 * (1 + abs(direct))

    def test_nonnegative_on_random_fields(self, wide16, rng):
        worst = np.inf
        for _ in range(1000):
            f = random_field(wide16.grid, rng)
            worst = min(worst, interaction_energy(wide16, power(np.fft.rfft2(f.values))))
        assert worst > -1e-10
