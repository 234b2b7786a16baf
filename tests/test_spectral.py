import numpy as np
import pytest

from conftest import (
    TWO_PI, advect, components, divergence, full_plane, gradient, inner, laplacian, leray, mean, norm_l2,
    random_field, random_vector, rdivergence, rel_err, seminorm_h1,
)
from nlchns.spectral import (
    Grid,
    GridMismatchError,
    ScalarField,
    VectorField,
    divergence_bound,
    flux_divergence,
    inverse_cols,
    inverse_rows,
    irfft2_cols,
    parseval,
    power,
    resample,
    rfft2_cols,
    rgradient,
    vector_from_values,
)


def fd_gradient(values: np.ndarray, h: float):
    gx = (np.roll(values, -1, axis=0) - np.roll(values, 1, axis=0)) / (2 * h)
    gy = (np.roll(values, -1, axis=1) - np.roll(values, 1, axis=1)) / (2 * h)
    return gx, gy


class TestGrid:
    def test_rejects_bad_sizes(self):
        for n in (7, 12, 4, 0):
            with pytest.raises(ValueError):
                Grid(n, 1.0)
        with pytest.raises(ValueError):
            Grid(16, -1.0)

    def test_measures(self):
        g = Grid(16, 2.0)
        assert g.cell_volume == (2.0 / 16) ** 2
        assert g.volume == 4.0

    def test_wavenumber_set(self):
        g = Grid(16, TWO_PI)
        assert sorted(g.modes) == list(range(-8, 8))
        # |k|^2 on the half plane: rows m_x in FFT order, columns m_y = 0 .. 8,
        # the unmatched Nyquist m = -8 zeroed on either axis
        assert g.half.k2.shape == (16, 9)
        m = np.fft.fftfreq(16, d=1.0 / 16)
        m[8] = 0.0
        np.testing.assert_allclose(g.half.k2, m[:, None] ** 2 + m[None, :9] ** 2, atol=1e-12)


class TestTransforms:
    def test_parseval(self, rng):
        g = Grid(32, 3.1)
        f = random_field(g, rng)
        f_hat = np.fft.rfft2(f.values)
        spectral = parseval(g.half.weight, power(f_hat))
        assert abs(spectral - norm_l2(f) ** 2) < 1e-12 * norm_l2(f) ** 2
        # |f^|^2, summed over fields, also on the first columns alone
        g_hat = np.fft.rfft2(random_field(g, rng).values)
        np.testing.assert_allclose(power(f_hat[:, :5], g_hat[:, :5]),
                                   np.abs(f_hat[:, :5]) ** 2 + np.abs(g_hat[:, :5]) ** 2, rtol=1e-14)

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_kept_column_transforms_bit_identical(self, rng, n):
        # the step's kept-column transforms against the full rfft2 / irfft2,
        # byte for byte: the helpers call numpy's private pocketfft gufuncs,
        # so a numpy whose gufuncs change fails here
        g = Grid(n, TWO_PI)
        c, nh = g.half.kept_cols, n // 2 + 1
        f = random_field(g, rng, band=n // 3).values
        assert rfft2_cols(f, c).tobytes() == np.fft.rfft2(f)[:, :c].tobytes()
        f_hat = np.fft.rfft2(f) * g.half.mask
        assert irfft2_cols(g, f_hat[:, :c]).tobytes() == np.fft.irfft2(f_hat).tobytes()
        # at the full width, on unmasked data, they are the plain transforms
        f = random_field(g, rng).values
        f_hat = np.fft.rfft2(f)
        assert rfft2_cols(f, nh).tobytes() == f_hat.tobytes()
        assert irfft2_cols(g, f_hat[:, :nh]).tobytes() == np.fft.irfft2(f_hat).tobytes()
        # in place, rows is out, as the solver takes F'(phi)^
        buf = np.full((n, nh), np.nan, dtype=complex)
        assert rfft2_cols(f, nh, out=buf, rows=buf) is buf
        assert buf.tobytes() == f_hat.tobytes()
        # fields stacked on a leading axis come out as if transformed alone,
        # and a tuple of fields as an array
        for band, width in ((n // 3, c), (None, nh)):
            fs = np.stack([random_field(g, rng, band=band).values for _ in range(3)])
            hats = np.ascontiguousarray(np.fft.rfft2(fs)[..., :width])
            assert np.stack([rfft2_cols(f, width) for f in fs]).tobytes() == hats.tobytes()
            assert rfft2_cols(fs, width).tobytes() == hats.tobytes()
            assert rfft2_cols(tuple(fs), width).tobytes() == hats.tobytes()
            want = np.stack([irfft2_cols(g, h) for h in hats])
            assert irfft2_cols(g, hats).tobytes() == want.tobytes()
            assert irfft2_cols(g, tuple(hats)).tobytes() == want.tobytes()
            assert want.tobytes() == np.fft.irfft2(hats, s=(n, n)).tobytes()

    def test_kept_column_transforms_write_their_buffers(self, rng):
        # each pass lands in the buffer given, in place when the column
        # pass's buffer is the input itself; numpy's irfft2 would leave
        # ``out`` unwritten
        g = Grid(64, TWO_PI)
        c, nh = g.half.kept_cols, g.n // 2 + 1
        fs = np.stack([random_field(g, rng, band=g.n // 3).values for _ in range(2)])
        rows, out = np.full((2, g.n, nh), np.nan, dtype=complex), np.full((2, g.n, c), np.nan, dtype=complex)
        assert rfft2_cols(fs, c, out=out, rows=rows) is out
        assert out.tobytes() == np.fft.rfft2(fs)[..., :c].tobytes()
        assert rows.tobytes() == np.fft.rfft(fs, axis=-1).tobytes()
        want = np.fft.irfft2(out, s=(g.n, g.n))
        samples = np.full((2, g.n, g.n), np.nan)
        assert irfft2_cols(g, out, out=samples, work=out) is samples
        assert samples.tobytes() == want.tobytes()
        grad = rgradient(g, np.fft.rfft2(fs[0]), out=samples, work=rows)
        assert grad is samples
        assert grad.tobytes() == np.stack([np.fft.irfft2(k * np.fft.rfft2(fs[0]))
                                           for k in (g.half.ikx, g.half.iky)]).tobytes()

    @pytest.mark.parametrize("n", [16, 128])
    def test_inverse_passes_apart_are_irfft2_cols(self, rng, n):
        # irfft2_cols is its column pass and then its row pass: run apart,
        # in place or into buffers of their own, on one field or a stack,
        # on the kept columns or all of them, they give its bits
        g = Grid(n, TWO_PI)
        for width in (g.half.kept_cols, n // 2 + 1):
            hats = np.ascontiguousarray(np.fft.rfft2(np.stack([random_field(g, rng).values for _ in range(2)]))
                                        [..., :width])
            want = irfft2_cols(g, hats)
            work = hats.copy()
            assert inverse_cols(g, work, out=work) is work
            samples = np.full((2, n, n), np.nan)
            assert inverse_rows(g, work, out=samples) is samples
            assert samples.tobytes() == want.tobytes()
            assert inverse_rows(g, inverse_cols(g, hats[1])).tobytes() == want[1].tobytes()

    def test_shape_mismatch_rejected(self):
        g = Grid(16, 1.0)
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((8, 8)))


class TestCalculus:
    def test_gradient_of_constant(self):
        g = Grid(16, TWO_PI)
        gf = gradient(ScalarField(g, np.full((16, 16), 3.0)))
        assert np.max(np.abs(gf.x.values)) < 1e-14
        assert np.max(np.abs(gf.y.values)) < 1e-14

    def test_gradient_single_mode(self):
        g = Grid(32, 5.0)
        xx, _ = g.mesh
        k = 2 * np.pi / g.l
        gf = gradient(ScalarField(g, np.sin(k * xx)))
        np.testing.assert_allclose(gf.x.values, k * np.cos(k * xx), atol=1e-12)
        assert np.max(np.abs(gf.y.values)) < 1e-12

    def test_gradient_components_integrate_to_zero(self, rng):
        g = Grid(32, TWO_PI)
        gf = gradient(random_field(g, rng))
        assert abs(mean(gf.x)) < 1e-13
        assert abs(mean(gf.y)) < 1e-13

    def test_matches_centered_differences(self):
        # fixed smooth function: FD error is O(h^2), quartering when n doubles
        errs = []
        for n in (32, 64):
            g = Grid(n, TWO_PI)
            xx, yy = g.mesh
            f = ScalarField(g, np.sin(3 * xx) * np.cos(2 * yy) + 0.5 * np.cos(4 * xx + yy))
            gx, gy = fd_gradient(f.values, g.spacing)
            sp = gradient(f)
            errs.append(
                max(np.max(np.abs(sp.x.values - gx)), np.max(np.abs(sp.y.values - gy)))
            )
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5  # O(h^2)

    def test_div_grad_equals_laplacian(self, rng):
        g = Grid(32, 2.2)
        f = random_field(g, rng)
        lhs = divergence(gradient(f))
        rhs = laplacian(f)
        assert rel_err(lhs.values, rhs.values) < 1e-12

    def test_laplacian_integrates_to_zero(self, rng):
        g = Grid(32, TWO_PI)
        assert abs(mean(laplacian(random_field(g, rng)))) < 1e-13

    def test_laplacian_single_mode(self):
        g = Grid(32, TWO_PI)
        xx, yy = g.mesh
        f = ScalarField(g, np.sin(xx) * np.cos(2 * yy))
        np.testing.assert_allclose(laplacian(f).values, -5.0 * f.values, atol=1e-11)


class TestLeray:
    def test_annihilates_gradients(self, rng):
        g = Grid(32, TWO_PI)
        f = random_field(g, rng)
        p = leray(gradient(f))
        scale = np.max(np.abs(gradient(f).x.values)) + 1e-30
        assert np.max(np.abs(p.x.values)) < 1e-12 * scale
        assert np.max(np.abs(p.y.values)) < 1e-12 * scale

    def test_fixes_solenoidal_fields(self, rng):
        g = Grid(32, TWO_PI)
        psi = random_field(g, rng)
        gpsi = gradient(psi)
        v = vector_from_values(g, -gpsi.y.values, gpsi.x.values)  # curl of psi
        pv = leray(v)
        assert rel_err(pv.x.values, v.x.values) < 1e-12
        assert rel_err(pv.y.values, v.y.values) < 1e-12

    def test_idempotent_and_self_adjoint(self, rng):
        g = Grid(32, TWO_PI)
        v = random_vector(g, rng)
        w = random_vector(g, rng)
        pv, pw = leray(v), leray(w)
        ppv = leray(pv)
        assert rel_err(ppv.x.values, pv.x.values) < 1e-13
        assert abs(inner(pv, w) - inner(v, pw)) < 1e-12 * (norm_l2(v) * norm_l2(w))

    def test_orthogonal_decomposition(self, rng):
        g = Grid(32, TWO_PI)
        v = random_vector(g, rng)
        pv = leray(v)
        rest = VectorField(
            ScalarField(g, v.x.values - pv.x.values),
            ScalarField(g, v.y.values - pv.y.values),
        )
        assert abs(norm_l2(v) ** 2 - norm_l2(pv) ** 2 - norm_l2(rest) ** 2) < 1e-11 * norm_l2(v) ** 2

    def test_divergence_scaled_bound(self, rng):
        g = Grid(64, TWO_PI)
        v = random_vector(g, rng)
        pv = leray(v)
        umax = np.max(np.abs([pv.x.values, pv.y.values]))
        assert np.max(np.abs(divergence(pv).values)) <= 1e-12 * umax * 2 * np.pi * g.n / g.l

    def test_mean_velocity_passes_through(self):
        g = Grid(16, TWO_PI)
        v = vector_from_values(g, np.full((16, 16), 0.7), np.full((16, 16), -0.3))
        pv = leray(v)
        assert rel_err(pv.x.values, v.x.values) < 1e-14
        assert rel_err(pv.y.values, v.y.values) < 1e-14


class TestInnerProducts:
    def test_constant_norm(self):
        g = Grid(16, 3.0)
        f = ScalarField(g, np.full((16, 16), 2.5))
        assert abs(norm_l2(f) ** 2 - 2.5**2 * g.volume) < 1e-12

    def test_mean_vs_inner_with_one(self, rng):
        g = Grid(32, 1.9)
        f = random_field(g, rng)
        one = ScalarField(g, np.ones((32, 32)))
        assert abs(mean(f) * g.volume - inner(f, one)) < 1e-12

    def test_grid_mismatch(self, rng):
        f = random_field(Grid(16, 1.0), rng)
        h = random_field(Grid(32, 1.0), rng)
        with pytest.raises(GridMismatchError):
            inner(f, h)

    def test_integration_by_parts(self, rng):
        g = Grid(32, TWO_PI)
        f = random_field(g, rng, band=10)
        v = random_vector(g, rng, band=10)
        lhs = inner(gradient(f), v)
        rhs = -inner(f, divergence(v))
        assert abs(lhs - rhs) < 1e-11 * (1 + abs(lhs))

    def test_seminorm_is_gradient_norm(self, rng):
        g = Grid(32, TWO_PI)
        f = random_field(g, rng)
        assert abs(seminorm_h1(f) - norm_l2(gradient(f))) < 1e-12


def dealias_field(f: ScalarField) -> ScalarField:
    """Dealiasing as run() applies it: the half-plane mask on rfft2 coefficients."""
    return ScalarField(f.grid, np.fft.irfft2(np.fft.rfft2(f.values) * f.grid.half.mask))


class TestDealias:
    def test_outer_shell_zeroed_and_idempotent(self):
        g = Grid(32, TWO_PI)
        mask = g.half.mask
        assert mask.shape == (32, 17)
        cut = g.n // 3
        for i, m1 in enumerate(g.modes):
            for j in range(17):  # m_y = j on the half plane
                assert mask[i, j] == (abs(m1) <= cut and j <= cut)
        D = np.ones((32, 17), dtype=complex) * mask
        np.testing.assert_array_equal(D * mask, D)

    def test_low_mode_field_unchanged(self, rng):
        g = Grid(32, TWO_PI)
        f = random_field(g, rng, band=g.n // 3 - 1)
        assert rel_err(dealias_field(f).values, f.values) < 1e-13

    def test_never_increases_energy(self, rng):
        g = Grid(32, TWO_PI)
        for _ in range(10):
            f = random_field(g, rng)
            assert norm_l2(dealias_field(f)) <= norm_l2(f) + 1e-14


def advection_form(u: VectorField, v: VectorField, w: VectorField) -> float:
    """b(u, v, w) = integral (u . grad) v . w by grid quadrature, with the
    transport operator of the solver's step, div(u v_i) on the kept columns
    (the same for solenoidal u, and w's modes are all kept)."""
    g = u.grid
    c = g.half.kept_cols
    return sum(
        inner(ScalarField(g, irfft2_cols(g, flux_divergence(u, vc.values, g.half.ik(c)))), wc)
        for vc, wc in zip(components(v), components(w))
    )


class TestAdvectionForm:
    def test_skew_symmetry(self, rng):
        g = Grid(64, TWO_PI)
        cut = g.n // 3
        u = random_vector(g, rng, band=cut, solenoidal=True)
        v = random_vector(g, rng, band=cut)
        w = random_vector(g, rng, band=cut)
        b1 = advection_form(u, v, w)
        b2 = advection_form(u, w, v)
        scale = abs(b1) + abs(b2) + 1e-30
        assert abs(b1 + b2) < 1e-10 * scale

    def test_self_advection_orthogonal(self, rng):
        g = Grid(64, TWO_PI)
        u = random_vector(g, rng, band=g.n // 3, solenoidal=True)
        scale = norm_l2(u) ** 2 * seminorm_h1(u) + 1e-30
        assert abs(advection_form(u, u, u)) < 1e-10 * scale

    def test_zero_mean(self, rng):
        # (div(u f), 1) = 0 for any u: the phase update's k = 0 row
        g = Grid(64, TWO_PI)
        u, f = random_vector(g, rng), random_field(g, rng)
        assert flux_divergence(u, f.values, g.half.ik(g.half.kept_cols))[0, 0] == 0.0

    def test_componentwise_definition(self, rng):
        g = Grid(16, TWO_PI)
        u = random_vector(g, rng)
        v = random_field(g, rng)
        h, nh = g.half, g.n // 2 + 1
        manual = (h.ikx * np.fft.rfft2(u.x.values * v.values)
                  + h.iky * np.fft.rfft2(u.y.values * v.values))
        np.testing.assert_allclose(flux_divergence(u, v.values, h.ik(nh)), manual, atol=1e-12)

    @pytest.mark.parametrize("solenoidal", [True, False])
    def test_product_rule(self, rng, solenoidal):
        # div(u f) = (u . grad) f + f div u, to round-off when the products
        # are resolved (band < n/4); the last term vanishes for solenoidal u
        g = Grid(32, TWO_PI)
        band, nh = g.n // 4 - 1, g.n // 2 + 1
        u = random_vector(g, rng, band=band, solenoidal=solenoidal)
        f = random_field(g, rng, band=band)
        got = irfft2_cols(g, flux_divergence(u, f.values, g.half.ik(nh)))
        want = advect(u, rgradient(g, np.fft.rfft2(f.values)))
        if not solenoidal:
            want = want + f.values * divergence(u).values
        assert rel_err(got, want) < 1e-13
        # into given buffers, bit for bit
        out, rows = np.empty((2, g.n, nh), complex), np.empty((2, g.n, nh), complex)
        into = flux_divergence(u, f.values, g.half.ik(nh), out=out, products=np.empty((2, g.n, g.n)), rows=rows)
        assert np.shares_memory(into, out)
        assert into.tobytes() == flux_divergence(u, f.values, g.half.ik(nh)).tobytes()

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("cut", [True, False])
    def test_divergence_bound_covers_the_samples(self, rng, n, cut):
        # the audit's coefficient bound is finite and at least the sampled
        # max |div v|, for full-spectrum fields of any scale, cut to the band
        # (the first kept_cols columns) or not
        def coefficient_bound(g, x_hat, y_hat):
            # in a work buffer, bit for bit the allocating sum
            c = x_hat.shape[1]
            ik, weight, work = g.half.ik(c), np.ascontiguousarray(g.half.weight[:, :c]), np.empty((2, n, c), complex)
            bound = divergence_bound(g, np.stack((x_hat, y_hat)), ik, weight, work)
            assert bound == float(np.vdot(weight, np.abs(ik[0] * x_hat + ik[1] * y_hat))) * g.n**2 / g.volume
            return bound

        g = Grid(n, TWO_PI)
        c, mask = (g.half.kept_cols, g.half.mask) if cut else (None, 1.0)
        for _ in range(25):
            v = random_vector(g, rng)
            scale = 10.0 ** rng.uniform(-12, 12)
            x_hat, y_hat = ((np.fft.rfft2(scale * f.values) * mask)[:, :c] for f in components(v))
            bound = coefficient_bound(g, x_hat, y_hat)
            assert np.isfinite(bound)
            assert bound >= np.max(np.abs(rdivergence(g, x_hat, y_hat)))
        # div of (cos(3x + 2y) + cos(3x), 0) has sup norm 6: the column m_y = 0
        # holds both modes (+-3, 0) of cos(3x), column 2 one of the two of
        # cos(3x + 2y), so it counts twice
        xx, yy = g.mesh
        x_hat = np.fft.rfft2(np.cos(3 * xx + 2 * yy) + np.cos(3 * xx))[:, :c]
        assert coefficient_bound(g, x_hat, np.zeros_like(x_hat)) == pytest.approx(6.0, rel=1e-12)

    def test_half_plane_divergence(self, rng):
        # against the full-plane fft2 divergence
        g = Grid(16, TWO_PI)
        v = random_vector(g, rng)
        kx, ky, _, _ = full_plane(g)
        want = np.fft.ifft2(1j * kx * np.fft.fft2(v.x.values) + 1j * ky * np.fft.fft2(v.y.values)).real
        got = rdivergence(g, np.fft.rfft2(v.x.values), np.fft.rfft2(v.y.values))
        np.testing.assert_allclose(got, want, atol=1e-12)


class TestResample:
    @staticmethod
    def coefficients(grid, rng, band=None):
        """rfft2 coefficients of a random field, its Nyquist lines zeroed."""
        f = np.fft.rfft2(random_field(grid, rng, band=band).values)
        f[grid.n // 2], f[:, -1] = 0.0, 0.0
        return f

    def test_band_limited_round_trip(self, rng):
        # refining zero-pads and coarsening truncates, each scaled by a power
        # of two: the round trip is exact, and the refined samples at the
        # coarse points are the coarse ones
        coarse, fine = Grid(16, TWO_PI), Grid(64, TWO_PI)
        f = self.coefficients(coarse, rng)
        up = resample(f, coarse, fine)
        assert up.shape == (64, 33)
        assert np.array_equal(resample(up, fine, coarse), f)
        assert rel_err(np.fft.irfft2(up)[::4, ::4], np.fft.irfft2(f)) < 1e-13

    def test_truncation_is_projection(self, rng):
        fine, coarse = Grid(64, TWO_PI), Grid(32, TWO_PI)
        down = resample(np.fft.rfft2(random_field(fine, rng).values), fine, coarse)
        assert np.array_equal(resample(resample(down, coarse, fine), fine, coarse), down)
        assert not down[16].any() and not down[:, -1].any()  # no unmatched Nyquist line

    def test_columns_and_stacked_fields(self, rng):
        # to the first columns given, of any width; on one grid every mode
        # both widths hold, the Nyquist lines too, and fields stacked on a
        # leading axis as if resampled alone
        g, fine = Grid(32, TWO_PI), Grid(64, TWO_PI)
        fs = np.stack([np.fft.rfft2(random_field(g, rng).values) for _ in range(3)])
        c = g.half.kept_cols
        assert resample(fs, g, g, c).tobytes() == np.ascontiguousarray(fs[..., :c]).tobytes()
        padded = resample(fs[..., :c], g, g)
        assert padded.shape == fs.shape and not padded[..., c:].any()
        assert np.array_equal(padded[..., :c], fs[..., :c])
        assert np.array_equal(resample(fs[..., :c], g, fine, 7), resample(fs, g, fine)[..., :7])
        for got, f in zip(resample(fs, g, fine), fs):
            assert got.tobytes() == resample(f, g, fine).tobytes()

    def test_requires_same_length(self, rng):
        g = Grid(16, 1.0)
        with pytest.raises(GridMismatchError):
            resample(np.fft.rfft2(random_field(g, rng).values), g, Grid(32, 2.0))
