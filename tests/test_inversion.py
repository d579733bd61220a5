import dataclasses

import numpy as np
import pytest

import uradon as ur
import uradon.forward as fwd
import uradon.inversion as inv
from uradon.forward import direction
from uradon.grids import _fold_plan, _linear_index
from conftest import (analytic_sinogram, backproject, correlate, differentiate, rel_l2, same_bits,
                      traced_peak)

SQRT_2PI = 2.5066282746310002


def make_sino(scene, geom, d_tau, angles):
    return analytic_sinogram(scene, ur.TauGrid.covering(geom, d_tau), angles)


def direct_backproject(columns_seq, sino, geom):
    """The angle loop over every stored angle, without the pi fold."""
    X, Y = geom.node_mesh()
    accs = [np.zeros((geom.nx, geom.ny), dtype=complex) for _ in columns_seq]
    out_of_range = np.zeros((geom.nx, geom.ny), dtype=bool)
    for m, phi in enumerate(sino.angles.phis()):
        c, s = direction(phi)
        f = (c * X + s * Y - sino.tau_min) / sino.d_tau
        i0, w = _linear_index(f, sino.n_tau)
        for acc, columns in zip(accs, columns_seq):
            col = np.pad(columns[:, m], 1)
            acc += (1.0 - w) * col[i0] + w * col[i0 + 1]
        out_of_range |= (f < 0.0) | (f > sino.n_tau - 1)
    for acc in accs:
        acc *= sino.angles.d_phi * ur.ANGULAR_MEASURE_NORM
    return accs, out_of_range


def brute_force_correlation(values, kernel):
    n, m_half = values.shape[0], (len(kernel) - 1) // 2
    want = np.zeros_like(values)
    for t in range(n):
        for j in range(-m_half, m_half + 1):
            if 0 <= t + j < n:
                want[t] += kernel[j + m_half] * values[t + j]
    return want


def out_of_place_correlation(values, kernel, p):
    m_half = (len(kernel) - 1) // 2
    spec = np.fft.fft(values, n=p, axis=0) * np.fft.fft(kernel[::-1], n=p)[:, None]
    return np.fft.ifft(spec, axis=0)[m_half:m_half + values.shape[0]]


class TestDeltaPlus:
    def test_pole_at_zero(self):
        eps = 0.37
        assert ur.delta_plus(0.0, eps) == pytest.approx(1j / eps, abs=1e-15)

    def test_value_at_eta_equals_epsilon(self):
        eps = 0.5
        assert ur.delta_plus(eps, eps) == pytest.approx((1.0 + 1.0j) / (2.0 * eps), abs=1e-15)

    def test_imaginary_part_integrates_to_pi(self):
        # Im delta_plus = eps/(eta^2 + eps^2); its window integral is
        # 2*arctan(A/eps), which tends to pi
        eps = 0.01
        window = 1e4 * eps
        eta = np.linspace(-window, window, 2_000_001)
        got = np.trapezoid(ur.delta_plus(eta, eps).imag, eta)
        assert got == pytest.approx(2.0 * np.arctan(window / eps), abs=1e-6)
        assert got == pytest.approx(np.pi, abs=1e-3)

    def test_epsilon_validation(self):
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                ur.delta_plus(0.0, bad)


class TestLambdaKernel:
    def test_infinite_cutoff_limit(self):
        # integral_0^inf lam exp(-i lam (eta - i eps)) dlam = -1/(eta - i eps)^2
        eps = 0.05
        eta = np.array([-1.2, -0.3, 0.0, 0.4, 2.0])
        got = ur.lambda_kernel(eta, eps, lambda_max=2000.0)
        want = -1.0 / (eta - 1j * eps) ** 2
        assert np.max(np.abs(got - want) / np.abs(want)) < 1e-10

    def test_matches_quadrature_at_finite_cutoff(self):
        eps, lmax = 0.2, 7.0
        lam = np.linspace(0.0, lmax, 200_001)
        for eta in (-0.8, 0.0, 1.3):
            want = np.trapezoid(lam * np.exp(-1j * lam * (eta - 1j * eps)), lam)
            assert abs(ur.lambda_kernel(eta, eps, lmax) - want) < 1e-8

    def test_epsilon_validation(self):
        for bad in (-1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="epsilon"):
                ur.lambda_kernel(0.0, bad, 10.0)
            with pytest.raises(ValueError, match="lambda_max"):
                ur.lambda_kernel(0.0, 0.1, bad)


class TestColumnFilters:
    def test_correlation_matches_brute_force(self, rng):
        # (n, M): M below, at and above n - 1, and n + M exactly a power of
        # two, where the wrap-free FFT length leaves no spare row
        for n, m_half in ((9, 5), (9, 8), (9, 13), (11, 5), (17, 15)):
            values = rng.normal(size=(n, 3)) + 1j * rng.normal(size=(n, 3))
            kernel = rng.normal(size=2 * m_half + 1) + 1j * rng.normal(size=2 * m_half + 1)
            got = correlate(values, kernel)
            assert np.max(np.abs(got - brute_force_correlation(values, kernel))) < 1e-12

    def test_in_place_spectra_match_the_out_of_place_products(self, rng):
        # FFT lengths are the wrap-free ones: next power of two >= n + M
        tg = ur.TauGrid(-1.3, 0.1, 27)
        values = rng.normal(size=(27, 5)) + 1j * rng.normal(size=(27, 5))
        sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, ur.AngularRange.full(5), values)
        j = np.arange(-26, 27)
        ramp = np.zeros(j.size)
        ramp[j % 2 == 1] = -2.0 / (np.pi * 0.1 * j[j % 2 == 1] ** 2)
        ramp[26] = np.pi / (2.0 * 0.1)
        assert np.array_equal(correlate(sino.values, inv._ramp_kernel(sino.n_tau, sino.d_tau)),
                              out_of_place_correlation(values, ramp, 64))
        kernel = rng.normal(size=11) + 1j * rng.normal(size=11)
        assert np.array_equal(correlate(values, kernel),
                              out_of_place_correlation(values, kernel, 32))

    def test_ramp_kernel_has_no_dc_bias(self):
        # 256^2 / 360-angle analytic round trip of a unit Gaussian: the padded
        # spectral |lambda| read -8.07e-4 x peak beyond r = 3.5 sigma and
        # rmse/peak 8.06e-4; the band-limited kernel removes that offset
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.0, 0.0, 1.0, 1.0))
        geom = ur.GridGeometry.centered(256, 256, 8.0, 8.0)
        img = ur.rasterize(scene, geom)
        sino = make_sino(scene, geom, geom.dx, ur.AngularRange.full(360))
        recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau))
        diff = recon.f_total.values - img.values
        X, Y = geom.node_mesh()
        peak = np.max(np.abs(img.values))
        assert abs(np.mean(diff[np.hypot(X, Y) > 3.5])) <= 1e-5 * peak
        assert ur.reconstruction_metrics(recon, img)["rmse_over_peak"] <= 5e-5

    def test_ramp_matches_finite_part_on_the_backend_scene(self):
        # the scene and sizes of acceptance criterion 5, gated there at 1e-2
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, -0.3, 1.5, 1.0))
        geom = ur.GridGeometry.centered(128, 128, 12.0, 12.0)
        sino = make_sino(scene, geom, 0.01, ur.AngularRange.full(360))
        ramp, fp = (ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau, backend))
                    for backend in (ur.Backend.RAMP_FILTER, ur.Backend.FP_QUADRATURE))
        assert rel_l2(ramp.f_total.values, fp.f_total.values) <= 1e-6

    def test_finite_part_of_gaussian_column(self):
        # FP integral exp(-eta^2/2)/eta^2 deta = -sqrt(2 pi), frozen from
        # independent subtraction quadrature
        d_tau = 0.01
        tg = ur.TauGrid.symmetric(d_tau, 2 * int(np.ceil(12.0 / d_tau)) + 1)
        col = np.exp(-tg.taus() ** 2 / 2.0)
        sino = ur.Sinogram(tg.tau_min, d_tau, tg.n_tau, ur.AngularRange.full(1), col[:, None])
        got = correlate(sino.values, inv._fp_kernel(sino.n_tau, d_tau))[:, 0]
        center = np.argmin(np.abs(tg.taus()))
        assert got[center].real == pytest.approx(-SQRT_2PI, abs=1e-3)

    def test_finite_part_vs_independent_quadrature(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.3, 0.0, 1.5, 1.0))
        d_tau = 0.01
        tg = ur.TauGrid.symmetric(d_tau, 2 * int(np.ceil(12.0 / d_tau)) + 1)
        taus = tg.taus()
        col = ur.analytic_radon(scene, taus, 0.0)
        sino = ur.Sinogram(tg.tau_min, d_tau, tg.n_tau, ur.AngularRange.full(1), col[:, None])
        filtered = correlate(sino.values, inv._fp_kernel(sino.n_tau, d_tau))[:, 0]

        def oracle(s, window=30.0, step=1e-4):
            n = int(window / step)
            eta = (np.arange(-n, n) + 0.5) * step      # midpoints, no zero node
            g = ur.analytic_radon(scene, s + eta, 0.0)
            g0 = ur.analytic_radon(scene, s, 0.0)
            h = 1e-5
            g1 = (ur.analytic_radon(scene, s + h, 0.0)
                  - ur.analytic_radon(scene, s - h, 0.0)) / (2 * h)
            psi = (g - g0 - eta * g1) / eta**2
            return step * np.sum(psi) - 2.0 * g0 / (n * step)

        for s in (0.0, 0.3, 1.0, 2.5):
            t = int(np.argmin(np.abs(taus - s)))
            assert abs(filtered[t] - oracle(taus[t])) < 1e-6 * abs(oracle(taus[t]))

    def test_distributional_identity_on_columns(self):
        # closed-form kernel convolution == -(finite part) - i pi (derivative)
        # on a symmetric grid, for small eps and large cutoff
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.3, 0.0, 1.5, 1.0))
        d_tau = 0.0025
        eps = 4.0 * d_tau
        tg = ur.TauGrid.symmetric(d_tau, 2 * int(np.ceil(12.0 / d_tau)) + 1)
        col = ur.analytic_radon(scene, tg.taus(), 0.0)
        sino = ur.Sinogram(tg.tau_min, d_tau, tg.n_tau, ur.AngularRange.full(1), col[:, None])
        kcol = correlate(sino.values, inv._lambda_correlation_kernel(
            sino.n_tau, d_tau, eps, 40.0 / eps))[:, 0]
        combo = (-correlate(sino.values, inv._fp_kernel(sino.n_tau, d_tau))[:, 0]
                 - 1j * np.pi * differentiate(sino.values, d_tau, d_tau)[:, 0])
        assert np.max(np.abs(kcol - combo)) / np.max(np.abs(combo)) <= 1e-2

    def test_tau_derivative_fractional_step_on_linear_columns(self):
        # h = 1.5 d_tau reads between nodes; linear interpolation is exact on
        # a linear column; half a step past either end it reads half the end
        # value, and from one step past it zero
        tg = ur.TauGrid(-1.3, 0.1, 27)
        slopes = np.array([2.0 - 1.0j, -0.5])
        col = (0.7 + 0.2j) + tg.taus()[:, None] * slopes[None, :]
        sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, ur.AngularRange.full(2), col)
        h = 1.5 * tg.d_tau
        got = differentiate(sino.values, sino.d_tau, h)
        np.testing.assert_allclose(got[2:-2], np.broadcast_to(slopes, got[2:-2].shape),
                                   rtol=0, atol=1e-12)
        taus = tg.taus()
        g = lambda tau: (0.7 + 0.2j) + tau * slopes
        ends = {0: (g(taus[0] + h), 0.0), 1: (g(taus[1] + h), 0.5 * g(taus[0])),
                -2: (0.5 * g(taus[-1]), g(taus[-2] - h)), -1: (0.0, g(taus[-1] - h))}
        for t, (plus, minus) in ends.items():
            np.testing.assert_allclose(got[t], (plus - minus) / (2 * h), rtol=1e-12)

    @pytest.mark.parametrize("steps", [1.0, 1.5, 2.37])
    def test_tau_derivative_matches_the_stacked_formula(self, rng, steps):
        # the two shifted sides built in place equal one (2, n_tau, n_phi)
        # temporary holding both, bit for bit
        tg = ur.TauGrid(-1.3, 0.1, 27)
        values = rng.normal(size=(27, 6)) + 1j * rng.normal(size=(27, 6))
        sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, ur.AngularRange.full(6), values)
        h = steps * tg.d_tau
        shift = h / tg.d_tau
        i0, frac = _linear_index(np.arange(27) + np.array([[shift], [-shift]]), 27)
        frac = frac[..., None]
        padded = np.pad(values, ((1, 1), (0, 0)))
        shifted = (1.0 - frac) * padded[i0] + frac * padded[i0 + 1]
        assert np.array_equal(differentiate(sino.values, sino.d_tau, h),
                              (shifted[0] - shifted[1]) / (2.0 * h))

    @pytest.mark.parametrize("rows", [1, 2, 5])
    def test_tau_derivative_row_blocks_keep_their_bits(self, rng, monkeypatch, rows):
        # blocks of 1, 2 and 5 of the 27 tau rows against one block of all rows
        values = rng.normal(size=(27, 6)) + 1j * rng.normal(size=(27, 6))
        sino = ur.Sinogram(-1.3, 0.1, 27, ur.AngularRange.full(6), values)
        whole = differentiate(sino.values, sino.d_tau, 0.237)
        monkeypatch.setattr(inv, "_SPECTRUM_BLOCK", 16 * 6 * rows)
        assert np.array_equal(differentiate(sino.values, sino.d_tau, 0.237), whole)

    @pytest.mark.parametrize("steps", [1.0, 1.5, 2.37])
    def test_tau_derivative_matches_np_interp_on_the_zero_padded_axis(self, rng, steps):
        n = 27
        values = rng.normal(size=(n, 4)) + 1j * rng.normal(size=(n, 4))
        sino = ur.Sinogram(-1.3, 0.1, n, ur.AngularRange.full(4), values)
        h = steps * sino.d_tau
        nodes, t = np.arange(-1, n + 1), np.arange(n)
        want = np.empty_like(values)
        for m in range(4):
            col = np.pad(values[:, m], 1)
            want[:, m] = (np.interp(t + steps, nodes, col, left=0.0, right=0.0)
                          - np.interp(t - steps, nodes, col, left=0.0, right=0.0)) / (2.0 * h)
        got = differentiate(sino.values, sino.d_tau, h)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


class TestRegParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ur.RegParams(0.0)
        for bad in (np.nan, np.inf, True, "0.1"):
            with pytest.raises(ValueError, match="fa_step"):
                ur.RegParams(bad)
        params = ur.RegParams(0.2, "fp_quadrature")
        assert params.backend is ur.Backend.FP_QUADRATURE
        # the two-term inverse reads fa_step and backend alone; the old
        # (epsilon, fa_step, backend) order fails instead of shifting its meaning
        assert [f.name for f in dataclasses.fields(params)] == ["fa_step", "backend"]
        with pytest.raises(TypeError):
            ur.RegParams(0.1, 0.2, "fp_quadrature")
        with pytest.raises(ValueError, match="Backend"):
            ur.RegParams(0.1, 0.2)
        with pytest.raises(TypeError):
            ur.RegParams(epsilon=0.1, fa_step=0.2)

    def test_defaults(self):
        params = ur.RegParams.defaults(0.05)
        assert params.fa_step == 0.05


class TestPiFold:
    GEOMETRIES = [ur.GridGeometry.centered(24, 20, 6.0, 5.0),
                  ur.GridGeometry(19, 23, -1.7, -2.9, 0.21, 0.17)]

    @staticmethod
    def random_columns(rng, sino, count):
        shape = (sino.n_tau, sino.angles.n_phi)
        return [rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(count)]

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=["centred", "off_centre"])
    @pytest.mark.parametrize("count", [1, 2])
    def test_folded_matches_the_direct_loop(self, rng, monkeypatch, geom, count):
        # tau window narrower than the grid, so some pixels are flagged
        tg = ur.TauGrid.symmetric(0.13, 31)
        sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, ur.AngularRange.full(16),
                           np.zeros((31, 16)))
        columns = self.random_columns(rng, sino, count)
        calls = []
        monkeypatch.setattr(inv, "direction", lambda phi: calls.append(phi) or direction(phi))
        got, oob = backproject(columns, sino, geom)
        # the centred grid's mirrors fold the 8 rows further, onto 5 fields
        n_fields = 5 if geom == self.GEOMETRIES[0] else 8
        assert len(calls) == len(_fold_plan(geom, tg, sino.angles).phis) == n_fields
        want, want_oob = direct_backproject(columns, sino, geom)
        assert 0 < np.count_nonzero(oob) < oob.size
        assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want):
            assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))

    @pytest.mark.parametrize("geom", GEOMETRIES, ids=["centred", "off_centre"])
    @pytest.mark.parametrize("tau_grid, angles", [
        (ur.TauGrid.symmetric(0.13, 31), ur.AngularRange.full(15)),
        (ur.TauGrid.symmetric(0.13, 31), ur.AngularRange(0.0, np.pi, 16)),
        (ur.TauGrid(-2.0, 0.13, 31), ur.AngularRange.full(16)),
    ], ids=["odd_n_phi", "partial_range", "asymmetric_tau"])
    def test_unpaired_angles_take_the_direct_loop(self, rng, geom, tau_grid, angles):
        # bit for bit on the off-centre grid, which admits no symmetry; the centred
        # one folds by its mirrors, to rounding
        plan = _fold_plan(geom, tau_grid, angles)
        assert plan.pairs == 0 and (len(plan.views) == 1) == (geom == self.GEOMETRIES[1])
        sino = ur.Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles,
                           np.zeros((tau_grid.n_tau, angles.n_phi)))
        columns = self.random_columns(rng, sino, 2)
        got, oob = backproject(columns, sino, geom)
        want, want_oob = direct_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want):
            if len(plan.views) == 1:
                assert np.array_equal(g, w)
            else:
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))


def test_backprojected_column_matches_np_interp_on_the_zero_padded_axis(rng):
    # one angle on a tau grid narrower than the image: pixels fall inside,
    # in the ramp to zero past either end node, and beyond it
    geom = ur.GridGeometry(19, 23, -1.7, -2.9, 0.21, 0.17)
    tg = ur.TauGrid(-1.1, 0.13, 17)
    phi = 0.7
    angles = ur.AngularRange(phi, phi + 0.01, 1)
    col = rng.normal(size=tg.n_tau) + 1j * rng.normal(size=tg.n_tau)
    sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles, col[:, None])
    (got,), oob = backproject([sino.values], sino, geom)
    c, s = direction(phi)
    X, Y = geom.node_mesh()
    f = (c * X + s * Y - tg.tau_min) / tg.d_tau
    assert np.any((f > -1.0) & (f < 0.0)) and np.any((f > tg.n_tau - 1) & (f < tg.n_tau))
    assert np.any(f <= -1.0) and np.any(f >= tg.n_tau)
    want = np.interp(f, np.arange(-1, tg.n_tau + 1), np.pad(col, 1), left=0.0, right=0.0)
    want *= angles.d_phi * ur.ANGULAR_MEASURE_NORM
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    assert np.array_equal(oob, (f < 0.0) | (f > tg.n_tau - 1))


def test_coverage_flags_mark_offsets_outside_the_closed_tau_range():
    # at phi = 0 the offset is x, and nodes fall exactly on both end nodes of the tau grid
    geom = ur.GridGeometry(9, 3, -1.0, 0.0, 0.25, 0.5)
    sino = ur.Sinogram(-0.5, 0.25, 5, ur.AngularRange(0.0, 0.01, 1), np.ones((5, 1)))
    (values,), oob = backproject([sino.values], sino, geom)
    x = geom.x_nodes()
    assert np.array_equal(oob, np.broadcast_to(((x < -0.5) | (x > 0.5))[:, None], oob.shape))
    ramp = np.clip(1.0 - (np.abs(x) - 0.5) / 0.25, 0.0, 1.0)
    np.testing.assert_allclose(values, np.broadcast_to(
        ramp[:, None] * 0.01 * ur.ANGULAR_MEASURE_NORM, values.shape), rtol=1e-14, atol=0)


class TestInvertFs:
    def test_zero_sinogram(self):
        geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(8), np.zeros((13, 8)))
        out = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.5)).f_s
        assert np.all(out.values == 0.0)

    def test_centered_gaussian_amplitude(self, unit_blob_scene):
        geom = ur.GridGeometry.centered(128, 128, 8.0, 8.0)
        sino = make_sino(unit_blob_scene, geom, geom.dx, ur.AngularRange.full(180))
        f_s = ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau)).f_s
        assert ur.bilinear_sample(f_s, 0.0, 0.0) == pytest.approx(1.0, abs=0.03)

    def test_backends_agree_pointwise(self, unit_blob_scene):
        geom = ur.GridGeometry.centered(96, 96, 8.0, 8.0)
        sino = make_sino(unit_blob_scene, geom, 0.02, ur.AngularRange.full(180))
        a, b = (ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau, backend)).f_s
                for backend in (ur.Backend.RAMP_FILTER, ur.Backend.FP_QUADRATURE))
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) / scale <= 1e-2

    def test_coverage_flags(self, unit_blob_scene):
        geom = ur.GridGeometry.centered(24, 24, 8.0, 8.0)
        # tau window too narrow for the grid corners
        tg = ur.TauGrid.symmetric(0.1, 41)
        sino = analytic_sinogram(unit_blob_scene, tg, ur.AngularRange.full(16))
        recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.1))
        _, oob = backproject([sino.values], sino, geom)
        assert np.count_nonzero(oob) > 0
        assert np.array_equal(recon.out_of_coverage, oob)


class TestInvertFa:
    def test_zero_sinogram(self):
        geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(8), np.zeros((13, 8)))
        assert np.all(ur.invert_universal(sino, geom, ur.RegParams.defaults(0.5)).f_a.values == 0.0)

    def test_full_range_cancellation(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.7, -0.4, 1.0, 1.0))
        geom = ur.GridGeometry.centered(64, 64, 8.0, 8.0)
        sino = make_sino(scene, geom, 0.05, ur.AngularRange.full(120))
        params = ur.RegParams.defaults(sino.d_tau)
        recon = ur.invert_universal(sino, geom, params)
        fa, fs = recon.f_a, recon.f_s
        assert ur.l2_norm(fa.values) <= 1e-3 * ur.l2_norm(fs.values)

    def test_full_range_cancellation_on_an_image_nonzero_on_its_edge(self):
        # an odd full scan takes no fold, so the cancellation rests on the
        # projector's R(tau, phi + pi) = R(-tau, phi) across the grid-box edge
        geom = ur.GridGeometry.centered(64, 64, 4.0, 4.0)
        img = ur.rasterize(ur.CompositeScene.of(ur.GaussianBlob(0.2, -0.1, 1.0, 1.0)), geom)
        assert np.max(np.abs(img.values[-1])) >= 0.2 * np.max(np.abs(img.values))
        tg = ur.TauGrid.covering(geom, geom.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(181))
        recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(tg.d_tau))
        assert ur.reconstruction_metrics(recon)["fa_fs_ratio"] <= 1e-3

    def test_half_range_activates_and_matches_analytic_derivative(self):
        # over [0, pi) the opposite-angle cancellation is absent; the result
        # must match the same angular sum with the closed-form column
        # derivative substituted for the finite difference
        blob = ur.GaussianBlob(0.9, -0.5, 1.0, 1.0)
        scene = ur.CompositeScene.of(blob)
        geom = ur.GridGeometry.centered(96, 96, 10.0, 10.0)
        half = ur.AngularRange(0.0, np.pi, 180)
        sino = make_sino(scene, geom, 0.02, half)
        params = ur.RegParams.defaults(sino.d_tau)
        recon = ur.invert_universal(sino, geom, params)
        fa, fs = recon.f_a, recon.f_s
        assert ur.l2_norm(fa.values) > 1e-2 * ur.l2_norm(fs.values)

        X, Y = geom.node_mesh()
        acc = np.zeros((geom.nx, geom.ny), dtype=complex)
        for phi in half.phis():
            c, s = direction(phi)
            mu = c * blob.cx + s * blob.cy
            t = c * X + s * Y
            column = blob.sigma * SQRT_2PI * np.exp(-((t - mu) ** 2) / (2 * blob.sigma**2))
            acc += -(t - mu) / blob.sigma**2 * column
        acc *= half.d_phi * ur.ANGULAR_MEASURE_NORM * (-1j * np.pi)
        assert rel_l2(fa.values, acc) < 1e-3

    def test_fa_step_must_cover_grid(self, monkeypatch):
        geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(8), np.zeros((13, 8)))
        filtered = []
        correlate_rows = inv._correlate_rows
        monkeypatch.setattr(inv, "_correlate_rows",
                            lambda *args: filtered.append(1) or correlate_rows(*args))
        with pytest.raises(ValueError, match="fa_step 0.25 must be at least d_tau 0.5"):
            ur.invert_universal(sino, geom, ur.RegParams(fa_step=0.25))
        assert filtered == []   # refused before the f_s filter ran


def test_two_tau_samples_are_required_before_filtering(monkeypatch):
    # the backprojection interpolates between two tau samples: one is refused up front
    geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
    sino = ur.Sinogram(0.0, 0.5, 1, ur.AngularRange.full(8), np.ones((1, 8)))
    filtered = []
    correlate_rows = inv._correlate_rows
    monkeypatch.setattr(inv, "_correlate_rows",
                        lambda *args: filtered.append(1) or correlate_rows(*args))
    with pytest.raises(ValueError, match="at least 2 tau samples"):
        ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau))
    with pytest.raises(ValueError, match="at least 2 tau samples"):
        ur.epsilon_lambda_reconstruct(sino, geom)
    assert filtered == []


class TestInvertUniversal:
    def test_roundtrip_rmse(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.6, 0.4, 1.0, 1.0))
        geom = ur.GridGeometry.centered(128, 128, 8.0, 8.0)
        img = ur.rasterize(scene, geom)
        sino = make_sino(scene, geom, geom.dx, ur.AngularRange.full(180))
        recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau))
        metrics = ur.reconstruction_metrics(recon, img)
        assert metrics["rmse_over_peak"] <= 0.03

    def test_linearity_over_scenes(self):
        geom = ur.GridGeometry.centered(48, 48, 8.0, 8.0)
        angles = ur.AngularRange.full(60)
        s1 = ur.CompositeScene.of(ur.GaussianBlob(0.5, 0.0, 0.9, 1.0))
        s2 = ur.CompositeScene.of(ur.GaussianBlob(-0.4, 0.3, 1.2, 0.5 + 0.5j))
        both = ur.CompositeScene(s1.terms + s2.terms)
        params = ur.RegParams.defaults(0.1)
        r1 = ur.invert_universal(make_sino(s1, geom, 0.1, angles), geom, params)
        r2 = ur.invert_universal(make_sino(s2, geom, 0.1, angles), geom, params)
        r12 = ur.invert_universal(make_sino(both, geom, 0.1, angles), geom, params)
        assert rel_l2(r12.f_total.values, r1.f_total.values + r2.f_total.values) < 1e-12

    def test_complex_amplitude_homogeneity(self, unit_blob_scene):
        geom = ur.GridGeometry.centered(48, 48, 8.0, 8.0)
        angles = ur.AngularRange.full(60)
        params = ur.RegParams.defaults(0.1)
        base = make_sino(unit_blob_scene, geom, 0.1, angles)
        scaled = ur.Sinogram(base.tau_min, base.d_tau, base.n_tau, base.angles,
                             1j * base.values)
        r = ur.invert_universal(base, geom, params)
        ri = ur.invert_universal(scaled, geom, params)
        assert rel_l2(ri.f_total.values, 1j * r.f_total.values) < 1e-12

    def test_f_total_is_exact_sum(self, unit_blob_scene):
        geom = ur.GridGeometry.centered(32, 32, 8.0, 8.0)
        sino = make_sino(unit_blob_scene, geom, 0.2, ur.AngularRange.full(30))
        r = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.2))
        assert np.array_equal(r.f_total.values, r.f_s.values + r.f_a.values)

    @pytest.mark.parametrize("backend", list(ur.Backend))
    @pytest.mark.parametrize("angles", [ur.AngularRange.full(30), ur.AngularRange(0.0, np.pi, 15)],
                             ids=["full", "half"])
    def test_out_of_coverage_is_the_backprojection_mask(self, unit_blob_scene, backend, angles):
        geom = ur.GridGeometry.centered(32, 32, 8.0, 8.0)
        sino = make_sino(unit_blob_scene, geom, 0.2, angles)
        r = ur.invert_universal(sino, geom, ur.RegParams(0.3, backend))
        _, oob = backproject([sino.values], sino, geom)
        assert np.array_equal(r.out_of_coverage, oob)

    def test_determinism(self, unit_blob_scene):
        geom = ur.GridGeometry.centered(32, 32, 8.0, 8.0)
        sino = make_sino(unit_blob_scene, geom, 0.2, ur.AngularRange.full(30))
        a = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.2))
        b = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.2))
        assert np.array_equal(a.f_total.values, b.f_total.values)

    def test_shift_equivariance(self):
        geom = ur.GridGeometry.centered(96, 96, 10.0, 10.0)
        tg = ur.TauGrid.covering(geom, geom.dx)
        angles = ur.AngularRange.full(180)
        params = ur.RegParams.defaults(tg.d_tau)
        base = ur.CompositeScene.of(ur.GaussianBlob(0.3, -0.2, 1.0, 1.0))
        shifted = ur.CompositeScene.of(ur.GaussianBlob(0.3 + geom.dx, -0.2, 1.0, 1.0))
        r1 = ur.invert_universal(
            ur.radon_transform(ur.rasterize(base, geom), tg, angles), geom, params)
        r2 = ur.invert_universal(
            ur.radon_transform(ur.rasterize(shifted, geom), tg, angles), geom, params)
        rolled = np.roll(r1.f_total.values, 1, axis=0)
        interior = (slice(8, -8), slice(8, -8))
        assert rel_l2(r2.f_total.values[interior], rolled[interior]) <= 1e-2


class TestEpsilonLambdaPath:
    def test_zero_sinogram(self):
        geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(8), np.zeros((13, 8)))
        assert np.all(ur.epsilon_lambda_reconstruct(sino, geom).values == 0.0)

    def test_agrees_with_both_backends(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, -0.3, 1.5, 1.0))
        geom = ur.GridGeometry.centered(96, 96, 12.0, 12.0)
        sino = make_sino(scene, geom, 0.01, ur.AngularRange.full(180))
        ramp = ur.invert_universal(sino, geom,
                                   ur.RegParams.defaults(sino.d_tau, ur.Backend.RAMP_FILTER))
        fp = ur.invert_universal(sino, geom,
                                 ur.RegParams.defaults(sino.d_tau, ur.Backend.FP_QUADRATURE))
        alt = ur.epsilon_lambda_reconstruct(sino, geom, epsilon=2.0 * sino.d_tau)
        assert rel_l2(alt.values, ramp.f_total.values) <= 0.02
        assert rel_l2(alt.values, fp.f_total.values) <= 0.02

    def test_epsilon_stability_under_halving(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, -0.3, 1.5, 1.0))
        geom = ur.GridGeometry.centered(96, 96, 10.0, 10.0)
        sino = make_sino(scene, geom, 0.01, ur.AngularRange.full(120))
        recs = {m: ur.epsilon_lambda_reconstruct(sino, geom, m * sino.d_tau)
                for m in (8, 4, 2)}
        d_coarse = np.sqrt(np.mean(np.abs(recs[8].values - recs[4].values) ** 2))
        d_fine = np.sqrt(np.mean(np.abs(recs[4].values - recs[2].values) ** 2))
        assert d_coarse / d_fine >= 1.5



# pi-paired on a rectangle (its two mirrors), pi-paired on a square (its eight symmetries),
# and a window that pairs and folds nothing
ONE_PASS_SCANS = {
    "mirrored": (ur.GridGeometry.centered(16, 12, 4.0, 3.0), ur.AngularRange.full(24)),
    "d4": (ur.GridGeometry.centered(16, 16, 4.0, 4.0), ur.AngularRange.full(24)),
    "unmirrored": (ur.GridGeometry.centered(16, 16, 4.0, 4.0), ur.AngularRange(0.3, 2.5, 17)),
}


def one_pass_sino(rng, scan):
    geom, angles = ONE_PASS_SCANS[scan]
    tg = ur.TauGrid.covering(geom, 0.2)
    values = rng.normal(size=(tg.n_tau, angles.n_phi)) + 1j * rng.normal(size=(tg.n_tau, angles.n_phi))
    return geom, ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles, values)


class TestOnePass:
    """_invert_all runs the two-term inverse and the epsilon-lambda oracle as one pass."""

    @pytest.mark.parametrize("scan", list(ONE_PASS_SCANS))
    @pytest.mark.parametrize("backend", list(ur.Backend))
    def test_oracle_in_the_pass_is_each_inverse_alone(self, rng, scan, backend):
        geom, sino = one_pass_sino(rng, scan)
        params = ur.RegParams.defaults(sino.d_tau, backend)
        (recon,), (alt,) = inv._invert_all([sino], geom, params, (0.5,))
        alone = ur.invert_universal(sino, geom, params)
        for part in ("f_s", "f_a", "f_total"):
            assert same_bits(getattr(recon, part).values, getattr(alone, part).values)
        assert same_bits(alt.values, ur.epsilon_lambda_reconstruct(sino, geom, 0.5).values)
        _, oob = backproject([sino.values], sino, geom)
        assert np.array_equal(recon.out_of_coverage, oob)
        assert np.array_equal(alone.out_of_coverage, oob)

    @pytest.mark.parametrize("scan", list(ONE_PASS_SCANS))
    def test_epsilon_lambda_is_filter_then_fold_then_backproject(self, rng, scan):
        # the algorithm before its rows were folded pair by pair in the transforms
        geom, sino = one_pass_sino(rng, scan)
        rows = inv._padded_rows(sino.values)
        kernel = inv._lambda_correlation_kernel(sino.n_tau, sino.d_tau, 2.0 * sino.d_tau,
                                                np.pi / sino.d_tau)
        inv._correlate_rows(rows, kernel, inv._SPECTRUM_BLOCK)
        plan = _fold_plan(geom, sino.tau_grid, sino.angles)
        n_rows = len(plan.rep)
        rows[:plan.pairs, 1:-1] += rows[n_rows:, -2:0:-1]
        (want,), oob = inv._backproject([rows[:n_rows]], sino, geom, plan)
        got = ur.epsilon_lambda_reconstruct(sino, geom)
        assert same_bits(got.values, want)
        # the oracle's image carries no mask: it is the two-term inverse's
        recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(sino.d_tau))
        assert np.array_equal(recon.out_of_coverage, oob)

    @pytest.mark.parametrize("block", [1, 2, 5, 12])
    @pytest.mark.parametrize("pairs", [12, 4], ids=["full", "3pi/2"])
    def test_paired_rows_fold_as_filter_then_fold(self, rng, block, pairs):
        # blocks of 1, 2 and 5 rows (a short last block) and one block of all, of a full
        # scan of 24 angles (12 pairs) and of [0, 3 pi/2) on its step (12 rows, 4 paired)
        n, n_phi = 29, 12 + pairs
        source = rng.normal(size=(n_phi, n)) + 1j * rng.normal(size=(n_phi, n))
        kernel = rng.normal(size=2 * n - 1) + 1j * rng.normal(size=2 * n - 1)   # not even
        want = inv._padded_rows(source.T)
        inv._correlate_rows(want, kernel, inv._SPECTRUM_BLOCK)
        want[:pairs, 1:-1] += want[12:, -2:0:-1]
        p = 1 << (n + n - 2).bit_length()
        got = np.full((12, n + 2), np.nan + 0j)
        got[:, [0, -1]] = 0.0
        inv._correlate_rows(got, kernel, 2 * block * p, source, pairs)
        assert same_bits(got, want[:12])

    @pytest.mark.parametrize("scan", list(ONE_PASS_SCANS))
    def test_every_inverse_keeps_its_bits_at_one_and_two_cpus(self, rng, monkeypatch, scan):
        geom, sino = one_pass_sino(rng, scan)
        other = dataclasses.replace(sino, values=sino.values[::-1] * (0.5 - 1j))

        def inverses():
            out = []
            for backend in ur.Backend:
                params = ur.RegParams.defaults(sino.d_tau, backend)
                recons, alts = inv._invert_all([sino, other], geom, params, (None,))
                out += [ur.invert_universal(sino, geom, params).f_total,
                        *(r.f_s for r in recons), *(r.f_a for r in recons), *alts]
            return out + [ur.epsilon_lambda_reconstruct(sino, geom)]

        monkeypatch.setattr(fwd, "_cpu_count", lambda: 1)
        one = inverses()
        monkeypatch.setattr(fwd, "_cpu_count", lambda: 2)
        for got, want in zip(inverses(), one, strict=True):
            assert same_bits(got.values, want.values)

    def test_fa_of_an_exactly_mirrored_scan_is_skipped(self, monkeypatch):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.4, -0.3, 0.8, 1.0 + 0.5j))
        geom = ur.GridGeometry.centered(24, 24, 6.0, 6.0)
        tg, angles = ur.TauGrid.covering(geom, geom.dx), ur.AngularRange.full(36)
        params = ur.RegParams.defaults(tg.d_tau)
        calls = []
        differentiate_rows = inv._differentiate_rows
        monkeypatch.setattr(inv, "_differentiate_rows",
                            lambda *args: calls.append(1) or differentiate_rows(*args))
        for sino, n_calls in ((ur.radon_transform(ur.rasterize(scene, geom), tg, angles), 0),
                              (analytic_sinogram(scene, tg, angles), 1)):
            calls.clear()
            got = ur.invert_universal(sino, geom, params)
            assert len(calls) == n_calls
            # the full path: fold, differentiate, backproject
            plan = _fold_plan(geom, tg, angles)
            rows = inv._padded_rows(sino.values, plan.pairs, -1.0)
            differentiate_rows(rows, sino.d_tau, params.fa_step, inv._SPECTRUM_BLOCK)
            rows[:, 1:-1] *= -1j * np.pi
            (fa,), _ = inv._backproject([rows], sino, geom, plan)
            assert same_bits(got.f_a.values, fa)
            assert same_bits(got.f_total.values, got.f_s.values + fa)
            assert np.any(fa) == bool(n_calls)

# tracemalloc peaks in multiples of the sinogram's payload bytes, measured (numpy 2.4) on one
# CPU and on two, where the f_s and f_a buffers are alive at once while their filters run:
# - a 401 tau x 360 angle full scan into a 64^2 image: epsilon-lambda 1.65 / 1.59 (its buffer
#   holds the folded N/2 rows), invert_universal 1.48 / 1.68 with either backend;
# - the unpaired [0, pi) step of the reconstruct benchmark, 1685 tau x 180 angles into 128^2,
#   where the backprojection's frames set the peak: epsilon-lambda 1.64, invert_universal 2.85.
# The bounds were set about 10% above the values measured with a 4 MiB spectrum block, one
# CPU and a full-height epsilon-lambda buffer (2.95, 1.85, 1.92 and 2.85).
RECONSTRUCT_GRID = ur.GridGeometry.centered(128, 128, 12.0, 12.0)
WORKING_SET_SCANS = {
    "full": (ur.GridGeometry.centered(64, 64, 8.0, 8.0), ur.TauGrid.symmetric(0.03, 401),
             ur.AngularRange.full(360)),
    "unmirrored": (RECONSTRUCT_GRID, ur.TauGrid.covering(RECONSTRUCT_GRID, 0.01),
                   ur.AngularRange(0.0, np.pi, 180)),
}
WORKING_SET_BOUNDS = {("full", "epsilon_lambda"): 3.2, ("full", "ramp_filter"): 2.05,
                      ("full", "fp_quadrature"): 2.05, ("unmirrored", "epsilon_lambda"): 2.1,
                      ("unmirrored", "ramp_filter"): 3.15, ("unmirrored", "fp_quadrature"): 3.15}


@pytest.mark.parametrize("scan, path", list(WORKING_SET_BOUNDS),
                         ids=[path if scan == "full" else f"{path}-{scan}"
                              for scan, path in WORKING_SET_BOUNDS])
def test_working_set_stays_within_a_multiple_of_the_payload(rng, scan, path):
    geom, tg, angles = WORKING_SET_SCANS[scan]
    shape = (tg.n_tau, angles.n_phi)
    values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
    sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles, values)
    if path == "epsilon_lambda":
        _, peak = traced_peak(lambda: ur.epsilon_lambda_reconstruct(sino, geom))
    else:
        params = ur.RegParams.defaults(tg.d_tau, path)
        _, peak = traced_peak(lambda: ur.invert_universal(sino, geom, params))
    assert peak <= WORKING_SET_BOUNDS[scan, path] * sino.values.nbytes


def test_banded_probe_window_stays_within_its_frames_fields_and_gathers(monkeypatch):
    # a probe window of the probes benchmark: 32 tau in (0.2, 3] and 12 angles over
    # [0, pi/2] into 256^2, where every field is banded.  The backprojection holds the most:
    # B buffers times V views of image frames and V bytes a pixel of coverage frames, one
    # banded field (an intp index, two complex weights and the band's flat index: 48 B a
    # band pixel, and its 1 B a pixel coverage mask) and two threads' two complex gathers
    # (64 B a band pixel).  One image more covers the field's whole-image offsets, the
    # rows and the small arrays.  Measured 6.8 to 7.1 images, and 7.1 at the parent.
    monkeypatch.setattr(fwd, "_cpu_count", lambda: 2)
    geom = ur.GridGeometry.centered(256, 256, 8.0, 8.0)
    tg = ur.TauGrid(0.2 + 2.8 / 64, 2.8 / 32, 32)
    angles = ur.AngularRange(0.0, np.pi / 2, 12)
    plan = _fold_plan(geom, tg, angles)
    x, y = geom.x_nodes()[:, None], geom.y_nodes()
    bands = []
    for phi in plan.phis:
        c, s = direction(phi)
        f = (c * x + s * y - tg.tau_min) / tg.d_tau
        assert f.min() <= -1.0 or f.max() >= tg.n_tau   # banded
        bands.append(np.count_nonzero((f > -1.0) & (f < tg.n_tau)))
    n_px, n_band, n_bufs, n_views = geom.nx * geom.ny, max(bands), 2, len(plan.views)
    rng = np.random.default_rng(7)
    values = rng.normal(size=(32, 12)) + 1j * rng.normal(size=(32, 12))
    sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles, values)
    params = ur.RegParams.defaults(tg.d_tau)
    recon, peak = traced_peak(lambda: ur.invert_universal(sino, geom, params))
    assert recon.f_a.values.any()   # both buffers are backprojected
    image = 16 * n_px
    assert peak <= (n_bufs * n_views * image + n_views * n_px + 48 * n_band + n_px
                    + 2 * 32 * n_band + image)


def test_images_adopt_the_backprojected_frames_and_the_sum(monkeypatch, unit_blob_scene):
    frames = []
    backproject = inv._backproject
    monkeypatch.setattr(inv, "_backproject",
                        lambda *args: frames.append(backproject(*args)) or frames[-1])
    geom = ur.GridGeometry.centered(48, 48, 8.0, 8.0)
    sino = analytic_sinogram(unit_blob_scene, ur.TauGrid.symmetric(0.1, 81),
                             ur.AngularRange.full(32))
    recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.1))
    ((fs, fa), _), = frames
    assert np.shares_memory(recon.f_s.values, fs) and np.shares_memory(recon.f_a.values, fa)
    # f_total adopts the sum: one image and the mask's copy (1 B per pixel), not two images
    _, peak = traced_peak(lambda: ur.Reconstruction(recon.f_s, recon.f_a, recon.out_of_coverage))
    assert peak <= 1.5 * recon.f_s.values.nbytes


def test_l2_norm_keeps_its_bits_in_either_memory_order(rng):
    for shape in [(7, 5), (128, 96), (1685, 3)]:
        a = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        assert ur.l2_norm(a) == ur.l2_norm(np.asfortranarray(a))
        assert ur.l2_norm(a.T) == ur.l2_norm(np.ascontiguousarray(a.T))


def test_reconstruction_type_validation(unit_blob_scene):
    geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
    zero = ur.ImageGrid2D.from_geometry(geom, np.zeros((16, 16)))
    one = ur.ImageGrid2D.from_geometry(geom, np.ones((16, 16)))
    covered = np.zeros((16, 16), dtype=bool)
    # f_total is derived, never given: the sum's own bits
    init = [f.name for f in dataclasses.fields(ur.Reconstruction) if f.init]
    assert init == ["f_s", "f_a", "out_of_coverage"]
    half = ur.ImageGrid2D.from_geometry(geom, np.full((16, 16), 0.5 - 0.25j))
    recon = ur.Reconstruction(one, half, covered)
    assert same_bits(recon.f_total.values, one.values + half.values)
    assert recon.f_total.geometry == geom
    other = ur.ImageGrid2D.from_geometry(ur.GridGeometry.centered(8, 8, 4.0, 4.0),
                                         np.zeros((8, 8)))
    with pytest.raises(ValueError):
        ur.Reconstruction(zero, other, covered)
    with pytest.raises(ValueError, match="out_of_coverage"):
        ur.Reconstruction(zero, zero, covered.T[:8])


def test_coverage_is_a_read_only_field_of_the_reconstruction(unit_blob_scene):
    # images are their geometry and values; the mask lives once, on the result
    assert [f.name for f in dataclasses.fields(ur.ImageGrid2D)] == ["geometry", "values"]
    geom = ur.GridGeometry.centered(24, 24, 8.0, 8.0)
    sino = analytic_sinogram(unit_blob_scene, ur.TauGrid.symmetric(0.1, 41),
                             ur.AngularRange.full(16))
    recon = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.1))
    mask = recon.out_of_coverage
    assert mask.dtype == bool and mask.shape == (24, 24)
    with pytest.raises(ValueError):
        mask[0, 0] = not mask[0, 0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        recon.out_of_coverage = np.zeros((24, 24), dtype=bool)
    flagged = ur.reconstruction_metrics(recon)["flagged_pixels"]
    assert type(flagged) is int and flagged == np.count_nonzero(mask) > 0
    # the given mask is copied, and equality ignores it
    given = np.ones((24, 24), dtype=bool)
    other = ur.Reconstruction(recon.f_s, recon.f_a, given)
    given[:] = False
    assert np.all(other.out_of_coverage) and not other.out_of_coverage.flags.writeable
    assert other == recon
    assert ur.reconstruction_metrics(other)["flagged_pixels"] == 24 * 24
