import numpy as np
import pytest

import uradon as ur
import uradon.slice_theorem as st

TWO_PI = 2 * np.pi


def raster(scene, nx=280, extent=14.0):
    return ur.rasterize(scene, ur.GridGeometry.centered(nx, nx, extent, extent))


class TestLhs:
    def test_zero_frequency_is_total_integral(self, unit_blob_scene):
        img = raster(unit_blob_scene)
        got = ur.fst_lhs(img, 0.3, [0.0])[0]
        assert got == pytest.approx(img.total_integral(), abs=1e-10)
        assert got == pytest.approx(TWO_PI, abs=1e-6)

    def test_gaussian_value_matches_oracle(self, unit_blob_scene):
        img = raster(unit_blob_scene)
        got = ur.fst_lhs(img, 1.1, [1.0])[0]
        want = ur.analytic_fourier(unit_blob_scene, 1.0, 1.1)
        assert got == pytest.approx(want, abs=1e-4)

    def test_hermitian_symmetry_for_real_images(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.8, -0.5, 1.0, 1.0))
        img = raster(scene)
        lams = [0.5, 1.5, 2.5]
        fwd = ur.fst_lhs(img, 0.4, lams)
        bwd = ur.fst_lhs(img, 0.4 + np.pi, lams)
        assert np.max(np.abs(bwd - np.conj(fwd))) < 1e-10

    def test_negative_lambda_rejected(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=32)
        with pytest.raises(ValueError):
            ur.fst_lhs(img, 0.0, [-1.0])


class TestRhs:
    @pytest.fixture
    def gaussian_sino(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=256, extent=10.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        return ur.radon_transform(img, tg, ur.AngularRange.full(16))

    def test_zero_column(self):
        angles = ur.AngularRange.full(4)
        sino = ur.Sinogram(-1.0, 0.5, 5, angles, np.zeros((5, 4)))
        assert np.all(ur.fst_rhs(sino, 0.0, [0.0, 1.0]) == 0.0)

    def test_zero_frequency_is_projection_mass(self, gaussian_sino):
        got = ur.fst_rhs(gaussian_sino, 0.0, [0.0])[0]
        assert got == pytest.approx(TWO_PI, abs=1e-3)

    def test_gaussian_transform_value(self, gaussian_sino):
        got = ur.fst_rhs(gaussian_sino, 0.0, [1.0])[0]
        assert got == pytest.approx(TWO_PI * np.exp(-0.5), abs=1e-3)

    def test_angle_outside_range_rejected(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=48, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange(0.0, np.pi, 8))
        with pytest.raises(ValueError):
            ur.fst_rhs(sino, 5.0, [1.0])


def trapezoid(n, d):
    w = np.full(n, float(d))
    w[0] /= 2
    w[-1] /= 2
    return w


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


class TestDirectSum:
    """Both sides against the unseparated, unfactored sum: np.exp of the whole phase at
    every node, times the trapezoid weights.  The odd sizes (33, 27, 2, 3, 41) leave a
    partial last block in the phase tables, and the off-centre starts test their offsets."""

    @pytest.mark.parametrize("geom", [
        ur.GridGeometry(33, 27, -1.3, -0.4, 0.11, 0.13),
        ur.GridGeometry(2, 3, 0.7, -0.2, 0.3, 0.25),
        ur.GridGeometry(3, 2, -0.4, 1.1, 0.2, 0.35),
    ], ids=["33x27", "2x3", "3x2"])
    @pytest.mark.parametrize("phi", [0.0, 0.37, 2.0, 4.9])
    def test_lhs(self, rng, geom, phi):
        img = ur.ImageGrid2D.from_geometry(geom, random_complex(rng, (geom.nx, geom.ny)))
        lams = np.linspace(0.0, np.pi / min(geom.dx, geom.dy), 9)
        x, y = geom.node_mesh()
        weighted = img.values * np.outer(trapezoid(geom.nx, geom.dx), trapezoid(geom.ny, geom.dy))
        want = np.array([np.sum(np.exp(-1j * lam * (np.cos(phi) * x + np.sin(phi) * y))
                                * weighted) for lam in lams])
        got = ur.fst_lhs(img, phi, lams)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    @pytest.mark.parametrize("tau_min, d_tau, n_tau", [
        (-0.7, 0.09, 41), (0.3, 0.2, 2), (-2.1, 0.45, 3),
    ], ids=["41", "2", "3"])
    def test_rhs(self, rng, tau_min, d_tau, n_tau):
        angles = ur.AngularRange.full(5)
        sino = ur.Sinogram(tau_min, d_tau, n_tau, angles, random_complex(rng, (n_tau, 5)))
        lams = np.linspace(0.0, np.pi / d_tau, 9)
        taus = tau_min + d_tau * np.arange(n_tau)
        for col, phi in enumerate(angles.phis()):
            weighted = sino.values[:, col] * trapezoid(n_tau, d_tau)
            want = np.array([np.sum(np.exp(-1j * lam * taus) * weighted) for lam in lams])
            got = ur.fst_rhs(sino, phi, lams)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


class TestCheck:
    def test_gaussian_phantom_passes(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=128, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(16))
        reports = ur.fst_check(img, sino, lambdas=np.linspace(0.0, 6.0, 13))
        assert len(reports) == 16
        assert ur.fst_passed(reports, 1e-3)
        assert all(np.all(np.isfinite(r.residuals)) for r in reports)

    def test_one_call_of_each_side_per_stored_angle(self, monkeypatch):
        # the benchmark's tracer times and counts the sides at these module names
        calls = {"fst_lhs": 0, "fst_rhs": 0}
        for name in calls:
            def counted(*args, _side=getattr(st, name), _name=name):
                calls[_name] += 1
                return _side(*args)
            monkeypatch.setattr(st, name, counted)
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.ones((16, 16)))
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(7), np.ones((13, 7)))
        assert len(ur.fst_check(img, sino, lambdas=[0.0, 1.0])) == 7
        assert calls == {"fst_lhs": 7, "fst_rhs": 7}

    def test_zero_image_zero_residuals(self):
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.zeros((16, 16)))
        angles = ur.AngularRange.full(4)
        sino = ur.Sinogram(-3.0, 0.5, 13, angles, np.zeros((13, 4)))
        reports = ur.fst_check(img, sino, lambdas=[0.0, 1.0])
        assert all(r.max_rel_residual == 0.0 for r in reports)

    def test_mismatched_phantom_fails(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=96, extent=8.0)
        other = ur.CompositeScene.of(ur.GaussianBlob(1.5, 0.0, 0.7, 1.0))
        other_img = raster(other, nx=96, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(other_img, tg, ur.AngularRange.full(8))
        reports = ur.fst_check(img, sino, lambdas=np.linspace(0.0, 6.0, 13))
        assert not ur.fst_passed(reports, 1e-3)
        assert max(r.max_rel_residual for r in reports) > 1e-2

    @pytest.mark.parametrize("tolerance", [np.nan, -1.0, 0.0, np.inf])
    def test_tolerance_must_be_finite_and_positive(self, tolerance):
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.zeros((16, 16)))
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(4), np.zeros((13, 4)))
        reports = ur.fst_check(img, sino, lambdas=[0.0, 1.0])
        with pytest.raises(ValueError, match="tolerance"):
            ur.fst_passed(reports, tolerance)

    def test_amplitude_homogeneity(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=96, extent=8.0)
        scaled = ur.ImageGrid2D.from_geometry(img.geometry, 3.0 * img.values)
        lams = [0.0, 1.0, 2.0]
        a = ur.fst_lhs(img, 0.5, lams)
        b = ur.fst_lhs(scaled, 0.5, lams)
        assert np.max(np.abs(b - 3.0 * a)) < 1e-12 * np.max(np.abs(b))

    def test_finite_at_zero_frequency(self, unit_blob_scene):
        # the polar-axis degeneracy at lam = 0 must not produce non-finite output
        img = raster(unit_blob_scene, nx=64, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(4))
        reports = ur.fst_check(img, sino, lambdas=[0.0])
        assert all(np.isfinite(r.max_rel_residual) for r in reports)

    @pytest.mark.parametrize("lambdas, word", [
        ([np.nan], "finite"), ([0.0, np.inf], "finite"), ([], "nonempty"),
        ([-1.0, 0.0], "nonnegative"), ([0.0, 0.0], "strictly increasing"),
    ], ids=["nan", "inf", "empty", "negative", "repeated"])
    def test_bad_lambdas_are_refused(self, lambdas, word):
        # one rule for the check and both sides: NaN and inf gave NaN reports
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.ones((16, 16)))
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(4), np.ones((13, 4)))
        for call in (lambda: ur.fst_check(img, sino, lambdas=lambdas),
                     lambda: ur.fst_lhs(img, 0.0, lambdas), lambda: ur.fst_rhs(sino, 0.0, lambdas)):
            with pytest.raises(ValueError, match=word):
                call()

    def test_sides_are_complex_arrays_per_lambda(self):
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.ones((16, 16)))
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(4), np.ones((13, 4)))
        for side in (ur.fst_lhs(img, 0.0, [0.0, 1.0, 2.0]), ur.fst_rhs(sino, 0.0, [0.0, 1.0, 2.0])):
            assert isinstance(side, np.ndarray)
            assert side.shape == (3,) and side.dtype == np.complex128

    def test_reports_keep_their_own_lambdas(self):
        # each report keeps a read-only copy: writing the caller's array afterwards changes none
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.ones((16, 16)))
        sino = ur.Sinogram(-3.0, 0.5, 13, ur.AngularRange.full(4), np.ones((13, 4)))
        lams = np.array([0.0, 1.0, 2.0])
        reports = ur.fst_check(img, sino, lambdas=lams)
        lams[:] = 7.0
        for report in reports:
            assert report.lambda_values is not lams
            assert report.lambda_values.dtype == np.float64
            assert np.array_equal(report.lambda_values, [0.0, 1.0, 2.0])
            assert not report.lambda_values.flags.writeable
