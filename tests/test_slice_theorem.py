import numpy as np
import pytest

import uradon as ur

TWO_PI = 2 * np.pi


def raster(scene, nx=280, extent=14.0):
    return ur.rasterize(scene, ur.GridGeometry.centered(nx, nx, extent, extent))


class TestLhs:
    def test_zero_frequency_is_total_integral(self, unit_blob_scene):
        img = raster(unit_blob_scene)
        got = ur.fst_lhs(img, 0.3, [0.0]).values[0]
        assert got == pytest.approx(img.total_integral(), abs=1e-10)
        assert got == pytest.approx(TWO_PI, abs=1e-6)

    def test_gaussian_value_matches_oracle(self, unit_blob_scene):
        img = raster(unit_blob_scene)
        got = ur.fst_lhs(img, 1.1, [1.0]).values[0]
        want = ur.analytic_fourier(unit_blob_scene, 1.0, 1.1)
        assert got == pytest.approx(want, abs=1e-4)

    def test_hermitian_symmetry_for_real_images(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.8, -0.5, 1.0, 1.0))
        img = raster(scene)
        lams = [0.5, 1.5, 2.5]
        fwd = ur.fst_lhs(img, 0.4, lams).values
        bwd = ur.fst_lhs(img, 0.4 + np.pi, lams).values
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
        assert np.all(ur.fst_rhs(sino, 0.0, [0.0, 1.0]).values == 0.0)

    def test_zero_frequency_is_projection_mass(self, gaussian_sino):
        got = ur.fst_rhs(gaussian_sino, 0.0, [0.0]).values[0]
        assert got == pytest.approx(TWO_PI, abs=1e-3)

    def test_gaussian_transform_value(self, gaussian_sino):
        got = ur.fst_rhs(gaussian_sino, 0.0, [1.0]).values[0]
        assert got == pytest.approx(TWO_PI * np.exp(-0.5), abs=1e-3)

    def test_angle_outside_range_rejected(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=48, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange(0.0, np.pi, 8))
        with pytest.raises(ValueError):
            ur.fst_rhs(sino, 5.0, [1.0])


class TestCheck:
    def test_gaussian_phantom_passes(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=128, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(16))
        reports = ur.fst_check(img, sino, lambdas=np.linspace(0.0, 6.0, 13))
        assert len(reports) == 16
        assert ur.fst_passed(reports, 1e-3)
        assert all(np.all(np.isfinite(r.residuals)) for r in reports)

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

    def test_amplitude_homogeneity(self, unit_blob_scene):
        img = raster(unit_blob_scene, nx=96, extent=8.0)
        scaled = ur.ImageGrid2D.from_geometry(img.geometry, 3.0 * img.values)
        lams = [0.0, 1.0, 2.0]
        a = ur.fst_lhs(img, 0.5, lams).values
        b = ur.fst_lhs(scaled, 0.5, lams).values
        assert np.max(np.abs(b - 3.0 * a)) < 1e-12 * np.max(np.abs(b))

    def test_finite_at_zero_frequency(self, unit_blob_scene):
        # the polar-axis degeneracy at lam = 0 must not produce non-finite output
        img = raster(unit_blob_scene, nx=64, extent=8.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(4))
        reports = ur.fst_check(img, sino, lambdas=[0.0])
        assert all(np.isfinite(r.max_rel_residual) for r in reports)


class TestSpectralSlice:
    def test_validation(self):
        with pytest.raises(ValueError):
            ur.SpectralSlice(0.0, [-1.0, 0.0], [0.0, 0.0])
        with pytest.raises(ValueError):
            ur.SpectralSlice(0.0, [0.0, 0.0], [0.0, 0.0])     # not strictly increasing
        with pytest.raises(ValueError):
            ur.SpectralSlice(0.0, [0.0, 1.0], [0.0])          # length mismatch
        s = ur.SpectralSlice(0.0, [0.0, 1.0], [1.0, 2.0])
        assert s.values.dtype == np.complex128
