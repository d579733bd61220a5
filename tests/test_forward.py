import numpy as np
import pytest

import uradon as ur
from conftest import analytic_sinogram, rel_l2

SQRT_2PI = 2.5066282746310002


def gaussian_image(scene, nx=160, extent=10.0):
    geom = ur.GridGeometry.centered(nx, nx, extent, extent)
    return ur.rasterize(scene, geom)


class TestRadonPoint:
    def test_zero_image(self):
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.zeros((16, 16)))
        assert ur.radon_point(img, 0.3, 1.0) == 0.0

    def test_unit_gaussian_center_ray(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=256)
        for phi in (0.0, 0.7, 2.0):
            got = ur.radon_point(img, 0.0, phi, ray_step=img.dx / 2)
            assert got == pytest.approx(SQRT_2PI, abs=1e-3)

    def test_homogeneity_in_values(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=64)
        c = 2.0 - 1.5j
        scaled = ur.ImageGrid2D.from_geometry(img.geometry, c * img.values)
        base = ur.radon_point(img, 0.4, 0.9)
        assert ur.radon_point(scaled, 0.4, 0.9) == pytest.approx(c * base, rel=1e-13)

    def test_ray_step_validation(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=32)
        for bad in (0.0, -1.0, np.nan, np.inf):
            with pytest.raises(ValueError):
                ur.radon_point(img, 0.0, 0.0, ray_step=bad)


class TestRadonTransform:
    def test_linearity(self, rng):
        geom = ur.GridGeometry.centered(48, 48, 6.0, 6.0)
        tg = ur.TauGrid.covering(geom, 0.25)
        angles = ur.AngularRange.full(12)
        for _ in range(3):
            b1 = ur.GaussianBlob(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                 rng.uniform(0.5, 1.2), complex(rng.normal(), rng.normal()))
            b2 = ur.GaussianBlob(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                 rng.uniform(0.5, 1.2), complex(rng.normal(), rng.normal()))
            one = ur.radon_transform(ur.rasterize(ur.CompositeScene.of(b1), geom), tg, angles)
            two = ur.radon_transform(ur.rasterize(ur.CompositeScene.of(b2), geom), tg, angles)
            both = ur.radon_transform(ur.rasterize(ur.CompositeScene.of(b1, b2), geom), tg, angles)
            assert rel_l2(both.values, one.values + two.values) < 1e-12

    def test_angle_periodicity_bitwise_on_dyadic_angles(self, unit_blob_scene):
        # phi + 2*pi is exactly representable for dyadic phi, and the internal
        # mod-2*pi reduction then reproduces the trig arguments bit for bit
        img = gaussian_image(unit_blob_scene, nx=64)
        for phi in (0.25, 0.5, 1.0):
            a = ur.radon_point(img, 0.3, phi)
            b = ur.radon_point(img, 0.3, phi + 2 * np.pi)
            assert a == b

    def test_angle_periodicity_generic(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=64)
        a = ur.radon_point(img, 0.3, 1.2345)
        b = ur.radon_point(img, 0.3, 1.2345 + 2 * np.pi)
        assert a == pytest.approx(b, abs=1e-12)

    def test_reflection_symmetry_real_image(self, rng):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.6, -0.3, 0.9, 1.0))
        img = gaussian_image(scene, nx=96, extent=8.0)
        tg = ur.TauGrid.symmetric(0.25, 33)
        angles = ur.AngularRange.full(16)
        sino = ur.radon_transform(img, tg, angles)
        half = angles.n_phi // 2
        for m in range(half):
            flipped = sino.values[::-1, m]            # R(-tau, phi)
            opposite = sino.values[:, m + half]        # R(tau, phi + pi)
            assert np.max(np.abs(flipped - opposite)) < 1e-6

    def test_mass_conservation(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=128, extent=10.0)
        tg = ur.TauGrid.covering(img.geometry, img.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(8))
        w = np.full(sino.n_tau, sino.d_tau)
        w[[0, -1]] *= 0.5
        masses = w @ sino.values
        total = img.total_integral()
        assert np.max(np.abs(masses - total)) / abs(total) < 1e-3

    def test_column_matches_analytic_oracle(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=200, extent=10.0)
        tg = ur.TauGrid.covering(img.geometry, img.dx)
        angles = ur.AngularRange.full(6)
        sino = ur.radon_transform(img, tg, angles)
        oracle = analytic_sinogram(unit_blob_scene, tg, angles)
        assert np.max(np.abs(sino.values - oracle.values)) < 1e-3

    def test_point_matches_transform_entry_bitwise(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.4, -0.2, 0.7, 1.0 - 0.5j))
        img = gaussian_image(scene, nx=40, extent=6.0)
        tg = ur.TauGrid.covering(img.geometry, 0.2)
        angles = ur.AngularRange(0.3, 5.9, 7)
        for ray_step in (None, 0.037):
            sino = ur.radon_transform(img, tg, angles, ray_step)
            for t, m in [(0, 0), (tg.n_tau // 2, 3), (5, 6), (tg.n_tau - 1, 2)]:
                got = ur.radon_point(img, tg.taus()[t], angles.phis()[m], ray_step)
                assert got == sino.values[t, m]

    def test_determinism(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=48)
        tg = ur.TauGrid.covering(img.geometry, 0.3)
        angles = ur.AngularRange(0.1, 2.0, 5)
        a = ur.radon_transform(img, tg, angles)
        b = ur.radon_transform(img, tg, angles)
        assert np.array_equal(a.values, b.values)


def test_convergence_under_simultaneous_halving(rng):
    # raster spacing follows d_tau; halving (d_tau, ray_step) should show
    # roughly second-order error decay against the closed-form columns
    scene = ur.CompositeScene.of(
        ur.GaussianBlob(0.5, -0.4, 0.8, 1.0), ur.GaussianBlob(-0.6, 0.3, 1.1, 0.5))
    angles = ur.AngularRange.full(8)

    def max_error(d_tau):
        extent = 10.0
        nx = int(round(extent / d_tau))
        geom = ur.GridGeometry.centered(nx, nx, extent, extent)
        img = ur.rasterize(scene, geom)
        tg = ur.TauGrid.covering(geom, d_tau)
        sino = ur.radon_transform(img, tg, angles, ray_step=d_tau / 2)
        oracle = analytic_sinogram(scene, tg, angles)
        return float(np.max(np.abs(sino.values - oracle.values)))

    coarse = max_error(0.10)
    fine = max_error(0.05)
    assert coarse / fine >= 3.0
