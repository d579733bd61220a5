import numpy as np
import pytest

import uradon as ur
from conftest import analytic_sinogram, rel_l2
from uradon.forward import _project

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


# --- the clipped multi-channel kernel against the unclipped sum it replaced ---

def unclipped_projection(img, taus, phis, ray_step):
    """Every midpoint sample over the bounding circle through bilinear_sample, summed per row.

    This is the projector before samples outside the grid box were dropped;
    it differs from the clipped kernel only in summation order.
    """
    if ray_step is None:
        ray_step = ur.default_ray_step(img.geometry)
    radius = img.geometry.bounding_radius
    n_s = max(1, int(np.ceil(2.0 * radius / ray_step)))
    h = 2.0 * radius / n_s
    offsets = -radius + (np.arange(n_s) + 0.5) * h
    out = np.empty((len(taus), len(phis)), dtype=complex)
    for m, phi in enumerate(phis):
        c, s = ur.direction(phi)
        x = taus[:, None] * c - offsets[None, :] * s
        y = taus[:, None] * s + offsets[None, :] * c
        out[:, m] = ur.bilinear_sample(img, x, y).sum(axis=1) * h
    return out


CENTRED = ur.GridGeometry.centered(40, 40, 6.0, 6.0)
OFF_CENTRE = ur.GridGeometry(33, 27, -1.3, -0.4, 0.11, 0.13)


def noise_image(rng, geom):
    shape = (geom.nx, geom.ny)
    return ur.ImageGrid2D.from_geometry(geom, rng.normal(size=shape) + 1j * rng.normal(size=shape))


def blob_image(rng, geom, n_blobs=4):
    """Smooth random complex image that is zero on the outermost ring of nodes.

    A ray running exactly along an edge of the grid box keeps or drops each
    sample by rounding, differently for phi and phi + pi; with a zero ring
    those samples read zero either way.
    """
    cx = 0.5 * (geom.x_min + geom.x_max)
    cy = 0.5 * (geom.y_min + geom.y_max)
    blobs = [ur.GaussianBlob(cx + rng.uniform(-0.5, 0.5), cy + rng.uniform(-0.5, 0.5),
                             rng.uniform(0.2, 0.35), complex(rng.normal(), rng.normal()))
             for _ in range(n_blobs)]
    values = np.array(ur.rasterize(ur.CompositeScene.of(*blobs), geom).values)
    values[[0, -1], :] = 0.0
    values[:, [0, -1]] = 0.0
    return ur.ImageGrid2D.from_geometry(geom, values)


def directions(angles):
    return [ur.direction(phi) for phi in angles.phis()]


class TestClippedKernel:
    @pytest.mark.parametrize("geom", [CENTRED, OFF_CENTRE], ids=["centred", "off-centre"])
    @pytest.mark.parametrize("ray_step", [None, 0.037])
    def test_matches_unclipped_sum(self, rng, geom, ray_step):
        angles = ur.AngularRange(0.3, 5.9, 7)
        taus = ur.TauGrid.covering(geom, 0.2).taus()
        for _ in range(2):
            img = noise_image(rng, geom)
            got = _project([img], taus, directions(angles), ray_step)[0]
            want = unclipped_projection(img, taus, angles.phis(), ray_step)
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("geom", [CENTRED, OFF_CENTRE], ids=["centred", "off-centre"])
    def test_mirrored_transform_matches_unclipped_sum(self, rng, geom):
        tg = ur.TauGrid.covering(geom, 0.2)
        angles = ur.AngularRange.full(8)
        img = blob_image(rng, geom)
        got = ur.radon_transform(img, tg, angles, 0.037).values
        want = unclipped_projection(img, tg.taus(), angles.phis(), 0.037)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("ray_step", [None, 0.037])
    def test_channels_are_bit_identical_to_single_images(self, rng, ray_step):
        images = [noise_image(rng, OFF_CENTRE) for _ in range(3)]
        images.append(ur.ImageGrid2D.from_geometry(OFF_CENTRE, images[0].values.real))
        taus = ur.TauGrid(-2.3, 0.17, 29).taus()
        dirs = directions(ur.AngularRange(0.1, 4.0, 9))
        together = _project(images, taus, dirs, ray_step)
        for img, values in zip(images, together):
            assert np.array_equal(values, _project([img], taus, dirs, ray_step)[0])
        assert np.all(together[3].imag == 0.0)

    def test_hybrid_radon_is_bit_identical_to_per_field_transforms(self, rng):
        geom = ur.GridGeometry.centered(24, 24, 6.0, 6.0)
        fields = tuple(noise_image(rng, geom) for _ in range(5))
        field = ur.HybridField(tuple(range(5)), fields, ur.Provenance.SERIES)
        tg = ur.TauGrid.covering(geom, 0.3)
        for angles in (ur.AngularRange.full(10), ur.AngularRange(0.0, np.pi, 7)):
            sinos = ur.hybrid_radon(field, tg, angles)
            for f, sino in zip(fields, sinos):
                assert sino == ur.radon_transform(f, tg, angles)

    def test_repeat_calls_are_bit_identical(self, rng):
        img = noise_image(rng, CENTRED)
        tg = ur.TauGrid.covering(CENTRED, 0.2)
        for angles in (ur.AngularRange.full(12), ur.AngularRange(0.3, 5.9, 7)):
            assert ur.radon_transform(img, tg, angles) == ur.radon_transform(img, tg, angles)


class TestPiMirror:
    @pytest.mark.parametrize("geom", [CENTRED, OFF_CENTRE], ids=["centred", "off-centre"])
    def test_mirrored_half_matches_direct_projection(self, rng, geom):
        tg = ur.TauGrid.covering(geom, 0.2)
        for phi_min in (0.0, 0.4):
            angles = ur.AngularRange(phi_min, phi_min + 2.0 * np.pi, 10)
            img = blob_image(rng, geom)
            sino = ur.radon_transform(img, tg, angles, 0.037).values
            direct = _project([img], tg.taus(), directions(angles), 0.037)[0]
            half = angles.n_phi // 2
            assert np.array_equal(sino[:, :half], direct[:, :half])
            assert np.max(np.abs(sino[:, half:] - direct[:, half:])) <= 1e-14 * np.max(np.abs(direct))

    def test_first_half_equals_radon_point_bitwise(self, rng):
        img = blob_image(rng, OFF_CENTRE)
        tg = ur.TauGrid.covering(OFF_CENTRE, 0.4)
        angles = ur.AngularRange.full(8)
        sino = ur.radon_transform(img, tg, angles)
        for m, phi in enumerate(angles.phis()[:4]):
            for t, tau in enumerate(tg.taus()):
                assert ur.radon_point(img, tau, phi) == sino.values[t, m]

    @pytest.mark.parametrize("tau_grid, angles", [
        (ur.TauGrid.covering(CENTRED, 0.2), ur.AngularRange.full(7)),
        (ur.TauGrid(-3.9, 0.2, 39), ur.AngularRange.full(8)),
        (ur.TauGrid.covering(CENTRED, 0.2), ur.AngularRange(0.0, np.pi, 8)),
    ], ids=["odd n_phi", "asymmetric tau", "partial range"])
    def test_other_grids_take_the_direct_path(self, rng, tau_grid, angles):
        img = blob_image(rng, CENTRED)
        sino = ur.radon_transform(img, tau_grid, angles)
        direct = _project([img], tau_grid.taus(), directions(angles), None)[0]
        assert np.array_equal(sino.values, direct)
