import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uradon as ur
import uradon.forward as fwd
from conftest import analytic_sinogram, rel_l2, same_bits
from uradon.forward import _project, _radon_values
from uradon.grids import _fold_plan

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
            got = ur.radon_point(img, 0.0, phi, ray_step=img.geometry.dx / 2)
            assert got == pytest.approx(SQRT_2PI, abs=1e-3)

    def test_homogeneity_in_values(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=64)
        c = 2.0 - 1.5j
        scaled = ur.ImageGrid2D.from_geometry(img.geometry, c * img.values)
        base = ur.radon_point(img, 0.4, 0.9)
        assert ur.radon_point(scaled, 0.4, 0.9) == pytest.approx(c * base, rel=1e-13)

    def test_ray_step_validation(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=32)
        for bad in (0.0, -1.0, np.nan, np.inf, True):
            with pytest.raises(ValueError):
                ur.radon_point(img, 0.0, 0.0, ray_step=bad)

    @pytest.mark.parametrize("tau, phi", [(np.nan, 0.3), (0.1, np.nan), (np.inf, 0.3), (0.1, np.inf)])
    def test_non_finite_tau_or_phi_rejected(self, unit_blob_scene, tau, phi):
        img = gaussian_image(unit_blob_scene, nx=16)
        with pytest.raises(ValueError, match="tau" if not np.isfinite(tau) else "phi"):
            ur.radon_point(img, tau, phi)
        if not np.isfinite(phi):
            with pytest.raises(ValueError, match="phi"):
                ur.direction(phi)


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
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
        sino = ur.radon_transform(img, tg, ur.AngularRange.full(8))
        w = np.full(sino.n_tau, sino.d_tau)
        w[[0, -1]] *= 0.5
        masses = w @ sino.values
        total = img.total_integral()
        assert np.max(np.abs(masses - total)) / abs(total) < 1e-3

    def test_column_matches_analytic_oracle(self, unit_blob_scene):
        img = gaussian_image(unit_blob_scene, nx=200, extent=10.0)
        tg = ur.TauGrid.covering(img.geometry, img.geometry.dx)
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


def blob_image(rng, geom, n_blobs=4, sigma=(0.2, 0.35)):
    """Smooth random complex image: blobs near the centre, widths drawn from sigma."""
    cx = 0.5 * (geom.x_min + geom.x_max)
    cy = 0.5 * (geom.y_min + geom.y_max)
    blobs = [ur.GaussianBlob(cx + rng.uniform(-0.5, 0.5), cy + rng.uniform(-0.5, 0.5),
                             rng.uniform(*sigma), complex(rng.normal(), rng.normal()))
             for _ in range(n_blobs)]
    return ur.rasterize(ur.CompositeScene.of(*blobs), geom)


def wide_blob_image(rng, geom):
    """Blobs as wide as the grid: far from zero on the outermost nodes."""
    return blob_image(rng, geom, sigma=(0.4 * geom.diameter, 0.5 * geom.diameter))


def abs_peak(geom, img, taus, dirs, ray_step):
    """Peak of R|f| over the given rays: the scale of the rounding in R f."""
    return np.max(_project(geom, [np.abs(img.values)], taus, dirs, ray_step)[0].real)


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
            got = _project(geom, [img.values], taus, directions(angles), ray_step)[0]
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
        together = _project(OFF_CENTRE, [img.values for img in images], taus, dirs, ray_step)
        for img, values in zip(images, together):
            alone = _project(OFF_CENTRE, [img.values], taus, dirs, ray_step)[0]
            assert np.array_equal(values, alone)
        assert np.all(together[3].imag == 0.0)

    def test_hybrid_radon_is_bit_identical_to_per_field_transforms(self, rng):
        geom = ur.GridGeometry.centered(24, 24, 6.0, 6.0)
        fields = tuple(noise_image(rng, geom) for _ in range(5))
        field = ur.HybridField(tuple(range(5)), fields, ur.Provenance.SERIES)
        tg = ur.TauGrid.covering(geom, 0.3)
        # full(16) is D4-folded, full(10) only pi-mirrored
        for angles in (ur.AngularRange.full(16), ur.AngularRange.full(10),
                       ur.AngularRange(0.0, np.pi, 7)):
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
            direct = _project(geom, [img.values], tg.taus(), directions(angles), 0.037)[0]
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
        (ur.TauGrid.covering(CENTRED, 0.2), ur.AngularRange(0.0, np.pi, 7)),
        (ur.TauGrid.covering(CENTRED, 0.2), ur.AngularRange(0.3, 0.3 + np.pi, 8)),
    ], ids=["odd n_phi", "asymmetric tau", "half range, odd n_phi", "half range, phi_min != 0"])
    def test_other_grids_take_the_direct_path(self, rng, tau_grid, angles):
        img = blob_image(rng, CENTRED)
        sino = ur.radon_transform(img, tau_grid, angles)
        direct = _project(CENTRED, [img.values], tau_grid.taus(), directions(angles), None)[0]
        assert np.array_equal(sino.values, direct)


# --- the dihedral fold: square-symmetric grids project a quarter of [0, pi) only ---

D4_SETTINGS = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@st.composite
def square_scans(draw):
    """A centred square grid, a covering tau grid, a ray step and a scan the D4 fold applies to:
    a full scan with n_phi % 4 == 0 or [0, pi) with an even n_phi."""
    n = draw(st.integers(12, 40))
    dx = draw(st.sampled_from([0.1, 0.125, 0.15, 0.2]))
    geom = ur.GridGeometry.centered(n, n, n * dx, n * dx)
    tau_grid = ur.TauGrid.covering(geom, dx * draw(st.sampled_from([0.5, 0.75, 1.0, 1.5])))
    k = draw(st.integers(1, 12))
    angles = draw(st.sampled_from([ur.AngularRange.full(4 * k), ur.AngularRange(0.0, np.pi, 2 * k)]))
    ray_step = draw(st.sampled_from([None, 0.37 * dx]))
    return geom, tau_grid, angles, ray_step, draw(st.integers(0, 2**32 - 1))


def d4_copies(img):
    """f, f.T, rot90(f, -1) and rot90(f, -1).T as arrays, in the view order of grids._fold_plan."""
    turned = np.rot90(img.values, -1)
    return [img.values, img.values.T, turned, turned.T]


def peak_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


class TestD4Fold:
    @D4_SETTINGS
    @given(square_scans())
    def test_rotation_transpose_and_mirror_identities(self, scan):
        # channel q at angle m reads f at angle (offset + sign * m) mod n, over the
        # full turn of n angles with the scan's step
        geom, tau_grid, angles, ray_step, seed = scan
        img = blob_image(np.random.default_rng(seed), geom)
        n = round(2 * np.pi / angles.d_phi)
        taus, q = tau_grid.taus(), n // 4
        dirs = directions(ur.AngularRange.full(n))
        direct = _project(geom, [img.values], taus, dirs, ray_step)[0]
        m = np.arange(n)
        for copy, column in zip(d4_copies(img), (m, q - m, m + q, 2 * q - m)):
            got = _project(geom, [copy], taus, dirs, ray_step)[0]
            assert peak_error(got, direct[:, column % n]) <= 1e-14
        assert peak_error(direct[::-1, :], direct[:, (m + 2 * q) % n]) <= 1e-14

    @D4_SETTINGS
    @given(square_scans())
    def test_folded_transform_matches_direct_projection(self, scan):
        geom, tau_grid, angles, ray_step, seed = scan
        plan = _fold_plan(geom, tau_grid, angles)
        assert len(plan.views) == 4
        img = blob_image(np.random.default_rng(seed), geom)
        sino = ur.radon_transform(img, tau_grid, angles, ray_step).values
        direct = _project(geom, [img.values], tau_grid.taus(), directions(angles), ray_step)[0]
        assert peak_error(sino, direct) <= 1e-14
        n_rep = len(plan.phis)
        assert np.array_equal(sino[:, :n_rep], direct[:, :n_rep])

    @D4_SETTINGS
    @given(square_scans())
    def test_projected_columns_equal_radon_point_bitwise(self, scan):
        geom, tau_grid, angles, ray_step, seed = scan
        img = blob_image(np.random.default_rng(seed), geom)
        sino = ur.radon_transform(img, tau_grid, angles, ray_step).values
        taus = tau_grid.taus()
        for m, phi in enumerate(_fold_plan(geom, tau_grid, angles).phis):
            for t in (0, len(taus) // 3, len(taus) // 2, len(taus) - 1):
                assert ur.radon_point(img, taus[t], phi, ray_step) == sino[t, m]

    @D4_SETTINGS
    @given(square_scans())
    def test_remapped_channels_equal_projected_copies_bitwise(self, scan):
        # every column of [0, pi) is its channel's copy projected at its
        # representative angle; a second half turn is the first reversed
        geom, tau_grid, angles, ray_step, seed = scan
        rng = np.random.default_rng(seed)
        images = [noise_image(rng, geom) for _ in range(2)]
        plan = _fold_plan(geom, tau_grid, angles)
        taus, dirs = tau_grid.taus(), directions(angles)[:len(plan.phis)]
        folded = _radon_values(geom, [img.values for img in images], tau_grid, angles, ray_step)
        for img, values in zip(images, folded):
            copies = _project(geom, d4_copies(img), taus, dirs, ray_step)
            want = copies[plan.view, :, plan.rep].T
            if plan.mirrored:
                want = np.concatenate([want, want[::-1]], axis=1)
            assert np.array_equal(values, want)

    @pytest.mark.parametrize("geom, angles", [
        (ur.GridGeometry.centered(24, 20, 4.8, 4.0), ur.AngularRange.full(8)),
        (ur.GridGeometry.centered(24, 24, 4.8, 4.2), ur.AngularRange.full(8)),
        (ur.GridGeometry(24, 24, -2.2, -2.2, 0.2, 0.2), ur.AngularRange.full(8)),
        (ur.GridGeometry.centered(24, 24, 4.8, 4.8), ur.AngularRange(0.3, 0.3 + 2 * np.pi, 8)),
        (ur.GridGeometry.centered(24, 24, 4.8, 4.8), ur.AngularRange.full(10)),
    ], ids=["nx != ny", "dx != dy", "off-centre", "phi_min != 0", "n_phi % 4 != 0"])
    def test_other_grids_take_the_pi_mirrored_path(self, rng, geom, angles):
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        assert len(_fold_plan(geom, tau_grid, angles).views) == 1
        img = blob_image(rng, geom)
        sino = ur.radon_transform(img, tau_grid, angles).values
        half = angles.n_phi // 2
        direct = _project(geom, [img.values], tau_grid.taus(), directions(angles)[:half], None)[0]
        assert np.array_equal(sino, np.concatenate([direct, direct[::-1]], axis=1))


# --- images far from zero on their outermost nodes ---

# nodes at whole multiples of dx: with d_tau = dx, rays run exactly along every edge
ODD = ur.GridGeometry.centered(31, 31, 3.1, 3.1)

EDGE_SCANS = {
    "centred, full(8)": (CENTRED, 0.2, ur.AngularRange.full(8)),
    # the tau row at -0.4 runs along y = y_min
    "33x27, full(10)": (OFF_CENTRE, 0.2, ur.AngularRange.full(10)),
    "33x27, full(8)": (OFF_CENTRE, 0.2, ur.AngularRange.full(8)),
    "odd n, full(16)": (ODD, ODD.dx, ur.AngularRange.full(16)),
    "odd n, full(10)": (ODD, ODD.dx, ur.AngularRange.full(10)),
    "odd n, [0, pi)/12": (ODD, ODD.dx, ur.AngularRange(0.0, np.pi, 12)),
}


class TestGeneralImages:
    """The folds on images that are far from zero on their outermost nodes.

    The projector reads each image inside a ring of zeros, so the field is
    continuous across the grid box: a ray along an edge of the box reads the
    same values to rounding at phi and at each folded angle.  Folded columns
    then agree with direct projection within 1e-14 of the peak of R|f|.
    """

    @pytest.mark.parametrize("image", [noise_image, wide_blob_image], ids=["noise", "wide blobs"])
    @pytest.mark.parametrize("kind", sorted(EDGE_SCANS))
    def test_folded_transform_matches_direct_projection(self, rng, image, kind):
        geom, d_tau, angles = EDGE_SCANS[kind]
        tau_grid = ur.TauGrid.covering(geom, d_tau)
        img = image(rng, geom)
        edge = np.concatenate([img.values[[0, -1]].ravel(), img.values[:, [0, -1]].ravel()])
        assert np.min(np.abs(edge)) > 0.0
        taus, dirs = tau_grid.taus(), directions(angles)
        sino = ur.radon_transform(img, tau_grid, angles).values
        direct = _project(geom, [img.values], taus, dirs, None)[0]
        n_rep = len(_fold_plan(geom, tau_grid, angles).phis)
        assert np.array_equal(sino[:, :n_rep], direct[:, :n_rep])
        assert np.max(np.abs(sino - direct)) <= 1e-14 * abs_peak(geom, img, taus, dirs, None)

    @D4_SETTINGS
    @given(square_scans())
    def test_d4_identities_and_fold_on_noise_images(self, scan):
        # as TestD4Fold's first two properties, over the full turn of n angles
        # with the scan's step, whose first angles are the scan's
        geom, tau_grid, angles, ray_step, seed = scan
        img = noise_image(np.random.default_rng(seed), geom)
        n = round(2 * np.pi / angles.d_phi)
        taus, q = tau_grid.taus(), n // 4
        dirs = directions(ur.AngularRange.full(n))
        direct = _project(geom, [img.values], taus, dirs, ray_step)[0]
        scale = abs_peak(geom, img, taus, dirs, ray_step)
        m = np.arange(n)
        for copy, column in zip(d4_copies(img), (m, q - m, m + q, 2 * q - m)):
            got = _project(geom, [copy], taus, dirs, ray_step)[0]
            assert np.max(np.abs(got - direct[:, column % n])) <= 1e-14 * scale
        assert np.max(np.abs(direct[::-1, :] - direct[:, (m + 2 * q) % n])) <= 1e-14 * scale
        sino = ur.radon_transform(img, tau_grid, angles, ray_step).values
        n_rep = len(_fold_plan(geom, tau_grid, angles).phis)
        assert np.array_equal(sino[:, :n_rep], direct[:, :n_rep])
        assert np.max(np.abs(sino - direct[:, :angles.n_phi])) <= 1e-14 * scale


# --- row blocks over threads: results do not depend on the thread count ---

# Each maps the bilinear corner (i0, j0) of an n x n padded plane (the image
# inside its ring of zeros) to the flat index it reads in the padded f and the
# index steps of its i + 1 and j + 1 neighbours, so that channel q reads
# d4_copies(img)[q] from the padded planes of img itself.
CORNER_REMAPS = (
    lambda i0, j0, n: (i0 * n + j0, n, 1),
    lambda i0, j0, n: (j0 * n + i0, 1, n),
    lambda i0, j0, n: ((n - 1 - j0) * n + i0, 1, -n),
    lambda i0, j0, n: ((n - 1 - i0) * n + j0, -n, 1),
)


def unblocked_projection(images, taus, dirs, ray_step, channels=CORNER_REMAPS[:1]):
    """One row-major pass over all tau rows per direction, channels by remapped corners.

    Returns the rows channel-major: row q * n_images + k is image k read
    through channels[q].
    """
    geometry = images[0].geometry
    if ray_step is None:
        ray_step = ur.default_ray_step(geometry)
    offsets, h = fwd._ray_offsets(geometry, ray_step)
    nx, ny = geometry.nx, geometry.ny
    planes = np.stack([np.pad(part, 1) for img in images
                       for part in (img.values.real, img.values.imag)])
    planes = planes.reshape(len(planes), (nx + 2) * (ny + 2))
    sums = np.empty((len(channels), len(planes), len(taus), len(dirs)))
    for m, (c, s) in enumerate(dirs):
        fx = (taus[:, None] * c - offsets[None, :] * s - geometry.x_min) / geometry.dx + 1.0
        fy = (taus[:, None] * s + offsets[None, :] * c - geometry.y_min) / geometry.dy + 1.0
        keep = np.flatnonzero((fx > 0.0) & (fx < nx + 1) & (fy > 0.0) & (fy < ny + 1))
        fx, fy = fx.ravel()[keep], fy.ravel()[keep]
        i0, j0 = fx.astype(np.intp), fy.astype(np.intp)
        tx, ty = fx - i0, fy - j0
        rows = keep // len(offsets)
        w00, w10 = (1.0 - tx) * (1.0 - ty), tx * (1.0 - ty)
        w01, w11 = (1.0 - tx) * ty, tx * ty
        for q, remap in enumerate(channels):
            corner, di, dj = remap(i0, j0, ny + 2)
            for k, plane in enumerate(planes):
                samples = (w00 * plane.take(corner) + w10 * plane.take(corner + di)
                           + w01 * plane.take(corner + dj) + w11 * plane.take(corner + di + dj))
                sums[q, k, :, m] = np.bincount(rows, weights=samples, minlength=len(taus))
    sums = sums.reshape(len(channels) * len(planes), len(taus), len(dirs))
    return (sums[0::2] + 1j * sums[1::2]) * h


def block_rows(geom, ray_step):
    """Tau rows per projector task for this geometry and ray step."""
    n_s = len(fwd._ray_offsets(geom, ray_step or ur.default_ray_step(geom))[0])
    return max(1, fwd._BLOCK_SAMPLES // n_s)


SCAN_KINDS = {
    "d4": (ur.GridGeometry.centered(20, 20, 3.0, 3.0), ur.AngularRange.full(16)),
    "pi-mirrored": (ur.GridGeometry.centered(20, 20, 3.0, 3.0), ur.AngularRange.full(10)),
    "general": (ur.GridGeometry.centered(20, 20, 3.0, 3.0), ur.AngularRange(0.3, 5.9, 7)),
    "off-centre": (ur.GridGeometry(23, 17, -1.3, -0.4, 0.11, 0.13), ur.AngularRange.full(8)),
}


@st.composite
def long_tau_scans(draw):
    """A scan whose symmetric tau grid spans two to four row blocks, the last one partial."""
    kind = draw(st.sampled_from(sorted(SCAN_KINDS)))
    geom, angles = SCAN_KINDS[kind]
    ray_step = draw(st.sampled_from([None, 0.037, 0.05]))
    block = block_rows(geom, ray_step)
    n_tau = 2 * draw(st.integers(block + 1, 2 * block - 1)) + 1
    tau_grid = ur.TauGrid.symmetric(3.0 * geom.bounding_radius / n_tau, n_tau)
    return kind, geom, tau_grid, angles, ray_step, draw(st.integers(0, 2**32 - 1))


def with_cpus(n, fn, *args):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fwd, "_cpu_count", lambda: n)
        return fn(*args)


class TestRowBlocksAndThreads:
    @D4_SETTINGS
    @given(long_tau_scans())
    def test_projection_is_the_unblocked_loop_at_any_thread_count(self, scan):
        kind, geom, tau_grid, angles, ray_step, seed = scan
        rng = np.random.default_rng(seed)
        images = [noise_image(rng, geom), blob_image(rng, geom)]
        taus, dirs = tau_grid.taus(), directions(angles)[:3]
        views, channels = [img.values for img in images], CORNER_REMAPS[:1]
        if kind == "d4":
            # channel-major, as _radon_values passes them: copy q of every image, then q + 1
            copies = [d4_copies(img) for img in images]
            views, channels = [c[q] for q in range(4) for c in copies], CORNER_REMAPS
        assert len(taus) > 2 * block_rows(geom, ray_step)
        want = unblocked_projection(images, taus, dirs, ray_step, channels)
        for n_cpus in (1, 2, 3):
            got = with_cpus(n_cpus, _project, geom, views, taus, dirs, ray_step)
            assert np.array_equal(got, want)

    @D4_SETTINGS
    @given(long_tau_scans())
    def test_transform_is_bit_identical_at_any_thread_count(self, scan):
        kind, geom, tau_grid, angles, ray_step, seed = scan
        img = blob_image(np.random.default_rng(seed), geom)
        plan = _fold_plan(geom, tau_grid, angles)
        assert (len(plan.views) == 4) == (kind == "d4")
        assert plan.mirrored == (kind != "general")
        sinos = [with_cpus(n, ur.radon_transform, img, tau_grid, angles, ray_step).values
                 for n in (1, 2, 3)]
        assert np.array_equal(sinos[0], sinos[1]) and np.array_equal(sinos[0], sinos[2])
        # the projected columns are those of the unblocked loop
        n_projected = {"d4": angles.n_phi // 8 + 1, "general": angles.n_phi}.get(
            kind, angles.n_phi // 2)
        want = unblocked_projection([img], tau_grid.taus(), directions(angles)[:n_projected],
                                    ray_step)[0]
        assert np.array_equal(sinos[1][:, :n_projected], want)

    def test_radon_point_equals_transform_entries_across_block_edges(self, rng):
        geom, angles = SCAN_KINDS["d4"]
        block = block_rows(geom, None)
        tau_grid = ur.TauGrid.symmetric(2.0 * geom.bounding_radius / (3 * block), 3 * block + 1)
        img = blob_image(rng, geom)
        sino = with_cpus(2, ur.radon_transform, img, tau_grid, angles).values
        taus = tau_grid.taus()
        for m, phi in enumerate(angles.phis()[:3]):
            for t in (0, block - 1, block, 2 * block - 1, 2 * block, len(taus) - 1):
                assert with_cpus(2, ur.radon_point, img, taus[t], phi) == sino[t, m]


# --- support boxes: ray samples that can read only zero nodes are dropped, bit for bit ---

# the first grid has nodes on x = 0 and y = 0, so quadrant masks cut along a node line
SUPPORT_GRIDS = (ur.GridGeometry(21, 17, -1.0, -0.8, 0.1, 0.1), OFF_CENTRE,
                 ur.GridGeometry.centered(16, 16, 3.2, 3.2))


def zero_margin_array(rng, geom, kind):
    """One array on geom: a nonzero node at a corner or on an edge, a random block of
    nonzero nodes, a quadrant-masked blob, all zero, or noise on every node."""
    nx, ny = geom.nx, geom.ny
    a = np.zeros((nx, ny), dtype=complex)
    value = complex(rng.normal(), rng.normal())
    if kind == "corner":
        a[rng.choice([0, nx - 1]), rng.choice([0, ny - 1])] = value
    elif kind == "edge":
        i, j = rng.integers(nx), rng.integers(ny)
        if rng.integers(2):
            i = rng.choice([0, nx - 1])
        else:
            j = rng.choice([0, ny - 1])
        a[i, j] = value
    elif kind == "block":
        (i0, i1), (j0, j1) = np.sort(rng.integers(nx, size=2)), np.sort(rng.integers(ny, size=2))
        a[i0:i1 + 1, j0:j1 + 1] = rng.normal(size=(i1 - i0 + 1, j1 - j0 + 1)) + 1j * value
    elif kind == "quadrant":
        blob = ur.GaussianBlob(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0),
                               rng.uniform(0.2, 0.6), value)
        mask = rng.choice([ur.RegionMask.QUADRANT_I, ur.RegionMask.QUADRANT_III])
        a = ur.rasterize(ur.CompositeScene(((blob, mask),)), geom).values
    elif kind == "full":
        a = noise_image(rng, geom).values
    return a


@st.composite
def zero_margin_scans(draw):
    """Arrays with random zero margins mixed with full-support ones, tau rows that pass
    through nodes, axis-aligned and random directions, and a row-block size."""
    geom = draw(st.sampled_from(SUPPORT_GRIDS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(["corner", "edge", "block", "quadrant", "zero", "full"]),
                          min_size=1, max_size=6))
    arrays = [zero_margin_array(rng, geom, kind) for kind in kinds]
    # a half node step from below the grid to above it: at phi = 0 and pi/2 some rows
    # run along node lines, where the box edges fall exactly on samples
    d_tau = 0.5 * min(geom.dx, geom.dy)
    taus = -geom.bounding_radius + d_tau * np.arange(int(2.0 * geom.bounding_radius / d_tau) + 2)
    dirs = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
    dirs += [ur.direction(phi) for phi in rng.uniform(0.0, 2.0 * np.pi, size=4)]
    return geom, arrays, taus, dirs, draw(st.sampled_from([fwd._BLOCK_SAMPLES, 600]))


class TestSupportBoxes:
    @D4_SETTINGS
    @given(zero_margin_scans())
    def test_projection_is_the_unblocked_loop_alone_and_together(self, scan):
        geom, arrays, taus, dirs, block_samples = scan
        want = unblocked_projection([ur.ImageGrid2D(geom, a) for a in arrays], taus, dirs, None)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(fwd, "_BLOCK_SAMPLES", block_samples)
            for n_cpus in (1, 2, 3):
                assert same_bits(with_cpus(n_cpus, _project, geom, arrays, taus, dirs, None), want)
            for a, alone in zip(arrays, want):
                assert same_bits(_project(geom, [a], taus, dirs, None)[0], alone)

    @pytest.mark.parametrize("geom", SUPPORT_GRIDS[:2])
    def test_boxes_bound_the_nonzero_nodes(self, rng, geom):
        a = zero_margin_array(rng, geom, "block")
        i_lo, i_hi, j_lo, j_hi = fwd._support_box(a)
        rows, cols = np.nonzero(a)
        assert (i_lo, i_hi, j_lo, j_hi) == (rows.min(), rows.max() + 2, cols.min(), cols.max() + 2)
        assert fwd._support_box(np.zeros_like(a)) is None
        assert fwd._support_box(noise_image(rng, geom).values) == (0, geom.nx + 1, 0, geom.ny + 1)

    def test_a_third_quadrant_term_is_not_sampled_on_a_probe_window(self, monkeypatch):
        # the probes of uradon holonomy and defect: 32 taus in (0.2, 3], phi in [0, pi/2]
        geom = ur.GridGeometry.centered(64, 64, 8.0, 8.0)

        def masked(c, mask):   # a blob at (c, c) in its own quadrant
            blob = ur.GaussianBlob(c, c, 0.5, 1.0 - 0.5j)
            return ur.rasterize(ur.CompositeScene(((blob, mask),)), geom).values

        q1, q3 = masked(1.5, ur.RegionMask.QUADRANT_I), masked(-1.5, ur.RegionMask.QUADRANT_III)
        assert np.all(q3[:32, :32] != 0.0) and not q3[32:].any() and not q3[:, 32:].any()
        taus = ur.TauGrid(0.2 + 2.8 / 64, 2.8 / 32, 32).taus()
        plus = [ur.direction(phi) for phi in np.linspace(0.0, np.pi / 2.0, 12)]
        minus = [(-c, -s) for c, s in plus]
        samples = []
        bincount = np.bincount
        monkeypatch.setattr(np, "bincount",
                            lambda rows, **kw: samples.append(len(rows)) or bincount(rows, **kw))

        def counted(arrays, dirs):
            samples.clear()
            values = _project(geom, arrays, taus, dirs, None)
            return values, sum(samples)

        values, n = counted([q3], plus)
        assert n == 0 and not values.any()
        values, n = counted([q1], minus)   # and the first quadrant after a half turn
        assert n == 0 and not values.any()
        _, n_q1 = counted([q1], plus)
        _, n_q3 = counted([q3], minus)
        _, n_full = counted([q1 + q3], plus)
        assert 0 < n_q1 < n_full and 0 < n_q3 < n_full


@pytest.fixture
def three_cpus(monkeypatch):
    """_cpu_count reads 3, with a fresh two-worker pool that is shut down afterwards."""
    monkeypatch.setattr(fwd, "_cpu_count", lambda: 3)
    monkeypatch.setattr(fwd, "_pool", None)
    yield
    if fwd._pool is not None:
        fwd._pool.shutdown(wait=True)


class TestRunTasks:
    def test_one_cpu_or_one_task_runs_inline(self, monkeypatch):
        threads = []
        monkeypatch.setattr(fwd, "_cpu_count", lambda: 1)
        fwd._run_tasks(lambda item: threads.append(threading.get_ident()), list(range(5)))
        monkeypatch.setattr(fwd, "_cpu_count", lambda: 4)
        fwd._run_tasks(lambda item: threads.append(threading.get_ident()), [0])
        assert threads == [threading.get_ident()] * 6

    def test_every_item_runs_once_under_contention(self, three_cpus):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                done = []
                fwd._run_tasks(done.append, list(range(500)))
                assert sorted(done) == list(range(500))
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("failing", ["caller", "worker"])
    def test_failure_reaches_the_caller_after_every_worker_stopped(self, three_cpus, failing):
        caller = threading.get_ident()
        lock = threading.Lock()
        running, started = [0], []

        def task(item):
            on_caller = threading.get_ident() == caller
            with lock:
                running[0] += 1
                started.append(item)
            try:
                time.sleep(0.002 if on_caller else 0.02)
                if item >= 3 and on_caller == (failing == "caller"):
                    raise RuntimeError(f"task {item} failed")
            finally:
                with lock:
                    running[0] -= 1

        with pytest.raises(RuntimeError, match="failed"):
            fwd._run_tasks(task, list(range(40)))
        assert running[0] == 0
        n_started = len(started)
        time.sleep(0.05)
        assert len(started) == n_started < 40  # nothing started after the failure


    def test_a_call_from_a_pool_worker_runs_inline(self, monkeypatch):
        # a fresh one-worker pool: a nested call that waited for it would wait forever
        monkeypatch.setattr(fwd, "_cpu_count", lambda: 2)
        monkeypatch.setattr(fwd, "_pool", None)
        done, lock = [], threading.Lock()

        def inner(item):
            with lock:
                done.append(item)

        def outer(item):
            time.sleep(0.01)   # lets the worker take an item of its own
            fwd._run_tasks(inner, [(item, k) for k in range(3)])

        caller = threading.Thread(target=fwd._run_tasks, args=(outer, list(range(4))))
        caller.start()
        caller.join(timeout=30)
        pool = fwd._pool
        assert not caller.is_alive(), "a nested _run_tasks deadlocked"
        pool.shutdown(wait=True)
        assert sorted(done) == [(i, k) for i in range(4) for k in range(3)]

def _project_in_child(conn, args):
    conn.send(_project(*args))
    conn.close()


@pytest.mark.skipif(sys.platform != "linux", reason="the fork start method is tested on Linux")
@pytest.mark.filterwarnings("ignore:This process .* is multi-threaded:DeprecationWarning")
def test_forked_child_projects_with_a_pool_of_its_own(three_cpus, rng):
    geom, angles = SCAN_KINDS["general"]
    args = (geom, [noise_image(rng, geom).values], ur.TauGrid.symmetric(0.01, 401).taus(),
            directions(angles), None)
    want = _project(*args)
    assert fwd._pool is not None  # the parent's workers exist before the fork
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_project_in_child, args=(child_conn, args))
    child.start()
    try:
        assert parent_conn.poll(30), "the forked child hung"
        got = parent_conn.recv()
    finally:
        child.join(timeout=30)
        if child.is_alive():
            child.kill()
    assert not child.is_alive() and child.exitcode == 0
    assert np.array_equal(got, want)
