import numpy as np
import pytest

import uradon as ur
from uradon.cli import _restrict_angles


def make_image(rng, nx=5, ny=4):
    geom = ur.GridGeometry.centered(nx, ny, 2.0, 1.5)
    vals = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    return ur.ImageGrid2D.from_geometry(geom, vals)


class TestGridGeometry:
    def test_validation(self):
        with pytest.raises(ValueError):
            ur.GridGeometry(1, 4, 0.0, 0.0, 0.1, 0.1)
        with pytest.raises(ValueError):
            ur.GridGeometry(4, 4, 0.0, 0.0, -0.1, 0.1)
        with pytest.raises(ValueError):
            ur.GridGeometry(4, 4, 0.0, 0.0, 0.1, 0.0)

    def test_centered_is_node_symmetric(self):
        geom = ur.GridGeometry.centered(8, 8, 4.0, 4.0)
        assert geom.x_min == -geom.x_max
        # no node exactly on either axis
        assert np.all(np.abs(geom.x_nodes()) >= geom.dx / 2 - 1e-15)
        assert np.isclose(geom.x_max - geom.x_min, 4.0 - geom.dx)

    def test_extent_and_radius(self):
        geom = ur.GridGeometry(3, 2, 1.0, -1.0, 0.5, 1.0)
        assert geom.x_max == 2.0
        assert geom.y_max == 0.0
        assert geom.bounding_radius == pytest.approx(np.hypot(2.0, 1.0))


class TestImageGrid2D:
    def test_real_valued_flag_is_exact(self, rng):
        geom = ur.GridGeometry.centered(4, 4, 1.0, 1.0)
        real = ur.ImageGrid2D.from_geometry(geom, np.ones((4, 4)))
        assert real.real_valued
        dirty = np.ones((4, 4), dtype=complex)
        dirty[2, 1] += 1e-300j
        assert not ur.ImageGrid2D.from_geometry(geom, dirty).real_valued

    def test_values_are_immutable(self, rng):
        img = make_image(rng)
        with pytest.raises(ValueError):
            img.values[0, 0] = 1.0

    def test_shape_mismatch_rejected(self):
        geom = ur.GridGeometry.centered(4, 4, 1.0, 1.0)
        with pytest.raises(ValueError):
            ur.ImageGrid2D.from_geometry(geom, np.zeros((3, 4)))

    def test_total_integral_constant_image(self):
        geom = ur.GridGeometry(3, 3, 0.0, 0.0, 0.5, 0.5)
        img = ur.ImageGrid2D.from_geometry(geom, np.full((3, 3), 2.0))
        assert img.total_integral() == pytest.approx(2.0 * 1.0 * 1.0)


class TestBilinearSample:
    def test_constant_image_reproduced(self, rng):
        geom = ur.GridGeometry.centered(6, 6, 3.0, 3.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.full((6, 6), 3.0 - 2.0j))
        for _ in range(20):
            x = rng.uniform(geom.x_min, geom.x_max)
            y = rng.uniform(geom.y_min, geom.y_max)
            assert ur.bilinear_sample(img, x, y) == pytest.approx(3.0 - 2.0j, abs=1e-14)

    def test_outside_extent_is_exactly_zero(self, rng):
        # zero from one node step past the extent on; half the edge value half a step past it
        img = make_image(rng)
        g, v = img.geometry, img.values
        assert ur.bilinear_sample(img, g.x_max + g.dx + 1e-9, 0.0) == 0.0
        assert ur.bilinear_sample(img, g.x_min, g.y_min - g.dy - 1e-9) == 0.0
        assert ur.bilinear_sample(img, 0.0, g.y_min - 5.0) == 0.0
        assert ur.bilinear_sample(img, 1e6, -1e6) == 0.0
        assert ur.bilinear_sample(img, g.x_max + g.dx / 2, g.y_min + g.dy) == pytest.approx(
            0.5 * v[-1, 1], abs=1e-14)
        assert ur.bilinear_sample(img, g.x_min + 2 * g.dx, g.y_min - g.dy / 2) == pytest.approx(
            0.5 * v[2, 0], abs=1e-14)
        assert ur.bilinear_sample(img, g.x_min - g.dx / 2, g.y_max + g.dy / 2) == pytest.approx(
            0.25 * v[0, -1], abs=1e-14)

    def test_matches_np_interp_along_x_then_y(self, rng):
        # the zero-padded node axis read by np.interp, first along x per column, then along y
        img = make_image(rng)
        g, v = img.geometry, img.values
        pts = rng.uniform([g.x_min - 2.5 * g.dx, g.y_min - 2.5 * g.dy],
                          [g.x_max + 2.5 * g.dx, g.y_max + 2.5 * g.dy], size=(200, 2))
        got = ur.bilinear_sample(img, pts[:, 0], pts[:, 1])
        xs, ys = np.arange(-1, g.nx + 1), np.arange(-1, g.ny + 1)
        for (x, y), value in zip(pts, got):
            fx, fy = (x - g.x_min) / g.dx, (y - g.y_min) / g.dy
            along_x = [np.interp(fx, xs, np.pad(v[:, j], 1), left=0.0, right=0.0)
                       for j in range(g.ny)]
            want = np.interp(fy, ys, np.pad(along_x, 1), left=0.0, right=0.0)
            assert abs(value - want) <= 1e-14 * np.max(np.abs(v))

    def test_nodal_exactness(self, rng):
        img = make_image(rng)
        g = img.geometry
        for i in (0, 2, g.nx - 1):
            for j in (0, 1, g.ny - 1):
                got = ur.bilinear_sample(img, g.x_min + i * g.dx, g.y_min + j * g.dy)
                assert got == img.values[i, j]

    def test_linearity_in_values(self, rng):
        geom = ur.GridGeometry.centered(7, 5, 2.0, 2.0)
        u = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        v = rng.normal(size=(7, 5)) + 1j * rng.normal(size=(7, 5))
        a, b = 0.7 - 0.2j, -1.3 + 0.5j
        combo = ur.ImageGrid2D.from_geometry(geom, a * u + b * v)
        iu = ur.ImageGrid2D.from_geometry(geom, u)
        iv = ur.ImageGrid2D.from_geometry(geom, v)
        pts = rng.uniform(-1.2, 1.2, size=(50, 2))
        got = ur.bilinear_sample(combo, pts[:, 0], pts[:, 1])
        want = (a * ur.bilinear_sample(iu, pts[:, 0], pts[:, 1])
                + b * ur.bilinear_sample(iv, pts[:, 0], pts[:, 1]))
        assert np.max(np.abs(got - want)) < 1e-12

    def test_array_broadcast(self, rng):
        img = make_image(rng)
        out = ur.bilinear_sample(img, np.zeros((2, 3)), np.zeros((2, 3)))
        assert out.shape == (2, 3)


class TestAngularRange:
    def test_span_validation(self):
        with pytest.raises(ValueError):
            ur.AngularRange(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            ur.AngularRange(0.0, 7.0, 4)
        with pytest.raises(ValueError):
            ur.AngularRange(0.0, np.pi, 0)

    def test_full_range_detection(self):
        assert ur.AngularRange.full(8).is_full
        assert not ur.AngularRange(0.0, np.pi, 8).is_full

    def test_endpoint_excluded(self):
        angles = ur.AngularRange(0.0, np.pi, 4)
        phis = angles.phis()
        assert len(phis) == 4
        assert phis[0] == 0.0
        assert phis[-1] == pytest.approx(3 * np.pi / 4)
        assert angles.d_phi == pytest.approx(np.pi / 4)

    def test_normalization_constant(self):
        assert ur.ANGULAR_MEASURE_NORM == pytest.approx(1.0 / (4 * np.pi**2))

    def test_index_of_nearest_and_wrap(self):
        angles = ur.AngularRange.full(8)
        assert angles.index_of(0.0) == 0
        assert angles.index_of(angles.d_phi * 3 + 1e-9) == 3
        assert angles.index_of(2 * np.pi - 1e-9) == 0  # periodic wrap
        half = ur.AngularRange(0.0, np.pi, 8)
        with pytest.raises(ValueError):
            half.index_of(3.5)

    def test_index_of_picks_nearest_sample(self):
        angles = ur.AngularRange(0.0, np.pi, 4)
        assert angles.index_of(angles.d_phi * 0.49) == 0
        assert angles.index_of(angles.d_phi * 0.51) == 1


class TestTauGrid:
    def test_symmetric(self):
        tg = ur.TauGrid.symmetric(0.5, 5)
        assert tg.taus() == pytest.approx([-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_symmetry_flag(self):
        assert ur.TauGrid.symmetric(0.1, 7).is_symmetric
        assert ur.TauGrid.symmetric(0.3, 1).is_symmetric
        assert ur.TauGrid(-0.3, 0.1, 7).is_symmetric      # tau_max rounds to 0.30000000000000004
        assert not ur.TauGrid(-0.3, 0.1, 6).is_symmetric
        assert not ur.TauGrid(0.1, 0.1, 5).is_symmetric

    def test_covering_contains_bounding_circle(self):
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        tg = ur.TauGrid.covering(geom, 0.25)
        assert tg.tau_max >= geom.bounding_radius
        assert tg.tau_min == -tg.tau_max

    def test_validation(self):
        with pytest.raises(ValueError):
            ur.TauGrid(0.0, 0.0, 4)
        with pytest.raises(ValueError):
            ur.TauGrid(0.0, 0.1, 0)


TINY = ur.GridGeometry(2, 2, 0.0, 0.0, 0.1, 0.1)
TINY_IMAGE = ur.ImageGrid2D(TINY, np.zeros((2, 2)))


@pytest.mark.parametrize("make", [
    lambda: ur.GridGeometry(4, 4, 0.0, 0.0, np.nan, 0.1),
    lambda: ur.GridGeometry(4, 4, 0.0, 0.0, 0.1, np.inf),
    lambda: ur.GridGeometry(4, 4, 0.0, 0.0, True, 0.1),
    lambda: ur.GridGeometry(4.5, 4, 0.0, 0.0, 0.1, 0.1),
    lambda: ur.GridGeometry(4, 4.0, 0.0, 0.0, 0.1, 0.1),
    lambda: ur.GridGeometry(True, 4, 0.0, 0.0, 0.1, 0.1),
    lambda: ur.GridGeometry(4, 4, np.nan, 0.0, 0.1, 0.1),
    lambda: ur.GridGeometry(4, 4, 0.0, -np.inf, 0.1, 0.1),
    lambda: ur.GridGeometry(4, 4, 0.0, 0.0, "0.1", 0.1),
    lambda: ur.TauGrid(0.0, np.inf, 4),
    lambda: ur.TauGrid(0.0, np.nan, 4),
    lambda: ur.TauGrid(0.0, 0.1, 3.5),
    lambda: ur.TauGrid(0.0, 0.1, 3.0),
    lambda: ur.TauGrid(np.nan, 0.1, 4),
    lambda: ur.AngularRange(0.0, np.pi, 4.5),
    lambda: ur.AngularRange(0.0, np.pi, True),
    lambda: ur.AngularRange(np.nan, np.pi, 4),
    lambda: ur.AngularRange(0.0, np.inf, 4),
    lambda: ur.ImageGrid2D(TINY, [[0.0, np.nan], [0.0, 0.0]]),
    lambda: ur.ImageGrid2D(TINY, [[0.0, 0.0], [complex(0, -np.inf), 0.0]]),
    lambda: ur.Sinogram(0.0, 0.1, 2, ur.AngularRange.full(1), [[np.inf], [0.0]]),
    lambda: ur.VolumeStack((np.nan, 1.0), (TINY_IMAGE, TINY_IMAGE)),
    lambda: ur.VolumeStack((None, 1.0), (TINY_IMAGE, TINY_IMAGE)),
    lambda: ur.VolumeStack(("0.5", 1.0), (TINY_IMAGE, TINY_IMAGE)),
    lambda: ur.HybridField((np.inf,), (TINY_IMAGE,)),
    lambda: ur.HybridField((True,), (TINY_IMAGE,)),
], ids=["dx nan", "dy inf", "dx bool", "nx 4.5", "ny 4.0", "nx bool", "x_min nan",
        "y_min -inf", "dx str", "d_tau inf", "d_tau nan", "n_tau 3.5", "n_tau 3.0",
        "tau_min nan", "n_phi 4.5", "n_phi bool", "phi_min nan", "phi_max inf",
        "image sample nan", "image sample -inf imag", "sinogram sample inf",
        "x3 position nan", "x3 position None", "x3 position str", "k value inf", "k value bool"])
def test_constructors_reject_non_finite_and_non_integer_inputs(make):
    with pytest.raises(ValueError):
        make()


@pytest.mark.parametrize("d_tau", [0.0, -1.0, np.nan, np.inf])
@pytest.mark.parametrize("make", [lambda d_tau: ur.TauGrid.symmetric(d_tau, 5),
                                  lambda d_tau: ur.TauGrid.covering(TINY, d_tau)],
                         ids=["symmetric", "covering"])
def test_tau_grid_classmethods_check_d_tau_first(make, d_tau):
    # computed from first, a bad step raised ZeroDivisionError or blamed tau_min or n_tau
    with pytest.raises(ValueError, match="d_tau"):
        make(d_tau)


@pytest.mark.parametrize("args, name", [((0, 4, 1.0, 1.0), "nx"), ((4, 0, 1.0, 1.0), "ny"),
                                        ((4, 4, np.nan, 1.0), "extent_x"),
                                        ((4, 4, 1.0, -1.0), "extent_y")],
                         ids=["nx 0", "ny 0", "extent_x nan", "extent_y negative"])
def test_centered_geometry_checks_its_arguments_first(args, name):
    # computed from first, a zero size raised ZeroDivisionError and a bad extent blamed x_min
    with pytest.raises(ValueError, match=name):
        ur.GridGeometry.centered(*args)


@pytest.mark.parametrize("n_tau", [0, 3.5, "5"])
def test_symmetric_tau_grid_checks_n_tau(n_tau):
    with pytest.raises(ValueError, match="n_tau"):
        ur.TauGrid.symmetric(0.1, n_tau)


def test_image_grid_holds_a_grid_geometry():
    img = ur.ImageGrid2D(TINY, np.ones((2, 2)))
    assert img.geometry is TINY
    assert ur.ImageGrid2D.from_geometry(TINY, np.ones((2, 2))) == img
    with pytest.raises(TypeError):
        ur.ImageGrid2D((2, 2, 0.0, 0.0, 0.1, 0.1), np.ones((2, 2)))


def test_constructors_accept_numpy_scalars():
    geom = ur.GridGeometry(np.int64(4), 4, np.float64(-0.5), 0, np.float32(0.25), 1)
    assert geom.nx == 4 and geom.dx == 0.25
    assert ur.TauGrid(np.float64(-1.0), 0.5, np.int32(5)).tau_max == 1.0
    assert ur.AngularRange(0, 3, np.uint8(3)).d_phi == 1.0


class TestStacksAndFields:
    def test_volume_stack_validation(self, rng):
        img = make_image(rng)
        with pytest.raises(ValueError):
            ur.VolumeStack((0.0, 0.0), (img, img))       # not increasing
        with pytest.raises(ValueError):
            ur.VolumeStack((0.0,), (img, img))           # length mismatch
        other = make_image(rng, nx=6, ny=4)
        with pytest.raises(ValueError):
            ur.VolumeStack((0.0, 1.0), (img, other))     # geometry differs

    def test_hybrid_field_validation(self, rng):
        img = make_image(rng)
        with pytest.raises(ValueError):
            ur.HybridField((), ())
        with pytest.raises(ValueError):
            ur.HybridField((0.0,), (img, img))

    def test_real_valued_stack(self, rng):
        geom = ur.GridGeometry.centered(4, 4, 1.0, 1.0)
        real = ur.ImageGrid2D.from_geometry(geom, np.ones((4, 4)))
        stack = ur.VolumeStack((0.0, 1.0), (real, real))
        assert stack.real_valued


# --- every path that makes a Sinogram hands it angle-major values ---

def _layout_image():
    geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
    return ur.rasterize(ur.CompositeScene.of(ur.GaussianBlob(0.3, -0.2, 0.6, 1.0 + 0.5j)), geom)


def _tau_grid(img):
    return ur.TauGrid.covering(img.geometry, img.geometry.dx)


def _radon(angles):
    img = _layout_image()
    return ur.radon_transform(img, _tau_grid(img), angles)


def _hybrid(angles):
    img = _layout_image()
    field = ur.HybridField((0.0, 1.0, 2.0), (img, img, img))
    return ur.hybrid_radon(field, _tau_grid(img), angles)[1]


def _defect():
    q1, q3 = ur.RegionMask.QUADRANT_I, ur.RegionMask.QUADRANT_III
    blob, partner = ur.GaussianBlob(1.0, 1.0, 0.5, 1.0), ur.GaussianBlob(-1.0, -1.0, 0.5, 1.0)
    scene = ur.CompositeScene(((ur.GaussianBlob(1.5, 0.5, 0.4, 0.8), q1), (blob, q1),
                               (partner, q1), (blob, q3), (partner, q3)))
    probe = ur.Probe(ur.TauGrid(0.3, 0.2, 8), ur.AngularRange(0.0, np.pi / 2, 4))
    return ur.extract_defect(scene, probe, ur.GridGeometry.centered(32, 32, 8.0, 8.0))


def _read_back(tmp_path):
    sino = _radon(ur.AngularRange(0.0, 2.0, 5))
    ur.write_container(tmp_path / "sino.urdn", sino)
    back = ur.read_container(tmp_path / "sino.urdn")
    assert back == sino
    return back


_RAW = np.arange(12.0).reshape(4, 3) + 1j
_FULL3 = ur.AngularRange.full(3)


@pytest.mark.parametrize("make", [
    lambda tmp: ur.Sinogram(0.0, 0.5, 4, _FULL3, _RAW),
    lambda tmp: ur.Sinogram(0.0, 0.5, 4, _FULL3, np.asfortranarray(_RAW)),
    lambda tmp: ur.Sinogram(0.0, 0.5, 4, _FULL3, _RAW.tolist()),
    lambda tmp: _radon(ur.AngularRange.full(16)),
    lambda tmp: _radon(ur.AngularRange(0.1, 2.0, 7)),
    lambda tmp: _hybrid(ur.AngularRange.full(12)),
    lambda tmp: _hybrid(ur.AngularRange(0.0, 1.5, 5)),
    lambda tmp: _defect(),
    _read_back,
    lambda tmp: _restrict_angles(_radon(ur.AngularRange.full(12)), (0.5, 3.0)),
], ids=["C-order", "F-order", "lists", "radon-full", "radon-partial", "hybrid-full",
        "hybrid-partial", "defect", "read", "restrict-angles"])
def test_sinogram_values_are_read_only_angle_major_rows(tmp_path, make):
    sino = make(tmp_path)
    assert sino.values.shape == (sino.n_tau, sino.angles.n_phi)
    assert sino.values.T.flags.c_contiguous
    with pytest.raises(ValueError):
        sino.values.T[0, 0] = 0.0


@pytest.mark.parametrize("order", ["C", "F"])
def test_sinogram_constructor_copies_its_input(order):
    raw = np.array(_RAW, order=order)
    sino = ur.Sinogram(0.0, 0.5, 4, _FULL3, raw)
    assert not np.shares_memory(sino.values, raw)
    raw[0, 0] = 99.0
    assert np.array_equal(sino.values, _RAW)
