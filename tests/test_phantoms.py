import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uradon as ur
from conftest import fourier_quad_1d, fourier_quad_2d, line_integral_quad, same_bits, traced_peak

SQRT_2PI = 2.5066282746310002  # independent quadrature of exp(-s^2/2): see conftest oracles
TWO_PI = 2 * np.pi


class TestRasterize:
    def test_unit_blob_peak_at_node(self):
        geom = ur.GridGeometry(5, 5, -1.0, -1.0, 0.5, 0.5)  # node exactly at the origin
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.0, 0.0, 1.0, 1.0))
        img = ur.rasterize(scene, geom)
        assert img.values[2, 2] == 1.0

    def test_quadrant3_mask_kills_first_quadrant(self):
        geom = ur.GridGeometry(5, 5, -1.0, -1.0, 0.5, 0.5)
        scene = ur.CompositeScene(((ur.GaussianBlob(1.0, 1.0, 1.0, 1.0),
                                    ur.RegionMask.QUADRANT_III),))
        img = ur.rasterize(scene, geom)
        assert img.values[4, 4] == 0.0      # node at (1, 1)
        assert img.values[0, 0] != 0.0      # node at (-1, -1)

    def test_boundary_belongs_to_first_quadrant(self):
        geom = ur.GridGeometry(3, 3, -1.0, -1.0, 1.0, 1.0)
        q1 = ur.CompositeScene(((ur.GaussianBlob(0.0, 0.0, 1.0, 1.0), ur.RegionMask.QUADRANT_I),))
        q3 = ur.CompositeScene(((ur.GaussianBlob(0.0, 0.0, 1.0, 1.0), ur.RegionMask.QUADRANT_III),))
        assert ur.rasterize(q1, geom).values[1, 1] == 1.0    # axes included
        assert ur.rasterize(q3, geom).values[1, 1] == 0.0    # strict inequality

    def test_two_blobs_sum_pointwise(self, rng):
        geom = ur.GridGeometry.centered(8, 8, 4.0, 4.0)
        b1 = ur.GaussianBlob(0.3, -0.2, 0.8, 1.0 + 0.5j)
        b2 = ur.GaussianBlob(-0.4, 0.6, 1.2, -0.7j)
        both = ur.rasterize(ur.CompositeScene.of(b1, b2), geom)
        parts = (ur.rasterize(ur.CompositeScene.of(b1), geom).values
                 + ur.rasterize(ur.CompositeScene.of(b2), geom).values)
        assert np.array_equal(both.values, parts)


def where_rasterize(scene, geometry):
    """Test-local copy of rasterize before the quadrant blocks: each term over the whole grid,
    masked by np.where."""
    X, Y = geometry.node_mesh()
    values = np.zeros((geometry.nx, geometry.ny), dtype=np.complex128)
    for blob, mask in scene.terms:
        r2 = (X - blob.cx) ** 2 + (Y - blob.cy) ** 2
        term = blob.amplitude * np.exp(-r2 / (2.0 * blob.sigma**2))
        keep = {ur.RegionMask.QUADRANT_I: (X >= 0.0) & (Y >= 0.0),
                ur.RegionMask.QUADRANT_III: (X < 0.0) & (Y < 0.0)}.get(mask, np.True_)
        values += np.where(keep, term, 0.0)
    return values


# nodes exactly on x = 0 and y = 0 (inside, first and -0.0), none on them, and grids
# lying in one quadrant, where the other quadrant's block is empty
AXIS_GRIDS = (ur.GridGeometry(7, 9, -1.5, -2.0, 0.5, 0.5), ur.GridGeometry(6, 5, 0.0, -0.0, 0.3, 0.4),
              ur.GridGeometry.centered(10, 8, 4.0, 3.0), ur.GridGeometry(5, 6, 0.2, 0.1, 0.3, 0.3),
              ur.GridGeometry(5, 6, -2.0, -3.0, 0.3, 0.3), ur.GridGeometry(21, 17, -1.0, -0.8, 0.1, 0.1))

masked_blobs = st.tuples(
    st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.05, 1.5),
    st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False),
    st.sampled_from(list(ur.RegionMask)))


class TestQuadrantBlocks:
    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.sampled_from(AXIS_GRIDS), st.lists(masked_blobs, min_size=1, max_size=5))
    def test_matches_masking_over_the_whole_grid(self, geom, blobs):
        scene = ur.CompositeScene(tuple((ur.GaussianBlob(cx, cy, sigma, amp), mask)
                                        for cx, cy, sigma, amp, mask in blobs))
        assert same_bits(ur.rasterize(scene, geom).values, where_rasterize(scene, geom))

    def test_axis_nodes_belong_to_the_first_quadrant_block(self):
        geom = AXIS_GRIDS[0]
        assert geom.x_nodes()[3] == 0.0 and geom.y_nodes()[4] == 0.0
        blob = ur.GaussianBlob(0.0, 0.0, 1.0, 1.0)
        q1 = ur.rasterize(ur.CompositeScene(((blob, ur.RegionMask.QUADRANT_I),)), geom).values
        q3 = ur.rasterize(ur.CompositeScene(((blob, ur.RegionMask.QUADRANT_III),)), geom).values
        assert np.all(q1[3:, 4:] != 0.0) and not q1[:3].any() and not q1[:, :4].any()
        assert np.all(q3[:3, :4] != 0.0) and not q3[3:].any() and not q3[:, 4:].any()

    def test_the_image_adopts_its_samples_and_still_checks_them(self):
        # peak: the 256^2 complex image, 16 B per node, and the term's temporaries on its
        # 128^2 quadrant block, at most 48 B per block node; a copy would add 16 B per node
        geom = ur.GridGeometry.centered(256, 256, 8.0, 8.0)
        blob = ur.GaussianBlob(1.0, 1.5, 0.5, 1.0 - 0.5j)
        scene = ur.CompositeScene(((blob, ur.RegionMask.QUADRANT_I),))
        _, peak = traced_peak(lambda: ur.rasterize(scene, geom))
        assert peak <= 16 * 256 * 256 + 48 * 128 * 128
        huge = ur.CompositeScene.of(*[ur.GaussianBlob(0.0, 0.0, 1.0, 1e308)] * 2)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="finite"):
            ur.rasterize(huge, geom)


class TestAnalyticRadon:
    def test_unit_blob_center_value(self, unit_blob_scene):
        got = ur.analytic_radon(unit_blob_scene, 0.0, 0.7)
        assert got == pytest.approx(SQRT_2PI, abs=1e-12)
        # independent brute-force line integral agrees
        assert got == pytest.approx(line_integral_quad(unit_blob_scene, 0.0, 0.7), abs=1e-9)

    def test_localization(self, unit_blob_scene):
        assert abs(ur.analytic_radon(unit_blob_scene, 30.0, 0.3)) < 1e-100

    def test_peak_shifts_with_center(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(1.0, 0.0, 1.0, 1.0))
        got = ur.analytic_radon(scene, 1.0, 0.0)      # tau = <n_0, c> = 1
        assert got == pytest.approx(SQRT_2PI, abs=1e-12)
        assert got == pytest.approx(line_integral_quad(scene, 1.0, 0.0), abs=1e-9)

    def test_random_scenes_match_quadrature(self, rng):
        for _ in range(5):
            scene = ur.CompositeScene.of(
                ur.GaussianBlob(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                rng.uniform(0.5, 1.5),
                                complex(rng.normal(), rng.normal())))
            tau = float(rng.uniform(-2, 2))
            phi = float(rng.uniform(0, TWO_PI))
            want = line_integral_quad(scene, tau, phi)
            assert abs(ur.analytic_radon(scene, tau, phi) - want) < 1e-9

    def test_masked_scene_rejected(self):
        scene = ur.CompositeScene(((ur.GaussianBlob(1.0, 1.0, 0.5, 1.0),
                                    ur.RegionMask.QUADRANT_I),))
        with pytest.raises(ur.UnsupportedOracleError):
            ur.analytic_radon(scene, 0.0, 0.0)


class TestAnalyticFourier:
    def test_zero_frequency_is_total_mass(self, unit_blob_scene):
        assert ur.analytic_fourier(unit_blob_scene, 0.0, 0.0) == pytest.approx(TWO_PI, abs=1e-12)

    def test_high_frequency_decay(self, unit_blob_scene):
        assert abs(ur.analytic_fourier(unit_blob_scene, 40.0, 0.1)) < 1e-100

    def test_shift_theorem_value(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(1.0, 0.0, 1.0, 1.0))
        want = TWO_PI * np.exp(-np.pi**2 / 2) * np.exp(-1j * np.pi)
        got = ur.analytic_fourier(scene, np.pi, 0.0)
        assert got == pytest.approx(want, abs=1e-12)
        assert got == pytest.approx(fourier_quad_2d(scene, np.pi, 0.0), abs=1e-7)

    def test_random_scenes_match_2d_quadrature(self, rng):
        for _ in range(3):
            scene = ur.CompositeScene.of(
                ur.GaussianBlob(rng.uniform(-1, 1), rng.uniform(-1, 1),
                                rng.uniform(0.6, 1.4),
                                complex(rng.normal(), rng.normal())))
            lam = float(rng.uniform(0, 3))
            phi = float(rng.uniform(0, TWO_PI))
            want = fourier_quad_2d(scene, lam, phi)
            assert abs(ur.analytic_fourier(scene, lam, phi) - want) < 1e-6

    def test_masked_scene_rejected(self):
        scene = ur.CompositeScene(((ur.GaussianBlob(1.0, 1.0, 0.5, 1.0),
                                    ur.RegionMask.QUADRANT_I),))
        with pytest.raises(ur.UnsupportedOracleError):
            ur.analytic_fourier(scene, 1.0, 0.0)


def test_slice_identity_exact_on_oracle_class(rng):
    # analytic_fourier(lam, phi) == integral exp(-i lam tau) analytic_radon(tau, phi) dtau
    scene = ur.CompositeScene.of(
        ur.GaussianBlob(0.4, -0.7, 0.9, 1.0 + 0.3j),
        ur.GaussianBlob(-0.5, 0.2, 1.3, 0.8 - 0.2j))
    for _ in range(20):
        lam = float(rng.uniform(0, 4))
        phi = float(rng.uniform(0, TWO_PI))
        lhs = ur.analytic_fourier(scene, lam, phi)
        rhs = fourier_quad_1d(scene, lam, phi)
        assert abs(lhs - rhs) / abs(lhs) < 1e-8


class TestSceneFiles:
    def test_text_roundtrip(self):
        scene = ur.CompositeScene((
            (ur.GaussianBlob(0.25, -1.5, 0.75, 1.0 + 2.0j), ur.RegionMask.QUADRANT_I),
            (ur.GaussianBlob(-3.0, 0.125, 1.25, -0.5), ur.RegionMask.NONE)))
        text = ("cx=0.25 cy=-1.5 sigma=0.75 amp_re=1.0 amp_im=2.0 mask=quadrant1\n"
                "cx=-3.0 cy=0.125 sigma=1.25 amp_re=-0.5 amp_im=0.0 mask=none\n")
        back, profile = ur.scene_from_text(text)
        assert back == scene
        assert profile is None

    def test_profile_line_roundtrip(self):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.0, 0.0, 1.0, 1.0))
        text = ("profile center=0.5 sigma=1.5\n"
                "cx=0.0 cy=0.0 sigma=1.0 amp_re=1.0 amp_im=0.0 mask=none\n")
        back, profile = ur.scene_from_text(text)
        assert profile is not None
        assert profile.x3_center == 0.5 and profile.x3_sigma == 1.5
        assert back == scene

    def test_comments_and_defaults(self):
        scene, _ = ur.scene_from_text("# header\ncx=1 cy=2 sigma=0.5  # inline\n")
        blob, mask = scene.terms[0]
        assert (blob.cx, blob.cy, blob.sigma) == (1.0, 2.0, 0.5)
        assert blob.amplitude == 1.0
        assert mask is ur.RegionMask.NONE

    @pytest.mark.parametrize("text", ["", "cx=1 cy=2", "cx=a cy=0 sigma=1",
                                      "cx=0 cy=0 sigma=1 mask=quadrant7", "justnoise",
                                      "cx=0 cy=0 sigma=nan", "cx=inf cy=0 sigma=1",
                                      "cx=0 cy=0 sigma=1 amp_imag=5\n",
                                      "cx=0 cy=0 sigma=1 cx=2",
                                      "profile center=1 sigma=2\nprofile center=5 wdith=9\n"
                                      "cx=0 cy=0 sigma=1"])
    def test_bad_text_rejected(self, text):
        with pytest.raises(ur.SceneFormatError):
            ur.scene_from_text(text)

    @pytest.mark.parametrize("text, line", [
        ("# blobs\ncx=0 cy=0 sigma=1 amp_imag=5\n", 2),         # misspelled amp_im
        ("cx=0 cy=0 sigma=1 mask=none\ncx=0 cy=0 sigma=1 cx=2", 2),
        ("cx=0 cy=0 sigma=1\nprofile center=1 wdith=9", 2),      # misspelled sigma
        ("profile center=1 cx=0\ncx=0 cy=0 sigma=1", 1),         # a blob key on the profile
        ("cx=0 cy=0 sigma=1 center=1", 1),                        # a profile key on a blob
        ("profile sigma=2 sigma=3\ncx=0 cy=0 sigma=1", 1),
        ("profilecenter=1 sigma=2\ncx=0 cy=0 sigma=1", 1),      # a blob line, not a profile
        ("profile center=1 sigma=2\ncx=0 cy=0 sigma=1\nprofile center=5 sigma=1", 3),
    ])
    def test_unknown_or_repeated_keys_name_the_line(self, text, line):
        # a misspelled key used to fall back to its default, a repeated key or profile
        # line to overwrite the first one, silently
        with pytest.raises(ur.SceneFormatError, match=f"^line {line}: "):
            ur.scene_from_text(text)

    def test_file_roundtrip(self, tmp_path):
        scene = ur.CompositeScene.of(ur.GaussianBlob(1.0, -1.0, 0.5, 2.0))
        path = tmp_path / "s.scene"
        path.write_text("cx=1.0 cy=-1.0 sigma=0.5 amp_re=2.0 amp_im=0.0 mask=none\n")
        back, _ = ur.load_scene(path)
        assert back == scene


class TestSeparableScene3D:
    def test_profile_values(self):
        wrapper = ur.SeparableScene3D(ur.CompositeScene.of(ur.GaussianBlob(0, 0, 1, 1)),
                                      x3_center=0.0, x3_sigma=1.0)
        assert wrapper.profile(0.0) == 1.0
        assert wrapper.profile(1.0) == pytest.approx(np.exp(-0.5))

    def test_profile_transform_matches_quadrature(self):
        wrapper = ur.SeparableScene3D(ur.CompositeScene.of(ur.GaussianBlob(0, 0, 1, 1)),
                                      x3_center=0.7, x3_sigma=1.2)
        x3 = np.linspace(-40, 40, 400_001)
        for k in (0.0, 0.9, 2.3):
            want = np.trapezoid(np.exp(-1j * k * x3) * wrapper.profile(x3), x3)
            assert abs(wrapper.profile_transform(k) - want) < 1e-9

    def test_sigma_validation(self):
        base = ur.CompositeScene.of(ur.GaussianBlob(0, 0, 1, 1))
        with pytest.raises(ValueError):
            ur.SeparableScene3D(base, 0.0, 0.0)
        for name, center, sigma in (("x3_center", np.nan, 1.0), ("x3_sigma", 0.0, np.nan),
                                    ("x3_sigma", 0.0, np.inf)):
            with pytest.raises(ValueError, match=name):
                ur.SeparableScene3D(base, center, sigma)


def test_blob_and_scene_validation():
    with pytest.raises(ValueError):
        ur.GaussianBlob(0.0, 0.0, 0.0, 1.0)
    for name, args in (("cx", (np.nan, 0.0, 1.0)), ("cy", (0.0, np.inf, 1.0)),
                       ("sigma", (0.0, 0.0, np.nan))):
        with pytest.raises(ValueError, match=name):
            ur.GaussianBlob(*args, 1.0)
    with pytest.raises(ValueError):
        ur.CompositeScene(())
    assert ur.CompositeScene.of(ur.GaussianBlob(0, 0, 1, 2.0),
                                ur.GaussianBlob(0, 0, 1, -3.0)).peak == 3.0
