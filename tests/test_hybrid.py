import numpy as np
import pytest

import uradon as ur
from conftest import rel_l2


def random_stack(rng, n=8, nx=12, complex_values=False):
    geom = ur.GridGeometry.centered(nx, nx, 4.0, 4.0)
    slices = []
    for _ in range(n):
        vals = rng.normal(size=(nx, nx))
        if complex_values:
            vals = vals + 1j * rng.normal(size=(nx, nx))
        slices.append(ur.ImageGrid2D.from_geometry(geom, vals))
    x3 = tuple(-3.5 + 1.0 * k for k in range(n))
    return ur.VolumeStack(x3, tuple(slices))


@pytest.fixture
def scene3d():
    base = ur.CompositeScene.of(ur.GaussianBlob(0.4, -0.2, 1.0, 1.0))
    return ur.SeparableScene3D(base, x3_center=0.0, x3_sigma=1.5)


class TestMakeSlices:
    def test_single_slice_equals_2d_rasterization(self, scene3d):
        geom = ur.GridGeometry.centered(16, 16, 6.0, 6.0)
        stack = ur.make_slices(scene3d, [0.0], geom)
        assert stack.n_slices == 1
        base = ur.rasterize(scene3d.base, geom)
        assert np.array_equal(stack.slices[0].values, base.values)

    def test_separable_profile_weights(self, scene3d):
        geom = ur.GridGeometry.centered(16, 16, 6.0, 6.0)
        positions = [-3.5 + 1.0 * n for n in range(8)]
        stack = ur.make_slices(scene3d, positions, geom)
        base = ur.rasterize(scene3d.base, geom)
        for x3, sl in zip(stack.x3_positions, stack.slices):
            want = base.values * np.exp(-(x3**2) / (2 * 1.5**2))
            assert np.max(np.abs(sl.values - want)) < 1e-15

    def test_duplicate_positions_rejected(self, scene3d):
        geom = ur.GridGeometry.centered(8, 8, 4.0, 4.0)
        with pytest.raises(ValueError):
            ur.make_slices(scene3d, [0.0, 0.0], geom)


class TestHybridForward:
    def test_zero_momentum_is_plain_sum(self, rng):
        stack = random_stack(rng)
        field = ur.hybrid_forward(stack, [0.0])
        want = sum(s.values for s in stack.slices)
        assert np.max(np.abs(field.fields[0].values - want)) < 1e-12

    def test_single_slice_at_origin_is_k_independent(self, rng):
        geom = ur.GridGeometry.centered(8, 8, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, rng.normal(size=(8, 8)))
        stack = ur.VolumeStack((0.0,), (img,))
        field = ur.hybrid_forward(stack, [0.0, 1.3, -2.0])
        for f in field.fields:
            assert np.array_equal(f.values, img.values.astype(complex))

    def test_conjugate_symmetry_for_real_stacks(self, rng):
        stack = random_stack(rng)
        ks = [-2.0, -1.0, 0.0, 1.0, 2.0]
        field = ur.hybrid_forward(stack, ks)
        for i, k in enumerate(ks):
            j = ks.index(-k)
            assert np.max(np.abs(field.fields[i].values
                                 - np.conj(field.fields[j].values))) < 1e-12

    def test_needs_k_values(self, rng):
        with pytest.raises(ValueError):
            ur.hybrid_forward(random_stack(rng), [])


class TestHybridInverseSeries:
    def test_roundtrip_is_identity(self, rng):
        stack = random_stack(rng, complex_values=True)
        ks, _ = ur.dual_k_grid(stack.x3_positions)
        field = ur.hybrid_forward(stack, ks)
        back = ur.hybrid_inverse_series(field, stack.x3_positions)
        err = max(np.max(np.abs(a.values - b.values))
                  for a, b in zip(back.slices, stack.slices))
        assert err <= 1e-10

    def test_single_slice_is_identity(self, rng):
        stack = random_stack(rng, n=1)
        ks, _ = ur.dual_k_grid(stack.x3_positions)
        back = ur.hybrid_inverse_series(ur.hybrid_forward(stack, ks), stack.x3_positions)
        assert np.max(np.abs(back.slices[0].values - stack.slices[0].values)) < 1e-12

    def test_zero_stack_stays_zero(self):
        geom = ur.GridGeometry.centered(6, 6, 2.0, 2.0)
        zero = ur.ImageGrid2D.from_geometry(geom, np.zeros((6, 6)))
        stack = ur.VolumeStack((0.0, 1.0), (zero, zero))
        ks, _ = ur.dual_k_grid(stack.x3_positions)
        back = ur.hybrid_inverse_series(ur.hybrid_forward(stack, ks), stack.x3_positions)
        assert all(np.all(s.values == 0) for s in back.slices)

    def test_mismatched_k_grid_names_requirement(self, rng):
        stack = random_stack(rng, n=4)
        field = ur.hybrid_forward(stack, [0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="required k_m"):
            ur.hybrid_inverse_series(field, stack.x3_positions)

    def test_nonuniform_positions_rejected(self, rng):
        geom = ur.GridGeometry.centered(6, 6, 2.0, 2.0)
        zero = ur.ImageGrid2D.from_geometry(geom, np.zeros((6, 6)))
        stack = ur.VolumeStack((0.0, 1.0, 3.0), (zero, zero, zero))
        with pytest.raises(ValueError):
            ur.dual_k_grid(stack.x3_positions)

    @pytest.mark.parametrize("positions", [[0.0, 1.0, np.nan], [0.0, np.inf], [np.nan]],
                             ids=["nan", "inf", "lone nan"])
    def test_non_finite_positions_rejected(self, positions):
        # a NaN spacing compares False and an inf one gives k = 0: both were accepted
        with pytest.raises(ValueError, match="x3 position"):
            ur.dual_k_grid(positions)

    def test_empty_positions_rejected(self, rng):
        # a k grid needs a slice; each entry refuses none with a ValueError, not an IndexError
        field = ur.hybrid_forward(random_stack(rng, n=2), [0.0])
        geom = ur.GridGeometry.centered(6, 6, 2.0, 2.0)
        for call in (lambda: ur.dual_k_grid([]),
                     lambda: ur.hybrid_inverse_series(field, []),
                     lambda: ur.reconstruct_volume([], geom, ur.RegParams(0.2), [])):
            with pytest.raises(ValueError, match="need at least one slice position"):
                call()


class TestHybridRadon:
    def test_zero_momentum_entry_is_slice_sum_sinogram(self, rng):
        stack = random_stack(rng, n=3, nx=16)
        ks, _ = ur.dual_k_grid(stack.x3_positions)
        field = ur.hybrid_forward(stack, ks)
        tg = ur.TauGrid.covering(stack.geometry, 0.25)
        angles = ur.AngularRange.full(6)
        sinos = ur.hybrid_radon(field, tg, angles)
        total = ur.ImageGrid2D.from_geometry(stack.geometry,
                                             sum(s.values for s in stack.slices))
        direct = ur.radon_transform(total, tg, angles)
        assert np.max(np.abs(sinos[0].values - direct.values)) < 1e-12

    def test_conjugate_momentum_pairs(self, rng):
        stack = random_stack(rng, n=3, nx=16)
        field = ur.hybrid_forward(stack, [-1.5, 1.5])
        tg = ur.TauGrid.covering(stack.geometry, 0.25)
        sinos = ur.hybrid_radon(field, tg, ur.AngularRange.full(6))
        assert np.max(np.abs(sinos[0].values - np.conj(sinos[1].values))) < 1e-12

    def test_single_slice_equal_modulus(self, rng):
        geom = ur.GridGeometry.centered(16, 16, 4.0, 4.0)
        img = ur.ImageGrid2D.from_geometry(geom, np.abs(rng.normal(size=(16, 16))))
        stack = ur.VolumeStack((0.7,), (img,))
        field = ur.hybrid_forward(stack, [0.0, 0.9, 2.2])
        tg = ur.TauGrid.covering(geom, 0.25)
        sinos = ur.hybrid_radon(field, tg, ur.AngularRange.full(4))
        base = np.abs(sinos[0].values)
        for s in sinos[1:]:
            assert np.max(np.abs(np.abs(s.values) - base)) < 1e-12

    def test_commutes_with_forward_sum(self, rng):
        # projecting the momentum field == phase-summing per-slice projections
        stack = random_stack(rng, n=4, nx=16)
        ks, _ = ur.dual_k_grid(stack.x3_positions)
        field = ur.hybrid_forward(stack, ks)
        tg = ur.TauGrid.covering(stack.geometry, 0.25)
        angles = ur.AngularRange.full(6)
        sinos = ur.hybrid_radon(field, tg, angles)
        per_slice = [ur.radon_transform(s, tg, angles).values for s in stack.slices]
        for k, sino in zip(field.k_values, sinos):
            phases = np.exp(-1j * k * np.asarray(stack.x3_positions))
            want = sum(p * v for p, v in zip(phases, per_slice))
            assert np.max(np.abs(sino.values - want)) <= 1e-10


class TestReconstructVolume:
    def test_zero_volume(self):
        geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
        positions = (0.0, 1.0)
        tg = ur.TauGrid.covering(geom, 0.25)
        angles = ur.AngularRange.full(8)
        zeros = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles,
                            np.zeros((tg.n_tau, angles.n_phi)))
        volume, recons = ur.reconstruct_volume([zeros, zeros], geom,
                                               ur.RegParams.defaults(tg.d_tau), positions)
        assert all(np.all(s.values == 0) for s in volume.slices)
        assert [ur.reconstruction_metrics(r)["fa_fs_ratio"] for r in recons] == [0.0, 0.0]

    @staticmethod
    def check_one_pass(rng, geom, tg, angles):
        """Each returned Reconstruction, mask included, is invert_universal of its field,
        and the stack is the series inverse of their totals; returns the masks."""
        positions = (-1.0, 0.0, 1.0)
        params = ur.RegParams(0.3)
        shape = (tg.n_tau, angles.n_phi)
        sinos = [ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles,
                             rng.normal(size=shape) + 1j * rng.normal(size=shape))
                 for _ in positions]
        volume, recons = ur.reconstruct_volume(sinos, geom, params, positions)
        want = [ur.invert_universal(s, geom, params) for s in sinos]
        assert isinstance(recons, tuple) and len(recons) == len(want)
        for got, ref in zip(recons, want):
            assert got == ref
            assert np.array_equal(got.out_of_coverage, ref.out_of_coverage)
        field = ur.HybridField(tuple(ur.dual_k_grid(positions)[0]),
                               tuple(r.f_total for r in want))
        for got, ref in zip(volume.slices, ur.hybrid_inverse_series(field, positions).slices,
                            strict=True):
            assert np.array_equal(got.values, ref.values)
        return [r.out_of_coverage for r in recons]

    def test_one_pass_matches_inverting_each_field(self, rng):
        geom = ur.GridGeometry(14, 11, -2.1, -1.6, 0.3, 0.27)
        tg = ur.TauGrid.covering(geom, 0.2)
        for angles in (ur.AngularRange.full(10), ur.AngularRange(0.0, np.pi, 9)):
            masks = self.check_one_pass(rng, geom, tg, angles)
            assert not any(m.any() for m in masks)

    def test_uncovered_slices_keep_each_fields_mask(self, rng):
        # |tau| <= 1 leaves the outer nodes of [-2.1, 1.8] x [-1.6, 1.1] outside for some angles
        geom = ur.GridGeometry(14, 11, -2.1, -1.6, 0.3, 0.27)
        tg = ur.TauGrid.symmetric(0.2, 11)
        for angles in (ur.AngularRange.full(10), ur.AngularRange(0.0, np.pi, 9)):
            masks = self.check_one_pass(rng, geom, tg, angles)
            assert all(m.any() and not m.all() for m in masks)

    @pytest.mark.parametrize("other", [
        ur.Sinogram(-1.2, 0.2, 11, ur.AngularRange.full(8), np.zeros((11, 8))),
        ur.Sinogram(-1.0, 0.25, 11, ur.AngularRange.full(8), np.zeros((11, 8))),
        ur.Sinogram(-1.0, 0.2, 9, ur.AngularRange.full(8), np.zeros((9, 8))),
        ur.Sinogram(-1.0, 0.2, 11, ur.AngularRange(0.0, np.pi, 8), np.zeros((11, 8))),
    ], ids=["tau_min", "d_tau", "n_tau", "angles"])
    def test_sinograms_on_different_grids_are_rejected(self, other):
        geom = ur.GridGeometry.centered(6, 6, 2.0, 2.0)
        first = ur.Sinogram(-1.0, 0.2, 11, ur.AngularRange.full(8), np.zeros((11, 8)))
        with pytest.raises(ValueError, match="share one tau grid"):
            ur.reconstruct_volume([first, other], geom, ur.RegParams(0.2), (0.0, 1.0))

    def test_wrong_sinogram_count(self):
        geom = ur.GridGeometry.centered(12, 12, 4.0, 4.0)
        tg = ur.TauGrid.covering(geom, 0.25)
        angles = ur.AngularRange.full(8)
        zeros = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles,
                            np.zeros((tg.n_tau, angles.n_phi)))
        with pytest.raises(ValueError):
            ur.reconstruct_volume([zeros], geom, ur.RegParams.defaults(tg.d_tau), (0.0, 1.0))

    def test_end_to_end_roundtrip(self, scene3d):
        geom = ur.GridGeometry.centered(64, 64, 10.0, 10.0)
        positions = [-3.5 + 1.0 * n for n in range(8)]
        stack = ur.make_slices(scene3d, positions, geom)
        ks, _ = ur.dual_k_grid(positions)
        field = ur.hybrid_forward(stack, ks)
        tg = ur.TauGrid.covering(geom, geom.dx)
        sinos = ur.hybrid_radon(field, tg, ur.AngularRange.full(90))
        volume, recons = ur.reconstruct_volume(sinos, geom, ur.RegParams.defaults(tg.d_tau),
                                               positions)
        for ref, rec in zip(stack.slices, volume.slices):
            peak = float(np.max(np.abs(ref.values)))
            rmse = float(np.sqrt(np.mean(np.abs(rec.values - ref.values) ** 2)))
            assert rmse <= 0.05 * peak
        assert max(ur.reconstruction_metrics(r)["fa_fs_ratio"] for r in recons) <= 1e-3
        # a real input volume reconstructs with negligible imaginary part
        im = ur.l2_norm(np.stack([s.values.imag for s in volume.slices]))
        re = ur.l2_norm(np.stack([s.values.real for s in volume.slices]))
        assert im <= 1e-3 * re


class TestContinuousVariant:
    def test_dense_series_converges_to_continuous_transform(self, scene3d):
        # Riemann sum over a dense slice stack approaches the closed-form
        # integral transform along the third axis
        geom = ur.GridGeometry.centered(24, 24, 8.0, 8.0)
        ks = [0.0, 0.8, 1.7]
        continuous = ur.hybrid_from_scene(scene3d, ks, geom)
        spacing = 0.02
        positions = np.arange(-12.0, 12.0 + spacing / 2, spacing)
        stack = ur.make_slices(scene3d, positions, geom)
        series = ur.hybrid_forward(stack, ks)
        for cont, disc in zip(continuous, series.fields, strict=True):
            approx = spacing * disc.values
            scale = np.max(np.abs(cont.values))
            assert np.max(np.abs(approx - cont.values)) < 1e-4 * scale

    def test_continuous_field_values(self, scene3d):
        geom = ur.GridGeometry.centered(16, 16, 6.0, 6.0)
        (field,) = ur.hybrid_from_scene(scene3d, [1.1], geom)
        base = ur.rasterize(scene3d.base, geom)
        want = scene3d.profile_transform(1.1) * base.values
        assert np.array_equal(field.values, want)

    def test_oracle_fields_are_plain_images(self, scene3d):
        # the closed-form fields are no series sum, so they never reach the series inverse
        geom = ur.GridGeometry.centered(8, 8, 4.0, 4.0)
        fields = ur.hybrid_from_scene(scene3d, [0.0, 0.5], geom)
        assert type(fields) is tuple and len(fields) == 2
        assert all(type(f) is ur.ImageGrid2D for f in fields)
        for k in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValueError, match="k value"):
                ur.hybrid_from_scene(scene3d, [0.0, k], geom)
