import numpy as np
import pytest

import uradon as ur
import uradon.holonomy as hol
from conftest import rel_l2

Q1 = ur.RegionMask.QUADRANT_I
Q3 = ur.RegionMask.QUADRANT_III


def masked_pair_scene(amp1=1.0):
    """Masked pair: defect-style blob in quadrant I, partner in quadrant III."""
    return ur.CompositeScene((
        (ur.GaussianBlob(1.5, 1.5, 0.5, amp1), Q1),
        (ur.GaussianBlob(-1.5, -1.5, 0.5, 1.0), Q3)))


@pytest.fixture
def geom():
    return ur.GridGeometry.centered(192, 192, 8.0, 8.0)


@pytest.fixture
def probe():
    # tau in (0.2, 3], phi in [0, pi/2)
    taus = ur.TauGrid(0.2 + 0.0875, 0.175, 16)
    return ur.Probe(taus, ur.AngularRange(0.0, np.pi / 2, 6))


def probe_columns(scene, probe, geom):
    """Direct masked columns over the probe window (no path machinery)."""
    img = ur.rasterize(scene, geom)
    out = np.empty((probe.taus.n_tau, probe.angles.n_phi), dtype=complex)
    for m, phi in enumerate(probe.angles.phis()):
        for t, tau in enumerate(probe.taus.taus()):
            out[t, m] = ur.radon_point(img, tau, phi)
    return out


class TestProbeAndPath:
    def test_probe_requires_positive_tau(self):
        with pytest.raises(ValueError):
            ur.Probe(ur.TauGrid(-0.5, 0.1, 5), ur.AngularRange(0.0, 1.0, 3))

    def test_probe_extension_warns(self):
        with pytest.warns(UserWarning):
            ur.Probe(ur.TauGrid(0.1, 0.1, 5), ur.AngularRange(np.pi, 1.5 * np.pi, 3))

    def test_path_validation(self):
        with pytest.raises(ValueError):
            ur.ShiftPath((np.pi / 2, np.pi / 2))      # steps must be pi or 2 pi
        with pytest.raises(ValueError):
            ur.ShiftPath((np.pi,))                     # total must be a full turn
        with pytest.raises(ValueError):
            ur.ShiftPath(())
        assert ur.ShiftPath.full_turn().half_turn_counts() == [2]
        assert ur.ShiftPath.two_half_turns().half_turn_counts() == [1, 2]


class TestRadonMasked:
    def test_third_quadrant_term_is_dark_at_positive_tau(self, geom):
        scene = ur.CompositeScene(((ur.GaussianBlob(-1.5, -1.5, 0.5, 1.0), Q3),))
        got = ur.radon_point(ur.rasterize(scene, geom), 1.0, np.pi / 4)
        # quadrant III never meets <n, x> = tau > 0 for phi in [0, pi/2];
        # anything that leaks must come from the Gaussian tail
        bound = np.exp(-(1.0 + np.hypot(1.5, 1.5)) ** 2 / (2 * 0.5**2))
        assert abs(got) <= bound + 1e-15

    def test_masked_blob_positive_and_converged(self, geom):
        scene = ur.CompositeScene(((ur.GaussianBlob(1.0, 1.0, 0.5, 1.0), Q1),))
        tau, phi = np.sqrt(2.0), np.pi / 4
        got = ur.radon_point(ur.rasterize(scene, geom), tau, phi)
        fine = ur.GridGeometry.centered(384, 384, 8.0, 8.0)
        oracle = ur.radon_point(ur.rasterize(scene, fine), tau, phi)
        assert got.real > 0.0
        assert abs(got - oracle) / abs(oracle) < 2e-2

    def test_zero_amplitude_scene(self, geom):
        scene = ur.CompositeScene(((ur.GaussianBlob(1.0, 1.0, 0.5, 0.0), Q1),))
        assert ur.radon_point(ur.rasterize(scene, geom), 1.0, 0.3) == 0.0


class TestEvaluatePath:
    def test_full_turn_reproduces_defect_column(self, geom, probe):
        scene = masked_pair_scene()
        ev = ur.evaluate_path(scene, ur.ShiftPath.full_turn(), probe, geom)
        only_defect = ur.CompositeScene((scene.terms[0],))
        direct = probe_columns(only_defect, probe, geom)
        # symbolic full-turn shift makes the columns bitwise equal
        assert np.array_equal(ev.final_sinogram_column, direct)
        assert rel_l2(ev.final_sinogram_column, direct) <= 1e-6

    def test_two_half_turns_collapse(self, geom, probe):
        scene = masked_pair_scene()
        ev = ur.evaluate_path(scene, ur.ShiftPath.two_half_turns(), probe, geom)
        assert ev.records[0].survivors == (1,)      # only the third-quadrant term
        assert ev.records[1].survivors == ()
        assert np.max(np.abs(ev.final_sinogram_column)) <= ev.leak_tol

    def test_unmasked_scene_is_path_independent(self, geom, probe):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, 0.3, 0.5, 1.0))
        one = ur.evaluate_path(scene, ur.ShiftPath.full_turn(), probe, geom)
        two = ur.evaluate_path(scene, ur.ShiftPath.two_half_turns(), probe, geom)
        assert np.array_equal(one.final_sinogram_column, two.final_sinogram_column)

    def test_survivors_shrink_monotonically(self, geom, probe):
        scene = masked_pair_scene()
        ev = ur.evaluate_path(scene, ur.ShiftPath.two_half_turns(), probe, geom)
        sets = [set(range(len(scene.terms)))] + [set(r.survivors) for r in ev.records]
        for before, after in zip(sets, sets[1:]):
            assert after <= before


class TestCheckHolonomy:
    def test_masked_scene_detected(self, geom, probe):
        scene = masked_pair_scene()
        report = ur.check_holonomy(scene, probe, geom)
        assert report.detected
        assert report.discrepancy_norm >= 10.0 * report.threshold
        # the discrepancy is the defect column's own norm
        direct = probe_columns(ur.CompositeScene((scene.terms[0],)), probe, geom)
        assert report.discrepancy_norm == pytest.approx(ur.l2_norm(direct), rel=1e-12)

    def test_unmasked_scene_not_detected(self, geom, probe):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, 0.3, 0.5, 1.0))
        report = ur.check_holonomy(scene, probe, geom)
        assert not report.detected
        assert report.discrepancy_norm <= ur.leak_tolerance(scene, geom)

    def test_zero_defect_amplitude(self, geom, probe):
        report = ur.check_holonomy(masked_pair_scene(amp1=0.0), probe, geom)
        assert report.discrepancy_norm <= ur.leak_tolerance(masked_pair_scene(), geom)
        assert not report.detected


class TestColumnReuse:
    @staticmethod
    def three_pair_scene():
        pairs = ((1.5, 1.5, 0.5, 1.0), (0.8, 2.0, 0.4, 0.8j), (2.2, 0.6, 0.45, 0.9 - 0.4j))
        return ur.CompositeScene(tuple(
            term for cx, cy, sigma, amp in pairs
            for term in ((ur.GaussianBlob(cx, cy, sigma, amp), Q1),
                         (ur.GaussianBlob(-cx, -cy, sigma, amp), Q3))))

    def test_plus_sign_columns_are_projected_once(self, monkeypatch, probe):
        geom = ur.GridGeometry.centered(96, 96, 8.0, 8.0)
        scene = self.three_pair_scene()
        projected = []
        project = hol._project

        def counting(geometry, arrays, *args):
            projected.append(len(arrays))
            return project(geometry, arrays, *args)

        monkeypatch.setattr(hol, "_project", counting)
        report = ur.check_holonomy(scene, probe, geom)
        # 6 terms at +sign (full turn), 6 at -sign, and the 3 survivors' +sign
        # columns of the second half turn come from the full turn
        assert projected == [6, 6]
        projected.clear()
        alone = [ur.evaluate_path(scene, path, probe, geom)
                 for path in (ur.ShiftPath.full_turn(), ur.ShiftPath.two_half_turns())]
        assert sum(projected) == 15
        for shared, own in zip((report.full_turn, report.two_half_turns), alone):
            assert len(shared.records) == len(own.records)
            for a, b in zip(shared.records, own.records):
                assert a.cumulative_shift == b.cumulative_shift
                assert a.term_norms == b.term_norms and a.survivors == b.survivors
                assert np.array_equal(a.column, b.column)
            assert np.array_equal(shared.final_sinogram_column, own.final_sinogram_column)


    def test_each_term_is_rasterized_once(self, monkeypatch, probe):
        geom = ur.GridGeometry.centered(48, 48, 8.0, 8.0)
        scene = self.three_pair_scene()
        want = ur.check_holonomy(scene, probe, geom)
        rasterized = []
        rasterize = hol.rasterize

        def counting(term_scene, *args):
            rasterized.append(term_scene.terms)
            return rasterize(term_scene, *args)

        monkeypatch.setattr(hol, "rasterize", counting)
        got = ur.check_holonomy(scene, probe, geom)
        assert sorted(scene.terms.index(t) for (t,) in rasterized) == list(range(len(scene.terms)))
        for shared, own in ((got.full_turn, want.full_turn),
                            (got.two_half_turns, want.two_half_turns)):
            for a, b in zip(shared.records, own.records):
                assert a.term_norms == b.term_norms and np.array_equal(a.column, b.column)
        assert got.discrepancy_norm == want.discrepancy_norm


def tilde_scene(defect_amp=0.8):
    """(defect + background) in quadrant I plus background in quadrant III."""
    background = [ur.GaussianBlob(1.0, 1.0, 0.5, 1.0), ur.GaussianBlob(-1.0, -1.0, 0.5, 1.0)]
    terms = [(ur.GaussianBlob(1.5, 0.5, 0.4, defect_amp), Q1)]
    terms += [(b, Q1) for b in background]
    terms += [(b, Q3) for b in background]
    return ur.CompositeScene(tuple(terms))


class TestExtractDefect:
    def test_matches_direct_projection(self, geom, probe):
        scene = tilde_scene()
        extracted = ur.extract_defect(scene, probe, geom)
        defect_terms, _ = ur.classify_defect_scene(scene)
        direct = probe_columns(ur.CompositeScene(defect_terms), probe, geom)
        assert rel_l2(extracted.values, direct) <= 1e-3

    def test_zero_amplitude_defect(self, geom, probe):
        scene = tilde_scene(defect_amp=0.0)
        extracted = ur.extract_defect(scene, probe, geom)
        assert ur.l2_norm(extracted.values) <= ur.leak_tolerance(scene, geom)

    def test_linearity_in_defect(self, geom, probe):
        one = ur.extract_defect(tilde_scene(0.5), probe, geom)
        two = ur.extract_defect(tilde_scene(1.0), probe, geom)
        assert rel_l2(two.values, 2.0 * one.values) < 1e-12

    def test_asymmetric_background_rejected(self, geom, probe):
        background = [ur.GaussianBlob(1.0, 1.0, 0.5, 1.0),
                      ur.GaussianBlob(-1.0, -0.7, 0.5, 1.0)]    # no mirror partner
        terms = [(b, Q1) for b in background] + [(b, Q3) for b in background]
        scene = ur.CompositeScene(tuple(terms))
        with pytest.raises(ur.UnsupportedSceneError):
            ur.extract_defect(scene, probe, geom)

    def test_unmasked_term_rejected(self, geom, probe):
        scene = ur.CompositeScene(((ur.GaussianBlob(1.0, 1.0, 0.5, 1.0),
                                    ur.RegionMask.NONE),))
        with pytest.raises(ur.UnsupportedSceneError):
            ur.extract_defect(scene, probe, geom)

    def test_orphan_background_rejected(self, geom, probe):
        # a third-quadrant term with no first-quadrant copy is not background
        terms = ((ur.GaussianBlob(1.0, 1.0, 0.5, 1.0), Q1),
                 (ur.GaussianBlob(-1.0, -1.0, 0.5, 1.0), Q3),
                 (ur.GaussianBlob(-2.0, -2.0, 0.5, 1.0), Q3))
        with pytest.raises(ur.UnsupportedSceneError):
            ur.extract_defect(ur.CompositeScene(terms), probe, geom)


class TestBoundaryJump:
    @staticmethod
    def full_sino(scene, geom, n_phi=8):
        tg = ur.TauGrid.covering(geom, geom.dx)
        return ur.radon_transform(ur.rasterize(scene, geom), tg, ur.AngularRange.full(n_phi))

    def test_smooth_scene_has_no_jump(self, geom):
        # exact columns of a smooth scene: the one-sided limits agree
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.4, 0.4, 1.0, 1.0))
        tg = ur.TauGrid.covering(geom, geom.dx)
        angles = ur.AngularRange.full(8)
        values = np.stack([ur.analytic_radon(scene, tg.taus(), p) for p in angles.phis()],
                          axis=1)
        sino = ur.Sinogram(tg.tau_min, tg.d_tau, tg.n_tau, angles, values)
        assert abs(ur.boundary_jump(sino, 0.0)) <= 1e-3

    def test_masked_blob_near_origin_jumps(self, geom):
        scene = ur.CompositeScene(((ur.GaussianBlob(0.4, 0.4, 0.5, 1.0), Q1),))
        sino = self.full_sino(scene, geom)
        jump = ur.boundary_jump(sino, 0.0)
        assert abs(jump) > 0.1
        # fine-grid one-sided limits as the oracle for the jump size
        fine = ur.GridGeometry.centered(384, 384, 8.0, 8.0)
        oracle = ur.boundary_jump(self.full_sino(scene, fine), 0.0)
        assert abs(jump - oracle) / abs(oracle) < 0.05

    def test_zero_sinogram(self):
        sino = ur.Sinogram(-1.0, 0.25, 9, ur.AngularRange.full(4), np.zeros((9, 4)))
        assert ur.boundary_jump(sino, 0.0) == 0.0

    def test_needs_three_samples_per_side(self):
        sino = ur.Sinogram(-0.5, 0.25, 5, ur.AngularRange.full(4), np.zeros((5, 4)))
        with pytest.raises(ValueError):
            ur.boundary_jump(sino, 0.0)
