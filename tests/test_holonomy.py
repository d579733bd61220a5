import numpy as np
import pytest

import uradon as ur
import uradon.holonomy as hol
from conftest import rel_l2, same_bits, traced_peak
from uradon import forward
from uradon.phantoms import _mask_block

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


class TestPathWalks:
    def test_step_columns_refuse_writes(self, probe):
        # the final column is one array under two names, so neither name may write it
        geom = ur.GridGeometry.centered(32, 32, 8.0, 8.0)
        report = ur.check_holonomy(masked_pair_scene(), probe, geom)
        for ev in (report.full_turn, report.two_half_turns):
            assert ev.final_sinogram_column is ev.records[-1].column
            for column in [ev.final_sinogram_column] + [r.column for r in ev.records]:
                assert not column.flags.writeable
                with pytest.raises(ValueError):
                    column[0, 0] = 1.0

    def test_full_turn_reproduces_defect_column(self, geom, probe):
        scene = masked_pair_scene()
        ev = ur.check_holonomy(scene, probe, geom).full_turn
        only_defect = ur.CompositeScene((scene.terms[0],))
        direct = probe_columns(only_defect, probe, geom)
        # symbolic full-turn shift makes the columns bitwise equal
        assert np.array_equal(ev.final_sinogram_column, direct)
        assert rel_l2(ev.final_sinogram_column, direct) <= 1e-6

    def test_two_half_turns_collapse(self, geom, probe):
        scene = masked_pair_scene()
        ev = ur.check_holonomy(scene, probe, geom).two_half_turns
        assert ev.records[0].survivors == (1,)      # only the third-quadrant term
        assert ev.records[1].survivors == ()
        assert np.max(np.abs(ev.final_sinogram_column)) <= ev.leak_tol

    def test_unmasked_scene_is_path_independent(self, geom, probe):
        scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, 0.3, 0.5, 1.0))
        report = ur.check_holonomy(scene, probe, geom)
        one, two = report.full_turn, report.two_half_turns
        assert np.array_equal(one.final_sinogram_column, two.final_sinogram_column)

    def test_survivors_shrink_monotonically(self, geom, probe):
        scene = masked_pair_scene()
        ev = ur.check_holonomy(scene, probe, geom).two_half_turns
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

    def test_both_paths_walk_one_projection(self, monkeypatch, probe):
        geom = ur.GridGeometry.centered(96, 96, 8.0, 8.0)
        scene = self.three_pair_scene()
        projected = []
        project = hol._project

        def counting(geometry, arrays, taus, directions, *args, **kwargs):
            projected.append((len(arrays), len(directions)))
            return project(geometry, arrays, taus, directions, *args, **kwargs)

        monkeypatch.setattr(hol, "_project", counting)
        ur.check_holonomy(scene, probe, geom)
        # the 6 terms at the probe angles and after a half turn, in one call
        assert projected == [(6, 2 * probe.angles.n_phi)]

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


def reference_walk(scene, counts, probe, geom, leak_tol):
    """A path walked step by step, counts being the half turns done after each step:
    each step projects its survivors at sign * direction."""
    taus = probe.taus.taus()
    trig = [forward.direction(phi) for phi in probe.angles.phis()]
    survivors, records = list(range(len(scene.terms))), []
    for count in counts:
        sign = -1.0 if count % 2 else 1.0
        images = [ur.rasterize(ur.CompositeScene((scene.terms[i],)), geom).values
                  for i in survivors]
        columns = forward._project(geom, images, taus, [(sign * c, sign * s) for c, s in trig],
                                   None) if survivors else []
        norms = tuple((i, float(np.max(np.abs(col)))) for i, col in zip(survivors, columns))
        kept = [k for k, (_, norm) in enumerate(norms) if norm > leak_tol]
        total = np.zeros((probe.taus.n_tau, probe.angles.n_phi), dtype=np.complex128)
        for k in kept:
            total = total + columns[k]
        survivors = [survivors[k] for k in kept]
        records.append((count * np.pi, norms, tuple(survivors), total))
    return records


class TestReferenceWalk:
    def test_both_paths_equal_a_step_by_step_walk_bitwise(self, geom, probe):
        # the unmasked term survives every step, so both parities carry nonzero columns
        scene = ur.CompositeScene(masked_pair_scene().terms
                                  + ((ur.GaussianBlob(0.5, -0.3, 0.5, 0.7 + 0.2j),
                                      ur.RegionMask.NONE),))
        leak_tol = ur.leak_tolerance(scene, geom)
        report = ur.check_holonomy(scene, probe, geom)
        for ev, counts in ((report.full_turn, (2,)), (report.two_half_turns, (1, 2))):
            want = reference_walk(scene, counts, probe, geom, leak_tol)
            assert len(ev.records) == len(want)
            for got, (shift, norms, survivors, column) in zip(ev.records, want):
                assert got.cumulative_shift == shift
                assert got.term_norms == norms and got.survivors == survivors
                assert same_bits(got.column, column) and np.any(column)
            assert same_bits(ev.final_sinogram_column, want[-1][3])
        assert [r.survivors for r in ev.records] == [(1, 2), (2,)]


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

    @pytest.mark.parametrize("defect_amp", [0.8, 0.0])
    def test_quadrant_arrays_match_the_whole_image_projection(self, geom, probe, defect_amp):
        scene = tilde_scene(defect_amp)

        def whole_image(probe):   # the difference, and the peak of the columns
            plus, minus = hol._half_turns(geom, [ur.rasterize(scene, geom).values], probe, [(0, 0)])
            return plus[0] - minus[0], max(np.max(np.abs(plus)), np.max(np.abs(minus)))

        # every probe line lies more than a cell diagonal from tau = 0: the bits are kept
        assert probe.taus.tau_min > np.hypot(geom.dx, geom.dy)
        assert same_bits(ur.extract_defect(scene, probe, geom).values, whole_image(probe)[0])
        # from half a cell on, lines pass between both quadrants' nodes: rounding only
        near = ur.Probe(ur.TauGrid(geom.dx / 2.0, geom.dx / 2.0, 16), probe.angles)
        want, peak = whole_image(near)
        assert np.max(np.abs(ur.extract_defect(scene, near, geom).values - want)) <= 1e-14 * peak

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


class TestWorkingSet:
    """The tracemalloc peak of the masked analyses at 256^2 on a 32 tau x 12 angle window,
    with two projector threads, against a bound in bytes derived from the node blocks:

        16 * nx * ny                        one rasterized full image (a term, or the scene)
      + 16 * sum(block nodes)               the term blocks check_holonomy keeps
      + 16 * sum((rows + 2) * (cols + 2))   each array's real and imaginary float64 planes,
                                            over its box padded by a node on every side
      + 2 * 72 * _BLOCK_SAMPLES             per thread, one task's positions, kept indices,
                                            weights and gathered samples, at most 72 B for
                                            each of its band samples
      + 32 * n_arrays * n_tau * n_dir       the complex result and its real sums

    Each array held as a full-grid image with full zero-ringed planes, 32 B per grid node,
    breaks the bound.
    """

    GEOM = ur.GridGeometry.centered(256, 256, 8.0, 8.0)
    PROBE = ur.Probe(ur.TauGrid(0.2 + 2.8 / 64, 2.8 / 32, 32), ur.AngularRange(0.0, np.pi / 2, 12))

    def bound(self, masks, kept):
        g = self.GEOM
        x, y = g.x_nodes(), g.y_nodes()
        sizes = [[len(range(n)[s]) for n, s in zip((g.nx, g.ny), _mask_block(mask, x, y))]
                 for mask in masks]
        n_dir = 2 * self.PROBE.angles.n_phi
        return (16 * g.nx * g.ny + 16 * kept * sum(r * c for r, c in sizes)
                + 16 * sum((r + 2) * (c + 2) for r, c in sizes)
                + 2 * 72 * forward._BLOCK_SAMPLES
                + 32 * len(masks) * self.PROBE.taus.n_tau * n_dir)

    def test_check_holonomy_holds_box_sized_terms(self, monkeypatch):
        monkeypatch.setattr(forward, "_cpu_count", lambda: 2)
        scene = TestColumnReuse.three_pair_scene()
        _, peak = traced_peak(lambda: ur.check_holonomy(scene, self.PROBE, self.GEOM))
        assert peak <= self.bound([mask for _, mask in scene.terms], kept=True)

    def test_extract_defect_projects_views_of_its_image(self, monkeypatch):
        monkeypatch.setattr(forward, "_cpu_count", lambda: 2)
        _, peak = traced_peak(lambda: ur.extract_defect(tilde_scene(), self.PROBE, self.GEOM))
        assert peak <= self.bound([Q1, Q3], kept=False)
