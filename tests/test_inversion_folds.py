"""The symmetry plan, grids._fold_plan, and the inversion's folds against the unfolded computation.

The plan pairs angle phi + pi with phi where the tau grid is symmetric and pi
is a whole number of steps, and groups the rows left into orbits under the
symmetries the image grid admits: its mirrors, and on a centred square its
quarter turns.  Two folds follow it: the two-term inverse folds the pairs
before filtering, and _backproject shares each representative's index field
among its orbit.  Both agree with the unfolded form to rounding; a scan that
admits no map must take the direct path bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uradon as ur
import uradon.forward as fwd
import uradon.inversion as inv
from uradon.forward import _project, direction
from uradon.grids import _fold_plan, _linear_index
from conftest import backproject, correlate, same_bits, term_columns
from test_inversion import direct_backproject

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def pi_folded_backproject(columns_seq, sino, geometry):
    """Test-local copy of _backproject without the orbits: the angle-major loop over the
    plan's rows, its pairs folded, one index field per row."""
    n = sino.n_tau
    pairs = _fold_plan(geometry, sino.tau_grid, sino.angles).pairs
    n_rows = sino.angles.n_phi - pairs
    phis = sino.angles.phis()[:n_rows]
    rows_seq = []
    for columns in columns_seq:
        rows = np.zeros((n_rows, n + 2), dtype=np.complex128)
        rows[:, 1:-1] = columns[:, :n_rows].T
        rows[:pairs, 1:-1] += columns[::-1, n_rows:].T
        rows_seq.append(rows)
    x, y = geometry.x_nodes()[:, None], geometry.y_nodes()
    accs = [np.zeros((geometry.nx, geometry.ny), dtype=np.complex128) for _ in rows_seq]
    out_of_range = np.zeros((geometry.nx, geometry.ny), dtype=bool)
    for m, phi in enumerate(phis):
        c, s = direction(phi)
        f = (c * x + s * y - sino.tau_min) / sino.d_tau
        outside = (f < 0.0) | (f > n - 1)
        i0, w = _linear_index(f, n)
        i1 = i0 + 1
        w0 = 1.0 - w
        for acc, rows in zip(accs, rows_seq):
            row = rows[m]
            lo = row[i0]
            lo *= w0
            hi = row[i1]
            hi *= w
            lo += hi
            acc += lo
        out_of_range |= outside
    for acc in accs:
        acc *= sino.angles.d_phi * ur.ANGULAR_MEASURE_NORM
    return accs, out_of_range


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def empty_sino(tau_grid, angles):
    return ur.Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles,
                       np.zeros((tau_grid.n_tau, angles.n_phi)))


def random_sino(rng, tau_grid, angles):
    return ur.Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles,
                       complex_normal(rng, (tau_grid.n_tau, angles.n_phi)))


def assert_near(got, want, rel=1e-12):
    """Within rel of want's peak (and equal where want is all zero)."""
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@st.composite
def d4_scans(draw):
    """A centred square grid, a tau grid, [0, pi) angles in an even count N' and a seed.

    The angles come either as a full scan with n_phi % 4 == 0 (folded to
    [0, pi) by the pi-mirror) or as a half range of its own; the tau grid is
    symmetric for the full scans and may be off-centre for the half ranges.
    """
    n = draw(st.integers(2, 24))
    dx = draw(st.floats(0.05, 0.4))
    geom = ur.GridGeometry.centered(n, n, n * dx, n * dx)
    n_tau = draw(st.integers(2, 40))
    d_tau = draw(st.floats(0.05, 0.6))
    n_half = 2 * draw(st.integers(1, 12))
    if draw(st.booleans()):
        angles = ur.AngularRange.full(2 * n_half)
        tau_grid = ur.TauGrid.symmetric(d_tau, n_tau)
    else:
        angles = ur.AngularRange(0.0, np.pi, n_half)
        tau_grid = ur.TauGrid(-(n_tau - 1) * d_tau * draw(st.floats(0.0, 0.6)), d_tau, n_tau)
    return geom, tau_grid, angles, draw(st.integers(0, 2**32 - 1))


def clear_of_tau_ends(geom, tau_grid, phis, margin=1e-9):
    x, y = geom.x_nodes()[:, None], geom.y_nodes()
    for phi in phis:
        c, s = direction(phi)
        f = (c * x + s * y - tau_grid.tau_min) / tau_grid.d_tau
        if np.any(np.abs(f) <= margin) or np.any(np.abs(f - (tau_grid.n_tau - 1)) <= margin):
            return False
    return True


class TestD4Backproject:
    @SETTINGS
    @given(d4_scans(), st.integers(1, 3))
    def test_matches_the_pi_folded_loop(self, scan, count):
        geom, tau_grid, angles, seed = scan
        plan = _fold_plan(geom, tau_grid, angles)
        assert len(plan.phis) == len(plan.rep) // 4 + 1
        rng = np.random.default_rng(seed)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(count)]
        got, oob = backproject(columns, sino, geom)
        want, want_oob = pi_folded_backproject(columns, sino, geom)
        # a pixel whose offset is an end node of the tau grid is flagged or not by
        # rounding, so the D4 images of such an angle may flag it differently
        n_half = angles.n_phi // 2 if angles.is_full else angles.n_phi
        if clear_of_tau_ends(geom, tau_grid, angles.phis()[:n_half]):
            assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want, strict=True):
            assert_near(g, w)

    @SETTINGS
    @given(d4_scans())
    def test_arrays_together_equal_each_alone(self, scan):
        geom, tau_grid, angles, seed = scan
        rng = np.random.default_rng(seed)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(2)]
        together, oob = backproject(columns, sino, geom)
        for g, columns_alone in zip(together, columns, strict=True):
            (alone,), alone_oob = backproject([columns_alone], sino, geom)
            assert np.array_equal(g, alone)
            assert np.array_equal(oob, alone_oob)

    @pytest.mark.parametrize("n_half", [2, 4, 6, 8, 90])
    @pytest.mark.parametrize("full", [True, False], ids=["full", "half"])
    def test_one_index_field_per_representative_angle(self, rng, monkeypatch, n_half, full):
        geom = ur.GridGeometry.centered(12, 12, 3.0, 3.0)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        angles = ur.AngularRange.full(2 * n_half) if full else ur.AngularRange(0.0, np.pi, n_half)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi))]
        calls = []
        monkeypatch.setattr(inv, "direction", lambda phi: calls.append(phi) or direction(phi))
        got, oob = backproject(columns, sino, geom)
        assert len(calls) == n_half // 4 + 1
        assert np.array_equal(calls, angles.phis()[:n_half // 4 + 1])
        monkeypatch.undo()
        (want,), want_oob = pi_folded_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        assert_near(got[0], want)

    @pytest.mark.parametrize("geom, angles", [
        (ur.GridGeometry(12, 12, -1.4, -1.4, 0.25, 0.25), ur.AngularRange.full(16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.0, np.pi - 1e-9, 16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.0, 1.5, 16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.3, 5.9, 7)),
    ], ids=["off-centre", "span not pi", "partial", "general"])
    def test_other_inputs_take_the_direct_loop_bitwise(self, rng, monkeypatch, geom, angles):
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        plan = _fold_plan(geom, tau_grid, angles)
        assert len(plan.views) == 1   # no symmetry maps a stored angle onto another
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(2)]
        calls = []
        monkeypatch.setattr(inv, "direction", lambda phi: calls.append(phi) or direction(phi))
        got, oob = backproject(columns, sino, geom)
        monkeypatch.undo()
        assert len(calls) == angles.n_phi - plan.pairs
        want, want_oob = pi_folded_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("geom, angles, n_fields", [
        (ur.GridGeometry.centered(12, 10, 3.0, 2.5), ur.AngularRange.full(16), 5),
        (ur.GridGeometry.centered(12, 12, 3.0, 2.7), ur.AngularRange.full(16), 5),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.3, 0.3 + 2 * np.pi, 16), 4),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.3, 0.3 + np.pi, 16), 8),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange.full(30), 8),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.0, np.pi, 15), 8),
    ], ids=["nx != ny", "dx != dy", "full, phi_min != 0", "half, phi_min != 0",
            "full, odd N'", "half, odd N'"])
    def test_fewer_symmetries_fold_to_rounding(self, rng, monkeypatch, geom, angles, n_fields):
        # a centred rectangle keeps its two mirrors, a window off phi_min = 0 the quarter
        # turns, an odd count the mirror pi - phi
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(2)]
        calls = []
        monkeypatch.setattr(inv, "direction", lambda phi: calls.append(phi) or direction(phi))
        got, oob = backproject(columns, sino, geom)
        monkeypatch.undo()
        assert len(calls) == n_fields
        want, want_oob = direct_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want, strict=True):
            assert_near(g, w)


ONE_PLAN_SCANS = {
    "full D4": (ur.GridGeometry.centered(12, 12, 3.0, 3.0), None, ur.AngularRange.full(16)),
    "half D4": (ur.GridGeometry.centered(12, 12, 3.0, 3.0), None, ur.AngularRange(0.0, np.pi, 8)),
    "mirrored only": (ur.GridGeometry.centered(12, 10, 3.0, 2.5), None, ur.AngularRange.full(16)),
    "general": (ur.GridGeometry.centered(12, 12, 3.0, 3.0), None, ur.AngularRange(0.3, 5.9, 7)),
    "off-centre": (ur.GridGeometry(12, 12, -1.4, -1.4, 0.25, 0.25), None, ur.AngularRange.full(16)),
    "asymmetric tau": (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.TauGrid(-2.3, 0.2, 21),
                       ur.AngularRange.full(16)),
    "2 pi/91": (ur.GridGeometry.centered(12, 12, 3.0, 3.0), None, ur.AngularRange.full(91)),
    "3 pi/2 from 0.3": (ur.GridGeometry.centered(12, 12, 3.0, 3.0), None,
                        ur.AngularRange(0.3, 0.3 + 1.5 * np.pi, 18)),
}


class TestOnePlan:
    """The projector and the backprojection compute the angles of one plan, grids._fold_plan."""

    @pytest.mark.parametrize("kind", sorted(ONE_PLAN_SCANS))
    def test_both_sides_compute_the_plan_angles(self, rng, monkeypatch, kind):
        geom, tau_grid, angles = ONE_PLAN_SCANS[kind]
        tau_grid = tau_grid or ur.TauGrid.covering(geom, 0.2)
        projected, fields = [], []
        project = fwd._project
        monkeypatch.setattr(fwd, "_project", lambda g, a, t, dirs, *rest, **kw: projected.append(
            len(dirs)) or project(g, a, t, dirs, *rest, **kw))
        monkeypatch.setattr(inv, "direction", lambda phi: fields.append(phi) or direction(phi))
        img = ur.ImageGrid2D(geom, complex_normal(rng, (geom.nx, geom.ny)))
        ur.radon_transform(img, tau_grid, angles)
        columns = complex_normal(rng, (tau_grid.n_tau, angles.n_phi))
        backproject([columns], empty_sino(tau_grid, angles), geom)
        n_phis = len(_fold_plan(geom, tau_grid, angles).phis)
        assert projected == [n_phis]
        assert len(fields) == n_phis

    @pytest.mark.parametrize("half_n", range(1, 61))
    @pytest.mark.parametrize("full", [True, False], ids=["full", "half"])
    def test_scans_that_folded_by_the_square_keep_their_plan(self, half_n, full):
        # the closed form of the fold that [0, pi) in an even count N took before the orbits:
        # column k <= N/2 is angle k up to N/4 and the transposed view of angle N/2 - k
        # beyond; column N/2 + k' repeats this with the quarter-turned views
        n = 2 * half_n
        geom = ur.GridGeometry.centered(8, 8, 2.0, 2.0)
        angles = ur.AngularRange.full(2 * n) if full else ur.AngularRange(0.0, np.pi, n)
        plan = _fold_plan(geom, ur.TauGrid.covering(geom, 0.2), angles)
        quarter, k = n // 2, np.arange(n)
        turned = k > quarter
        k = k - quarter * turned
        folded = 4 * k > n
        assert plan.pairs == (n if full else 0)
        assert np.array_equal(plan.phis, angles.phis()[:n // 4 + 1])
        assert np.array_equal(plan.view, 2 * turned + folded)
        assert np.array_equal(plan.rep, np.where(folded, quarter - k, k))


# Orbit counts of the benchmark's scans and demo 04's windows on a centred square with a
# symmetric tau grid, and of the folds that need fewer symmetries or no tau symmetry:
# scan -> (image grid, tau grid or None for a covering one, angles, fields, rows)
SQUARE = ur.GridGeometry.centered(16, 16, 3.2, 3.2)
ORBIT_TABLE = {
    "volume, 2 pi/90": (SQUARE, None, ur.AngularRange.full(90), 23, 45),
    "roundtrip, 2 pi/180": (SQUARE, None, ur.AngularRange.full(180), 23, 90),
    "reconstruct, 2 pi/360": (SQUARE, None, ur.AngularRange.full(360), 46, 180),
    "[0, pi)/180": (SQUARE, None, ur.AngularRange(0.0, np.pi, 180), 46, 180),
    "[0, 3 pi/2)/270": (SQUARE, None, ur.AngularRange(0.0, 1.5 * np.pi, 270), 46, 180),
    "[0, 5 pi/4)/225": (SQUARE, None, ur.AngularRange(0.0, 1.25 * np.pi, 225), 46, 180),
    "[0, 2 pi/3)/120": (SQUARE, None, ur.AngularRange(0.0, 2.0 * np.pi / 3.0, 120), 46, 120),
    "[0.3, 0.3 + 3 pi/2)/270": (SQUARE, None, ur.AngularRange(0.3, 0.3 + 1.5 * np.pi, 270),
                                90, 180),
    "centred rectangle, 2 pi/16": (ur.GridGeometry.centered(16, 12, 3.2, 2.4), None,
                                   ur.AngularRange.full(16), 5, 8),
    "square, asymmetric tau, 2 pi/16": (SQUARE, ur.TauGrid(-2.3, 0.2, 21),
                                        ur.AngularRange.full(16), 3, 16),
    "2 pi/91": (SQUARE, None, ur.AngularRange.full(91), 46, 91),
    "defect window, [0, pi/2)/12": (SQUARE, ur.TauGrid(0.05, 0.1, 40),
                                    ur.AngularRange(0.0, np.pi / 2, 12), 7, 12),
}


def orbit_scan(kind):
    geom, tau_grid, angles, n_fields, n_rows = ORBIT_TABLE[kind]
    return geom, tau_grid or ur.TauGrid.covering(geom, 0.2), angles, n_fields, n_rows


# the eight named views of a square array and the angle maps they stand for, in plan order
NAMED_VIEWS = [(lambda f: f, lambda phi: phi), (np.transpose, lambda phi: np.pi / 2 - phi),
               (lambda f: np.rot90(f, -1), lambda phi: phi + np.pi / 2),
               (np.flipud, lambda phi: np.pi - phi), (np.fliplr, lambda phi: -phi),
               (lambda f: np.rot90(f, 2), lambda phi: phi + np.pi),
               (np.rot90, lambda phi: phi + 1.5 * np.pi),
               (lambda f: np.rot90(f, 2).T, lambda phi: 1.5 * np.pi - phi)]


def check_rows_are_views(geom, tau_grid, angles, rng):
    """The plan's pairs are half a turn apart, each view is one of NAMED_VIEWS, each row is its
    view of its representative, and the representatives are the least rows of their orbits."""
    plan = _fold_plan(geom, tau_grid, angles)
    phis = angles.phis()
    n_rows = len(plan.rep)
    assert n_rows == angles.n_phi - plan.pairs and plan.view.shape == (n_rows,)
    assert np.max(np.abs(phis[n_rows:] - phis[:plan.pairs] - np.pi), initial=0.0) <= 1e-12
    a = complex_normal(rng, (geom.nx, geom.ny))
    maps = []
    for view, inverse in plan.views:
        assert np.array_equal(inverse(view(a)), a)
        maps.append(next(phi_map for array_map, phi_map in NAMED_VIEWS
                         if array_map(a).shape == view(a).shape
                         and np.array_equal(array_map(a), view(a))))
    assert maps[0] is NAMED_VIEWS[0][1]   # the identity first
    reps = np.flatnonzero(plan.view == 0)   # each representative reads itself
    assert np.array_equal(plan.rep[reps], np.arange(len(plan.phis)))
    assert np.array_equal(phis[reps], plan.phis)
    for k in range(n_rows):
        # the row's view maps its representative's angle onto the row's angle
        image = maps[plan.view[k]](plan.phis[plan.rep[k]])
        assert abs(np.angle(np.exp(1j * (image - phis[k])))) <= 1e-12
        # every view maps the row into its own orbit, whose least row is the representative
        for phi_map in maps:
            offsets = np.angle(np.exp(1j * (phi_map(phis[k]) - phis[:n_rows])))
            for j in np.flatnonzero(np.abs(offsets) <= 1e-9):
                assert plan.rep[j] == plan.rep[k]
        assert reps[plan.rep[k]] <= k


@st.composite
def symmetric_scans(draw):
    """An image grid with all, some or none of the square's symmetries, a symmetric or
    off-centre tau grid, and a full scan or a window of whole steps of pi / h."""
    n, m = draw(st.integers(2, 10)), draw(st.integers(2, 10))
    kind = draw(st.sampled_from(["square", "rectangle", "x centred", "y centred", "off-centre"]))
    x_min, y_min = -(n - 1) * 0.125, -(m - 1) * 0.1
    if kind == "square":
        geom = ur.GridGeometry.centered(n, n, n * 0.25, n * 0.25)
    else:
        geom = ur.GridGeometry(n, m, x_min if kind in ("rectangle", "x centred") else -0.3,
                               y_min if kind in ("rectangle", "y centred") else 0.2, 0.25, 0.2)
    n_tau = draw(st.integers(2, 30))
    tau_grid = draw(st.sampled_from([ur.TauGrid.symmetric(0.2, n_tau),
                                     ur.TauGrid(-1.0, 0.2, n_tau)]))
    if draw(st.booleans()):
        return geom, tau_grid, ur.AngularRange.full(draw(st.integers(1, 40)))
    h = draw(st.integers(1, 12))
    count = draw(st.integers(1, 2 * h))
    phi_min = draw(st.sampled_from([0.0, 0.3, -np.pi / 2, np.pi / 4, np.pi]))
    return geom, tau_grid, ur.AngularRange(phi_min, phi_min + count * np.pi / h, count)


class TestOrbitPlan:
    @pytest.mark.parametrize("kind", list(ORBIT_TABLE))
    def test_fields_and_rows(self, kind):
        geom, tau_grid, angles, n_fields, n_rows = orbit_scan(kind)
        plan = _fold_plan(geom, tau_grid, angles)
        assert (len(plan.phis), len(plan.rep), len(plan.view)) == (n_fields, n_rows, n_rows)
        assert plan.pairs == angles.n_phi - n_rows

    @pytest.mark.parametrize("kind", list(ORBIT_TABLE))
    def test_each_row_is_its_view_of_its_representative(self, rng, kind):
        check_rows_are_views(*orbit_scan(kind)[:3], rng)

    @SETTINGS
    @given(symmetric_scans())
    def test_rows_of_any_scan_are_views_of_their_representatives(self, scan):
        check_rows_are_views(*scan, np.random.default_rng(0))

    @SETTINGS
    @given(symmetric_scans(), st.integers(0, 2**32 - 1))
    def test_any_scan_folds_to_rounding(self, scan, seed):
        geom, tau_grid, angles = scan
        rng = np.random.default_rng(seed)
        img = ur.ImageGrid2D(geom, complex_normal(rng, (geom.nx, geom.ny)))
        dirs, taus = [direction(phi) for phi in angles.phis()], tau_grid.taus()
        direct = _project(geom, [img.values], taus, dirs, None)[0]
        peak = np.max(_project(geom, [np.abs(img.values)], taus, dirs, None)[0].real)
        sino = ur.radon_transform(img, tau_grid, angles).values
        assert np.max(np.abs(sino - direct)) <= 1e-14 * peak
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi))]
        (got,), _ = backproject(columns, empty_sino(tau_grid, angles), geom)
        (want,), _ = direct_backproject(columns, empty_sino(tau_grid, angles), geom)
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1e-300)

    @pytest.mark.parametrize("kind", list(ORBIT_TABLE))
    def test_projection_matches_direct_projection(self, rng, kind):
        geom, tau_grid, angles, _, _ = orbit_scan(kind)
        img = ur.ImageGrid2D(geom, complex_normal(rng, (geom.nx, geom.ny)))
        dirs = [direction(phi) for phi in angles.phis()]
        taus = tau_grid.taus()
        direct = _project(geom, [img.values], taus, dirs, None)[0]
        peak = np.max(_project(geom, [np.abs(img.values)], taus, dirs, None)[0].real)
        sino = ur.radon_transform(img, tau_grid, angles).values
        assert np.max(np.abs(sino - direct)) <= 1e-14 * peak
        projected = np.flatnonzero(_fold_plan(geom, tau_grid, angles).view == 0)
        assert np.array_equal(sino[:, projected], direct[:, projected])

    @pytest.mark.parametrize("kind", list(ORBIT_TABLE))
    def test_inverses_match_the_direct_loop(self, rng, kind):
        geom, tau_grid, angles, _, _ = orbit_scan(kind)
        sino = random_sino(rng, tau_grid, angles)
        for backend in ur.Backend:
            params = ur.RegParams.defaults(tau_grid.d_tau, backend)
            got = ur.invert_universal(sino, geom, params)
            (fs, fa), oob = direct_backproject(term_columns(sino, params), sino, geom)
            assert_near(got.f_s.values, fs)
            assert_near(got.f_a.values, fa)
        kernel = inv._lambda_correlation_kernel(sino.n_tau, sino.d_tau, 2.0 * sino.d_tau,
                                                np.pi / sino.d_tau)
        (want,), _ = direct_backproject([correlate(sino.values, kernel)], sino, geom)
        assert_near(ur.epsilon_lambda_reconstruct(sino, geom).values, want)


@st.composite
def paired_scans(draw):
    """A scan with pi-pairs, any image grid (centred square or not) and a seed.

    The angles are a full scan or a window of H + p steps of pi / H, 0 < p < H,
    whose first p rows are paired."""
    n_tau = draw(st.integers(3, 40))
    tau_grid = ur.TauGrid.symmetric(draw(st.floats(0.05, 0.6)), n_tau)
    half = draw(st.integers(1, 12))
    paired = draw(st.integers(1, half))
    angles = ur.AngularRange(0.0, (half + paired) * np.pi / half, half + paired)
    if draw(st.booleans()):
        n = draw(st.integers(2, 16))
        geom = ur.GridGeometry.centered(n, n, n * 0.2, n * 0.2)
    else:
        geom = ur.GridGeometry(draw(st.integers(2, 12)), draw(st.integers(2, 12)),
                               draw(st.floats(-3.0, 1.0)), draw(st.floats(-3.0, 1.0)),
                               draw(st.floats(0.05, 0.5)), draw(st.floats(0.05, 0.5)))
    fa_step = tau_grid.d_tau * draw(st.sampled_from([1.0, 1.5, 2.37]))
    return geom, tau_grid, angles, fa_step, draw(st.integers(0, 2**32 - 1))


class TestFoldBeforeFilter:
    @SETTINGS
    @given(paired_scans(), st.sampled_from(list(ur.Backend)))
    def test_matches_filter_then_fold(self, scan, backend):
        geom, tau_grid, angles, fa_step, seed = scan
        half = round(np.pi / angles.d_phi)
        assert _fold_plan(geom, tau_grid, angles).pairs == angles.n_phi - half
        sino = random_sino(np.random.default_rng(seed), tau_grid, angles)
        params = ur.RegParams(fa_step, backend)
        got = ur.invert_universal(sino, geom, params)
        # every column filtered, then folded into the padded rows: the order before the fold moved
        (fs, fa), oob = backproject(term_columns(sino, params), sino, geom)
        assert_near(got.f_s.values, fs)
        assert_near(got.f_a.values, fa)
        assert np.array_equal(got.out_of_coverage, oob)

    @pytest.mark.parametrize("backend", list(ur.Backend))
    @pytest.mark.parametrize("angles", [
        ur.AngularRange.full(24), ur.AngularRange(0.0, 1.5 * np.pi, 18)], ids=["full", "3pi/2"])
    def test_filters_see_half_the_columns(self, rng, monkeypatch, backend, angles):
        # the rows of [0, pi) on the scan's step: 12 pairs, or 6 pairs and 6 rows alone
        geom = ur.GridGeometry.centered(12, 12, 3.0, 3.0)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        sino = random_sino(rng, tau_grid, angles)
        widths = []
        for name in ("_correlate_rows", "_differentiate_rows"):
            original = getattr(inv, name)
            monkeypatch.setattr(inv, name, lambda rows, *a, f=original: widths.append(
                rows.shape) or f(rows, *a))
        ur.invert_universal(sino, geom, ur.RegParams.defaults(0.2, backend))
        assert widths == [(12, tau_grid.n_tau + 2)] * 2


class TestKernelParity:
    """The fold commutes a filter with tau reversal only for a kernel of known parity."""

    @pytest.mark.parametrize("n_tau", [2, 3, 4, 31, 1685])
    @pytest.mark.parametrize("d_tau", [0.01, 0.13, 0.37])
    def test_ramp_and_finite_part_kernels_are_even(self, n_tau, d_tau):
        kernels = [inv._ramp_kernel(n_tau, d_tau)]
        if n_tau >= 3:
            kernels.append(inv._fp_kernel(n_tau, d_tau))
        for kernel in kernels:
            assert np.array_equal(kernel, kernel[::-1])

    @pytest.mark.parametrize("n_tau", [2, 3, 31, 1685])
    @pytest.mark.parametrize("d_tau, epsilon, lambda_max", [(0.01, 0.02, np.pi / 0.01),
                                                            (0.13, 0.4, 3.0)])
    def test_lambda_kernel_is_conjugate_symmetric(self, n_tau, d_tau, epsilon, lambda_max):
        kernel = inv._lambda_correlation_kernel(n_tau, d_tau, epsilon, lambda_max)
        assert np.array_equal(kernel[::-1], np.conj(kernel))
        if n_tau > 1:
            assert not np.array_equal(kernel[::-1], kernel)


class TestExactAngles:
    """A span within is_full's tolerance of 2 pi but not within a few ulps takes no fold."""

    ANGLES = ur.AngularRange(0.0, 2 * np.pi - 0.9e-12, 180)

    def test_is_full_but_neither_mirrored_nor_folded(self):
        geom = ur.GridGeometry.centered(24, 24, 4.8, 4.8)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        assert self.ANGLES.is_full
        assert _fold_plan(geom, tau_grid, self.ANGLES).pairs == 0
        assert len(_fold_plan(geom, tau_grid, self.ANGLES).views) == 1
        assert len(_fold_plan(geom, tau_grid, ur.AngularRange.full(180)).views) == 4

    def test_projection_is_direct_bitwise(self, rng):
        geom = ur.GridGeometry.centered(24, 24, 4.8, 4.8)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        img = ur.ImageGrid2D.from_geometry(geom, complex_normal(rng, (24, 24)))
        sino = ur.radon_transform(img, tau_grid, self.ANGLES)
        direct = _project(geom, [img.values], tau_grid.taus(),
                          [direction(p) for p in self.ANGLES.phis()], None)[0]
        assert np.array_equal(sino.values, direct)

    def test_backprojection_is_direct_bitwise(self, rng, monkeypatch):
        geom = ur.GridGeometry.centered(24, 24, 4.8, 4.8)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        sino = random_sino(rng, tau_grid, self.ANGLES)
        calls = []
        monkeypatch.setattr(inv, "direction", lambda phi: calls.append(phi) or direction(phi))
        got = ur.invert_universal(sino, geom, ur.RegParams.defaults(0.2))
        monkeypatch.undo()
        assert len(calls) == 180
        params = ur.RegParams.defaults(0.2)
        (fs, fa), oob = pi_folded_backproject(term_columns(sino, params), sino, geom)
        assert np.array_equal(got.f_s.values, fs)
        assert np.array_equal(got.f_a.values, fa)
        assert np.array_equal(got.out_of_coverage, oob)

    @pytest.mark.parametrize("span", [1e-310, 1e-300, 1e-20, 1e-12])
    def test_a_tiny_span_takes_the_identity_plan(self, rng, span):
        # pi is about 1e300 steps of a 1e-300 span: no count that large is exact
        geom = ur.GridGeometry.centered(24, 24, 4.8, 4.8)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        angles = ur.AngularRange(0.0, span, 3)
        plan = _fold_plan(geom, tau_grid, angles)
        assert plan.pairs == 0 and len(plan.views) == 1 and list(plan.rep) == [0, 1, 2]
        img = ur.ImageGrid2D.from_geometry(geom, complex_normal(rng, (24, 24)))
        sino = ur.radon_transform(img, tau_grid, angles)
        for m, phi in enumerate(angles.phis()):
            for t, tau in enumerate(tau_grid.taus()):
                assert ur.radon_point(img, tau, phi) == sino.values[t, m]


# --- the tau band: pixels a node or more past either end of the tau grid add +0 ---

def whole_field_backproject(columns_seq, sino, geometry):
    """Test-local copy of _backproject before the tau band: every pixel of every field,
    through the plan's views, with the rows handed over as conftest.backproject does."""
    plan = _fold_plan(geometry, sino.tau_grid, sino.angles)
    rows_seq = [inv._padded_rows(c, plan.pairs) for c in columns_seq]
    n = sino.n_tau
    x, y = geometry.x_nodes()[:, None], geometry.y_nodes()
    shape = (geometry.nx, geometry.ny)
    accs = [[np.zeros(shape, dtype=complex) for _ in plan.views] for _ in rows_seq]
    out_of_range = [np.zeros(shape, dtype=bool) for _ in plan.views]
    for k in np.argsort(plan.rep, kind="stable"):
        c, s = direction(plan.phis[plan.rep[k]])
        f = (c * x + s * y - sino.tau_min) / sino.d_tau
        i0, w = _linear_index(f, n)
        w0, w = (1.0 - w).astype(complex), w.astype(complex)
        q = plan.view[k]
        for frames, rows in zip(accs, rows_seq):
            lo = rows[k][i0]
            lo *= w0
            hi = rows[k][i0 + 1]
            hi *= w
            lo += hi
            frames[q] += lo
        out_of_range[q] |= (f < 0.0) | (f > n - 1)
    for frames in [*accs, out_of_range]:
        for frame, (_, inverse) in zip(frames[1:], plan.views[1:]):
            frames[0] += inverse(frame)
    for frames in accs:
        frames[0] *= sino.angles.d_phi * ur.ANGULAR_MEASURE_NORM
    return [frames[0] for frames in accs], out_of_range[0]


BAND_SCANS = {   # each takes the plan its name gives: "paired" with the mirror pi - phi
    "general": (ur.GridGeometry(14, 11, -1.3, -0.9, 0.2, 0.17), ur.AngularRange(0.3, 5.9, 7)),
    "paired": (ur.GridGeometry.centered(16, 12, 3.2, 2.4), ur.AngularRange.full(10)),
    "D4 full": (ur.GridGeometry.centered(16, 16, 3.2, 3.2), ur.AngularRange.full(16)),
    "D4 half": (ur.GridGeometry.centered(16, 16, 3.2, 3.2), ur.AngularRange(0.0, np.pi, 8)),
}


@st.composite
def band_scans(draw):
    """A scan of each plan and a tau grid that covers all, part or none of the image.

    Paired plans need a symmetric tau grid, which always meets the image."""
    kind = draw(st.sampled_from(sorted(BAND_SCANS)))
    geom, angles = BAND_SCANS[kind]
    d_tau = draw(st.floats(0.05, 0.5))
    n_tau = draw(st.integers(2, 40))
    if _fold_plan(geom, ur.TauGrid.symmetric(d_tau, n_tau), angles).pairs:
        tau_grid = ur.TauGrid.symmetric(d_tau, n_tau)
    else:
        tau_grid = ur.TauGrid(draw(st.floats(-6.0, 4.0)), d_tau, n_tau)
    return kind, geom, tau_grid, angles, draw(st.integers(0, 2**32 - 1))


def engages_band(geom, tau_grid, angles):
    """Whether some pixel of some representative field lies a node or more past either end."""
    x, y = geom.x_nodes()[:, None], geom.y_nodes()
    for phi in _fold_plan(geom, tau_grid, angles).phis:
        c, s = direction(phi)
        f = (c * x + s * y - tau_grid.tau_min) / tau_grid.d_tau
        if f.min() <= -1.0 or f.max() >= tau_grid.n_tau:
            return True
    return False


class TestTauBand:
    @SETTINGS
    @given(band_scans(), st.integers(1, 2))
    def test_matches_the_whole_field_loop_bitwise(self, scan, count):
        kind, geom, tau_grid, angles, seed = scan
        plan = _fold_plan(geom, tau_grid, angles)
        assert (plan.pairs > 0) == (kind in ("paired", "D4 full"))
        assert len(plan.views) == {"general": 1, "paired": 2}.get(kind, 4)
        rng = np.random.default_rng(seed)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(count)]
        got, oob = backproject(columns, sino, geom)
        want, want_oob = whole_field_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want, strict=True):
            assert same_bits(g, w)

    # a paired plan needs a symmetric tau grid, which always meets the image
    @pytest.mark.parametrize("kind, window", [(kind, "part") for kind in sorted(BAND_SCANS)] + [
        (kind, window) for kind in ("general", "D4 half") for window in ("one side", "none")])
    def test_matches_the_direct_and_pi_folded_loops(self, rng, kind, window):
        geom, angles = BAND_SCANS[kind]
        tau_grid = {"part": ur.TauGrid.symmetric(0.1, 11), "one side": ur.TauGrid(0.25, 0.1, 12),
                    "none": ur.TauGrid(4.0, 0.1, 8)}[window]
        plan = _fold_plan(geom, tau_grid, angles)
        assert len(plan.views) == {"general": 1, "paired": 2}.get(kind, 4)
        assert engages_band(geom, tau_grid, angles)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(2)]
        got, oob = backproject(columns, sino, geom)
        folded, folded_oob = pi_folded_backproject(columns, sino, geom)
        assert np.array_equal(oob, folded_oob)
        if window == "none":
            assert oob.all() and not any(g.any() for g in got)
        if len(plan.views) > 1:   # the orbits agree with the pi-folded loop to rounding
            for g, w in zip(got, folded, strict=True):
                assert np.max(np.abs(g - w)) <= 1e-12 * np.max(np.abs(w))
            return
        want = folded
        if not plan.pairs:
            want, direct_oob = direct_backproject(columns, sino, geom)
            assert np.array_equal(oob, direct_oob)
        for g, w in zip(got, want, strict=True):
            assert same_bits(g, w)


# --- blocks of shared index fields, each buffer's frames gathered by one task ---

def field_kinds(geom, tau_grid, plan):
    """Per representative field: "covered" (every pixel within the tau grid), "whole" (some
    pixels outside it, none a node or more past either end) or "banded"."""
    x, y = geom.x_nodes()[:, None], geom.y_nodes()
    kinds = []
    for phi in plan.phis:
        c, s = direction(phi)
        f = (c * x + s * y - tau_grid.tau_min) / tau_grid.d_tau
        n = tau_grid.n_tau
        kinds.append("covered" if f.min() >= 0.0 and f.max() <= n - 1
                     else "banded" if f.min() <= -1.0 or f.max() >= n else "whole")
    return kinds


# a covering tau grid, and a narrower one whose fields are covered, whole or banded
SHARED_TAU_GRIDS = {"covering": lambda geom: ur.TauGrid.covering(geom, 0.2),
                    "narrow": lambda geom: ur.TauGrid.symmetric(0.2, 13 if geom.nx == 14 else 19)}


class TestSharedFields:
    """_backproject's blocks of index fields and its one task per buffer keep every bit."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("per_block", ["one", "partial", "all"])
    @pytest.mark.parametrize("taus", sorted(SHARED_TAU_GRIDS))
    @pytest.mark.parametrize("kind", sorted(BAND_SCANS))
    def test_equals_the_serial_loops_bitwise(self, rng, monkeypatch, kind, taus, per_block,
                                             count):
        geom, angles = BAND_SCANS[kind]
        tau_grid = SHARED_TAU_GRIDS[taus](geom)
        plan = _fold_plan(geom, tau_grid, angles)
        n_reps, n_px = len(plan.phis), geom.nx * geom.ny
        assert n_reps >= 3 and n_reps % 2 == 1   # two fields a block leave a partial last one
        fields = {"one": 1, "partial": 2, "all": n_reps}[per_block]
        monkeypatch.setattr(inv, "_FIELD_BLOCK", fields * inv._FIELD_BYTES * n_px)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(count)]
        want, want_oob = whole_field_backproject(columns, sino, geom)
        folded, folded_oob = pi_folded_backproject(columns, sino, geom)
        run_tasks, calls = inv._run_tasks, []
        monkeypatch.setattr(inv, "_run_tasks",
                            lambda task, items: calls.append(len(items)) or run_tasks(task, items))
        for n_cpus in (1, 2):
            monkeypatch.setattr(fwd, "_cpu_count", lambda: n_cpus)
            for threshold in (n_px, n_px + 1):   # at the pixel threshold, and one pixel below it
                monkeypatch.setattr(inv, "_SHARED_PIXELS", threshold)
                calls.clear()
                got, oob = backproject(columns, sino, geom)
                shared = count > 1 and n_cpus > 1 and threshold == n_px
                # per block: its fields, then a gather per buffer and the coverage; then the ends
                assert calls == (sum(([min(fields, n_reps - a), count + 1]
                                      for a in range(0, n_reps, fields)), []) + [count]
                                 if shared else [])
                assert same_bits(oob, want_oob) and same_bits(oob, folded_oob)
                for g, w, v in zip(got, want, folded, strict=True):
                    assert same_bits(g, w)
                    if len(plan.views) == 1:   # the orbits alone change the rounding
                        assert same_bits(g, v)

    def test_the_cases_cover_every_kind_of_field_and_plan(self):
        kinds, folds = set(), set()
        for geom, angles in BAND_SCANS.values():
            for make in SHARED_TAU_GRIDS.values():
                plan = _fold_plan(geom, make(geom), angles)
                kinds.update(field_kinds(geom, make(geom), plan))
                folds.add((plan.pairs > 0, len(plan.views)))
        assert kinds == {"covered", "whole", "banded"}
        assert folds == {(False, 1), (True, 2), (True, 4), (False, 4)}
