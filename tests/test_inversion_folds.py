"""The inversion's symmetry folds against the unfolded computation.

Two folds move work in front of the expensive stages: the two-term inverse
folds a pi-mirrored sinogram onto its first half turn before filtering, and
_backproject shares each index field among the four D4 images of its angle
on centred square grids.  Both agree with the unfolded form to rounding;
every input outside their conditions must take the direct path bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import uradon as ur
import uradon.inversion as inv
from uradon.forward import _project, direction
from uradon.grids import _centred_square, _d4_folded, _linear_index, _pi_mirrored

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def pi_folded_backproject(columns_seq, sino, geometry):
    """Test-local copy of _backproject before the D4 fold: the pi-folded angle-major loop."""
    n = sino.n_tau
    phis = sino.angles.phis()
    folded = _pi_mirrored(sino.tau_grid, sino.angles)
    if folded:
        half = sino.angles.n_phi // 2
        phis = phis[:half]
    rows_seq = []
    for columns in columns_seq:
        rows = np.zeros((phis.size, n + 2), dtype=np.complex128)
        if folded:
            np.add(columns[:, :half].T, columns[::-1, half:].T, out=rows[:, :n])
        else:
            rows[:, :n] = columns.T
        rows_seq.append(rows)
    x, y = geometry.x_nodes()[:, None], geometry.y_nodes()
    accs = [np.zeros((geometry.nx, geometry.ny), dtype=np.complex128) for _ in rows_seq]
    out_of_range = np.zeros((geometry.nx, geometry.ny), dtype=bool)
    for m, phi in enumerate(phis):
        c, s = direction(phi)
        i0, w, inside = _linear_index((c * x + s * y - sino.tau_min) / sino.d_tau, n)
        outside = ~inside
        np.copyto(i0, n, where=outside)
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
    # a pixel whose offset is an end node of the tau grid reads that node or zero by
    # rounding, so the D4 images of such an angle may differ by O(1) there
    assume(clear_of_tau_ends(geom, tau_grid, angles.phis()[:n_half]))
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
        assert _centred_square(geom)
        rng = np.random.default_rng(seed)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(count)]
        got, oob = inv._backproject(columns, sino, geom)
        want, want_oob = pi_folded_backproject(columns, sino, geom)
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
        together, oob = inv._backproject(columns, sino, geom)
        for g, columns_alone in zip(together, columns, strict=True):
            (alone,), alone_oob = inv._backproject([columns_alone], sino, geom)
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
        got, oob = inv._backproject(columns, sino, geom)
        assert len(calls) == n_half // 4 + 1
        assert np.array_equal(calls, angles.phis()[:n_half // 4 + 1])
        monkeypatch.undo()
        (want,), want_oob = pi_folded_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        assert_near(got[0], want)

    @pytest.mark.parametrize("geom, angles", [
        (ur.GridGeometry.centered(12, 10, 3.0, 2.5), ur.AngularRange.full(16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 2.7), ur.AngularRange.full(16)),
        (ur.GridGeometry(12, 12, -1.4, -1.4, 0.25, 0.25), ur.AngularRange.full(16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.3, 0.3 + 2 * np.pi, 16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.3, 0.3 + np.pi, 16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange.full(30)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.0, np.pi, 15)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.0, np.pi - 1e-9, 16)),
        (ur.GridGeometry.centered(12, 12, 3.0, 3.0), ur.AngularRange(0.0, 1.5, 16)),
    ], ids=["nx != ny", "dx != dy", "off-centre", "full, phi_min != 0", "half, phi_min != 0",
            "full, odd N'", "half, odd N'", "span not pi", "partial"])
    def test_other_inputs_take_the_direct_loop_bitwise(self, rng, monkeypatch, geom, angles):
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        sino = empty_sino(tau_grid, angles)
        columns = [complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(2)]
        calls = []
        monkeypatch.setattr(inv, "direction", lambda phi: calls.append(phi) or direction(phi))
        got, oob = inv._backproject(columns, sino, geom)
        monkeypatch.undo()
        mirrored = _pi_mirrored(tau_grid, angles)
        assert len(calls) == (angles.n_phi // 2 if mirrored else angles.n_phi)
        want, want_oob = pi_folded_backproject(columns, sino, geom)
        assert np.array_equal(oob, want_oob)
        for g, w in zip(got, want, strict=True):
            assert np.array_equal(g, w)


@st.composite
def mirrored_scans(draw):
    """A pi-mirrored full scan, any image grid (centred square or not) and a seed."""
    n_tau = draw(st.integers(3, 40))
    tau_grid = ur.TauGrid.symmetric(draw(st.floats(0.05, 0.6)), n_tau)
    angles = ur.AngularRange.full(2 * draw(st.integers(1, 12)))
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
    @given(mirrored_scans(), st.sampled_from(list(ur.Backend)))
    def test_matches_filter_then_fold(self, scan, backend):
        geom, tau_grid, angles, fa_step, seed = scan
        sino = random_sino(np.random.default_rng(seed), tau_grid, angles)
        params = ur.RegParams(2.0 * tau_grid.d_tau, fa_step, backend)
        got = ur.invert_universal(sino, geom, params)
        # every column filtered, then folded by _backproject: the order before the fold moved
        (fs, fa), oob = inv._backproject([inv._fs_columns(sino, params),
                                          inv._fa_columns(sino, params)], sino, geom)
        assert_near(got.f_s.values, fs)
        assert_near(got.f_a.values, fa)
        assert np.array_equal(got.f_s.meta["coverage_flags"], np.argwhere(oob))

    @pytest.mark.parametrize("backend", list(ur.Backend))
    def test_filters_see_half_the_columns(self, rng, monkeypatch, backend):
        geom = ur.GridGeometry.centered(12, 12, 3.0, 3.0)
        tau_grid = ur.TauGrid.covering(geom, 0.2)
        sino = random_sino(rng, tau_grid, ur.AngularRange.full(24))
        widths = []
        for name in ("ramp_filtered", "finite_part_filtered", "tau_derivative"):
            original = getattr(inv, name)
            monkeypatch.setattr(inv, name, lambda s, *a, f=original: widths.append(
                s.values.shape) or f(s, *a))
        ur.invert_universal(sino, geom, ur.RegParams.defaults(0.2, backend))
        assert widths == [(tau_grid.n_tau, 12)] * 2


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
        assert not _pi_mirrored(tau_grid, self.ANGLES)
        assert not _d4_folded(geom, tau_grid, self.ANGLES)
        assert _d4_folded(geom, tau_grid, ur.AngularRange.full(180))

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
        (fs, fa), oob = pi_folded_backproject([inv._fs_columns(sino, params),
                                               inv._fa_columns(sino, params)], sino, geom)
        assert np.array_equal(got.f_s.values, fs)
        assert np.array_equal(got.f_a.values, fa)
        assert np.array_equal(got.f_s.meta["coverage_flags"], np.argwhere(oob))
