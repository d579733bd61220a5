"""Rotation and shift invariance of the transform, as properties over scenes and scans.

Rotating a scene by one angle step about the origin moves every sinogram
column one step on; translating it by a moves column phi by <n_phi, a> in
tau.  Both identities are exact for the closed form (phantoms.analytic_radon)
and hold for the projector to within its discretization error.  Each side
is gated against the closed form at the bound of acceptance criterion 2,
1e-3 of the peak at spacing 0.05, scaled with the square of the spacing
(the projector converges at second order), and the two sides are compared
at the same bound.  The scenes are unmasked blobs far enough inside the
grid box that truncating their tails stays far below it.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import uradon as ur
from conftest import analytic_sinogram

SETTINGS = settings(derandomize=True, database=None, max_examples=20, deadline=None)
EXTENT = 12.0


def oracle_bound(spacing):
    """Acceptance criterion 2's 1e-3 of the peak at spacing 0.05, scaled at second order."""
    return 1e-3 * (spacing / 0.05) ** 2


def peak_error(got, want):
    return np.max(np.abs(got - want)) / np.max(np.abs(want))


@st.composite
def blob_scenes(draw):
    """1-3 unmasked complex blobs centred within 1 of the origin, sigma in [0.7, 1]."""
    coord = st.floats(-1.0, 1.0)
    blobs = [ur.GaussianBlob(draw(coord), draw(coord), draw(st.floats(0.7, 1.0)),
                             complex(draw(st.floats(0.5, 1.5)), draw(st.floats(-0.5, 0.5))))
             for _ in range(draw(st.integers(1, 3)))]
    return ur.CompositeScene.of(*blobs)


@st.composite
def scans(draw):
    """A centred square grid of spacing 0.05 or 0.1, its covering tau grid and an angle range.

    Full scans pair their angles pi apart when n_phi is even and fold the
    rest by the square's mirrors (and its quarter turns when n_phi % 4 == 0);
    partial windows mostly take the general path.
    """
    spacing = draw(st.sampled_from([0.05, 0.1]))
    n = int(round(EXTENT / spacing))
    geom = ur.GridGeometry.centered(n, n, EXTENT, EXTENT)
    if draw(st.booleans()):
        angles = ur.AngularRange.full(draw(st.integers(5, 16)))
    else:
        phi_min = draw(st.floats(-np.pi, np.pi))
        angles = ur.AngularRange(phi_min, phi_min + draw(st.floats(0.3, 4.0)),
                                 draw(st.integers(2, 9)))
    return spacing, geom, ur.TauGrid.covering(geom, spacing), angles


def transform(scene, geom, tau_grid, angles):
    return ur.radon_transform(ur.rasterize(scene, geom), tau_grid, angles).values


def rotated(scene, angle):
    c, s = np.cos(angle), np.sin(angle)
    return ur.CompositeScene.of(*(
        ur.GaussianBlob(c * b.cx - s * b.cy, s * b.cx + c * b.cy, b.sigma, b.amplitude)
        for b, _ in scene.terms))


def shifted(scene, ax, ay):
    return ur.CompositeScene.of(*(
        ur.GaussianBlob(b.cx + ax, b.cy + ay, b.sigma, b.amplitude) for b, _ in scene.terms))


@SETTINGS
@given(blob_scenes(), scans())
def test_rotation_by_one_angle_step_moves_columns_by_one(scene, scan):
    spacing, geom, tau_grid, angles = scan
    turned = rotated(scene, angles.d_phi)
    bound = oracle_bound(spacing)
    exact = analytic_sinogram(scene, tau_grid, angles).values
    exact_turned = analytic_sinogram(turned, tau_grid, angles).values
    assert peak_error(exact_turned[:, 1:], exact[:, :-1]) <= 1e-12
    sino = transform(scene, geom, tau_grid, angles)
    sino_turned = transform(turned, geom, tau_grid, angles)
    assert peak_error(sino, exact) <= bound
    assert peak_error(sino_turned, exact_turned) <= bound
    assert peak_error(sino_turned[:, 1:], sino[:, :-1]) <= bound
    if angles.is_full:  # column 0 is also one step on from the last column
        assert peak_error(sino_turned[:, 0], sino[:, -1]) <= bound


@SETTINGS
@given(blob_scenes(), scans(), st.floats(-0.8, 0.8), st.floats(-0.8, 0.8))
def test_translation_shifts_tau_by_the_projected_offset(scene, scan, ax, ay):
    spacing, geom, tau_grid, angles = scan
    moved = shifted(scene, ax, ay)
    bound = oracle_bound(spacing)
    taus = tau_grid.taus()
    rows = np.arange(0, len(taus), 7)
    sino_moved = transform(moved, geom, tau_grid, angles)
    assert peak_error(sino_moved, analytic_sinogram(moved, tau_grid, angles).values) <= bound
    img = ur.rasterize(scene, geom)
    for m, phi in enumerate(angles.phis()):
        c, s = ur.direction(phi)
        back = taus[rows] - (c * ax + s * ay)
        exact = ur.analytic_radon(scene, back, phi)
        assert peak_error(ur.analytic_radon(moved, taus[rows], phi), exact) <= 1e-12
        got = np.array([ur.radon_point(img, tau, phi) for tau in back])
        assert np.max(np.abs(got - exact)) <= bound * np.max(np.abs(sino_moved))
        assert np.max(np.abs(sino_moved[rows, m] - got)) <= bound * np.max(np.abs(sino_moved))
