"""Linearity of the transform and of the two-term inverse, as properties over many inputs.

Every scan shape is drawn: full scans whose angle count is divisible by 4
(the D4 folds of the projector and the backprojection on centred square
grids), even and odd full scans, [0, pi) half ranges and partial windows,
on centred square grids and on general ones.  T(a g1 + b g2) must equal
a T(g1) + b T(g2) to within 1e-12 of the latter's peak.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

import uradon as ur

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
KINDS = ("full_d4", "full_even", "full_odd", "half", "partial")


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def assert_near(got, want, rel=1e-12):
    assert np.max(np.abs(got - want)) <= rel * np.max(np.abs(want))


@st.composite
def scans(draw):
    """(geometry, tau grid, angles, a, b, seed) over every scan kind and both grid shapes."""
    n = draw(st.integers(4, 20))
    dx = draw(st.floats(0.1, 0.4))
    if draw(st.booleans()):
        geom = ur.GridGeometry.centered(n, n, n * dx, n * dx)
    else:
        geom = ur.GridGeometry(n, draw(st.integers(4, 20)), draw(st.floats(-3.0, 0.0)),
                               draw(st.floats(-3.0, 0.0)), dx, draw(st.floats(0.1, 0.4)))
    tau_grid = ur.TauGrid.covering(geom, dx * draw(st.sampled_from([0.5, 0.75, 1.0])))
    kind = draw(st.sampled_from(KINDS))
    count = draw(st.integers(1, 6))
    if kind == "full_d4":
        angles = ur.AngularRange.full(4 * count)
    elif kind == "full_even":
        angles = ur.AngularRange.full(4 * count + 2)
    elif kind == "full_odd":
        angles = ur.AngularRange.full(2 * count + 1)
    elif kind == "half":
        angles = ur.AngularRange(0.0, np.pi, 2 * count)
    else:
        phi_min = draw(st.floats(-np.pi, np.pi))
        angles = ur.AngularRange(phi_min, phi_min + draw(st.floats(0.2, 5.0)), 2 * count + 1)
    coefficient = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0)
    return geom, tau_grid, angles, draw(coefficient), draw(coefficient), draw(
        st.integers(0, 2**32 - 1))


@SETTINGS
@given(scans())
def test_radon_transform_is_linear(scan):
    geom, tau_grid, angles, a, b, seed = scan
    rng = np.random.default_rng(seed)
    f1, f2 = (complex_normal(rng, (geom.nx, geom.ny)) for _ in range(2))

    def radon(values):
        return ur.radon_transform(ur.ImageGrid2D.from_geometry(geom, values), tau_grid,
                                  angles).values

    assert_near(radon(a * f1 + b * f2), a * radon(f1) + b * radon(f2))


@SETTINGS
@given(scans(), st.sampled_from(list(ur.Backend)))
def test_invert_universal_is_linear(scan, backend):
    geom, tau_grid, angles, a, b, seed = scan
    rng = np.random.default_rng(seed)
    g1, g2 = (complex_normal(rng, (tau_grid.n_tau, angles.n_phi)) for _ in range(2))
    params = ur.RegParams.defaults(tau_grid.d_tau, backend)

    def invert(values):
        sino = ur.Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles, values)
        return ur.invert_universal(sino, geom, params)

    got, r1, r2 = invert(a * g1 + b * g2), invert(g1), invert(g2)
    for part in ("f_s", "f_a", "f_total"):
        want = a * getattr(r1, part).values + b * getattr(r2, part).values
        assert_near(getattr(got, part).values, want)
