"""Property tests: the angle-major inversion kernels against their column-major forms.

Each reference below is a test-local copy of the column-major code that
preceded the angle-major rows: every column read with a stride, out-of-range
pixels masked with np.where, and the FFT run along axis 0.  The arithmetic
is the same, so the results must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uradon as ur
import uradon.inversion as inv
from uradon.forward import direction
from uradon.grids import _fold_plan, _linear_index
from conftest import backproject, correlate

SETTINGS = settings(derandomize=True, database=None, max_examples=100, deadline=None)
CASES = ("full_even", "full_odd", "partial", "asymmetric_tau")


def column_major_backproject(columns_seq, sino, geometry):
    pairs = _fold_plan(geometry, sino.tau_grid, sino.angles).pairs
    n_rows = sino.angles.n_phi - pairs
    phis = sino.angles.phis()[:n_rows]
    columns_seq = [np.concatenate([columns[:, :pairs] + columns[::-1, n_rows:],
                                   columns[:, pairs:n_rows]], axis=1) for columns in columns_seq]
    X, Y = geometry.node_mesh()
    accs = [np.zeros((geometry.nx, geometry.ny), dtype=np.complex128) for _ in columns_seq]
    out_of_range = np.zeros((geometry.nx, geometry.ny), dtype=bool)
    for m, phi in enumerate(phis):
        c, s = direction(phi)
        f = (c * X + s * Y - sino.tau_min) / sino.d_tau
        i0, w = _linear_index(f, sino.n_tau)
        w0 = 1.0 - w
        for acc, columns in zip(accs, columns_seq):
            col = np.pad(columns[:, m], 1)
            acc += w0 * col[i0] + w * col[i0 + 1]
        out_of_range |= (f < 0.0) | (f > sino.n_tau - 1)
    for acc in accs:
        acc *= sino.angles.d_phi * ur.ANGULAR_MEASURE_NORM
    return accs, out_of_range


def column_major_correlation(values, kernel):
    n = values.shape[0]
    m_half = (len(kernel) - 1) // 2
    p = 1 << (n + m_half - 1).bit_length()
    spec = np.fft.fft(values, n=p, axis=0)
    spec *= np.fft.fft(kernel[::-1], n=p)[:, None]
    return np.fft.ifft(spec, axis=0, out=spec)[m_half:m_half + n]


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def backprojection_inputs(draw):
    """A sinogram grid of one of CASES, a small image grid and 1-3 column arrays."""
    case = draw(st.sampled_from(CASES))
    n_tau = draw(st.integers(2, 40))
    d_tau = draw(st.floats(0.05, 0.6))
    n_phi = draw(st.integers(1, 12))
    if case == "full_odd":
        angles = ur.AngularRange.full(2 * n_phi - 1)
    elif case == "partial":
        phi_min = draw(st.floats(-np.pi, np.pi))
        angles = ur.AngularRange(phi_min, phi_min + draw(st.floats(0.1, 6.0)), n_phi)
    else:
        angles = ur.AngularRange.full(2 * n_phi)
    if case == "asymmetric_tau":
        tau_grid = ur.TauGrid(-(n_tau - 1) * d_tau * draw(st.floats(0.0, 0.45)), d_tau, n_tau)
    else:
        tau_grid = ur.TauGrid.symmetric(d_tau, n_tau)
    geometry = ur.GridGeometry(draw(st.integers(2, 12)), draw(st.integers(2, 12)),
                               draw(st.floats(-3.0, 1.0)), draw(st.floats(-3.0, 1.0)),
                               draw(st.floats(0.05, 0.5)), draw(st.floats(0.05, 0.5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (n_tau, angles.n_phi)
    sino = ur.Sinogram(tau_grid.tau_min, tau_grid.d_tau, n_tau, angles, np.zeros(shape))
    columns = [complex_normal(rng, shape) for _ in range(draw(st.integers(1, 3)))]
    # the filters hand over tau-contiguous (transposed) columns
    if draw(st.booleans()):
        columns = [np.asfortranarray(c) for c in columns]
    plan = _fold_plan(geometry, tau_grid, angles)
    assert (plan.pairs > 0) == (case == "full_even") and len(plan.views) == 1
    return sino, geometry, columns


@SETTINGS
@given(backprojection_inputs())
def test_backproject_matches_the_column_major_loop(inputs):
    sino, geometry, columns = inputs
    got, oob = backproject(columns, sino, geometry)
    want, want_oob = column_major_backproject(columns, sino, geometry)
    assert np.array_equal(oob, want_oob)
    for g, w in zip(got, want, strict=True):
        assert np.array_equal(g, w)


@SETTINGS
@given(backprojection_inputs())
def test_arrays_backprojected_together_equal_each_alone(inputs):
    sino, geometry, columns = inputs
    together, oob = backproject(columns, sino, geometry)
    for g, columns_alone in zip(together, columns, strict=True):
        (alone,), alone_oob = backproject([columns_alone], sino, geometry)
        assert np.array_equal(g, alone)
        assert np.array_equal(oob, alone_oob)


@SETTINGS
@given(st.integers(1, 70), st.integers(0, 80), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_correlation_matches_the_column_major_fft(n, m_half, n_cols, seed):
    rng = np.random.default_rng(seed)
    values = complex_normal(rng, (n, n_cols))
    kernel = complex_normal(rng, 2 * m_half + 1)
    got = correlate(values, kernel)
    assert got.shape == (n, n_cols)
    assert np.array_equal(got, column_major_correlation(values, kernel))


@pytest.mark.parametrize("block_cols", [1, 2, 3])
@pytest.mark.parametrize("n, m_half, n_cols", [(37, 36, 7), (50, 12, 11), (9, 70, 5)])
def test_blocked_correlation_matches_the_column_major_fft(monkeypatch, block_cols, n, m_half,
                                                          n_cols):
    # a budget of block_cols spectra; n_cols is no multiple of 2 or 3, so those end in a short block
    p = 1 << (n + m_half - 1).bit_length()
    monkeypatch.setattr(inv, "_SPECTRUM_BLOCK", block_cols * p)
    rng = np.random.default_rng(n * n_cols + block_cols)
    values = complex_normal(rng, (n, n_cols))
    kernel = complex_normal(rng, 2 * m_half + 1)
    got = correlate(values, kernel)
    assert got.shape == (n, n_cols)
    assert np.array_equal(got, column_major_correlation(values, kernel))
