"""Shared helpers: independent quadrature oracles, error metrics, and adapters
that hand the inversion's private kernels the padded row buffers they work on.

The oracles here evaluate scene formulas directly on fine sample sets and
never touch the library's transform code, so every [analytic vs numeric]
assertion is a genuine cross-check.
"""

import tracemalloc

import numpy as np
import pytest

import uradon as ur
import uradon.inversion as inv
from uradon.grids import _fold_plan


def traced_peak(call):
    """(call(), the peak bytes it allocated while it ran, as tracemalloc saw them)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def rel_l2(a, b):
    """|a - b|_2 / |b|_2."""
    return ur.l2_norm(np.asarray(a) - np.asarray(b)) / ur.l2_norm(np.asarray(b))


def same_bits(got, want):
    """Equal in shape, dtype and every bit: unlike np.array_equal, +0 and -0 differ."""
    got, want = np.asarray(got), np.asarray(want)
    return (got.shape == want.shape and got.dtype == want.dtype
            and np.ascontiguousarray(got).tobytes() == np.ascontiguousarray(want).tobytes())


def scene_values(scene, x, y):
    """Direct pointwise evaluation of a scene (masks included)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = np.zeros(np.broadcast(x, y).shape, dtype=complex)
    for blob, mask in scene.terms:
        term = blob.amplitude * np.exp(-((x - blob.cx) ** 2 + (y - blob.cy) ** 2)
                                       / (2.0 * blob.sigma**2))
        if mask is ur.RegionMask.QUADRANT_I:
            term = np.where((x >= 0) & (y >= 0), term, 0.0)
        elif mask is ur.RegionMask.QUADRANT_III:
            term = np.where((x < 0) & (y < 0), term, 0.0)
        out = out + term
    return out


def line_integral_quad(scene, tau, phi, half_length=40.0, n=200_001):
    """Brute-force line integral of the scene along <n_phi, x> = tau."""
    s = np.linspace(-half_length, half_length, n)
    c, sn = np.cos(phi), np.sin(phi)
    x = tau * c - s * sn
    y = tau * sn + s * c
    return np.trapezoid(scene_values(scene, x, y), s)


def fourier_quad_1d(scene, lam, phi, half_length=40.0, n=200_001):
    """Transform of the exact line integrals: integral exp(-i lam tau) R(tau) dtau."""
    taus = np.linspace(-half_length, half_length, n)
    radon = ur.analytic_radon(scene, taus, phi)
    return np.trapezoid(np.exp(-1j * lam * taus) * radon, taus)


def fourier_quad_2d(scene, lam, phi, half=10.0, n=1601):
    """Brute-force 2D Fourier transform of the scene at q = lam * n_phi."""
    grid = np.linspace(-half, half, n)
    X, Y = np.meshgrid(grid, grid, indexing="ij")
    c, s = np.cos(phi), np.sin(phi)
    f = scene_values(scene, X, Y) * np.exp(-1j * lam * (c * X + s * Y))
    return np.trapezoid(np.trapezoid(f, grid, axis=0), grid)


def analytic_sinogram(scene, tau_grid, angles):
    """Sinogram with exact unmasked-scene columns (no projector involved)."""
    taus = tau_grid.taus()
    values = np.stack([ur.analytic_radon(scene, taus, phi) for phi in angles.phis()], axis=1)
    return ur.Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles, values)


def backproject(columns_seq, sino, geometry):
    """inversion._backproject of (n_tau, n_phi) arrays, each handed over as padded rows.

    The rows are those of the plan: its paired rows hold row m plus its pair
    (angle phi_m + pi) read at -tau.
    """
    plan = _fold_plan(geometry, sino.tau_grid, sino.angles)
    return inv._backproject([inv._padded_rows(c, plan.pairs) for c in columns_seq], sino,
                            geometry, plan)


def correlate(values, kernel):
    """inversion._correlate_rows on the columns of values: the filtered (n, n_cols) array."""
    rows = inv._padded_rows(values)
    inv._correlate_rows(rows, kernel, inv._SPECTRUM_BLOCK)
    return rows[:, 1:-1].T


def differentiate(values, d_tau, fa_step):
    """inversion._differentiate_rows on the columns of values: their (n, n_cols) tau derivative."""
    rows = inv._padded_rows(values)
    inv._differentiate_rows(rows, d_tau, fa_step, inv._SPECTRUM_BLOCK)
    return rows[:, 1:-1].T


def term_columns(sino, params):
    """The inverse's filtered f_s and f_a columns at every stored angle, unfolded."""
    return [term(sino, 0, params, inv._SPECTRUM_BLOCK)[:, 1:-1].T
            for term in (inv._fs_rows, inv._fa_rows)]


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def unit_blob_scene():
    return ur.CompositeScene.of(ur.GaussianBlob(0.0, 0.0, 1.0, 1.0))
