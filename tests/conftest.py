"""Shared helpers: independent quadrature oracles and error metrics.

The oracles here evaluate scene formulas directly on fine sample sets and
never touch the library's transform code, so every [analytic vs numeric]
assertion is a genuine cross-check.
"""

import tracemalloc

import numpy as np
import pytest

import uradon as ur


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


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)


@pytest.fixture
def unit_blob_scene():
    return ur.CompositeScene.of(ur.GaussianBlob(0.0, 0.0, 1.0, 1.0))
