"""Executable Fourier slice check.

The 1D Fourier transform of a projection column (right-hand side) must match
the 2D Fourier transform of the image restricted to the ray lam * n_phi
(left-hand side).  Both sides are computed by independent quadratures and
compared per angle; the radial frequency lam lives on [0, inf) and the
measure convention is prefactor-free on both sides.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import AngularRange, ImageGrid2D, Sinogram, _trapezoid_weights
from .forward import direction


@dataclass(frozen=True)
class SpectralSlice:
    """1D spectral data F(lam, phi) along a fixed direction."""

    phi: float
    lambda_values: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        lams = np.array(self.lambda_values, dtype=np.float64, copy=True)
        vals = np.array(self.values, dtype=np.complex128, copy=True)
        if lams.ndim != 1 or vals.shape != lams.shape:
            raise ValueError("lambda_values and values must be matching 1D arrays")
        if lams.size and lams[0] < 0.0:
            raise ValueError("radial frequencies must be nonnegative")
        if np.any(np.diff(lams) <= 0.0):
            raise ValueError("lambda_values must be strictly increasing")
        lams.setflags(write=False)
        vals.setflags(write=False)
        object.__setattr__(self, "lambda_values", lams)
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class FstReport:
    """Per-angle residual between the two sides of the slice identity."""

    phi: float
    lambda_values: np.ndarray
    residuals: np.ndarray        # |lhs - rhs| per lambda
    max_rel_residual: float      # normalized by max |lhs| over the lambda set
    lhs_abs: np.ndarray
    rhs_abs: np.ndarray


def _check_lambdas(lambdas) -> np.ndarray:
    lams = np.asarray(lambdas, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("need a 1D, nonempty array of radial frequencies")
    if np.any(lams < 0.0):
        raise ValueError("radial frequencies must be nonnegative")
    return lams


def fst_lhs(img: ImageGrid2D, phi: float, lambdas) -> SpectralSlice:
    """2D trapezoid quadrature of exp(-i lam <n_phi, x>) f(x) over the grid."""
    lams = _check_lambdas(lambdas)
    c, s = direction(phi)
    geom = img.geometry
    wx = _trapezoid_weights(geom.nx, geom.dx)
    wy = _trapezoid_weights(geom.ny, geom.dy)
    weighted = img.values * wx[:, None] * wy[None, :]
    # separable phase: exp(-i lam (c x + s y)) = exp(-i lam c x) exp(-i lam s y)
    px = np.exp(-1j * np.outer(lams, c * geom.x_nodes()))
    py = np.exp(-1j * np.outer(lams, s * geom.y_nodes()))
    values = np.einsum("li,ij,lj->l", px, weighted, py, optimize=True)
    return SpectralSlice(phi, lams, values)


def fst_rhs(sino: Sinogram, phi: float, lambdas) -> SpectralSlice:
    """1D trapezoid transform of the projection column nearest to phi."""
    lams = _check_lambdas(lambdas)
    column = sino.values[:, sino.angles.index_of(phi)]
    taus = sino.taus()
    w = _trapezoid_weights(sino.n_tau, sino.d_tau)
    phase = np.exp(-1j * np.outer(lams, taus))
    values = phase @ (w * column)
    return SpectralSlice(phi, lams, values)


def fst_check(img: ImageGrid2D, sino: Sinogram, angles: AngularRange | None = None,
              lambdas=None, tolerance: float = 1e-3) -> list[FstReport]:
    """Evaluate both sides at every requested angle and report residuals.

    ``angles`` defaults to the sinogram's own grid; ``lambdas`` defaults to
    33 samples from 0 to the radial Nyquist pi / d_tau.  Overall pass iff
    every report's max_rel_residual is <= tolerance (see ``fst_passed``).
    """
    if angles is None:
        angles = sino.angles
    if lambdas is None:
        lambdas = np.linspace(0.0, np.pi / sino.d_tau, 33)
    lams = _check_lambdas(lambdas)
    reports = []
    for phi in angles.phis():
        lhs = fst_lhs(img, phi, lams).values
        rhs = fst_rhs(sino, phi, lams).values
        residuals = np.abs(lhs - rhs)
        scale = float(np.max(np.abs(lhs)))
        max_rel = float(residuals.max() / scale) if scale > 0.0 else float(residuals.max())
        reports.append(FstReport(float(phi), lams, residuals, max_rel,
                                 np.abs(lhs), np.abs(rhs)))
    return reports


def fst_passed(reports: list[FstReport], tolerance: float = 1e-3) -> bool:
    return all(r.max_rel_residual <= tolerance for r in reports)
