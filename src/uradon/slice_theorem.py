"""Executable Fourier slice check.

The 1D Fourier transform of a projection column (right-hand side) must match
the 2D Fourier transform of the image restricted to the ray lam * n_phi
(left-hand side).  Both sides are computed by independent quadratures and
compared per angle; the radial frequency lam lives on [0, inf) and the
measure convention is prefactor-free on both sides.

Each side puts its trapezoid weights on its 1D phase factors, not on the data,
and takes every phase table from ``_phases``, which splits the uniform nodes into
blocks so that a row of n nodes costs about 2 sqrt(n) complex exponentials.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grids import ImageGrid2D, Sinogram, _finite, _trapezoid_weights
from .forward import direction


def _check_lambdas(lambdas) -> np.ndarray:
    """The radial frequencies as a read-only float64 copy: 1D, nonempty, finite, nonnegative
    and strictly increasing, the one rule for every lambda set (FST sides and reports)."""
    lams = np.array(lambdas, dtype=np.float64)
    if lams.ndim != 1 or lams.size == 0:
        raise ValueError("need a 1D, nonempty array of radial frequencies")
    if not np.all(np.isfinite(lams)):
        raise ValueError("radial frequencies must be finite")
    if np.any(lams < 0.0):
        raise ValueError("radial frequencies must be nonnegative")
    if np.any(np.diff(lams) <= 0.0):
        raise ValueError("radial frequencies must be strictly increasing")
    lams.setflags(write=False)
    return lams


@dataclass(frozen=True)
class FstReport:
    """Per-angle residual between the two sides of the slice identity."""

    phi: float
    lambda_values: np.ndarray
    residuals: np.ndarray        # |lhs - rhs| per lambda
    lhs_abs: np.ndarray
    rhs_abs: np.ndarray

    @property
    def rel_residuals(self) -> np.ndarray:
        """Residuals over max |lhs| on the lambda set; as they are if lhs is zero there."""
        scale = float(self.lhs_abs.max())
        return self.residuals / scale if scale > 0.0 else self.residuals

    @property
    def max_rel_residual(self) -> float:
        return float(self.rel_residuals.max())


def _phases(k: np.ndarray, start: float, step: float, n: int) -> np.ndarray:
    """exp(-i k (start + m step)) for m < n, as a (len(k), n) table.

    Node m = q b + r with b = ceil(sqrt(n)): the exponentials of the block starts q b and
    of the offsets r are taken once each and multiplied in one outer product.
    """
    b = int(np.ceil(np.sqrt(n)))
    k = k[:, None]
    heads = np.exp(-1j * k * (start + step * b * np.arange(-(-n // b))))
    offsets = np.exp(-1j * k * (step * np.arange(b)))
    return (heads[:, :, None] * offsets[:, None, :]).reshape(len(k), -1)[:, :n]


def fst_lhs(img: ImageGrid2D, phi: float, lambdas) -> np.ndarray:
    """2D trapezoid quadrature of exp(-i lam <n_phi, x>) f(x) over the grid, per lambda.

    The phase separates, exp(-i lam c x) exp(-i lam s y); each factor carries its axis's
    trapezoid weights, so the sum is one matrix product with f and a row-wise dot.
    """
    lams = _check_lambdas(lambdas)
    c, s = direction(phi)
    geom = img.geometry
    px = _phases(lams * c, geom.x_min, geom.dx, geom.nx) * _trapezoid_weights(geom.nx, geom.dx)
    py = _phases(lams * s, geom.y_min, geom.dy, geom.ny) * _trapezoid_weights(geom.ny, geom.dy)
    return ((px @ img.values) * py).sum(axis=1)


def fst_rhs(sino: Sinogram, phi: float, lambdas) -> np.ndarray:
    """1D trapezoid transform of the projection column nearest to phi, per lambda.

    The weights sit on the phase table, which is then one matrix-vector product.
    """
    lams = _check_lambdas(lambdas)
    column = sino.values[:, sino.angles.index_of(phi)]
    phase = (_phases(lams, sino.tau_min, sino.d_tau, sino.n_tau)
             * _trapezoid_weights(sino.n_tau, sino.d_tau))
    return phase @ column


def fst_check(img: ImageGrid2D, sino: Sinogram, lambdas=None) -> list[FstReport]:
    """Evaluate both sides at every stored angle of the sinogram and report residuals.

    ``lambdas`` defaults to 33 samples from 0 to the radial Nyquist pi / d_tau.
    ``fst_passed`` judges the reports against a tolerance.
    """
    if lambdas is None:
        lambdas = np.linspace(0.0, np.pi / sino.d_tau, 33)
    lams = _check_lambdas(lambdas)
    reports = []
    for phi in sino.angles.phis():
        lhs = fst_lhs(img, phi, lams)
        rhs = fst_rhs(sino, phi, lams)
        reports.append(FstReport(float(phi), lams, np.abs(lhs - rhs), np.abs(lhs), np.abs(rhs)))
    return reports


def fst_passed(reports: list[FstReport], tolerance: float = 1e-3) -> bool:
    """Whether every report's max_rel_residual is at most tolerance (finite, above zero)."""
    _finite("tolerance", tolerance, positive=True)
    return all(r.max_rel_residual <= tolerance for r in reports)
