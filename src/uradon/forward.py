"""Ray-driven direct Radon transform of sampled 2D grids.

Lines are parametrized as tau * n_phi + s * n_perp with n_phi = (cos phi,
sin phi) and n_perp = (-sin phi, cos phi); the line integral over s is a
composite-midpoint quadrature with bilinear sampling of the grid.  The
quadrature step is an explicit parameter so convergence order can be
measured directly.
"""

from __future__ import annotations

import numpy as np

from .grids import TWO_PI, AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid, bilinear_sample


def direction(phi: float) -> tuple[float, float]:
    """Unit vector (cos phi, sin phi).

    The angle is reduced mod 2*pi first, so whenever phi + 2*pi is exactly
    representable the transform is exactly 2*pi-periodic.
    """
    reduced = np.mod(phi, TWO_PI)
    return float(np.cos(reduced)), float(np.sin(reduced))


def default_ray_step(geometry: GridGeometry) -> float:
    """Half the finer grid spacing: quadrature error below interpolation error."""
    return min(geometry.dx, geometry.dy) / 2.0


def _ray_offsets(geometry: GridGeometry, ray_step: float) -> tuple[np.ndarray, float]:
    """Midpoint offsets covering the grid's bounding circle, symmetric about 0."""
    radius = geometry.bounding_radius
    n_s = max(1, int(np.ceil(2.0 * radius / ray_step)))
    h = 2.0 * radius / n_s
    return -radius + (np.arange(n_s) + 0.5) * h, h


def _project(img: ImageGrid2D, taus: np.ndarray, directions,
             ray_step: float | None) -> np.ndarray:
    """Line integrals along <(c, s), x> = tau, shape (n_tau, n_dir).

    Every ray-driven caller goes through here.  Directions are taken in the
    given order, one column each, so repeated calls are bitwise identical.
    """
    if ray_step is None:
        ray_step = default_ray_step(img.geometry)
    if not (np.isfinite(ray_step) and ray_step > 0):
        raise ValueError(f"ray_step must be positive and finite, got {ray_step}")
    offsets, h = _ray_offsets(img.geometry, ray_step)
    out = np.empty((len(taus), len(directions)), dtype=np.complex128)
    for m, (c, s) in enumerate(directions):
        x = taus[:, None] * c - offsets[None, :] * s
        y = taus[:, None] * s + offsets[None, :] * c
        out[:, m] = bilinear_sample(img, x, y).sum(axis=1) * h
    return out


def radon_point(img: ImageGrid2D, tau: float, phi: float, ray_step: float | None = None) -> complex:
    """Single line integral of the image along <n_phi, x> = tau."""
    return complex(_project(img, np.asarray([float(tau)]), [direction(phi)], ray_step)[0, 0])


def radon_transform(img: ImageGrid2D, tau_grid: TauGrid, angles: AngularRange,
                    ray_step: float | None = None) -> Sinogram:
    """Sample the direct Radon transform on a (tau, phi) grid.

    Deterministic: entries are evaluated in a fixed order, so repeated calls
    are bitwise identical.
    """
    values = _project(img, tau_grid.taus(), [direction(phi) for phi in angles.phis()], ray_step)
    return Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles, values)
