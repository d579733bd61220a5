"""Ray-driven direct Radon transform of sampled 2D grids.

Lines are parametrized as tau * n_phi + s * n_perp with n_phi = (cos phi,
sin phi) and n_perp = (-sin phi, cos phi); the line integral over s is a
composite-midpoint quadrature with bilinear sampling of the grid.  The
quadrature step is an explicit parameter so convergence order can be
measured directly.
"""

from __future__ import annotations

import numpy as np

from .grids import (TWO_PI, AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid,
                    _linear_index, _pi_mirrored)


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


def _project(images, taus: np.ndarray, directions, ray_step: float | None) -> np.ndarray:
    """Line integrals of each image along <(c, s), x> = tau, shape (n_images, n_tau, n_dir).

    Every ray-driven caller goes through here.  The images share one
    geometry and are projected as real channel planes (real and imaginary
    part of each).  Per direction, only the ray samples inside the grid box
    are kept; their corner indices and bilinear weights are computed once
    and applied to every plane, and np.bincount sums each tau row in sample
    order.  An entry therefore depends on its own image, tau and direction
    only: it has the same bits whatever else the call projects, and repeated
    calls are bitwise identical.
    """
    geometry = images[0].geometry
    if ray_step is None:
        ray_step = default_ray_step(geometry)
    if not (np.isfinite(ray_step) and ray_step > 0):
        raise ValueError(f"ray_step must be positive and finite, got {ray_step}")
    offsets, h = _ray_offsets(geometry, ray_step)
    nx, ny = geometry.nx, geometry.ny
    # plane 2k is the real part of image k, plane 2k + 1 its imaginary part
    planes = np.stack([part for img in images for part in (img.values.real, img.values.imag)])
    planes = planes.reshape(len(planes), nx * ny)
    sums = np.empty((len(planes), len(taus), len(directions)))
    for m, (c, s) in enumerate(directions):
        fx = (taus[:, None] * c - offsets[None, :] * s - geometry.x_min) / geometry.dx
        fy = (taus[:, None] * s + offsets[None, :] * c - geometry.y_min) / geometry.dy
        # _linear_index's inside test, applied first so only kept samples get indexed
        keep = np.flatnonzero((fx >= 0.0) & (fx <= nx - 1) & (fy >= 0.0) & (fy <= ny - 1))
        i0, tx, _ = _linear_index(fx.ravel()[keep], nx)
        j0, ty, _ = _linear_index(fy.ravel()[keep], ny)
        rows = keep // len(offsets)
        corner = i0 * ny + j0
        w00, w10 = (1.0 - tx) * (1.0 - ty), tx * (1.0 - ty)
        w01, w11 = (1.0 - tx) * ty, tx * ty
        for k, plane in enumerate(planes):
            samples = (w00 * plane.take(corner) + w10 * plane.take(corner + ny)
                       + w01 * plane.take(corner + 1) + w11 * plane.take(corner + ny + 1))
            sums[k, :, m] = np.bincount(rows, weights=samples, minlength=len(taus))
    out = np.empty((len(images), len(taus), len(directions)), dtype=np.complex128)
    out.real = sums[0::2] * h
    out.imag = sums[1::2] * h
    return out


def _radon_values(images, tau_grid: TauGrid, angles: AngularRange,
                  ray_step: float | None) -> np.ndarray:
    """Sinogram values of each image, shape (n_images, n_tau, n_phi).

    On a full range with an even angle count and a tau grid symmetric about
    zero, only [phi_min, phi_min + pi) is projected: R(tau, phi + pi) =
    R(-tau, phi), and the symmetric ray offsets make both sides the same
    sample set, so the second half is the first with tau reversed.  The two
    agree to rounding, except on a ray lying exactly along an edge of the
    grid box, where rounding decides which of its samples are inside.
    """
    phis = angles.phis()
    mirror = _pi_mirrored(tau_grid, angles)
    if mirror:
        phis = phis[:angles.n_phi // 2]
    values = _project(images, tau_grid.taus(), [direction(phi) for phi in phis], ray_step)
    return np.concatenate([values, values[:, ::-1]], axis=2) if mirror else values


def radon_point(img: ImageGrid2D, tau: float, phi: float, ray_step: float | None = None) -> complex:
    """Single line integral of the image along <n_phi, x> = tau."""
    return complex(_project([img], np.asarray([float(tau)]), [direction(phi)], ray_step)[0, 0, 0])


def radon_transform(img: ImageGrid2D, tau_grid: TauGrid, angles: AngularRange,
                    ray_step: float | None = None) -> Sinogram:
    """Sample the direct Radon transform on a (tau, phi) grid.

    Deterministic: entries are evaluated in a fixed order, so repeated calls
    are bitwise identical.
    """
    values = _radon_values([img], tau_grid, angles, ray_step)[0]
    return Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles, values)
