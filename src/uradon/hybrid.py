"""Slice-stacked volumes and their conjugate-momentum fields.

A 3D object is represented by finitely many transverse 2D sections.  A
discrete Fourier sum over the slice axis turns the stack into complex 2D
fields indexed by a momentum k; each field goes through the 2D forward and
inverse Radon machinery with k as a spectator, and the inverse Fourier sum
reassembles the volume.  On the matched dual k grid the series roundtrip is
exact, so the whole pipeline's error is the 2D reconstruction error alone.
"""

from __future__ import annotations

import numpy as np

from .grids import (AngularRange, GridGeometry, HybridField, ImageGrid2D, Sinogram, TauGrid,
                    VolumeStack, _finite)
from .forward import _radon_values
from .inversion import Reconstruction, RegParams, _invert_all
from .phantoms import SeparableScene3D, rasterize


def make_slices(scene3d: SeparableScene3D, x3_positions, geometry: GridGeometry) -> VolumeStack:
    """Transverse sections at the given positions: the base rasterized once, scaled per
    slice by the separable profile."""
    positions = [float(p) for p in x3_positions]
    base = rasterize(scene3d.base, geometry)
    weights = scene3d.profile(np.asarray(positions))
    slices = tuple(ImageGrid2D(geometry, w * base.values) for w in weights)
    return VolumeStack(tuple(positions), slices)


def hybrid_from_scene(scene3d: SeparableScene3D, k_values,
                      geometry: GridGeometry) -> tuple[ImageGrid2D, ...]:
    """Continuous-transform fields of a separable scene (closed form), one image per k.

    For a separable object base(x1, x2) * profile(x3) the integral transform
    along the third axis factorizes, so the k field is the rasterized base
    scaled by the profile's closed-form 1D transform.  This is the oracle
    for the series sum: a dense slice stack's Riemann sum converges to it.
    The images are plain, not a HybridField, because the series inverse does
    not apply to them.  A k that is not finite is refused.
    """
    ks = [float(k) for k in k_values]
    for k in ks:
        _finite("k value", k)
    base = rasterize(scene3d.base, geometry)
    return tuple(ImageGrid2D(geometry, scene3d.profile_transform(k) * base.values) for k in ks)


def _phase_sums(phases, grids) -> tuple:
    """One image per phase row: sum_n row[n] * grids[n], on the grids' shared geometry."""
    data = np.stack([g.values for g in grids])
    geometry = grids[0].geometry
    return tuple(ImageGrid2D(geometry, np.tensordot(row, data, axes=(0, 0))) for row in phases)


def hybrid_forward(stack: VolumeStack, k_values) -> HybridField:
    """Discrete Fourier sum over the slice axis: F(x; k) = sum_n exp(-i k x3_n) f_n(x)."""
    ks = [float(k) for k in k_values]
    x3 = np.asarray(stack.x3_positions)
    fields = _phase_sums([np.exp(-1j * k * x3) for k in ks], stack.slices)
    return HybridField(tuple(ks), fields)


def dual_k_grid(x3_positions) -> tuple[np.ndarray, float]:
    """Momentum grid k_m = 2 pi m / (N * spacing) dual to a uniform slice grid.

    Returns (k values, spacing); raises if there are no positions, one is not
    finite or they are not strictly increasing and uniformly spaced.
    """
    positions = list(x3_positions)
    if not positions:
        raise ValueError("need at least one slice position")
    for p in positions:
        _finite("x3 position", p)
    x3 = np.asarray([float(p) for p in positions])
    n = len(x3)
    if n == 1:
        return np.zeros(1), 1.0
    steps = np.diff(x3)
    if np.any(steps <= 0):
        raise ValueError("x3_positions must be strictly increasing")
    spacing = float(steps[0])
    if np.max(np.abs(steps - spacing)) > 1e-9 * max(spacing, 1.0):
        raise ValueError("slice positions must be uniformly spaced for the series inverse")
    return 2.0 * np.pi * np.arange(n) / (n * spacing), spacing


def hybrid_inverse_series(field: HybridField, x3_positions) -> VolumeStack:
    """Inverse Fourier sum: f_n(x) = (1/N) sum_m exp(+i k_m x3_n) F(x; k_m).

    Exact inverse of hybrid_forward when the k grid is the dual of a uniform
    slice grid (discrete orthogonality).
    """
    positions = [float(p) for p in x3_positions]
    required, _ = dual_k_grid(positions)
    ks = np.asarray(field.k_values)
    if len(ks) != len(required) or np.max(np.abs(ks - required)) > 1e-9 * max(1.0, float(np.max(np.abs(required)))):
        raise ValueError(
            "k grid does not match the slice grid; required k_m = 2*pi*m/(N*spacing): "
            f"{np.array2string(required, precision=6)}")
    n = len(positions)
    slices = _phase_sums([np.exp(1j * ks * x3) / n for x3 in positions], field.fields)
    return VolumeStack(tuple(positions), slices)


def hybrid_radon(field: HybridField, tau_grid: TauGrid, angles: AngularRange,
                 ray_step: float | None = None) -> list[Sinogram]:
    """Forward-project every k field; k rides along as a spectator parameter.

    All fields are projected in one pass, as channels sharing each angle's
    samples; every sinogram is bit-identical to projecting its field alone.
    """
    values = _radon_values(field.geometry, [f.values for f in field.fields], tau_grid, angles,
                           ray_step)
    return [Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles, v) for v in values]


def reconstruct_volume(sinos, geometry: GridGeometry, params: RegParams,
                       x3_positions) -> tuple[VolumeStack, tuple[Reconstruction, ...]]:
    """Invert one sinogram per k and reassemble the stack.

    Returns (stack, recons): the reassembled VolumeStack and each k field's
    Reconstruction, in the order of dual_k_grid(x3_positions), which the
    sinogram list must follow too.  All sinograms must share one tau grid and
    angular range: the f_s and f_a columns of every k field are backprojected
    in one pass, and each Reconstruction is bit-identical to invert_universal
    of its field, coverage mask included.
    """
    positions = [float(p) for p in x3_positions]
    required, _ = dual_k_grid(positions)
    if len(sinos) != len(required):
        raise ValueError(f"need one sinogram per dual k value "
                         f"({len(required)}), got {len(sinos)}")
    recons, _ = _invert_all(sinos, geometry, params)
    hybrid = HybridField(tuple(required), tuple(r.f_total for r in recons))
    return hybrid_inverse_series(hybrid, positions), tuple(recons)
