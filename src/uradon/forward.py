"""Ray-driven direct Radon transform of sampled 2D grids.

Lines are parametrized as tau * n_phi + s * n_perp with n_phi = (cos phi,
sin phi) and n_perp = (-sin phi, cos phi); the line integral over s is a
composite-midpoint quadrature with bilinear sampling of the grid.  The
quadrature step is an explicit parameter so convergence order can be
measured directly.

The projector splits its work into tasks of one direction and one block of
consecutive tau rows (at most _BLOCK_SAMPLES ray samples each) and spreads
them over the CPUs the process may run on: the calling thread and one pool
worker per further CPU.  A task lays its samples out offset-major, so
consecutive samples add into different tau rows, and every row still sums
its own samples in ray order: results are bitwise identical at any thread
count.  The projector takes a GridGeometry and plain sample arrays on it, so
the dihedral fold projects f, f.T, rot90(f, -1) and its transpose as four
array views.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .grids import (TWO_PI, AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid,
                    _d4_folded, _finite, _pi_mirrored)

# Ray samples per projector task.  Blocks this size keep each thread's
# temporaries small (a whole 256^2 direction holds about 20 MB) while each
# numpy call stays long enough that the interpreter lock is no bottleneck.
_BLOCK_SAMPLES = 2**15

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


def _cpu_count() -> int:
    """Number of CPUs this process may run on (its affinity mask where the OS has one)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drop_pool() -> None:
    """A forked child has none of the parent's threads: let it start its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_pool)


def _executor() -> ThreadPoolExecutor:
    """The module's worker pool, created at first use with one thread per further CPU."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=max(1, _cpu_count() - 1),
                                       thread_name_prefix="uradon-project")
        return _pool


def _run_tasks(task, items: list) -> None:
    """Call task(item) for every item, on this thread and one pool worker per further CPU.

    All threads take items (never None) from one shared iterator.  The
    tasks must write disjoint outputs, so which thread runs an item cannot
    change a result.  With one item or one CPU everything runs inline.
    Every worker has stopped before this returns or raises; after a task
    fails no further item is started, and the calling thread's failure, or
    else the first failed worker's, is raised.
    """
    n_threads = min(_cpu_count(), len(items))
    if n_threads <= 1:
        for item in items:
            task(item)
        return
    pool = _executor()
    pending = iter(items)
    lock = threading.Lock()
    failed = False

    def drain():
        nonlocal failed
        while True:
            with lock:
                item = None if failed else next(pending, None)
            if item is None:
                return
            try:
                task(item)
            except BaseException:
                failed = True
                raise

    futures = [pool.submit(drain) for _ in range(n_threads - 1)]
    try:
        drain()
    finally:
        wait(futures)
    for future in futures:
        future.result()


def direction(phi: float) -> tuple[float, float]:
    """Unit vector (cos phi, sin phi); phi must be finite.

    The angle is reduced mod 2*pi first, so whenever phi + 2*pi is exactly
    representable the transform is exactly 2*pi-periodic.
    """
    _finite("phi", phi)
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


def _project(geometry: GridGeometry, arrays, taus: np.ndarray, directions,
             ray_step: float | None) -> np.ndarray:
    """Line integrals of each array along <(c, s), x> = tau, shape (n_arrays, n_tau, n_dir).

    Every ray-driven caller goes through here.  Each array holds the
    (nx, ny) samples of one image on ``geometry`` and may be any array
    view; it is projected as two real planes (its real and imaginary part).
    The work is split into tasks of one direction and one block of
    consecutive tau rows holding at most _BLOCK_SAMPLES ray samples, run by
    _run_tasks over the available CPUs.  Per task, only the ray samples
    inside the grid box are kept; their corner indices and bilinear weights
    are computed once and applied to every plane.  The samples are laid out
    offset-major (one ray offset across all rows of the block, then the
    next), so np.bincount adds consecutive samples into different rows
    instead of waiting on one row's running sum; each row still receives
    its own samples in increasing offset order, which gives the bits of a
    row-by-row sum.  A row never straddles two tasks, so an entry depends on
    its own array, tau and direction only: it has the same bits whatever
    else the call projects, whatever the thread count, and repeated calls
    are bitwise identical.
    """
    if ray_step is None:
        ray_step = default_ray_step(geometry)
    if not (np.isfinite(ray_step) and ray_step > 0):
        raise ValueError(f"ray_step must be positive and finite, got {ray_step}")
    offsets, h = _ray_offsets(geometry, ray_step)
    nx, ny = geometry.nx, geometry.ny
    # plane 2k is the real part of array k, plane 2k + 1 its imaginary part
    planes = np.stack([part for a in arrays for part in (a.real, a.imag)])
    planes = planes.reshape(len(planes), nx * ny)
    sums = np.empty((len(planes), len(taus), len(directions)))
    block = max(1, _BLOCK_SAMPLES // len(offsets))

    def project_rows(task):
        m, r0 = task
        c, s = directions[m]
        block_taus = taus[r0:r0 + block]
        n_rows = len(block_taus)
        # in-place steps: numpy elides temporaries only from 256 KiB up, which
        # block arrays stay below; same operations in the same order, same bits
        fx = block_taus[None, :] * c - offsets[:, None] * s
        fx -= geometry.x_min
        fx /= geometry.dx
        fy = block_taus[None, :] * s + offsets[:, None] * c
        fy -= geometry.y_min
        fy /= geometry.dy
        keep = np.flatnonzero((fx >= 0.0) & (fx <= nx - 1) & (fy >= 0.0) & (fy <= ny - 1))
        # kept samples lie in [0, n - 1]: _linear_index's clip and inside test are no-ops
        tx, ty = fx.ravel()[keep], fy.ravel()[keep]
        rows = keep % n_rows
        del fx, fy, keep  # before the gathers allocate theirs: keeps peak memory down
        i0, j0 = tx.astype(np.intp), ty.astype(np.intp)
        np.minimum(i0, nx - 2, out=i0)
        np.minimum(j0, ny - 2, out=j0)
        tx -= i0
        ty -= j0
        sx, sy = 1.0 - tx, 1.0 - ty
        weights = (sx * sy, tx * sy, sx * ty, tx * ty)
        del tx, ty, sx, sy
        corner = i0 * ny + j0
        del i0, j0
        corners = (corner, corner + ny, corner + 1, corner + (ny + 1))
        for k, plane in enumerate(planes):
            samples = plane.take(corners[0])
            samples *= weights[0]
            for w, idx in zip(weights[1:], corners[1:]):
                term = plane.take(idx)
                term *= w
                samples += term
            sums[k, r0:r0 + n_rows, m] = np.bincount(rows, weights=samples, minlength=n_rows)

    _run_tasks(project_rows, [(m, r0) for m in range(len(directions))
                              for r0 in range(0, len(taus), block)])
    out = np.empty((len(arrays), len(taus), len(directions)), dtype=np.complex128)
    out.real = sums[0::2] * h
    out.imag = sums[1::2] * h
    return out


def _radon_values(geometry: GridGeometry, arrays, tau_grid: TauGrid, angles: AngularRange,
                  ray_step: float | None) -> np.ndarray:
    """Sinogram values of each sample array on geometry, shape (n_arrays, n_tau, n_phi).

    On a full range with an even angle count and a tau grid symmetric about
    zero, only [phi_min, phi_min + pi) is projected: R(tau, phi + pi) =
    R(-tau, phi), and the symmetric ray offsets make both sides the same
    sample set, so the second half is the first with tau reversed.  When
    grids._d4_folded holds as well, only angles m = 0..n_phi/8 are
    projected, of four array views of each f, with no copy, in
    channel-major order: f, f.T, rot90(f, -1) and rot90(f, -1).T, which
    fill columns m, n_phi/4 - m, m + n_phi/4 and n_phi/2 - m (channels 0 to
    3 of _d4_sources).  A view reads the same node values with the same
    weights in the same order as f at the folded angle, so
    projected columns keep the bits of direct projection; the folded ones
    agree to rounding, except on a ray lying exactly along an edge of the
    grid box, where rounding decides which of its samples are inside.
    """
    phis = angles.phis()
    taus = tau_grid.taus()
    if _d4_folded(geometry, tau_grid, angles):
        n_rep = angles.n_phi // 8 + 1
        turned = [np.rot90(a, -1) for a in arrays]
        views = [*arrays, *(a.T for a in arrays), *turned, *(t.T for t in turned)]
        values = _project(geometry, views, taus, [direction(phi) for phi in phis[:n_rep]],
                          ray_step)
        channel, rep = _d4_sources(angles.n_phi)
        values = values.reshape(4, len(arrays), len(taus), n_rep)
        values = np.moveaxis(values[channel, :, :, rep], 0, -1)
    elif _pi_mirrored(tau_grid, angles):
        values = _project(geometry, arrays, taus,
                          [direction(phi) for phi in phis[:angles.n_phi // 2]], ray_step)
    else:
        return _project(geometry, arrays, taus, [direction(phi) for phi in phis], ray_step)
    return np.concatenate([values, values[:, ::-1]], axis=2)


def _d4_sources(n_phi: int) -> tuple[np.ndarray, np.ndarray]:
    """(channel, representative angle) of each column of [0, pi) under the D4 fold.

    Column k <= n_phi/4 is angle k itself (channel f) up to n_phi/8 and the
    transpose of angle n_phi/4 - k beyond; column n_phi/4 + k' repeats this
    with the quarter-turned channels.  Each column has one source, and no
    projected column is overwritten by a folded one.
    """
    quarter = n_phi // 4
    k = np.arange(2 * quarter)
    turned = k > quarter
    k = k - quarter * turned
    folded = 8 * k > n_phi
    return 2 * turned + folded, np.where(folded, quarter - k, k)


def radon_point(img: ImageGrid2D, tau: float, phi: float, ray_step: float | None = None) -> complex:
    """Single line integral of the image along <n_phi, x> = tau; tau and phi must be finite."""
    _finite("tau", tau)
    return complex(_project(img.geometry, [img.values], np.asarray([float(tau)]),
                            [direction(phi)], ray_step)[0, 0, 0])


def radon_transform(img: ImageGrid2D, tau_grid: TauGrid, angles: AngularRange,
                    ray_step: float | None = None) -> Sinogram:
    """Sample the direct Radon transform on a (tau, phi) grid.

    Deterministic: entries are evaluated in a fixed order, so repeated calls
    are bitwise identical.
    """
    values = _radon_values(img.geometry, [img.values], tau_grid, angles, ray_step)[0]
    return Sinogram(tau_grid.tau_min, tau_grid.d_tau, tau_grid.n_tau, angles, values)
