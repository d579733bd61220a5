"""Ray-driven direct Radon transform of sampled 2D grids.

Lines are parametrized as tau * n_phi + s * n_perp with n_phi = (cos phi,
sin phi) and n_perp = (-sin phi, cos phi); the line integral over s is a
composite-midpoint quadrature with bilinear sampling of the grid.  The
quadrature step is an explicit parameter so convergence order can be
measured directly.

The projector cuts the (direction, tau row) grid into tasks of at most
_BLOCK_SAMPLES ray samples: as many whole directions as fit, or one block of
consecutive tau rows of a direction too large for one task.  The tasks run
on the CPUs the process may run on: the calling thread and one pool worker
per further CPU.  A task lays its samples out offset-major, so consecutive
samples add into different (direction, tau row) bins, and every bin still
sums its own samples in ray order: results are bitwise identical however
the tasks are cut and at any thread count.  The projector takes a
GridGeometry and plain sample arrays on it, so the symmetry views of
grids._fold_plan (rotations and mirrors of f) are projected as array views,
from the plan's representative angles only, and only for the views some row
reads there.

The projector skips the ray samples whose contribution is exactly +0 or
-0.  The arrays of a call are grouped by the box of their nonzero nodes,
and a task keeps only the samples strictly inside its group's box; a
dropped sample reads four zero corners, or a nonzero corner at weight zero.
A row's sum starts at +0, so it is never -0, and adding +0 or -0 to it
changes no bit.  All-zero arrays are not sampled at all.  An image of full
support has the whole padded grid as its box, so it is sampled as before.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .grids import (TWO_PI, AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid,
                    _finite, _fold_plan)

# Ray samples per projector task.  Blocks this size keep each thread's
# temporaries small (a whole 256^2 direction holds about 20 MB) while each
# numpy call stays long enough that the interpreter lock is no bottleneck.
_BLOCK_SAMPLES = 2**15

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_worker = threading.local()   # busy is set in the pool's threads alone


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
                                       thread_name_prefix="uradon-project",
                                       initializer=setattr, initargs=(_worker, "busy", True))
        return _pool


def _thread_count(n_items: int) -> int:
    """Threads that _run_tasks spreads n_items over: one per CPU and item, but 1 in a pool
    worker, whose nested call could wait for drains that no idle worker starts."""
    return 1 if getattr(_worker, "busy", False) else min(_cpu_count(), n_items)


def _run_tasks(task, items: list) -> None:
    """Call task(item) for every item, on this thread and one pool worker per further CPU.

    All threads take items (never None) from one shared iterator.  The
    tasks must write disjoint outputs, so which thread runs an item cannot
    change a result.  With one item or one CPU, or from a pool worker
    (_thread_count), everything runs inline.  Every worker has stopped
    before this returns or raises; after a task fails no further item is
    started, and the calling thread's failure, or else the first failed
    worker's, is raised.
    """
    n_threads = _thread_count(len(items))
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


def _support_box(a: np.ndarray) -> tuple[int, int, int, int] | None:
    """Open bounds (i_lo, i_hi, j_lo, j_hi) on padded fx and fy of the samples that can read a
    nonzero node of a, or None if a is all zero.

    A sample at padded (fx, fy) reads the corners floor(fx) and floor(fx) + 1
    (likewise in y), and node i sits at padded i + 1.  Outside the open box
    i_first < fx < i_last + 2 (and in y) each corner holds zero or has weight
    zero.  When every border line of a holds a nonzero node the box is the
    whole padded grid, (0, nx + 1, 0, ny + 1), found without a full scan.
    """
    if a[0].any() and a[-1].any() and a[:, 0].any() and a[:, -1].any():
        return 0, a.shape[0] + 1, 0, a.shape[1] + 1
    nonzero = a != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(nonzero.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 2, int(cols[0]), int(cols[-1]) + 2


def _project(geometry: GridGeometry, arrays, taus: np.ndarray, directions,
             ray_step: float | None, needed: np.ndarray | None = None) -> np.ndarray:
    """Line integrals of each array along <(c, s), x> = tau, shape (n_arrays, n_tau, n_dir).

    Every ray-driven caller goes through here.  Each array holds the
    (nx, ny) samples of one image on ``geometry`` and may be any array
    view; it is projected as two real planes (its real and imaginary part).
    needed, a boolean (n_arrays, n_dir) table, names the columns the caller
    reads (all of them when None); the others are +0.

    The (direction, tau row) grid is cut into tasks of at most
    _BLOCK_SAMPLES ray samples, run by _run_tasks over the available CPUs:
    a task takes as many whole directions as fit, all tau rows of each, or,
    where one direction does not fit, one direction and a block of
    consecutive tau rows.  Each plane is read inside a ring of zero nodes
    (grids._linear_index).  The arrays are grouped by the box of their
    nonzero nodes (_support_box); per task and group, only the ray samples
    strictly inside the box are kept, and their corner indices and bilinear
    weights are computed once and applied to every plane of the group that
    one of the task's directions needs; all-zero arrays are not sampled,
    and their rows stay +0.  A task lays its samples out as one (offset,
    direction, row) block, so np.bincount over the bins direction * n_rows
    + row adds consecutive samples into different bins instead of waiting
    on one running sum; each bin still receives its own samples in
    increasing offset order, which gives the bits of a row-by-row sum.

    A dropped sample would add exactly +0 or -0 (module docstring), so the
    kept ones give every bit of the full sum.  A row never straddles two
    tasks, and an array's box is its own, so an entry depends on its own
    array, tau and direction only: it has the same bits whatever else the
    call projects, however the tasks are cut, whatever the thread count,
    and repeated calls are bitwise identical.  Each task writes its sums
    contiguously: the result is a transposed direction-major view.
    """
    if ray_step is None:
        ray_step = default_ray_step(geometry)
    _finite("ray_step", ray_step, positive=True)
    offsets, h = _ray_offsets(geometry, ray_step)
    nx, ny = geometry.nx, geometry.ny
    n_tau, n_dir = len(taus), len(directions)
    if needed is None:
        needed = np.ones((len(arrays), n_dir), dtype=bool)
    # plane 2k is the real part of array k, plane 2k + 1 its imaginary part, each
    # inside a ring of zeros: node (i, j) at padded (i + 1, j + 1)
    planes = np.zeros((2 * len(arrays), nx + 2, ny + 2))
    for plane, part in zip(planes, [p for a in arrays for p in (a.real, a.imag)]):
        plane[1:-1, 1:-1] = part
    planes = planes.reshape(len(planes), -1)
    groups: dict = {}   # support box -> the arrays that have it
    for k, a in enumerate(arrays):
        box = _support_box(a)
        if box is not None:
            groups.setdefault(box, []).append(k)
    sums = np.zeros((len(planes), n_dir, n_tau))
    trig = np.array(directions, dtype=float).reshape(n_dir, 2)
    block = max(1, _BLOCK_SAMPLES // len(offsets))   # tau rows per task
    pack = max(1, block // n_tau)                    # whole directions per task

    def project_block(task):
        m0, r0 = task
        c, s = trig[m0:m0 + pack, :1], trig[m0:m0 + pack, 1:]
        wanted = needed[:, m0:m0 + pack].any(axis=1)
        block_taus = taus[r0:r0 + block]
        n_bins = len(c) * len(block_taus)
        # padded indices as grids._linear_index forms them, in place: numpy elides
        # temporaries only from 256 KiB up, which task arrays stay below
        fx = block_taus * c - offsets[:, None, None] * s
        fx -= geometry.x_min
        fx /= geometry.dx
        fx += 1.0
        fy = block_taus * s + offsets[:, None, None] * c
        fy -= geometry.y_min
        fy /= geometry.dy
        fy += 1.0
        kept = []
        for (i_lo, i_hi, j_lo, j_hi), group in groups.items():
            members = [k for k in group if wanted[k]]
            if not members:
                continue
            keep = np.flatnonzero((fx > i_lo) & (fx < i_hi) & (fy > j_lo) & (fy < j_hi))
            if keep.size:   # else the group's rows keep their +0
                kept.append((members, fx.ravel()[keep], fy.ravel()[keep], keep % n_bins))
        del fx, fy  # before the gathers allocate theirs: keeps peak memory down
        while kept:
            # kept samples lie in (0, n + 1): _linear_index's clip and min are no-ops
            members, tx, ty, bins = kept.pop()
            i0, j0 = tx.astype(np.intp), ty.astype(np.intp)
            tx -= i0
            ty -= j0
            sx, sy = 1.0 - tx, 1.0 - ty
            weights = (sx * sy, tx * sy, sx * ty, tx * ty)
            del tx, ty, sx, sy
            corner = i0 * (ny + 2) + j0
            del i0, j0
            corners = (corner, corner + (ny + 2), corner + 1, corner + (ny + 3))
            for k in members:
                for q in (2 * k, 2 * k + 1):
                    plane = planes[q]
                    samples = plane.take(corners[0])
                    samples *= weights[0]
                    for w, idx in zip(weights[1:], corners[1:]):
                        term = plane.take(idx)
                        term *= w
                        samples += term
                    sums[q, m0:m0 + len(c), r0:r0 + len(block_taus)] = np.bincount(
                        bins, weights=samples, minlength=n_bins).reshape(len(c), -1)

    _run_tasks(project_block, [(m0, r0) for m0 in range(0, n_dir, pack)
                               if needed[:, m0:m0 + pack].any()
                               for r0 in range(0, n_tau, block)])
    out = np.empty((len(arrays), n_dir, n_tau), dtype=np.complex128)
    out.real = sums[0::2] * h
    out.imag = sums[1::2] * h
    out[~needed] = 0.0   # a task also sums the unread columns of the arrays it gathers
    return out.transpose(0, 2, 1)


def _radon_values(geometry: GridGeometry, arrays, tau_grid: TauGrid, angles: AngularRange,
                  ray_step: float | None) -> np.ndarray:
    """Sinogram values of each sample array on geometry, shape (n_arrays, n_tau, n_phi).

    Only the representative angles of grids._fold_plan are projected, each
    for the views of every array (array views, no copy, view-major) that
    some row reads there, and each row is gathered from its view at its
    representative angle.  The plan's paired angles follow its rows:
    R(tau, phi + pi) = R(-tau, phi), and the symmetric ray offsets make both
    sides the same sample set, so they are their first rows with tau
    reversed.  A view reads the same node values with the same weights in
    the same order as f at the mapped angle, so projected columns keep the
    bits of direct projection and the others agree to rounding.  The result
    is a transposed view of angle-major rows, Sinogram.values' layout.
    """
    plan = _fold_plan(geometry, tau_grid, angles)
    taus = tau_grid.taus()
    views = [view(a) for view, _ in plan.views for a in arrays]
    needed = np.zeros((len(plan.views), len(arrays), len(plan.phis)), dtype=bool)
    needed[plan.view, :, plan.rep] = True
    values = _project(geometry, views, taus, [direction(phi) for phi in plan.phis], ray_step,
                      needed.reshape(len(views), -1))
    rows = values.transpose(0, 2, 1).reshape(len(plan.views), len(arrays), len(plan.phis), -1)
    rows = np.moveaxis(rows[plan.view, :, plan.rep], 0, 1)
    return np.concatenate([rows, rows[:, :plan.pairs, ::-1]], axis=1).transpose(0, 2, 1)


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
