"""Ray-driven direct Radon transform of sampled 2D grids.

Lines are parametrized as tau * n_phi + s * n_perp with n_phi = (cos phi,
sin phi) and n_perp = (-sin phi, cos phi); the line integral over s is a
composite-midpoint quadrature with bilinear sampling of the grid.  The
quadrature step is an explicit parameter so convergence order can be
measured directly.

The arrays of a call are grouped by the box of their nonzero nodes, and the
projector samples each group only where a line can reach its box: per
direction, the tau rows and ray offsets inside the span of the box corners'
tau and offset, widened by a rounding margin (the direction's band).  Each
group's work is cut into tasks of at most _BLOCK_SAMPLES band samples:
consecutive directions packed while their joint band fits, or one direction
whose band does not, in even blocks of consecutive tau rows.  The tasks run
on the CPUs the process may run on: the calling thread and one pool worker
per further CPU of its affinity mask; no setting chooses the thread count.
A task lays its samples out offset-major, so consecutive samples add into
different (direction, tau row) bins, and every bin still sums its own
samples in ray order: results are bitwise identical however the tasks are
cut and at any thread count.  The projector takes a GridGeometry and plain
sample arrays on it, so the symmetry views of grids._fold_plan (rotations
and mirrors of f) are projected as array views, from the plan's
representative angles only, and only for the views some row reads there.
An array may also be a block of nodes placed at an origin on the grid, as
the quadrant blocks of masked terms are: it projects as the full-grid
array that is zero outside the block.  Each group's samples are read from
one stack of planes that spans its box alone, so a quadrant-sized term
never occupies a full-grid buffer.

The projector skips the ray samples whose contribution is exactly +0 or
-0.  A task keeps only the samples strictly inside its group's box; a
dropped sample reads four zero corners, or a nonzero corner at weight zero,
and so does every sample outside the band, where no position is computed.
A row's sum starts at +0, so it is never -0, and adding +0 or -0 to it
changes no bit.  A direction whose band is empty, or whose columns no array
of the group is asked for, gets no task: its rows stay +0 and no box test
runs for it.  So all-zero arrays are not sampled at all, nor is a
quadrant-masked term on a probe window whose lines miss its quadrant.  An
image of full support has the whole padded grid as its box, found from its
four border lines alone: only the samples outside the padded grid are
dropped.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

from .grids import (TWO_PI, AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid,
                    _finite, _fold_plan)

# Band samples per projector task: the (offset, direction, tau row) positions one
# task computes for its group.  Blocks this size keep each thread's temporaries
# small (a whole 256^2 direction holds about 20 MB) while each numpy call stays
# long enough that the interpreter lock is no bottleneck.  A 64^2 image of full
# support scanned on 91 tau rows and 179 offsets has a band of 69 x 139 samples
# at phi = 0 and of 85 x 173 near the diagonal: two or three directions share a
# task.  Directions whose band misses the box, or that no array is read at, are
# not counted.
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
    if a.size and a[0].any() and a[-1].any() and a[:, 0].any() and a[:, -1].any():
        return 0, a.shape[0] + 1, 0, a.shape[1] + 1
    nonzero = a != 0
    rows = np.flatnonzero(nonzero.any(axis=1))
    if not rows.size:
        return None
    cols = np.flatnonzero(nonzero.any(axis=0))
    return int(rows[0]), int(rows[-1]) + 2, int(cols[0]), int(cols[-1]) + 2


def _project(geometry: GridGeometry, arrays, taus: np.ndarray, directions,
             ray_step: float | None, *, needed: np.ndarray | None = None,
             origins=None) -> np.ndarray:
    """Line integrals of each array along <(c, s), x> = tau, shape (n_arrays, n_tau, n_dir).

    Every ray-driven caller goes through here.  Each array is a block of
    node samples of one image on ``geometry``, zero outside the block, and
    may be any array view: origins[k], a pair of ints, is the grid node of
    array k's node (0, 0), and the block must lie on the grid.  When origins
    is None every array is a full (nx, ny) grid at (0, 0).  needed, a
    boolean (n_arrays, n_dir) table, names the columns the caller reads (all
    of them when None); the others are +0.

    taus must be ascending.  The arrays are grouped by the box of their
    nonzero nodes (_support_box) on the grid, so a block has the box of its
    zero-embedded full-grid array.  Per group and direction, np.searchsorted
    on taus and on the ray offsets turns the span of the box corners' tau
    and offset, widened by a rounding margin, into a band of tau rows and
    offsets; a sample strictly inside the box lies inside the band.  A
    group's tasks hold at most _BLOCK_SAMPLES band samples each, run by
    _run_tasks over the available CPUs: consecutive directions as long as
    their joint band (the union of their row bands by that of their offset
    bands) fits, or, where one direction does not fit, that direction in the
    fewest even blocks of consecutive rows that do.  A direction whose band
    is empty, or that none of the group's arrays is needed at, ends a pack
    and gets no task.  A task computes positions on its band alone, keeps
    the samples strictly inside the box, and computes their corner index and
    bilinear weights once for every plane of the group that one of its
    directions needs.  Each group's arrays are copied into one stack of real
    and imaginary planes that spans the padded box [i_lo, i_hi] x [j_lo,
    j_hi] alone: its border is the grid's ring of zero nodes
    (grids._linear_index) where the box reaches the grid edge, and zero
    nodes of the arrays elsewhere; an image of full support gets the whole
    padded grid.  A task indexes its group's stack with the stack's row
    width, and the three other corners are read at the same index in the
    plane shifted by a row, a node or both.  A task lays its samples out as
    one (offset, direction, row) block, so np.bincount over the bins
    direction * n_rows + row adds consecutive samples into different bins
    instead of waiting on one running sum; each bin still receives its own
    samples in increasing offset order, which gives the bits of a row-by-row
    sum.

    A dropped sample, inside the band or outside it, would add exactly +0 or
    -0 (module docstring), so the kept ones give every bit of the full sum.
    A block reads the node values of its zero-embedded array at every kept
    sample, with the same weights in the same order, so it has that array's
    bits.  A row never straddles two tasks, and an array's box is its own,
    so an entry depends on its own array, tau and direction only: it has the
    same bits whatever else the call projects, however the tasks are cut,
    whatever the thread count, and repeated calls are bitwise identical.
    Each task writes its sums contiguously: the result is a transposed
    direction-major view.
    """
    if ray_step is None:
        ray_step = default_ray_step(geometry)
    _finite("ray_step", ray_step, positive=True)
    offsets, h = _ray_offsets(geometry, ray_step)
    n_tau, n_dir = len(taus), len(directions)
    if needed is None:
        needed = np.ones((len(arrays), n_dir), dtype=bool)
    if origins is None:
        origins = [(0, 0)] * len(arrays)
    groups: dict = {}   # support box on the geometry's padded grid -> the arrays that have it
    for k, (a, (oi, oj)) in enumerate(zip(arrays, origins)):
        box = _support_box(a)
        if box is not None:
            i_lo, i_hi, j_lo, j_hi = box
            groups.setdefault((i_lo + oi, i_hi + oi, j_lo + oj, j_hi + oj), []).append(k)
    planes = [None] * (2 * len(arrays))
    sums = np.zeros((len(planes), n_dir, n_tau))
    trig = np.array(directions, dtype=float).reshape(n_dir, 2)
    # a sample inside a box lies inside its corners' tau and offset spans up to rounding,
    # which is below 1e-9 of any coordinate of the padded grid
    margin = 1e-9 * (geometry.bounding_radius + geometry.dx + geometry.dy)
    tasks = []
    for box, group in groups.items():
        i_lo, i_hi, j_lo, j_hi = box
        # plane 2k is the real part of array k, plane 2k + 1 its imaginary part, in its
        # group's stack over the padded box: grid node (i, j) at (i + 1 - i_lo, j + 1 - j_lo),
        # the stack's border all zero
        stack = np.zeros((len(group), 2, i_hi - i_lo + 1, j_hi - j_lo + 1))
        for k, (real, imag) in zip(group, stack):
            oi, oj = origins[k]
            nodes = arrays[k][i_lo - oi:i_hi - oi - 1, j_lo - oj:j_hi - oj - 1]
            real[1:-1, 1:-1], imag[1:-1, 1:-1] = nodes.real, nodes.imag
            planes[2 * k], planes[2 * k + 1] = real.ravel(), imag.ravel()
        xs = geometry.x_min + (np.array([i_lo, i_hi, i_lo, i_hi]) - 1.0) * geometry.dx
        ys = geometry.y_min + (np.array([j_lo, j_lo, j_hi, j_hi]) - 1.0) * geometry.dy
        along = trig[:, :1] * xs + trig[:, 1:] * ys   # (n_dir, 4): tau and offset of each corner
        across = trig[:, :1] * ys - trig[:, 1:] * xs
        r_lo = np.searchsorted(taus, along.min(axis=1) - margin)
        r_hi = np.searchsorted(taus, along.max(axis=1) + margin, side="right")
        o_lo = np.searchsorted(offsets, across.min(axis=1) - margin)
        o_hi = np.searchsorted(offsets, across.max(axis=1) + margin, side="right")
        live = (needed[group].any(axis=0) & (r_lo < r_hi) & (o_lo < o_hi)).tolist()
        r_lo, r_hi, o_lo, o_hi = r_lo.tolist(), r_hi.tolist(), o_lo.tolist(), o_hi.tolist()
        m0 = 0
        while m0 < n_dir:
            if not live[m0]:   # its rows keep their +0
                m0 += 1
                continue
            # pack the following live directions while their union band fits the budget
            m1, r0, r1, o0, o1 = m0 + 1, r_lo[m0], r_hi[m0], o_lo[m0], o_hi[m0]
            while m1 < n_dir and live[m1]:
                rows = min(r0, r_lo[m1]), max(r1, r_hi[m1])
                offs = min(o0, o_lo[m1]), max(o1, o_hi[m1])
                if (m1 + 1 - m0) * (rows[1] - rows[0]) * (offs[1] - offs[0]) > _BLOCK_SAMPLES:
                    break
                (r0, r1), (o0, o1), m1 = rows, offs, m1 + 1
            # a lone direction over the budget: the fewest row blocks within it, sized evenly
            n_blocks = -(-(r1 - r0) // max(1, _BLOCK_SAMPLES // ((m1 - m0) * (o1 - o0))))
            members = [k for k in group if needed[k, m0:m1].any()]
            tasks += [(box, members, m0, m1, r0 + (r1 - r0) * b // n_blocks,
                       r0 + (r1 - r0) * (b + 1) // n_blocks, o0, o1) for b in range(n_blocks)]
            m0 = m1

    def project_block(task):
        (i_lo, i_hi, j_lo, j_hi), members, m0, m1, r0, r1, o0, o1 = task
        c, s = trig[m0:m1, :1], trig[m0:m1, 1:]
        block_taus, block_offsets = taus[r0:r1], offsets[o0:o1, None, None]
        n_bins = (m1 - m0) * (r1 - r0)
        # padded indices as grids._linear_index forms them, in place: numpy elides
        # temporaries only from 256 KiB up, which task arrays stay below
        fx = block_taus * c - block_offsets * s
        fx -= geometry.x_min
        fx /= geometry.dx
        fx += 1.0
        fy = block_taus * s + block_offsets * c
        fy -= geometry.y_min
        fy /= geometry.dy
        fy += 1.0
        keep = np.flatnonzero((fx > i_lo) & (fx < i_hi) & (fy > j_lo) & (fy < j_hi))
        if not keep.size:   # the rows keep their +0
            return
        # kept samples lie in (0, n + 1): _linear_index's clip and min are no-ops; each
        # temporary is freed or reused as soon as it is spent, which keeps peak memory down
        tx = fx.ravel()[keep]
        del fx
        ty = fy.ravel()[keep]
        del fy
        bins = np.remainder(keep, n_bins, out=keep)
        i0, j0 = tx.astype(np.intp), ty.astype(np.intp)
        tx -= i0
        ty -= j0
        # the index in the group's stack, whose rows are width nodes long
        width = j_hi - j_lo + 1
        corner = np.multiply(i0, width, out=i0)
        corner += j0
        del j0
        corner -= i_lo * width + j_lo
        sx, sy = 1.0 - tx, 1.0 - ty
        w00, w10 = sx * sy, np.multiply(tx, sy, out=sy)
        w01 = np.multiply(sx, ty, out=sx)
        weights = (w00, w10, w01, np.multiply(tx, ty, out=tx))
        del ty
        for k in members:
            for q in (2 * k, 2 * k + 1):
                # the corners (i0 + 1, j0), (i0, j0 + 1) and (i0 + 1, j0 + 1) are the
                # same index into the plane shifted by a row, a node and both
                plane = planes[q]
                samples = plane.take(corner)
                samples *= weights[0]
                for w, shift in zip(weights[1:], (width, 1, width + 1)):
                    term = plane[shift:].take(corner)
                    term *= w
                    samples += term
                sums[q, m0:m1, r0:r1] = np.bincount(
                    bins, weights=samples, minlength=n_bins).reshape(m1 - m0, -1)

    _run_tasks(project_block, tasks)
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
                      needed=needed.reshape(len(views), -1))
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
