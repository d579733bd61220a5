"""Sampled-grid containers shared by every transform stage.

All sample arrays are stored as complex128; real data is data with zero
imaginary part.  Every type is immutable after construction (frozen
dataclasses over read-only arrays), so instances are safe to share across
threads.

The rules every stage shares live here once: the edge rule of linear
interpolation (_linear_index), which the projector, bilinear_sample, the tau
derivative and the backprojection all follow; the trapezoid weights
(_trapezoid_weights); and the fold plan (_fold_plan), which decides the
angles that the projector and the backprojection compute.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * np.pi

# Normalization of the angular integration measure used by every
# reconstruction path: d_mu(phi) = d_phi / (4 pi^2).  This is the unique
# constant under which a unit Gaussian round-trips to amplitude 1.
ANGULAR_MEASURE_NORM = 1.0 / (4.0 * np.pi**2)


def _trapezoid_weights(n: int, d: float) -> np.ndarray:
    """Composite trapezoid weights for n nodes spaced d apart."""
    w = np.full(n, d)
    w[[0, -1]] *= 0.5
    return w


def _linear_index(f, n: int):
    """Split fractional node indices f on an n-node axis for linear interpolation.

    The package's one edge rule: the axis is read padded with a zero node at
    each end, p = [0, v[0], ..., v[n - 1], 0], so the field falls linearly to
    zero one step past either end node.  Returns (i0, frac) on the padded
    axis: the value is (1 - frac) * p[i0] + frac * p[i0 + 1].

    The field is continuous across the grid box: the linear-interpolation
    model of Joseph (1982) and ASTRA (van Aarle et al. 2016).  R(tau, phi + pi)
    = R(-tau, phi) then holds to rounding for any image, one that is nonzero
    on its outermost nodes included.
    """
    f = np.clip(f + 1.0, 0.0, n + 1)
    i0 = np.minimum(f.astype(np.intp), n)
    return i0, f - i0


def _finite(name: str, value, positive: bool = False) -> None:
    """Reject anything but a finite real number (and, if positive, one above zero).

    Comparisons alone are not enough: nan <= 0 is False.  Booleans are
    rejected although Python counts them as numbers.
    """
    if (isinstance(value, bool) or not isinstance(value, numbers.Real)
            or not math.isfinite(value) or (positive and value <= 0)):
        kind = "a finite positive number" if positive else "a finite number"
        raise ValueError(f"{name} must be {kind}, got {value!r}")


def _positive_int(name: str, value) -> None:
    """Reject anything but an integer >= 1; booleans and floats such as 4.0 are rejected too."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _symmetric(lo: float, hi: float) -> bool:
    """True iff lo = -hi up to the rounding of the endpoints."""
    return bool(abs(lo + hi) <= 4.0 * np.finfo(float).eps * abs(lo))


def _whole_steps(angle: float, angles: AngularRange) -> int | None:
    """angle as a whole number of angular steps, or None where it is not one to a few ulps.

    The folds map sampled angles onto sampled angles, so they need the steps
    exact to rounding: within is_full's 1e-12 tolerance a folded column could
    stand for an angle up to about 1e-12 rad off.
    """
    steps = round(angle / angles.d_phi)
    exact = abs(angle - steps * angles.d_phi) <= 4 * np.spacing(TWO_PI + 2.0 * abs(angles.phi_min))
    return steps if exact else None


# The grid symmetries as angle maps phi -> sigma * phi + q * pi / 2, in the order a row picks
# its view, each with what it needs of the grid: x_min = -x_max (x), y_min = -y_max (y), a
# centred square (s: nx == ny, dx == dy, x_min == y_min).  Their array views (_views) read
# as f at the mapped angle: f, f.T, rot90(f, -1), flipud(f), fliplr(f), rot90(f, 2),
# rot90(f) and the transpose of rot90(f, 2).
_MAPS = ((1, 0, ""), (-1, 1, "xys"), (1, 1, "xys"), (-1, 2, "x"), (-1, 0, "y"), (1, 2, "xy"),
         (1, 3, "xys"), (-1, 3, "xys"))


def _views(sigma: int, q: int) -> tuple:
    """(view, inverse) of the angle map (sigma, q): a turn, or a mirror that is its own inverse."""
    if sigma > 0:
        return lambda f: np.rot90(f, -q), lambda f: np.rot90(f, q)
    return (lambda f: np.rot90(np.flipud(f), q - 2),) * 2


class _FoldPlan(NamedTuple):
    """Which angles a scan computes, and where each of its rows comes from."""

    pairs: int         # rows 0..pairs - 1 also hold angle m + n_phi - pairs, which is m + pi
    phis: np.ndarray   # representative angles, the only ones projected or given an index field
    views: tuple       # (view, inverse) pairs of array maps, the identity first
    view: np.ndarray   # per row, the view it reads
    rep: np.ndarray    # per row, the index in phis of its representative angle


def _fold_plan(geometry: GridGeometry, tau_grid: TauGrid, angles: AngularRange) -> _FoldPlan:
    """The symmetry plan that the projector and the backprojection both follow.

    On a symmetric tau grid where pi is a whole number H of angular steps
    below n_phi, angle m + H is angle m read at -tau: the two share row m,
    and the n_phi - pairs rows are the angles of [phi_min, phi_min + pi).
    The rows then fall into orbits under the maps of _MAPS that the image
    grid admits and that shift angle indices by whole steps (mod a whole
    turn where 2 pi is whole steps too).  Each orbit's least row is its
    representative; every other row reads the first view that maps the
    representative onto it.  A scan that admits neither a pair nor a map
    (an off-centre grid scanned at an odd angle count or on an asymmetric
    tau grid, say) keeps every angle as its own representative and is
    computed angle by angle.
    """
    g, n = geometry, angles.n_phi
    half = _whole_steps(np.pi, angles)
    pairs = n - half if tau_grid.is_symmetric and half is not None and half < n else 0
    has = ("x" * _symmetric(g.x_min, g.x_max) + "y" * _symmetric(g.y_min, g.y_max)
           + "s" * (g.nx == g.ny and g.dx == g.dy and g.x_min == g.y_min))
    maps = [(sigma, q, steps) for sigma, q, needs in _MAPS if set(needs) <= set(has)
            and (steps := _whole_steps((sigma - 1) * angles.phi_min + q * np.pi / 2,
                                       angles)) is not None]
    sigma, q, shift = (np.array(column) for column in zip(*maps))
    rows = np.arange(n - pairs)
    turn = _whole_steps(TWO_PI, angles) or np.iinfo(np.intp).max   # no wrap-around without one
    # (rows, maps): the row each map takes each row to, len(rows) where it leaves the rows
    at = np.minimum((sigma * rows[:, None] + shift) % turn, len(rows))
    rep = at.min(axis=1)
    used, view = np.unique((at[rep] == rows[:, None]).argmax(axis=1), return_inverse=True)
    reps, rep = np.unique(rep, return_inverse=True)
    return _FoldPlan(pairs, angles.phis()[reps], tuple(_views(sigma[k], q[k]) for k in used),
                     view, rep)


class _Handover(np.ndarray):
    """A fresh array that _freeze adopts instead of copying: the container reader's blocks,
    rasterized scenes and the inverse's images, which nothing else holds for writing."""


def _freeze(values, shape, name: str, order: str = "C") -> np.ndarray:
    """Copy to a read-only complex128 array in memory order ``order``, of the given shape and
    finite values; a _Handover array already in that layout is adopted uncopied."""
    arr = np.array(values, dtype=np.complex128, order=order,
                   copy=None if isinstance(values, _Handover) else True)
    if arr.shape != tuple(shape):
        raise ValueError(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    # min and max propagate nan and reach any inf, and allocate nothing (contiguous view)
    parts = arr.ravel(order).view(np.float64)
    if not (math.isfinite(parts.min()) and math.isfinite(parts.max())):
        bad = np.count_nonzero(~np.isfinite(arr))
        raise ValueError(f"{name}: samples must be finite, got {bad} nan or inf")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class GridGeometry:
    """Uniform 2D lattice; node (i, j) sits at (x_min + i*dx, y_min + j*dy)."""

    nx: int
    ny: int
    x_min: float
    y_min: float
    dx: float
    dy: float

    def __post_init__(self):
        _positive_int("nx", self.nx)
        _positive_int("ny", self.ny)
        if self.nx < 2 or self.ny < 2:
            raise ValueError(f"grid needs at least 2 samples per axis, got {self.nx}x{self.ny}")
        _finite("x_min", self.x_min)
        _finite("y_min", self.y_min)
        _finite("dx", self.dx, positive=True)
        _finite("dy", self.dy, positive=True)

    @classmethod
    def centered(cls, nx: int, ny: int, extent_x: float, extent_y: float) -> "GridGeometry":
        """Cell-centered lattice covering [-extent/2, extent/2] per axis.

        Nodes sit at -(n-1)*d/2 + i*d, so the lattice is mirror-symmetric
        about the origin and no node falls exactly on either axis.
        """
        _positive_int("nx", nx)
        _positive_int("ny", ny)
        _finite("extent_x", extent_x, positive=True)
        _finite("extent_y", extent_y, positive=True)
        dx = extent_x / nx
        dy = extent_y / ny
        return cls(nx, ny, -(nx - 1) * dx / 2.0, -(ny - 1) * dy / 2.0, dx, dy)

    @property
    def x_max(self) -> float:
        return self.x_min + (self.nx - 1) * self.dx

    @property
    def y_max(self) -> float:
        return self.y_min + (self.ny - 1) * self.dy

    def x_nodes(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.nx)

    def y_nodes(self) -> np.ndarray:
        return self.y_min + self.dy * np.arange(self.ny)

    def node_mesh(self) -> tuple[np.ndarray, np.ndarray]:
        """(X, Y) coordinate arrays of shape (nx, ny)."""
        return np.meshgrid(self.x_nodes(), self.y_nodes(), indexing="ij")

    @property
    def bounding_radius(self) -> float:
        """Radius of the origin-centered circle containing every node."""
        xs = (abs(self.x_min), abs(self.x_max))
        ys = (abs(self.y_min), abs(self.y_max))
        return float(np.hypot(max(xs), max(ys)))

    @property
    def diameter(self) -> float:
        """Diagonal length of the physical extent."""
        return float(np.hypot(self.x_max - self.x_min, self.y_max - self.y_min))


@dataclass(frozen=True)
class ImageGrid2D:
    """Complex samples of a 2D field on a uniform lattice.

    ``values[i, j]`` is the sample at node (i, j) of ``geometry``; between
    and beyond the nodes the field is bilinear_sample's, which falls to zero
    one node step outside the extent.  An image is its geometry and its
    values and nothing else: every grid field is read through geometry
    (img.geometry.dx), and diagnostics live on the results that compute
    them (Reconstruction.out_of_coverage).
    """

    geometry: GridGeometry
    values: np.ndarray

    def __post_init__(self):
        g = self.geometry
        if not isinstance(g, GridGeometry):
            raise TypeError(f"ImageGrid2D.geometry must be a GridGeometry, not {type(g).__name__}")
        object.__setattr__(self, "values", _freeze(self.values, (g.nx, g.ny), "ImageGrid2D.values"))

    @classmethod
    def from_geometry(cls, geometry: GridGeometry, values) -> "ImageGrid2D":
        """The constructor under another name, ImageGrid2D(geometry, values).

        Kept only because perfbench/workloads.py calls it; the benchmark
        revision that moves those callers to the constructor deletes it.
        """
        return cls(geometry, values)

    @property
    def real_valued(self) -> bool:
        """True iff the imaginary part is exactly zero everywhere."""
        return not np.any(self.values.imag)

    def total_integral(self) -> complex:
        """Trapezoid quadrature of the samples over the extent."""
        g = self.geometry
        wx, wy = _trapezoid_weights(g.nx, g.dx), _trapezoid_weights(g.ny, g.dy)
        return complex(wx @ self.values @ wy)

    def __eq__(self, other):
        if not isinstance(other, ImageGrid2D):
            return NotImplemented
        return (self.geometry == other.geometry
                and np.array_equal(self.values, other.values))


def bilinear_sample(img: ImageGrid2D, x, y):
    """Bilinear interpolation of ``img.values`` inside a ring of zeros, at (x, y).

    Continuous: zero from one node step outside the extent on (_linear_index).
    Accepts scalars or broadcastable arrays; returns a complex scalar for
    scalar input.  Exactly reproduces nodal values and is linear in them.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scalar = x.ndim == 0 and y.ndim == 0
    g = img.geometry
    i0, tx = _linear_index((x - g.x_min) / g.dx, g.nx)
    j0, ty = _linear_index((y - g.y_min) / g.dy, g.ny)
    v = np.pad(img.values, 1)
    out = ((1.0 - tx) * (1.0 - ty) * v[i0, j0]
           + tx * (1.0 - ty) * v[i0 + 1, j0]
           + (1.0 - tx) * ty * v[i0, j0 + 1]
           + tx * ty * v[i0 + 1, j0 + 1])
    return complex(out) if scalar else out


@dataclass(frozen=True)
class AngularRange:
    """Half-open angular window [phi_min, phi_max) sampled at n_phi points.

    Samples are phi_min + m*d_phi with d_phi = (phi_max - phi_min)/n_phi;
    the endpoint is excluded (periodic convention).  The angular measure
    carries the fixed normalization ANGULAR_MEASURE_NORM = 1/(4 pi^2).
    """

    phi_min: float
    phi_max: float
    n_phi: int

    def __post_init__(self):
        _finite("phi_min", self.phi_min)
        _finite("phi_max", self.phi_max)
        span = self.phi_max - self.phi_min
        if not (0.0 < span <= TWO_PI + 1e-12):
            raise ValueError(f"angular span must lie in (0, 2*pi], got {span}")
        _positive_int("n_phi", self.n_phi)

    @classmethod
    def full(cls, n_phi: int) -> "AngularRange":
        return cls(0.0, TWO_PI, n_phi)

    @property
    def span(self) -> float:
        return self.phi_max - self.phi_min

    @property
    def is_full(self) -> bool:
        return abs(self.span - TWO_PI) <= 1e-12

    @property
    def d_phi(self) -> float:
        return self.span / self.n_phi

    def phis(self) -> np.ndarray:
        return self.phi_min + self.d_phi * np.arange(self.n_phi)

    def index_of(self, phi: float) -> int:
        """Index of the stored sample nearest to phi (within half a step).

        Full ranges wrap periodically; otherwise angles outside the window
        raise ValueError.
        """
        offset = phi - self.phi_min
        if self.is_full:
            offset = float(np.mod(offset, TWO_PI))
        nearest = int(np.round(offset / self.d_phi))
        delta = offset - nearest * self.d_phi
        if abs(delta) > self.d_phi / 2.0 + 1e-12:
            raise ValueError(f"angle {phi} is {delta:+.3e} rad from the nearest "
                             f"stored sample")
        m = nearest % self.n_phi if self.is_full else nearest
        if not (0 <= m < self.n_phi):
            raise ValueError(f"angle {phi} lies outside the stored range "
                             f"[{self.phi_min}, {self.phi_max})")
        return m


@dataclass(frozen=True)
class TauGrid:
    """Uniform grid of radial offsets tau_min + t*d_tau, t = 0..n_tau-1."""

    tau_min: float
    d_tau: float
    n_tau: int

    def __post_init__(self):
        _finite("tau_min", self.tau_min)
        _finite("d_tau", self.d_tau, positive=True)
        _positive_int("n_tau", self.n_tau)

    @classmethod
    def symmetric(cls, d_tau: float, n_tau: int) -> "TauGrid":
        """Grid symmetric about zero: tau_min = -(n_tau-1)*d_tau/2."""
        _finite("d_tau", d_tau, positive=True)
        _positive_int("n_tau", n_tau)
        return cls(-(n_tau - 1) * d_tau / 2.0, d_tau, n_tau)

    @classmethod
    def covering(cls, geometry: GridGeometry, d_tau: float) -> "TauGrid":
        """Symmetric grid covering the geometry's bounding circle."""
        _finite("d_tau", d_tau, positive=True)
        half = int(np.ceil(geometry.bounding_radius / d_tau))
        return cls.symmetric(d_tau, 2 * half + 1)

    @property
    def tau_max(self) -> float:
        return self.tau_min + (self.n_tau - 1) * self.d_tau

    @property
    def is_symmetric(self) -> bool:
        """True iff tau_min = -tau_max up to the rounding of the endpoints."""
        return _symmetric(self.tau_min, self.tau_max)

    def taus(self) -> np.ndarray:
        return self.tau_min + self.d_tau * np.arange(self.n_tau)


@dataclass(frozen=True)
class Sinogram:
    """Complex Radon data on a (tau, phi) grid; values has shape (n_tau, n_phi).

    values is stored angle-major (F order), as the container file holds it:
    values.T is read-only, C-contiguous rows of tau samples, one per angle.
    The three tau fields are validated once into ``tau_grid``, which the
    instance keeps.
    """

    tau_min: float
    d_tau: float
    n_tau: int
    angles: AngularRange
    values: np.ndarray
    tau_grid: TauGrid = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "tau_grid", TauGrid(self.tau_min, self.d_tau, self.n_tau))
        object.__setattr__(self, "values",
                           _freeze(self.values, (self.n_tau, self.angles.n_phi), "Sinogram.values",
                                   order="F"))

    @property
    def tau_max(self) -> float:
        return self.tau_grid.tau_max

    def taus(self) -> np.ndarray:
        return self.tau_grid.taus()

    @property
    def real_valued(self) -> bool:
        return not np.any(self.values.imag)

    def __eq__(self, other):
        if not isinstance(other, Sinogram):
            return NotImplemented
        return (self.tau_grid == other.tau_grid
                and self.angles == other.angles
                and np.array_equal(self.values, other.values))


def _slice_axis(keys, grids, key: str, grid: str) -> tuple[tuple, tuple]:
    """(keys as floats, grids), both tuples: every key finite, one grid per key, at least
    one, all on one geometry.  key and grid name the two in messages ("k value", "field")."""
    for value in keys:
        _finite(key, value)
    keys, grids = tuple(float(value) for value in keys), tuple(grids)
    if len(grids) == 0 or len(grids) != len(keys):
        raise ValueError(f"need one {grid} per {key}, at least one of each")
    for n, g in enumerate(grids):
        if g.geometry != grids[0].geometry:
            raise ValueError(f"{grid} {n} geometry differs from {grid} 0")
    return keys, grids


@dataclass(frozen=True)
class VolumeStack:
    """Finite set of 2D slices at strictly increasing third-axis positions."""

    x3_positions: tuple
    slices: tuple

    def __post_init__(self):
        positions, slices = _slice_axis(self.x3_positions, self.slices, "x3 position", "slice")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("x3_positions must be strictly increasing")
        object.__setattr__(self, "x3_positions", positions)
        object.__setattr__(self, "slices", slices)

    @property
    def geometry(self) -> GridGeometry:
        return self.slices[0].geometry

    @property
    def n_slices(self) -> int:
        return len(self.slices)

    @property
    def real_valued(self) -> bool:
        return all(s.real_valued for s in self.slices)


@dataclass(frozen=True)
class HybridField:
    """Complex 2D fields indexed by conjugate momentum k along the third axis.

    Each field is a series sum over a slice stack (hybrid_forward), which
    hybrid_inverse_series inverts; the closed-form oracle hybrid_from_scene
    returns plain images.  It lives in memory only: no container type holds it.
    """

    k_values: tuple
    fields: tuple

    def __post_init__(self):
        ks, fields = _slice_axis(self.k_values, self.fields, "k value", "field")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "fields", fields)

    @property
    def geometry(self) -> GridGeometry:
        return self.fields[0].geometry
