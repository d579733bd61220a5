"""Sampled-grid containers shared by every transform stage.

All sample arrays are stored as complex128; real data is data with zero
imaginary part.  Every type is immutable after construction (frozen
dataclasses over read-only arrays), so instances are safe to share across
threads.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field

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

    Returns (i0, frac, inside): the interpolated value is
    (1 - frac) * v[i0] + frac * v[i0 + 1], and positions with inside False
    lie outside [0, n - 1] and read as zero.
    """
    inside = (f >= 0.0) & (f <= n - 1)
    f = np.clip(f, 0.0, n - 1)
    i0 = np.minimum(f.astype(np.intp), n - 2)
    return i0, f - i0, inside


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


def _spans_exactly(angles: AngularRange, span: float) -> bool:
    """True iff the angles span `span` to within a few ulps.

    The symmetry folds map sampled angles onto sampled angles, so they need
    the sample step exact to rounding: within is_full's 1e-12 tolerance a
    folded column could stand for an angle up to about 1e-12 rad off.
    """
    return abs(angles.span - span) <= 4.0 * np.spacing(span)


def _centred_square(geometry: GridGeometry) -> bool:
    """True iff a quarter turn and a transpose map the grid's nodes onto its nodes:
    nx == ny, dx == dy, x_min == y_min and x_min + x_max == 0 to rounding."""
    g = geometry
    return (g.nx == g.ny and g.dx == g.dy and g.x_min == g.y_min
            and abs(g.x_min + g.x_max) <= 4.0 * np.finfo(float).eps * abs(g.x_min))


def _pi_mirrored(tau_grid: TauGrid, angles: AngularRange) -> bool:
    """True iff angle m + n_phi/2 is angle m + pi, read at -tau: full, even, symmetric."""
    return _spans_exactly(angles, TWO_PI) and angles.n_phi % 2 == 0 and tau_grid.is_symmetric


def _d4_folded(geometry: GridGeometry, tau_grid: TauGrid, angles: AngularRange) -> bool:
    """True iff the symmetries of the square relate the sampled angles: pi-mirrored,
    phi_min = 0, n_phi % 4 == 0, and a centred square grid.

    A quarter turn or a transpose of such a grid maps its nodes onto nodes,
    so angle m + n_phi/4 reads the quarter-turned image at angle m and angle
    n_phi/4 - m the transposed one; with the pi-mirror, angles
    0..n_phi/8 determine every column.
    """
    return (_pi_mirrored(tau_grid, angles) and angles.n_phi % 4 == 0 and angles.phi_min == 0.0
            and _centred_square(geometry))


def _freeze(values, shape, name: str) -> np.ndarray:
    """Copy to a read-only, C-contiguous complex128 array of the given shape and finite values."""
    arr = np.array(values, dtype=np.complex128, order="C", copy=True)
    if arr.shape != tuple(shape):
        raise ValueError(f"{name}: expected shape {tuple(shape)}, got {arr.shape}")
    # min and max propagate nan and reach any inf, and allocate nothing
    parts = arr.view(np.float64)
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

    ``values[i, j]`` is the sample at node (i, j) of ``geometry``.  Points
    outside the closed extent read as zero (compact-support convention).
    ``meta`` carries run diagnostics (e.g. coverage flags) and is excluded
    from equality and from the on-disk format.
    """

    geometry: GridGeometry
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        g = self.geometry
        if not isinstance(g, GridGeometry):
            raise TypeError(f"ImageGrid2D.geometry must be a GridGeometry, not {type(g).__name__}")
        object.__setattr__(self, "values", _freeze(self.values, (g.nx, g.ny), "ImageGrid2D.values"))

    @classmethod
    def from_geometry(cls, geometry: GridGeometry, values, meta: dict | None = None) -> "ImageGrid2D":
        return cls(geometry, values, meta or {})

    @property
    def real_valued(self) -> bool:
        """True iff the imaginary part is exactly zero everywhere."""
        return bool(np.all(self.values.imag == 0.0))

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
    """Bilinear interpolation of ``img.values`` at (x, y); zero outside the extent.

    Accepts scalars or broadcastable arrays; returns a complex scalar for
    scalar input.  Exactly reproduces nodal values at the nodes and is
    linear in ``img.values``.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    scalar = x.ndim == 0 and y.ndim == 0
    g = img.geometry
    i0, tx, inside_x = _linear_index((x - g.x_min) / g.dx, g.nx)
    j0, ty, inside_y = _linear_index((y - g.y_min) / g.dy, g.ny)
    inside = inside_x & inside_y
    v = img.values
    out = ((1.0 - tx) * (1.0 - ty) * v[i0, j0]
           + tx * (1.0 - ty) * v[i0 + 1, j0]
           + (1.0 - tx) * ty * v[i0, j0 + 1]
           + tx * ty * v[i0 + 1, j0 + 1])
    out = np.where(inside, out, 0.0 + 0.0j)
    return complex(out) if scalar else out


@dataclass(frozen=True)
class AngularRange:
    """Half-open angular window [phi_min, phi_max) sampled at n_phi points.

    Samples are phi_min + m*d_phi with d_phi = (phi_max - phi_min)/n_phi;
    the endpoint is excluded (periodic convention).  The angular measure
    carries the fixed normalization 1/(4 pi^2).
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

    @property
    def normalization(self) -> float:
        return ANGULAR_MEASURE_NORM

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
        return cls(-(n_tau - 1) * d_tau / 2.0, d_tau, n_tau)

    @classmethod
    def covering(cls, geometry: GridGeometry, d_tau: float, pad: float = 0.0) -> "TauGrid":
        """Symmetric grid covering the geometry's bounding circle (+pad)."""
        radius = geometry.bounding_radius + pad
        half = int(np.ceil(radius / d_tau))
        return cls.symmetric(d_tau, 2 * half + 1)

    @property
    def tau_max(self) -> float:
        return self.tau_min + (self.n_tau - 1) * self.d_tau

    @property
    def is_symmetric(self) -> bool:
        """True iff tau_min = -tau_max up to the rounding of the endpoints."""
        return abs(self.tau_min + self.tau_max) <= 4.0 * np.finfo(float).eps * abs(self.tau_min)

    def taus(self) -> np.ndarray:
        return self.tau_min + self.d_tau * np.arange(self.n_tau)


@dataclass(frozen=True)
class Sinogram:
    """Complex Radon data on a (tau, phi) grid; values has shape (n_tau, n_phi).

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
                           _freeze(self.values, (self.n_tau, self.angles.n_phi), "Sinogram.values"))

    @property
    def tau_max(self) -> float:
        return self.tau_grid.tau_max

    def taus(self) -> np.ndarray:
        return self.tau_grid.taus()

    @property
    def real_valued(self) -> bool:
        return bool(np.all(self.values.imag == 0.0))

    def __eq__(self, other):
        if not isinstance(other, Sinogram):
            return NotImplemented
        return (self.tau_grid == other.tau_grid
                and self.angles == other.angles
                and np.array_equal(self.values, other.values))


@dataclass(frozen=True)
class VolumeStack:
    """Finite set of 2D slices at strictly increasing third-axis positions."""

    x3_positions: tuple
    slices: tuple

    def __post_init__(self):
        for p in self.x3_positions:
            _finite("x3 position", p)
        positions = tuple(float(p) for p in self.x3_positions)
        slices = tuple(self.slices)
        if len(slices) == 0 or len(slices) != len(positions):
            raise ValueError("need one slice per x3 position, at least one of each")
        if any(b <= a for a, b in zip(positions, positions[1:])):
            raise ValueError("x3_positions must be strictly increasing")
        geom = slices[0].geometry
        for k, s in enumerate(slices):
            if s.geometry != geom:
                raise ValueError(f"slice {k} geometry differs from slice 0")
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


class Provenance(enum.Enum):
    """How a set of conjugate-momentum fields was produced."""

    CONTINUOUS = "continuous"   # integral transform along the third axis
    SERIES = "series"           # discrete sum over stored slices


@dataclass(frozen=True)
class HybridField:
    """Complex 2D fields indexed by conjugate momentum k along the third axis."""

    k_values: tuple
    fields: tuple
    provenance: Provenance

    def __post_init__(self):
        for k in self.k_values:
            _finite("k value", k)
        ks = tuple(float(k) for k in self.k_values)
        fields = tuple(self.fields)
        if len(fields) == 0 or len(fields) != len(ks):
            raise ValueError("need one field per k value, at least one of each")
        geom = fields[0].geometry
        for k, f in enumerate(fields):
            if f.geometry != geom:
                raise ValueError(f"field {k} geometry differs from field 0")
        if not isinstance(self.provenance, Provenance):
            object.__setattr__(self, "provenance", Provenance(self.provenance))
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "fields", fields)

    @property
    def geometry(self) -> GridGeometry:
        return self.fields[0].geometry

    @property
    def n_k(self) -> int:
        return len(self.k_values)
