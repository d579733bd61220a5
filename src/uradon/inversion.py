"""Regularized inversion of complex Radon data.

The reconstruction is the sum of two independently computed terms: a
principal-value term (a second-order singular kernel in the radial offset,
read as a Hadamard finite part) and a boundary term carrying the imaginary
measure (-i pi times the radial derivative of the data at the backprojection
point).  Over a full angular range the boundary term cancels pairwise between
opposite angles; over restricted ranges it is the part that survives.

All paths share one structure: correlate every projection column with a
kernel over signed tau offsets (band-limited ramp or finite-part quadrature
for the principal-value term; the closed-form regularized lambda-integral
kernel for an independent third path), then backproject with linear
interpolation under the angular measure d_phi / (4 pi^2).

Two symmetry folds cut the work, each to rounding of the unfolded sum:

* Half turns.  On a full even scan with a symmetric tau grid
  (grids._pi_mirrored), angle phi + pi is angle phi read at -tau.  The
  two-term inverse folds the raw sinogram onto [phi_min, phi_min + pi)
  before filtering: c[:, :N/2] + c[::-1, N/2:] for the ramp and
  finite-part filters, whose kernels are even, and c[:, :N/2] -
  c[::-1, N/2:] for the tau derivative, which is odd.  The filters then
  run on N/2 columns.  The lambda kernel is not even (K(-eta) = conj
  K(eta)), so epsilon_lambda_reconstruct filters all N columns and
  _backproject folds the result.
* The square's symmetries (D4).  When the angles backprojected are [0, pi)
  in an even count N' on a centred square grid, angles phi, pi/2 - phi,
  phi + pi/2 and pi - phi read the transposed or turned index field of
  phi, so only N'/4 + 1 index fields are computed.

Sinogram values are stored (n_tau, n_phi), so a column's tau samples are
strided.  The filters transpose once and run their FFTs along contiguous tau
rows, returning the (n_tau, n_phi) result as a transposed view; the
backprojection copies each filtered array into angle-major tau rows padded
with two zeros, which out-of-range pixels read.  Neither layout changes the
arithmetic: outside the two folds, every output is bit-identical to the
column-major form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grids import (ANGULAR_MEASURE_NORM, AngularRange, GridGeometry, ImageGrid2D, Sinogram,
                    TauGrid, _centred_square, _finite, _linear_index, _pi_mirrored,
                    _spans_exactly, _trapezoid_weights)
from .forward import _d4_sources, direction


class Backend(enum.Enum):
    """Filter implementation for the principal-value term."""

    RAMP_FILTER = "ramp_filter"
    FP_QUADRATURE = "fp_quadrature"


@dataclass(frozen=True)
class RegParams:
    """Regularization parameters.

    epsilon is the pole regulator (offset - i*epsilon); fa_step is the
    central-difference step for the radial derivative in the boundary term
    and must not be finer than the stored d_tau.
    """

    epsilon: float
    fa_step: float
    backend: Backend = Backend.RAMP_FILTER

    def __post_init__(self):
        _finite("epsilon", self.epsilon, positive=True)
        _finite("fa_step", self.fa_step, positive=True)
        if not isinstance(self.backend, Backend):
            object.__setattr__(self, "backend", Backend(self.backend))

    @classmethod
    def defaults(cls, d_tau: float, backend: Backend = Backend.RAMP_FILTER) -> "RegParams":
        """epsilon = 2*d_tau, fa_step = d_tau: regulators below the grid scale only add noise."""
        return cls(epsilon=2.0 * d_tau, fa_step=d_tau, backend=backend)


@dataclass(frozen=True)
class Reconstruction:
    """Two-term reconstruction; f_total = f_s + f_a pointwise."""

    f_s: ImageGrid2D
    f_a: ImageGrid2D
    f_total: ImageGrid2D

    def __post_init__(self):
        if not (self.f_s.geometry == self.f_a.geometry == self.f_total.geometry):
            raise ValueError("reconstruction parts must share one geometry")
        if not np.array_equal(self.f_total.values, self.f_s.values + self.f_a.values):
            raise ValueError("f_total must equal f_s + f_a exactly")


def delta_plus(eta, epsilon: float):
    """Regularized pole 1/(eta - i*epsilon).

    Its imaginary part epsilon / (eta^2 + epsilon^2) integrates to pi in the
    limit of a wide window; over a full angular range the contributions of
    opposite angles cancel it from the reconstruction.
    """
    _finite("epsilon", epsilon, positive=True)
    eta = np.asarray(eta, dtype=np.float64)
    out = 1.0 / (eta - 1j * epsilon)
    return complex(out) if out.ndim == 0 else out


def lambda_kernel(eta, epsilon: float, lambda_max: float):
    """Closed form of the truncated, regularized radial-frequency integral.

    K(eta) = integral_0^lambda_max  lam * exp(-i lam (eta - i eps)) d lam
           = (1 - exp(-a L)) / a^2 - L exp(-a L) / a,   a = eps + i eta.

    As lambda_max -> inf this tends to -1/(eta - i eps)^2, i.e. minus the
    square of the regularized pole.
    """
    _finite("epsilon", epsilon, positive=True)
    _finite("lambda_max", lambda_max, positive=True)
    eta = np.asarray(eta, dtype=np.float64)
    a = epsilon + 1j * eta
    decay = np.exp(-a * lambda_max)
    out = (1.0 - decay) / a**2 - lambda_max * decay / a
    return complex(out) if out.ndim == 0 else out


# --- column filters ----------------------------------------------------------

def _correlate_columns(values: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """out[t, m] = sum_j kernel[j + M] * values[t + j, m], zero outside the grid.

    kernel has odd length 2M+1 and is indexed by the signed offset j; rows
    0..n-1 of the circular correlation are wrap-free for any FFT length >= n + M.
    The transforms run along contiguous tau rows, one per column; the result
    is their (n, n_cols) transposed view.
    """
    n = values.shape[0]
    m_half = (len(kernel) - 1) // 2
    p = 1 << (n + m_half - 1).bit_length()   # next power of two >= n + M
    spec = np.fft.fft(np.ascontiguousarray(values.T), n=p)
    spec *= np.fft.fft(kernel[::-1], n=p)
    return np.fft.ifft(spec, out=spec)[:, m_half:m_half + n].T


def _ramp_kernel(n_tau: int, d_tau: float) -> np.ndarray:
    """2 pi d times the sampled band-limited ramp of Kak & Slaney (1988, ch. 3).

    pi / (2d) at offset 0, -2 / (pi j^2 d) at odd offsets j and 0 at even
    ones.  Sampled in tau rather than as |lambda| on the DFT grid, it has no
    DC bias.
    """
    j = np.arange(1 - n_tau, n_tau)
    kernel = np.zeros(j.size)
    odd = j % 2 == 1
    kernel[odd] = -2.0 / (np.pi * d_tau * j[odd] ** 2)
    kernel[n_tau - 1] = np.pi / (2.0 * d_tau)
    return kernel


def ramp_filtered(sino: Sinogram) -> np.ndarray:
    """Band-limited |lambda| filter of every column, as a correlation kernel.

    The result approximates (1/2pi) * integral |lam| R^(lam) exp(i lam tau) dlam
    on the stored tau nodes (kernel: _ramp_kernel).
    """
    return _correlate_columns(sino.values, _ramp_kernel(sino.n_tau, sino.d_tau))


def _fp_kernel(n_tau: int, d_tau: float) -> np.ndarray:
    """Correlation kernel of the finite-part quadrature on the tau grid.

    Implements, per column g and node t,

        FP integral_{-A}^{A} g(t + eta) / eta^2 deta
          = sum_{j!=0} w_j [g(t+j) - g(t)] / eta_j^2
            + [g(t+1) - 2 g(t) + g(t-1)] / (2 d)    (eta = 0 node, value g''/2)
            - 2 g(t) / A                            (window boundary term)

    with trapezoid weights w_j over eta_j = j*d and A = (n_tau - 1)*d.  The
    linear Taylor term -eta g'(0) sums to exactly zero on this symmetric
    grid, so no derivative estimate is needed.
    """
    m_half = n_tau - 1
    window = m_half * d_tau
    j = np.arange(-m_half, m_half + 1)
    w = _trapezoid_weights(j.size, d_tau)
    kernel = np.zeros(j.shape, dtype=np.float64)
    off = j != 0
    kernel[off] = w[off] / (j[off] * d_tau) ** 2
    s_sum = kernel[off].sum()
    center = m_half
    kernel[center - 1] += 1.0 / (2.0 * d_tau)
    kernel[center + 1] += 1.0 / (2.0 * d_tau)
    kernel[center] = -s_sum - 2.0 / window - 1.0 / d_tau
    return kernel


def finite_part_filtered(sino: Sinogram) -> np.ndarray:
    """Hadamard finite-part transform of every column on its own tau grid."""
    if sino.n_tau < 3:
        raise ValueError("finite-part quadrature needs at least 3 tau samples")
    return _correlate_columns(sino.values, _fp_kernel(sino.n_tau, sino.d_tau))


def _lambda_correlation_kernel(n_tau: int, d_tau: float, epsilon: float,
                               lambda_max: float) -> np.ndarray:
    """Trapezoid-weighted lambda_kernel at every signed tau offset.

    Not even: K(-eta) = conj K(eta), so it does not commute with tau reversal.
    """
    m_half = n_tau - 1
    eta = d_tau * np.arange(-m_half, m_half + 1)
    return _trapezoid_weights(eta.size, d_tau) * lambda_kernel(eta, epsilon, lambda_max)


def lambda_kernel_filtered(sino: Sinogram, epsilon: float, lambda_max: float) -> np.ndarray:
    """Correlate every column with the closed-form regularized kernel."""
    return _correlate_columns(sino.values, _lambda_correlation_kernel(sino.n_tau, sino.d_tau,
                                                                      epsilon, lambda_max))


def tau_derivative(sino: Sinogram, fa_step: float) -> np.ndarray:
    """Central difference along tau: (g(tau + h) - g(tau - h)) / (2h).

    Off-grid values come from linear interpolation of the column (zero
    outside the stored range); h = fa_step may be any value >= d_tau.
    """
    if fa_step < sino.d_tau:
        raise ValueError(f"fa_step {fa_step} must be at least d_tau {sino.d_tau}")
    n, v = sino.n_tau, sino.values
    shift = fa_step / sino.d_tau
    sides = []
    for step in (shift, -shift):   # every column read at t + h, then at t - h
        i0, frac, inside = _linear_index(np.arange(n) + step, n)
        side = v[i0]
        side *= (1.0 - frac)[:, None]
        upper = v[i0 + 1]
        upper *= frac[:, None]
        side += upper
        side[~inside] = 0.0
        sides.append(side)
    plus, minus = sides
    plus -= minus
    plus /= 2.0 * fa_step
    return plus


# --- symmetry folds and backprojection ---------------------------------------

class _Columns(NamedTuple):
    """Sinogram-shaped data made inside this module, held as is: neither copied nor checked.

    values is None where only the grid is needed.
    """

    tau_min: float
    d_tau: float
    n_tau: int
    angles: AngularRange
    values: np.ndarray | None = None

    @property
    def tau_grid(self) -> TauGrid:
        return TauGrid(self.tau_min, self.d_tau, self.n_tau)


def _fold(values: np.ndarray, parity: float, out: np.ndarray | None = None) -> np.ndarray:
    """values[:, :N/2] + parity * values[::-1, N/2:] for parity +1 or -1.

    On a pi-mirrored grid (grids._pi_mirrored) column m + N/2 is angle
    phi_m + pi, and row t there is -tau_t: the second half turn read at -tau,
    added onto the first or subtracted from it.
    """
    half = values.shape[1] // 2
    op = np.add if parity > 0 else np.subtract
    return op(values[:, :half], values[::-1, half:], out=out)


# where frames 1-3 of _unfold_d4 land: the angles pi/2 - phi, phi + pi/2 and pi - phi
_D4_VIEWS = (np.transpose, np.rot90, np.flipud)


def _unfold_d4(frames: list[np.ndarray], op) -> np.ndarray:
    """frames[0] + frames[1].T + rot90(frames[2]) + frames[3][::-1] under op, in frames[0].

    Frame q holds the columns of _d4_sources channel q, each gathered through
    its representative angle's index field.  A single frame is returned as is.
    """
    first = frames[0]
    for frame, view in zip(frames[1:], _D4_VIEWS):
        op(first, view(frame), out=first)
    return first


def _backproject(columns_seq, sino, geometry: GridGeometry) -> tuple[list[np.ndarray], np.ndarray]:
    """Angular quadrature of per-column data at tau = <n_phi, x>.

    columns_seq yields one or more (n_tau, n_phi) arrays on the sinogram's
    grid, each read once; each angle's interpolation indices are computed once and shared
    by all of them, and each result is bit-identical to backprojecting its
    array alone.  Where angle m + N/2 is angle m + pi read at -tau
    (grids._pi_mirrored), each array is first folded onto the first half
    turn (_fold); no symmetry of the data is needed.
    Each array is copied to angle-major tau rows with two trailing zeros,
    which pixels outside the stored tau range read instead of being masked.

    When the angles looped are [0, pi) in an even count N' and the grid is a
    centred square (grids._centred_square), angles phi, pi/2 - phi,
    phi + pi/2 and pi - phi read the transposed or turned index field of
    phi: only the representative angles 0..N'/4 of forward._d4_sources
    get an index field, each related column is gathered into its channel's
    frame, and the frames are combined once at the end (_unfold_d4), to
    rounding of the direct loop; a pixel whose offset is exactly an end node
    of the tau grid reads that node or zero by rounding, so there the two can
    differ by O(1).  Every other input takes the direct loop.

    Returns (values per array, out_of_coverage) where the boolean mask marks
    pixels whose offset fell outside the stored tau range for at least one
    angle.  Linear interpolation along tau; the fixed angle order keeps the
    result deterministic.
    """
    n = sino.n_tau
    if n < 2:
        raise ValueError("backprojection needs at least 2 tau samples")
    angles = sino.angles
    phis = angles.phis()
    folded = _pi_mirrored(sino.tau_grid, angles)
    if folded:
        phis = phis[:angles.n_phi // 2]
    rows_seq = []
    for columns in columns_seq:
        rows = np.zeros((phis.size, n + 2), dtype=np.complex128)
        if folded:
            _fold(columns, 1.0, out=rows[:, :n].T)
        else:
            rows[:, :n] = columns.T
        rows_seq.append(rows)
    if (angles.phi_min == 0.0 and phis.size % 2 == 0 and _centred_square(geometry)
            and (folded or _spans_exactly(angles, np.pi))):
        channel, rep = _d4_sources(2 * phis.size)
        n_frames = 4
    else:
        channel, rep = np.zeros(phis.size, dtype=np.intp), np.arange(phis.size)
        n_frames = 1
    x, y = geometry.x_nodes()[:, None], geometry.y_nodes()
    shape = (geometry.nx, geometry.ny)
    accs = [[np.zeros(shape, dtype=np.complex128) for _ in range(n_frames)] for _ in rows_seq]
    out_of_range = [np.zeros(shape, dtype=bool) for _ in range(n_frames)]
    current = -1
    for k in np.argsort(rep, kind="stable"):   # columns grouped by the angle whose field they read
        if rep[k] != current:
            current = rep[k]
            c, s = direction(phis[current])
            i0, w, inside = _linear_index((c * x + s * y - sino.tau_min) / sino.d_tau, n)
            outside = ~inside
            np.copyto(i0, n, where=outside)
            i1 = i0 + 1
            w0 = 1.0 - w
        q = channel[k]
        for frames, rows in zip(accs, rows_seq):
            row = rows[k]
            lo = row[i0]
            lo *= w0
            hi = row[i1]
            hi *= w
            lo += hi
            frames[q] += lo
        out_of_range[q] |= outside
    accs = [_unfold_d4(frames, np.add) for frames in accs]
    out_of_range = _unfold_d4(out_of_range, np.logical_or)
    for acc in accs:
        acc *= angles.d_phi * ANGULAR_MEASURE_NORM
    return accs, out_of_range


def _flag_meta(out_of_range: np.ndarray) -> dict:
    flags = np.argwhere(out_of_range)
    return {"coverage_flags": flags, "coverage_flag_count": int(flags.shape[0])}


def _fs_columns(sino: Sinogram, params: RegParams) -> np.ndarray:
    if params.backend is Backend.RAMP_FILTER:
        return np.pi * ramp_filtered(sino)
    return -finite_part_filtered(sino)


def _fa_columns(sino: Sinogram, params: RegParams) -> np.ndarray:
    return -1j * np.pi * tau_derivative(sino, params.fa_step)


# each term's filter, and its parity under tau -> -tau: the ramp and finite-part
# kernels are even, the tau derivative is odd
_TERMS = ((_fs_columns, 1.0), (_fa_columns, -1.0))


def _backproject_terms(sinos, geometry: GridGeometry, params: RegParams, terms=_TERMS):
    """The given terms of every sinogram, filtered one at a time, backprojected in one pass.

    Where grids._pi_mirrored holds, each sinogram is folded onto its first
    half turn with the term's parity before it is filtered: a filter of that
    parity commutes with tau reversal, so filtering the fold equals folding
    the filtered columns, to rounding, at half the columns.
    """
    first = sinos[0]
    half = _pi_mirrored(first.tau_grid, first.angles)
    grid = first
    if half:
        a = first.angles
        grid = _Columns(first.tau_min, first.d_tau, first.n_tau,
                        AngularRange(a.phi_min, a.phi_min + a.span / 2, a.n_phi // 2))

    def filtered():   # one array alive at a time: _backproject copies each into rows
        for s in sinos:
            for term, parity in terms:
                yield term(grid._replace(values=_fold(s.values, parity)) if half else s, params)

    return _backproject(filtered(), grid, geometry)


def invert_fs(sino: Sinogram, geometry: GridGeometry, params: RegParams) -> ImageGrid2D:
    """Principal-value term of the reconstruction.

    ramp_filter backend: band-limited ramp kernel then backprojection,
    scaled by pi.  fp_quadrature backend: direct finite-part quadrature
    kernel then backprojection, scaled by -1.  Both realize
    -(1/4pi^2) * integral d_phi FP integral d_eta R(eta + <n_phi, x>) / eta^2.
    """
    (values,), oob = _backproject_terms([sino], geometry, params, _TERMS[:1])
    return ImageGrid2D(geometry, values, _flag_meta(oob))


def invert_fa(sino: Sinogram, geometry: GridGeometry, params: RegParams) -> ImageGrid2D:
    """Boundary term: -i pi times the backprojected radial derivative."""
    (values,), oob = _backproject_terms([sino], geometry, params, _TERMS[1:])
    return ImageGrid2D(geometry, values, _flag_meta(oob))


def invert_universal(sino: Sinogram, geometry: GridGeometry, params: RegParams) -> Reconstruction:
    """Both terms and their sum, backprojected together in one pass.

    f_s and f_a are bit-identical to invert_fs and invert_fa.
    """
    return _invert_all([sino], geometry, params)[0]


def _invert_all(sinos, geometry: GridGeometry, params: RegParams) -> list[Reconstruction]:
    """invert_universal of every sinogram, all terms backprojected in one pass.

    The sinograms must share one tau grid and angular range; each result is
    bit-identical to inverting its sinogram alone.
    """
    first = sinos[0]
    if any(s.tau_grid != first.tau_grid or s.angles != first.angles for s in sinos):
        raise ValueError("sinograms inverted together must share one tau grid and angular range")
    values, oob = _backproject_terms(sinos, geometry, params)
    meta = _flag_meta(oob)
    recons = []
    for fs, fa in zip(values[::2], values[1::2]):
        recons.append(Reconstruction(ImageGrid2D(geometry, fs, dict(meta)),
                                     ImageGrid2D(geometry, fa, dict(meta)),
                                     ImageGrid2D(geometry, fs + fa, dict(meta))))
    return recons


def epsilon_lambda_reconstruct(sino: Sinogram, geometry: GridGeometry,
                               epsilon: float | None = None,
                               lambda_max: float | None = None) -> ImageGrid2D:
    """Independent reconstruction through the closed-form regularized kernel.

    Defaults: epsilon = 2*d_tau, lambda_max = pi/d_tau (radial Nyquist of
    the tau grid).  Serves as a third oracle for invert_universal.
    """
    if epsilon is None:
        epsilon = 2.0 * sino.d_tau
    if lambda_max is None:
        lambda_max = np.pi / sino.d_tau
    (values,), oob = _backproject([lambda_kernel_filtered(sino, epsilon, lambda_max)], sino,
                                  geometry)
    return ImageGrid2D(geometry, values, _flag_meta(oob))


# --- metrics -----------------------------------------------------------------

def l2_norm(values: np.ndarray) -> float:
    return float(np.sqrt(np.sum(np.abs(values) ** 2)))


def reconstruction_metrics(recon: Reconstruction,
                           reference: ImageGrid2D | None = None) -> dict:
    """Scalar quality metrics: boundary/principal ratio, coverage, optional RMSE."""
    fs_norm = l2_norm(recon.f_s.values)
    fa_norm = l2_norm(recon.f_a.values)
    out = {
        "fs_norm": fs_norm,
        "fa_norm": fa_norm,
        "fa_fs_ratio": fa_norm / fs_norm if fs_norm > 0 else float("inf") if fa_norm else 0.0,
        "flagged_pixels": recon.f_total.meta.get("coverage_flag_count", 0),
    }
    if reference is not None:
        if reference.geometry != recon.f_total.geometry:
            raise ValueError("reference geometry differs from reconstruction")
        diff = recon.f_total.values - reference.values
        peak = float(np.max(np.abs(reference.values)))
        rmse = float(np.sqrt(np.mean(np.abs(diff) ** 2)))
        out["rmse"] = rmse
        out["rmse_over_peak"] = rmse / peak if peak > 0 else rmse
    return out
