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

Two symmetry folds cut the work, each to rounding of the unfolded sum.
Both follow grids._fold_plan, the plan the projector follows too:

* Half turns.  On a mirrored plan (a full even scan with a symmetric tau
  grid), angle phi + pi is angle phi read at -tau.  The two-term inverse
  fills each term's buffer already folded onto [phi_min, phi_min + pi):
  row m plus row m + N/2 read at -tau for the ramp and finite-part filters,
  whose kernels are even, and minus it for the tau derivative, which is
  odd.  The filters then run on N/2 rows.  The lambda kernel is not even
  (K(-eta) = conj K(eta)), so epsilon_lambda_reconstruct folds rows m and
  m + N/2 after filtering them, as each block is written back.  A projected
  scan, whose second half turn is exactly its first reversed, folds to an
  all-zero f_a buffer: it is neither differentiated nor backprojected, and
  its image is the +0 that both would give.
* The square's symmetries (D4).  When the angles backprojected are [0, pi)
  in an even count N' on a centred square grid, angles phi, pi/2 - phi,
  phi + pi/2 and pi - phi read a transposed or turned view of the index
  field of phi, so only the plan's N'/4 + 1 index fields are computed.

Sinogram values have shape (n_tau, n_phi) and are stored angle-major (F
order), as the container file holds them: values.T is one contiguous tau row
per angle.  Each term of an inverse has one buffer of padded rows, shape
(n_rows, n_tau + 2): the angle-major tau rows between two zeros, the padded
axis that linear interpolation reads (grids._linear_index).  The filters run
in place on it.  The correlation copies blocks of rows into its FFT buffer,
each block's spectra filling at most its budget of entries in one reused
buffer, and writes each block's result back over its rows; each row is
transformed on its own, so the blocks carry the bits of one transform of all
rows.  The tau derivative gathers along blocks of the same rows and reads
their zero ends.  The public filters run on a padded copy of a sinogram's
rows, with all of _SPECTRUM_BLOCK (2 MiB) as budget, and return the
(n_tau, n_phi) view of its interior.

Every inverse is one pass (_invert_all): each term's buffer, the
epsilon-lambda oracle's included, is filled and filtered as one task of
forward._run_tasks, and the filters that run at once split _SPECTRUM_BLOCK
between them.  One _backproject call then reads every buffer, so the index
fields are built once.  A buffer is filtered on its own and its share of a
pass equals its own pass, so no output depends on the CPU count or on what
else the pass inverts.

The backprojection skips the pixels whose contribution is exactly +0.  A
pixel a node or more past either end of the tau grid (fractional index
f <= -1 or f >= n_tau on the unpadded row) reads p[0] * 1 + p[1] * 0 or
p[n_tau] * 0 + p[n_tau + 1] * 1 on its padded row p, which is +0 + 0j
whatever the row holds.  A frame starts at +0 and so is never -0, and
adding +0 to it changes no bit.  f is monotone in x and in y, so its four
corner values tell whether a field has such pixels; only then is the band
-1 < f < n_tau gathered and added at its flat indices.  Coverage flags are
still computed on every pixel.  No layout changes the arithmetic:
outside the two folds, every output is bit-identical to the column-major
form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grids import (ANGULAR_MEASURE_NORM, GridGeometry, ImageGrid2D, Sinogram, _finite,
                    _fold_plan, _linear_index, _trapezoid_weights)
from .forward import _run_tasks, _thread_count, direction


class Backend(enum.Enum):
    """Filter implementation for the principal-value term."""

    RAMP_FILTER = "ramp_filter"
    FP_QUADRATURE = "fp_quadrature"


@dataclass(frozen=True)
class RegParams:
    """What the two-term inverse (invert_universal, reconstruct_volume) reads.

    fa_step, the central-difference step of the boundary term's radial
    derivative, must not be finer than the stored d_tau; backend picks the
    principal-value filter.  The pole regulator epsilon is not among them:
    only the independent oracle, epsilon_lambda_reconstruct, takes it.
    """

    fa_step: float
    backend: Backend = Backend.RAMP_FILTER

    def __post_init__(self):
        _finite("fa_step", self.fa_step, positive=True)
        if not isinstance(self.backend, Backend):
            object.__setattr__(self, "backend", Backend(self.backend))

    @classmethod
    def defaults(cls, d_tau: float, backend: Backend = Backend.RAMP_FILTER) -> "RegParams":
        """fa_step = d_tau: a step below the grid scale only adds noise."""
        return cls(fa_step=d_tau, backend=backend)


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


# --- row filters -------------------------------------------------------------

# complex entries in one block of row spectra (2 MiB): the working set beyond their
# buffers of all the filters that run at once, whatever the number of rows
_SPECTRUM_BLOCK = 2**17


def _padded_rows(values: np.ndarray, parity: float = 0.0) -> np.ndarray:
    """The (n_phi, n_tau + 2) angle-major tau rows of values between two zeros.

    With parity +1 or -1 the rows are folded (a mirrored plan, grids._fold_plan):
    the N/2 rows hold row m plus parity times row m + N/2 read at -tau, which is
    angle phi_m + pi.
    """
    v = values.T
    half = v.shape[0] // 2
    rows = np.zeros((half if parity else v.shape[0], v.shape[1] + 2), dtype=np.complex128)
    if parity:
        (np.add if parity > 0 else np.subtract)(v[:half], v[half:, ::-1], out=rows[:, 1:-1])
    else:
        rows[:, 1:-1] = v
    return rows


def _correlate_rows(rows: np.ndarray, kernel: np.ndarray, budget: int,
                    halves: np.ndarray | None = None) -> None:
    """Correlate each padded row with kernel in place, zero outside the grid.

    On the n inner entries g of a row: g[t] <- sum_j kernel[j + M] * g[t + j].
    kernel has odd length 2M+1 and is indexed by the signed offset j; entries
    0..n-1 of the circular correlation are wrap-free for any FFT length >= n + M.
    The rows go through the transforms in blocks whose spectra fill at most
    budget entries of one reused buffer.  Each row is transformed on its own,
    so a block's rows carry the same bits as one transform of all rows.

    With halves, the (N, n) angle-major rows of a mirrored scan, row m of rows
    gets the correlation of halves[m] plus that of halves[m + N/2] read at
    -tau, both transformed in one block: the bits of filtering, then folding.
    """
    n_rows, n = rows.shape[0], rows.shape[1] - 2
    m_half = (len(kernel) - 1) // 2
    p = 1 << (n + m_half - 1).bit_length()   # next power of two >= n + M
    kernel_spec = np.fft.fft(kernel[::-1], n=p)
    sources = [rows[:, 1:-1]] if halves is None else [halves[:n_rows], halves[n_rows:]]
    block = max(1, min(n_rows, budget // (len(sources) * p)))
    spec = np.empty((len(sources) * block, p), dtype=np.complex128)
    for start in range(0, n_rows, block):
        inner = rows[start:start + block, 1:-1]
        k = inner.shape[0]
        part = spec[:len(sources) * k]
        for j, source in enumerate(sources):
            part[j * k:(j + 1) * k, :n] = source[start:start + k]
        part[:, n:] = 0.0
        np.fft.fft(part, out=part)
        part *= kernel_spec
        np.fft.ifft(part, out=part)
        out = part[:, m_half:m_half + n]
        if halves is None:
            inner[...] = out
        else:
            np.add(out[:k], out[k:, ::-1], out=inner)


def _check_fa_step(fa_step: float, d_tau: float) -> None:
    """The tau derivative's step must not be finer than the stored grid."""
    if fa_step < d_tau:
        raise ValueError(f"fa_step {fa_step} must be at least d_tau {d_tau}")


def _differentiate_rows(rows: np.ndarray, d_tau: float, fa_step: float, budget: int) -> None:
    """Central difference (g(tau + h) - g(tau - h)) / (2h) of each padded row, in place.

    Off-grid values are linear interpolation on the padded row
    (grids._linear_index), whose zero ends give the field past either end
    node; h = fa_step may be any value >= d_tau (_check_fa_step, which the
    callers run before any buffer is made).  Both sides are formed a block
    of rows at a time, in gathers of a sixteenth of budget entries (128 KiB
    for all of _SPECTRUM_BLOCK) each, small enough to stay in cache, and
    written back over the block's inner entries.
    """
    n = rows.shape[1] - 2
    shift = fa_step / d_tau
    # g(t + h) and g(t - h): (1 - frac) * p[i0] + frac * p[i0 + 1] on the padded row p
    taps = [(i0, 1.0 - frac, frac) for i0, frac in
            (_linear_index(np.arange(n) + step, n) for step in (shift, -shift))]
    block = max(1, budget // (16 * n))
    for a in range(0, rows.shape[0], block):
        part = rows[a:a + block]
        sides = []
        for i0, w0, w1 in taps:
            lo = part.take(i0, axis=1)
            lo *= w0
            hi = part.take(i0 + 1, axis=1)
            hi *= w1
            lo += hi
            sides.append(lo)
        inner = part[:, 1:-1]
        np.subtract(*sides, out=inner)
        inner /= 2.0 * fa_step


def _filtered(sino: Sinogram, filter_rows, *args) -> np.ndarray:
    """filter_rows run on a padded copy of sino's rows, with all of _SPECTRUM_BLOCK: the
    (n_tau, n_phi) view of the result."""
    rows = _padded_rows(sino.values)
    filter_rows(rows, *args, _SPECTRUM_BLOCK)
    return rows[:, 1:-1].T


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
    return _filtered(sino, _correlate_rows, _ramp_kernel(sino.n_tau, sino.d_tau))


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
    if n_tau < 3:
        raise ValueError("finite-part quadrature needs at least 3 tau samples")
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
    return _filtered(sino, _correlate_rows, _fp_kernel(sino.n_tau, sino.d_tau))


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
    return _filtered(sino, _correlate_rows,
                     _lambda_correlation_kernel(sino.n_tau, sino.d_tau, epsilon, lambda_max))


def tau_derivative(sino: Sinogram, fa_step: float) -> np.ndarray:
    """Central difference along tau: (g(tau + h) - g(tau - h)) / (2h).

    Off-grid values come from linear interpolation of the column between a
    zero node at each end (grids._linear_index); h = fa_step may be any
    value >= d_tau.
    """
    _check_fa_step(fa_step, sino.d_tau)
    return _filtered(sino, _differentiate_rows, sino.d_tau, fa_step)


# --- backprojection ----------------------------------------------------------

def _backproject(rows_seq, sino, geometry: GridGeometry) -> tuple[list[np.ndarray], np.ndarray]:
    """Angular quadrature of padded rows at tau = <n_phi, x>.

    rows_seq holds one or more buffers of padded rows on the sinogram's grid
    (_padded_rows: one angle per row, its tau samples between two zeros); each
    angle's interpolation indices are computed once and shared by all of them,
    and each result is bit-identical to backprojecting its buffer alone.  The
    angles follow grids._fold_plan: on a mirrored plan the buffers hold (at
    least) N/2 rows already folded onto the first half turn, and only those
    are read.  The buffers are read as they are, neither copied nor checked.

    Only the plan's representative angles get an index field; each row is
    gathered through its representative's field into the frame of its view,
    and each frame is mapped back through the view's inverse at the end.
    This agrees with the direct loop to rounding; with the identity view
    alone it is the direct loop, bit for bit.

    Returns (values per buffer, out_of_coverage) where the boolean mask marks
    pixels whose offset fell outside [tau_min, tau_max] for at least one
    angle.  Linear interpolation along tau; the fixed angle order keeps the
    result deterministic.
    """
    n = sino.n_tau
    if n < 2:
        raise ValueError("backprojection needs at least 2 tau samples")
    plan = _fold_plan(geometry, sino.tau_grid, sino.angles)
    x, y = geometry.x_nodes()[:, None], geometry.y_nodes()
    shape = (geometry.nx, geometry.ny)
    accs = [[np.zeros(shape, dtype=np.complex128) for _ in plan.views] for _ in rows_seq]
    out_of_range = [np.zeros(shape, dtype=bool) for _ in plan.views]
    current = -1
    for k in np.argsort(plan.rep, kind="stable"):   # rows grouped by the field they read
        if plan.rep[k] != current:
            current = plan.rep[k]
            c, s = direction(plan.phis[current])
            f = (c * x + s * y - sino.tau_min) / sino.d_tau
            outside = (f < 0.0) | (f > n - 1)
            # f is monotone in x and in y, so its corners bound it (module docstring)
            corners, band = f[[0, 0, -1, -1], [0, -1, 0, -1]], None
            if corners.min() <= -1.0 or corners.max() >= n:
                band = np.flatnonzero((f > -1.0) & (f < n))
                f = f.reshape(-1)[band]
            i0, w = _linear_index(f, n)
            i1 = i0 + 1
            # complex weights, cast once per field rather than once per row and buffer
            w0 = (1.0 - w).astype(np.complex128)
            w = w.astype(np.complex128)
        q = plan.view[k]
        for frames, rows in zip(accs, rows_seq):
            row = rows[k]
            lo = row[i0]
            lo *= w0
            hi = row[i1]
            hi *= w
            lo += hi
            if band is None:
                frames[q] += lo
            else:
                frames[q].reshape(-1)[band] += lo
        out_of_range[q] |= outside
    for frames in [*accs, out_of_range]:   # on booleans += is a logical or
        for frame, (_, inverse) in zip(frames[1:], plan.views[1:]):
            frames[0] += inverse(frame)
    accs = [frames[0] for frames in accs]
    for acc in accs:
        acc *= sino.angles.d_phi * ANGULAR_MEASURE_NORM
    return accs, out_of_range[0]


def _flag_meta(out_of_range: np.ndarray) -> dict:
    flags = np.argwhere(out_of_range)
    return {"coverage_flags": flags, "coverage_flag_count": int(flags.shape[0])}


# Each term fills one buffer of padded rows, folded when fold is set (a mirrored plan),
# and filters it in place; None stands for a buffer whose image is all +0.
def _fs_rows(sino: Sinogram, fold: bool, params: RegParams, budget: int) -> np.ndarray:
    rows = _padded_rows(sino.values, 1.0 if fold else 0.0)   # both kernels are even
    inner = rows[:, 1:-1]
    if params.backend is Backend.RAMP_FILTER:
        _correlate_rows(rows, _ramp_kernel(sino.n_tau, sino.d_tau), budget)
        inner *= np.pi
    else:
        _correlate_rows(rows, _fp_kernel(sino.n_tau, sino.d_tau), budget)
        np.negative(inner, out=inner)
    return rows


def _fa_rows(sino: Sinogram, fold: bool, params: RegParams, budget: int) -> np.ndarray | None:
    rows = _padded_rows(sino.values, -1.0 if fold else 0.0)   # the tau derivative is odd
    if fold and not rows.any():   # an exactly mirrored scan, as the projector makes
        return None
    _differentiate_rows(rows, sino.d_tau, params.fa_step, budget)
    rows[:, 1:-1] *= -1j * np.pi
    return rows


def _lambda_rows(sino: Sinogram, fold: bool, kernel: np.ndarray, budget: int) -> np.ndarray:
    # the kernel is not even: a mirrored scan's rows are folded as they are filtered
    rows = (np.zeros((sino.angles.n_phi // 2, sino.n_tau + 2), dtype=np.complex128) if fold
            else _padded_rows(sino.values))
    _correlate_rows(rows, kernel, budget, sino.values.T if fold else None)
    return rows


def invert_universal(sino: Sinogram, geometry: GridGeometry, params: RegParams) -> Reconstruction:
    """Both terms and their sum, backprojected together in one pass.

    f_s is the principal-value term.  ramp_filter backend: band-limited ramp
    kernel then backprojection, scaled by pi.  fp_quadrature backend: direct
    finite-part quadrature kernel then backprojection, scaled by -1.  Both
    realize -(1/4pi^2) * integral d_phi FP integral d_eta R(eta + <n_phi, x>) / eta^2.
    f_a is the boundary term: -i pi times the backprojected radial derivative.
    """
    return _invert_all([sino], geometry, params)[0][0]


def _invert_all(sinos, geometry: GridGeometry, params: RegParams | None,
                oracle: tuple | None = None) -> tuple[list[Reconstruction], list[ImageGrid2D]]:
    """invert_universal (given params) and epsilon_lambda_reconstruct (given oracle =
    (epsilon, lambda_max), None for a default) of every sinogram, in one pass.

    The sinograms must share one tau grid and angular range; each result is
    bit-identical to its path alone on its sinogram alone, at any CPU count
    (module docstring).  On a mirrored plan, the f_s and f_a rows are folded
    with the term's parity before they are filtered: a filter of that parity
    commutes with tau reversal, so this equals folding the filtered rows, to
    rounding.  Returns the Reconstruction of each sinogram (none without
    params) and its epsilon-lambda image (none without oracle).
    """
    first = sinos[0]
    if any(s.tau_grid != first.tau_grid or s.angles != first.angles for s in sinos):
        raise ValueError("sinograms inverted together must share one tau grid and angular range")
    terms = []
    if oracle is not None:   # the longest filter first, so the others fill in around it
        epsilon, lambda_max = oracle
        terms.append((_lambda_rows, _lambda_correlation_kernel(
            first.n_tau, first.d_tau, 2.0 * first.d_tau if epsilon is None else epsilon,
            np.pi / first.d_tau if lambda_max is None else lambda_max)))
    if params is not None:
        _check_fa_step(params.fa_step, first.d_tau)
        terms += [(_fs_rows, params), (_fa_rows, params)]
    fold = _fold_plan(geometry, first.tau_grid, first.angles).mirrored
    jobs = [(term, s, arg) for s in sinos for term, arg in terms]
    buffers = [None] * len(jobs)
    budget = _SPECTRUM_BLOCK // _thread_count(len(jobs))

    def fill(k):
        term, s, arg = jobs[k]
        buffers[k] = term(s, fold, arg, budget)

    _run_tasks(fill, list(range(len(jobs))))
    skipped = [rows is None for rows in buffers]
    values, oob = _backproject([rows for rows in buffers if rows is not None], first, geometry)
    del buffers   # freed before the images are made
    meta, values = _flag_meta(oob), iter(values)
    images = [ImageGrid2D(geometry, np.zeros((geometry.nx, geometry.ny), dtype=np.complex128)
                          if skip else next(values), dict(meta)) for skip in skipped]
    n = len(terms)
    recons = [] if params is None else [
        Reconstruction(fs, fa, ImageGrid2D(geometry, fs.values + fa.values, dict(meta)))
        for fs, fa in zip(images[n - 2::n], images[n - 1::n])]
    return recons, images[::n] if oracle is not None else []


def epsilon_lambda_reconstruct(sino: Sinogram, geometry: GridGeometry,
                               epsilon: float | None = None,
                               lambda_max: float | None = None) -> ImageGrid2D:
    """Independent reconstruction through the closed-form regularized kernel.

    Defaults: pole regulator (offset - i*epsilon) epsilon = 2*d_tau, as a
    regulator below the grid scale only adds noise; lambda_max = pi/d_tau
    (radial Nyquist of the tau grid).  Serves as a third oracle for
    invert_universal, sharing none of its RegParams.  The kernel is not even,
    so on a mirrored plan the rows are folded after filtering, pair by pair
    as they leave the transforms (_correlate_rows).
    """
    return _invert_all([sino], geometry, None, (epsilon, lambda_max))[1][0]


# --- metrics -----------------------------------------------------------------

def l2_norm(values: np.ndarray) -> float:
    """Euclidean norm, summed in C order whatever the layout, so an F-order copy keeps its bits."""
    return float(np.sqrt(np.sum(np.abs(values, order="C") ** 2)))


def _fa_fs_ratio(fa_norm: float, fs_norm: float) -> float:
    """Boundary over principal norm: 0 when both are 0, inf when only fs_norm is."""
    return fa_norm / fs_norm if fs_norm > 0 else float("inf") if fa_norm else 0.0


def _rmse_over_peak(values: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """(rmse, rmse / max|reference|) of values against reference; the ratio is the rmse
    itself where the reference is all zero."""
    rmse = float(np.sqrt(np.mean(np.abs(values - reference) ** 2)))
    peak = float(np.max(np.abs(reference)))
    return rmse, rmse / peak if peak > 0 else rmse


def reconstruction_metrics(recon: Reconstruction,
                           reference: ImageGrid2D | None = None) -> dict:
    """Scalar quality metrics: boundary/principal ratio, coverage, optional RMSE."""
    fs_norm = l2_norm(recon.f_s.values)
    fa_norm = l2_norm(recon.f_a.values)
    out = {
        "fs_norm": fs_norm,
        "fa_norm": fa_norm,
        "fa_fs_ratio": _fa_fs_ratio(fa_norm, fs_norm),
        "flagged_pixels": recon.f_total.meta.get("coverage_flag_count", 0),
    }
    if reference is not None:
        if reference.geometry != recon.f_total.geometry:
            raise ValueError("reference geometry differs from reconstruction")
        out["rmse"], out["rmse_over_peak"] = _rmse_over_peak(recon.f_total.values,
                                                             reference.values)
    return out
