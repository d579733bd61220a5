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

* Pairs.  Where the plan pairs angle phi + pi with phi (a symmetric tau
  grid, pi a whole number of steps), the two-term inverse fills each term's
  buffer already folded: row m plus its pair read at -tau for the ramp and
  finite-part filters, whose kernels are even, and minus it for the tau
  derivative, which is odd.  The filters then run on the plan's rows only.
  The lambda kernel is not even (K(-eta) = conj K(eta)), so
  epsilon_lambda_reconstruct folds each pair after filtering it, as each
  block is written back.  A projected scan, whose paired angles are exactly
  their rows reversed, folds to an all-zero f_a buffer when every row is
  paired: it is neither differentiated nor backprojected, and its image is
  the +0 that both would give.
* Orbits.  Rows whose angles a symmetry of the image grid maps onto each
  other read a rotated or mirrored view of one index field, so only the
  plan's representative angles get one.

Sinogram values have shape (n_tau, n_phi) and are stored angle-major (F
order), as the container file holds them: values.T is one contiguous tau row
per angle.  Each term of an inverse has one buffer of padded rows, shape
(n_rows, n_tau + 2): the angle-major tau rows between two zeros, the padded
axis that linear interpolation reads (grids._linear_index).  The filters run
in place on it.  The correlation copies blocks of rows into its FFT buffer,
each block's spectra filling at most its budget of entries in one reused
buffer, and writes each block's result back over its rows; each row is
transformed on its own, so the blocks carry the bits of one transform of all
rows.  The tau derivative gathers blocks of the same rows, zero ends included.

Every inverse is one pass (_invert_all): each term's buffer, the
epsilon-lambda oracle's included, is filled and filtered as one task of
forward._run_tasks, which returns the buffers in term order; the filters
that run at once split _SPECTRUM_BLOCK between them.  One _backproject call
then reads every buffer, so the index fields are built once.  A buffer is
filtered on its own and its share of a pass equals its own pass, so no
output depends on the CPU count or on what else the pass inverts.  The
backprojection takes the plan's representative angles in blocks of at most
_FIELD_BLOCK bytes of index fields: the pool returns a block's fields, one
task each, and then gathers the block with one task per buffer, which owns
all of that buffer's frames and adds its rows in the fixed order, and one
that marks the one coverage mask, so each field is built once and no array
has two writers.  A pass of one buffer, or on an image below _SHARED_PIXELS
pixels, builds one field at a time and gathers it on the calling thread.

The backprojection skips the pixels whose contribution is exactly +0.  A
pixel a node or more past either end of the tau grid (fractional index
f <= -1 or f >= n_tau on the unpadded row) reads p[0] * 1 + p[1] * 0 or
p[n_tau] * 0 + p[n_tau + 1] * 1 on its padded row p, which is +0 + 0j
whatever the row holds.  A frame starts at +0 and so is never -0, and
adding +0 to it changes no bit.  f is monotone in x and in y, so its four
corner values tell whether a field has such pixels; only then is the band
-1 < f < n_tau gathered and added at its flat indices.  Tau grids that
cover the image, as TauGrid.covering makes, have no such pixels and take
the whole-field loop.  A field whose four corners lie within the tau grid
has no pixel outside it: it skips the coverage compare, and the clip and
bound of grids._linear_index, which would change nothing.
No layout changes the arithmetic: where the plan folds nothing, every
output is bit-identical to the column-major form.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .grids import (ANGULAR_MEASURE_NORM, GridGeometry, ImageGrid2D, Sinogram, _finite,
                    _fold_plan, _gathered, _Handover, _linear_index, _trapezoid_weights)
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
    """Two-term reconstruction of one sinogram; f_total = f_s + f_a is derived.

    out_of_coverage is a read-only (nx, ny) boolean copy of the mask it is
    given: True where the offset <n_phi, x> fell outside [tau_min, tau_max]
    for at least one angle.  It is a diagnostic, excluded from equality.
    """

    f_s: ImageGrid2D
    f_a: ImageGrid2D
    out_of_coverage: np.ndarray = field(compare=False)
    f_total: ImageGrid2D = field(init=False)

    def __post_init__(self):
        g = self.f_s.geometry
        if self.f_a.geometry != g:
            raise ValueError("reconstruction parts must share one geometry")
        mask = np.array(self.out_of_coverage, dtype=bool)
        if mask.shape != (g.nx, g.ny):
            raise ValueError(f"out_of_coverage: expected shape {(g.nx, g.ny)}, got {mask.shape}")
        mask.setflags(write=False)
        object.__setattr__(self, "out_of_coverage", mask)
        object.__setattr__(self, "f_total",
                           ImageGrid2D(g, (self.f_s.values + self.f_a.values).view(_Handover)))


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

    Where |x| < 1, x = a L, the closed form cancels two terms of size L / |a|:
    K is the series L^2 sum_k (-x)^k / (k! (k + 2)) there, exact to rounding
    in 20 terms (the default eps = 2 d_tau gives |x| >= 2 pi at every node).
    Where a^2 overflows, its term takes its limit 0.
    """
    _finite("epsilon", epsilon, positive=True)
    _finite("lambda_max", lambda_max, positive=True)
    eta = np.asarray(eta, dtype=np.float64)
    a = epsilon + 1j * eta
    out = np.empty(a.shape, dtype=np.complex128)
    with np.errstate(over="ignore"):   # an overflowed |a| L is not small, a^2 divides to 0
        small = np.abs(a) * lambda_max < 1.0
        big = a[~small]
        decay = np.exp(-big * lambda_max)
        square = big**2
        square[~np.isfinite(square)] = np.inf
        out[~small] = (1.0 - decay) / square - lambda_max * decay / big
    x = a[small] * lambda_max
    series = np.zeros_like(x)
    for k in range(19, -1, -1):   # Horner: 1/2 - x/1 (1/3 - x/2 (1/4 - ...))
        series = 1.0 / (k + 2) - x / (k + 1) * series
    out[small] = lambda_max**2 * series
    return complex(out) if out.ndim == 0 else out


# --- row filters -------------------------------------------------------------

# complex entries in one block of row spectra (2 MiB): the working set beyond their
# buffers of all the filters that run at once, whatever the number of rows
_SPECTRUM_BLOCK = 2**17


def _padded_rows(values: np.ndarray, pairs: int = 0, parity: float = 1.0) -> np.ndarray:
    """The (n_phi - pairs, n_tau + 2) angle-major tau rows of values between two zeros.

    The first pairs rows are folded (grids._fold_plan): row m plus parity
    times row m + n_phi - pairs, which is angle phi_m + pi, read at -tau.
    """
    v = values.T
    n_rows = v.shape[0] - pairs
    rows = np.zeros((n_rows, v.shape[1] + 2), dtype=np.complex128)
    rows[pairs:, 1:-1] = v[pairs:n_rows]
    (np.add if parity > 0 else np.subtract)(v[:pairs], v[n_rows:, ::-1], out=rows[:pairs, 1:-1])
    return rows


def _correlate_rows(rows: np.ndarray, kernel: np.ndarray, budget: int,
                    source: np.ndarray | None = None, pairs: int = 0) -> None:
    """Correlate each padded row with kernel in place, zero outside the grid.

    On the n inner entries g of a row: g[t] <- sum_j kernel[j + M] * g[t + j].
    kernel has odd length 2M+1 and is indexed by the signed offset j; entries
    0..n-1 of the circular correlation are wrap-free for any FFT length >= n + M.
    The rows go through the transforms in blocks whose spectra fill at most
    budget entries of one reused buffer.  Each row is transformed on its own,
    so a block's rows carry the same bits as one transform of all rows.

    With source, the (n_phi, n) angle-major rows of a scan, row m of rows
    gets the correlation of source[m], plus for m < pairs that of its pair
    source[m + n_rows] read at -tau, transformed in the same block: the bits
    of filtering, then folding.
    """
    n_rows, n = rows.shape[0], rows.shape[1] - 2
    m_half = (len(kernel) - 1) // 2
    p = 1 << (n + m_half - 1).bit_length()   # next power of two >= n + M
    kernel_spec = np.fft.fft(kernel[::-1], n=p)
    source = rows[:, 1:-1] if source is None else source
    block = max(1, min(n_rows, budget // (2 * p if pairs else p)))
    spec = np.empty((block + min(pairs, block), p), dtype=np.complex128)
    for start in range(0, n_rows, block):
        inner = rows[start:start + block, 1:-1]
        k = inner.shape[0]
        j = min(max(pairs - start, 0), k)   # the block's paired rows
        part = spec[:k + j]
        part[:k, :n] = source[start:start + k]
        part[k:, :n] = source[n_rows + start:n_rows + start + j]
        part[:, n:] = 0.0
        np.fft.fft(part, out=part)
        part *= kernel_spec
        np.fft.ifft(part, out=part)
        out = part[:, m_half:m_half + n]
        inner[...] = out[:k]
        inner[:j] += out[k:, ::-1]


def _complex_weights(frac: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(1 - frac, frac) cast to complex once, not by numpy in every gather that reads them."""
    return (1.0 - frac).astype(np.complex128), frac.astype(np.complex128)


def _differentiate_rows(rows: np.ndarray, d_tau: float, fa_step: float, budget: int) -> None:
    """Central difference (g(tau + h) - g(tau - h)) / (2h) of each padded row, in place.

    Off-grid values are linear interpolation on the padded row
    (grids._gathered), whose zero ends give the field past either end node;
    h = fa_step may be any value >= d_tau (_invert_all checks it before any
    buffer is made).  Both sides are formed a block of rows at a time, in
    gathers of a sixteenth of budget entries (128 KiB for all of
    _SPECTRUM_BLOCK) each, small enough to stay in cache, and written back
    over the block's inner entries.
    """
    n = rows.shape[1] - 2
    shift = fa_step / d_tau
    # g(t + h) and g(t - h) on the padded rows
    taps = [(i0, _complex_weights(frac)) for i0, frac in
            (_linear_index(np.arange(n) + step, n) for step in (shift, -shift))]
    block = max(1, budget // (16 * n))
    for a in range(0, rows.shape[0], block):
        part = rows[a:a + block]
        inner = part[:, 1:-1]
        np.subtract(*[_gathered(part, i0, weights, (1,)) for i0, weights in taps], out=inner)
        inner /= 2.0 * fa_step


def _ramp_kernel(n_tau: int, d_tau: float) -> np.ndarray:
    """2 pi d times the sampled band-limited ramp of Kak & Slaney (1988, ch. 3).

    pi / (2d) at offset 0, -2 / (pi j^2 d) at odd offsets j and 0 at even
    ones.  Sampled in tau rather than as |lambda| on the DFT grid, it has no
    DC bias.  A column correlated with it approximates
    (1/2pi) * integral |lam| R^(lam) exp(i lam tau) dlam on the stored tau nodes.
    """
    j = np.arange(1 - n_tau, n_tau)
    kernel = np.zeros(j.size)
    odd = j % 2 == 1
    kernel[odd] = -2.0 / (np.pi * d_tau * j[odd] ** 2)
    kernel[n_tau - 1] = np.pi / (2.0 * d_tau)
    return kernel


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


def _lambda_correlation_kernel(n_tau: int, d_tau: float, epsilon: float,
                               lambda_max: float) -> np.ndarray:
    """Trapezoid-weighted lambda_kernel at every signed tau offset.

    Not even: K(-eta) = conj K(eta), so it does not commute with tau reversal.
    """
    m_half = n_tau - 1
    eta = d_tau * np.arange(-m_half, m_half + 1)
    return _trapezoid_weights(eta.size, d_tau) * lambda_kernel(eta, epsilon, lambda_max)


# --- backprojection ----------------------------------------------------------

# bytes of index fields that one block of representative angles holds (2 MiB), counted
# at _FIELD_BYTES per pixel of the image: an intp index and two complex weights
_FIELD_BLOCK = 2**21
_FIELD_BYTES = 40
# pixels of an image below which a pass builds one field at a time and gathers on the
# calling thread: on fields this small the tasks' synchronisation costs more than it saves
_SHARED_PIXELS = 2**13


def _index_field(phi: float, x, y, sino) -> tuple:
    """(band, i0, weights, outside): the interpolation field of angle phi on the image.

    A pixel at fractional index f of the unpadded tau row reads
    weights[0] * p[i0] + weights[1] * p[i0 + 1] of a padded row p
    (grids._linear_index, grids._gathered).
    band is None where every pixel is gathered, else the flat indices of the
    band -1 < f < n_tau; outside marks the pixels with f < 0 or f > n_tau - 1,
    and is None where there are none (module docstring).
    """
    n = sino.n_tau
    c, s = direction(phi)
    f = (c * x + s * y - sino.tau_min) / sino.d_tau
    # f is monotone in x and in y, so its corners bound it
    corners = f[[0, 0, -1, -1], [0, -1, 0, -1]]
    band = outside = None
    if corners.min() >= 0.0 and corners.max() <= n - 1:
        # covered: 1 <= f + 1 <= n, so _linear_index's clip and bound change nothing
        f += 1.0
        i0 = f.astype(np.intp)
        w = np.subtract(f, i0, out=f)
    else:
        outside = (f < 0.0) | (f > n - 1)
        if corners.min() <= -1.0 or corners.max() >= n:
            band = np.flatnonzero((f > -1.0) & (f < n))
            f = f.reshape(-1)[band]
        i0, w = _linear_index(f, n)
    return band, i0, _complex_weights(w), outside


def _backproject(rows_seq, sino, geometry, plan) -> tuple[list[np.ndarray], np.ndarray]:
    """Angular quadrature of padded rows at tau = <n_phi, x>.

    rows_seq holds one or more buffers of padded rows on the sinogram's grid
    (_padded_rows: one angle per row, its tau samples between two zeros); each
    angle's interpolation indices are computed once and shared by all of them,
    and each result is bit-identical to backprojecting its buffer alone.  The
    rows are those of plan, the sinogram's grids._fold_plan on geometry: the
    buffers hold its rows, their pairs already folded in, and only those are
    read.  The buffers are read as they are, neither copied nor checked.

    Only the plan's representative angles get an index field (_index_field);
    each row is gathered through its representative's field into the frame
    of its view, and each frame is mapped back through the view's inverse at
    the end.  This agrees with the direct loop to rounding; with the identity
    view alone it is the direct loop, bit for bit.  A row's outside mask goes
    through its view's inverse straight into the one coverage mask.

    The representatives are taken in blocks whose fields fill at most
    _FIELD_BLOCK bytes.  forward._run_tasks returns a block's fields, one
    task each, and then gathers it with one task per buffer, which owns all
    of that buffer's frames and adds its rows in the fixed order (grouped by
    representative), and one more that ORs the coverage, exact in any order.
    So no array is written by two threads and every result keeps its bits at
    any CPU count; a block's fields are dropped before the next are built.
    A pass with one buffer, on one CPU or on an image below _SHARED_PIXELS
    pixels takes blocks of one field, all on the calling thread.  The view 0
    frames of all buffers are one allocation, which the results are views
    of, and the other views' frames a second one, freed whole: no kept frame
    sits between freed ones.

    Returns (values per buffer, out_of_coverage) where the boolean mask marks
    pixels whose offset fell outside [tau_min, tau_max] for at least one
    angle.
    """
    x, y = geometry.x_nodes()[:, None], geometry.y_nodes()
    n_px = geometry.nx * geometry.ny
    n_bufs, n_views = len(rows_seq), len(plan.views)
    kept = np.zeros((n_bufs, geometry.nx, geometry.ny), dtype=np.complex128)
    others = np.zeros((n_bufs, n_views - 1, geometry.nx, geometry.ny), dtype=np.complex128)
    out_of_range = np.zeros((geometry.nx, geometry.ny), dtype=bool)
    shared = n_bufs > 1 and n_px >= _SHARED_PIXELS and _thread_count(n_bufs) > 1
    run = _run_tasks if shared else lambda task, items: [task(item) for item in items]
    per_block = max(1, _FIELD_BLOCK // (_FIELD_BYTES * n_px)) if shared else 1
    order = np.argsort(plan.rep, kind="stable")   # rows grouped by the field they read
    bounds = np.searchsorted(plan.rep[order], np.arange(0, len(plan.phis) + per_block,
                                                        per_block))
    frames = [[kept[b], *others[b]] for b in range(n_bufs)]

    def gather(b):   # buffer b's rows of the block, or the coverage for b = n_bufs
        for k in rows:
            band, i0, weights, outside = fields[plan.rep[k] - first]
            q = plan.view[k]
            if b == n_bufs:
                if outside is not None:   # on booleans |= is exact in any order
                    out_of_range[...] |= plan.views[q][1](outside)
            elif band is None:
                frames[b][q] += _gathered(rows_seq[b][k], i0, weights, (1,))
            else:   # gathered before the band's copy of the frame is taken
                values = _gathered(rows_seq[b][k], i0, weights, (1,))
                frames[b][q].reshape(-1)[band] += values

    def finish(b):
        for frame, (_, inverse) in zip(others[b], plan.views[1:]):
            kept[b] += inverse(frame)
        kept[b] *= sino.angles.d_phi * ANGULAR_MEASURE_NORM

    for first, a, z in zip(range(0, len(plan.phis), per_block), bounds[:-1], bounds[1:]):
        rows = order[a:z]
        fields = run(lambda phi: _index_field(phi, x, y, sino),
                     list(plan.phis[first:first + per_block]))
        run(gather, list(range(n_bufs + 1)))
        del fields   # freed before the next block's are built
    run(finish, list(range(n_bufs)))
    return list(kept), out_of_range


# Each term fills one buffer of padded rows, its first pairs rows folded (grids._fold_plan),
# and filters it in place; None stands for a buffer whose image is all +0.
def _fs_rows(sino: Sinogram, pairs: int, params: RegParams, budget: int) -> np.ndarray:
    rows = _padded_rows(sino.values, pairs, 1.0)   # both kernels are even
    inner = rows[:, 1:-1]
    if params.backend is Backend.RAMP_FILTER:
        _correlate_rows(rows, _ramp_kernel(sino.n_tau, sino.d_tau), budget)
        inner *= np.pi
    else:
        _correlate_rows(rows, _fp_kernel(sino.n_tau, sino.d_tau), budget)
        np.negative(inner, out=inner)
    return rows


def _fa_rows(sino: Sinogram, pairs: int, params: RegParams, budget: int) -> np.ndarray | None:
    rows = _padded_rows(sino.values, pairs, -1.0)   # the tau derivative is odd
    if pairs and not rows.any():   # every row paired with its exact mirror, as projected
        return None
    _differentiate_rows(rows, sino.d_tau, params.fa_step, budget)
    rows[:, 1:-1] *= -1j * np.pi
    return rows


def _lambda_rows(sino: Sinogram, pairs: int, kernel: np.ndarray, budget: int) -> np.ndarray:
    # the kernel is not even: pairs are folded as they are filtered
    rows = np.zeros((sino.angles.n_phi - pairs, sino.n_tau + 2), dtype=np.complex128)
    _correlate_rows(rows, kernel, budget, sino.values.T, pairs)
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
    (epsilon,), epsilon None for 2 d_tau) of every sinogram, in one pass.

    The epsilon-lambda kernel is cut off at lambda_max = pi / d_tau, the radial
    Nyquist of the tau grid.

    The sinograms must share one tau grid and angular range; each result is
    bit-identical to its path alone on its sinogram alone, at any CPU count
    (module docstring).  The f_s and f_a rows of the plan's pairs are folded
    with the term's parity before they are filtered: a filter of that parity
    commutes with tau reversal, so this equals folding the filtered rows, to
    rounding.  Returns the Reconstruction of each sinogram (none without
    params) and its epsilon-lambda image (none without oracle).
    """
    first = sinos[0]
    if any(s.tau_grid != first.tau_grid or s.angles != first.angles for s in sinos):
        raise ValueError("sinograms inverted together must share one tau grid and angular range")
    if first.n_tau < 2:   # checked before any buffer is filtered
        raise ValueError("backprojection needs at least 2 tau samples")
    terms = []
    if oracle is not None:   # the longest filter first, so the others fill in around it
        epsilon, = oracle
        terms.append((_lambda_rows, _lambda_correlation_kernel(
            first.n_tau, first.d_tau, 2.0 * first.d_tau if epsilon is None else epsilon,
            np.pi / first.d_tau)))
    if params is not None:
        if params.fa_step < first.d_tau:   # the tau derivative's step may not be finer
            raise ValueError(f"fa_step {params.fa_step} must be at least d_tau {first.d_tau}")
        terms += [(_fs_rows, params), (_fa_rows, params)]
    plan = _fold_plan(geometry, first.tau_grid, first.angles)
    jobs = [(term, s, arg) for s in sinos for term, arg in terms]
    budget = _SPECTRUM_BLOCK // _thread_count(len(jobs))
    buffers = _run_tasks(lambda job: job[0](job[1], plan.pairs, job[2], budget), jobs)
    skipped = [rows is None for rows in buffers]
    values, oob = _backproject([b for b in buffers if b is not None], first, geometry, plan)
    del buffers   # freed before the images are made
    values = iter(values)
    images = [ImageGrid2D(geometry, (np.zeros((geometry.nx, geometry.ny), dtype=np.complex128)
                                     if skip else next(values)).view(_Handover))
              for skip in skipped]
    n = len(terms)
    recons = [] if params is None else [
        Reconstruction(fs, fa, oob)
        for fs, fa in zip(images[n - 2::n], images[n - 1::n])]
    return recons, images[::n] if oracle is not None else []


def epsilon_lambda_reconstruct(sino: Sinogram, geometry: GridGeometry,
                               epsilon: float | None = None) -> ImageGrid2D:
    """Independent reconstruction through the closed-form regularized kernel.

    The pole regulator (offset - i*epsilon) defaults to epsilon = 2*d_tau, as
    a regulator below the grid scale only adds noise; the band limit is
    lambda_max = pi/d_tau (_invert_all).  Serves as a third oracle for
    invert_universal, sharing none of its RegParams.  The kernel is not even,
    so the plan's pairs are folded after filtering, pair by pair as they
    leave the transforms (_correlate_rows).  The result is a plain image:
    its coverage is that of invert_universal on the same sinogram.
    """
    return _invert_all([sino], geometry, None, (epsilon,))[1][0]


# --- metrics -----------------------------------------------------------------

def _root_mean_square(magnitudes: np.ndarray, count: int = 1) -> float:
    """sqrt(sum(magnitudes**2) / count): the plain formula's bits unless its sum overflows or
    leaves the normal floats, then with the peak magnitude divided out before squaring."""
    with np.errstate(over="ignore", under="ignore"):
        q = np.sum(magnitudes ** 2)
        if not np.finfo(float).tiny <= q < np.inf:
            peak = np.max(magnitudes, initial=0.0)
            if 0.0 < peak < np.inf:
                return float(peak * np.sqrt(np.sum((magnitudes / peak) ** 2) / count))
    return float(np.sqrt(q / count))


def l2_norm(values: np.ndarray) -> float:
    """Euclidean norm, summed in C order whatever the layout, so an F-order copy keeps its bits."""
    return _root_mean_square(np.abs(values, order="C"))


def _rmse_over_peak(values: np.ndarray, reference: np.ndarray) -> tuple[float, float]:
    """(rmse, rmse / max|reference|) of values against reference; the ratio is the rmse
    itself where the reference is all zero."""
    rmse = _root_mean_square(np.abs(values - reference), values.size)
    peak = float(np.max(np.abs(reference)))
    return rmse, rmse / peak if peak > 0 else rmse


def reconstruction_metrics(recon: Reconstruction,
                           reference: ImageGrid2D | None = None) -> dict:
    """Scalar quality metrics: boundary/principal ratio (0 when both norms are 0, inf
    when only fs_norm is), coverage, optional RMSE.

    Every value is a Python float but flagged_pixels, the int count of the
    pixels that recon.out_of_coverage marks.
    """
    fs_norm = l2_norm(recon.f_s.values)
    fa_norm = l2_norm(recon.f_a.values)
    out = {
        "fs_norm": fs_norm,
        "fa_norm": fa_norm,
        "fa_fs_ratio": fa_norm / fs_norm if fs_norm > 0 else float("inf") if fa_norm else 0.0,
        "flagged_pixels": int(np.count_nonzero(recon.out_of_coverage)),
    }
    if reference is not None:
        if reference.geometry != recon.f_total.geometry:
            raise ValueError("reference geometry differs from reconstruction")
        out["rmse"], out["rmse_over_peak"] = _rmse_over_peak(recon.f_total.values,
                                                             reference.values)
    return out
