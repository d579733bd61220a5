"""Path-dependent evaluation of Radon data over quadrant-masked scenes.

Rotating the probe angles by a single full turn or by two half turns gives
different answers on indicator-masked scenes: after a half turn only the
terms whose quadrant still meets the probe lines survive, and the next half
turn annihilates those.  The mismatch between the two protocols is the
holonomy signal; the same mechanism isolates a "defect" term hidden in a
centrally symmetric background by comparing opposite-angle views.

Shift bookkeeping is symbolic: a half turn flips the direction vector's sign
exactly, so one projection (_half_turns) tabulates every term at both half-turn
parities, check_holonomy walks both protocols over that one table, and a full
turn reproduces the unshifted columns bit for bit.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np

from .grids import AngularRange, GridGeometry, Sinogram, TauGrid
from .forward import _project, direction
from .inversion import l2_norm
from .phantoms import CompositeScene, RegionMask, _mask_block, rasterize

HALF_TURN = float(np.pi)

NORMATIVE_PHI_MAX = float(np.pi / 2.0)


class UnsupportedSceneError(ValueError):
    """Scene does not have the defect-plus-symmetric-background form."""


@dataclass(frozen=True)
class Probe:
    """(tau, phi) window on which path evaluations are compared.

    tau must be strictly positive.  The normative window is phi within
    [0, pi/2]; other windows are permitted extensions and raise a warning.
    """

    taus: TauGrid
    angles: AngularRange

    def __post_init__(self):
        if self.taus.tau_min <= 0.0:
            raise ValueError("probe tau window must be strictly positive")
        if not self.is_normative_window:
            warnings.warn("probe angle window extends beyond [0, pi/2]; "
                          "treating it as an extension", UserWarning, stacklevel=3)

    @property
    def is_normative_window(self) -> bool:
        return self.angles.phi_min >= -1e-12 and self.angles.phi_max <= NORMATIVE_PHI_MAX + 1e-12


@dataclass(frozen=True)
class StepRecord:
    """State after one step.

    term_norms pairs each evaluated term index with the sup of its masked
    column at the shifted angles; survivors lists the indices kept, and
    column is their sum.
    """

    cumulative_shift: float
    term_norms: tuple
    survivors: tuple
    column: np.ndarray


@dataclass(frozen=True)
class PathEvaluation:
    records: tuple
    surviving_terms: tuple
    final_sinogram_column: np.ndarray
    leak_tol: float


@dataclass(frozen=True)
class HolonomyReport:
    """detected is the check's verdict: discrepancy_norm above threshold.

    full_turn and two_half_turns keep each protocol's step records.
    """

    discrepancy_norm: float
    threshold: float
    detected: bool
    full_turn: PathEvaluation
    two_half_turns: PathEvaluation


def leak_tolerance(scene: CompositeScene, geometry: GridGeometry) -> float:
    """Tail-leakage yardstick: 1e-6 * scene peak * grid diameter."""
    return 1e-6 * scene.peak * geometry.diameter


def _half_turns(geometry: GridGeometry, arrays, probe: Probe, origins) -> tuple:
    """Each array's (n_arrays, n_tau, n_phi) columns on the probe window and after a half
    turn, the exactly flipped direction, from one _project call at the default ray step;
    the arrays are node blocks at origins on geometry."""
    trig = [direction(phi) for phi in probe.angles.phis()]
    both = _project(geometry, arrays, probe.taus.taus(), trig + [(-c, -s) for c, s in trig], None,
                    origins=origins)
    return both[..., :len(trig)], both[..., len(trig):]


def _origin(block: tuple[slice, slice]) -> tuple[int, int]:
    """The node at which a phantoms._mask_block block starts."""
    return tuple(int(s.start or 0) for s in block)


def _walk(counts: tuple, columns: tuple, leak_tol: float) -> PathEvaluation:
    """Walk check_holonomy's table; counts are the half turns done after each step, (2,) or
    (1, 2).  Step count reads columns[count % 2], dropping terms within leak_tol there."""
    survivors = list(range(len(columns[0])))
    records = []
    for count in counts:
        shifted = columns[count % 2]
        norms = tuple((i, float(np.max(np.abs(shifted[i])))) for i in survivors)
        survivors = [i for i, norm in norms if norm > leak_tol]
        total = sum((shifted[i] for i in survivors), np.zeros(shifted.shape[1:], np.complex128))
        total.setflags(write=False)   # the final step's column is also the path's
        records.append(StepRecord(cumulative_shift=count * HALF_TURN, term_norms=norms,
                                  survivors=tuple(survivors), column=total))
    final = records[-1]
    return PathEvaluation(records=tuple(records), surviving_terms=final.survivors,
                          final_sinogram_column=final.column, leak_tol=leak_tol)


def check_holonomy(scene: CompositeScene, probe: Probe,
                   geometry: GridGeometry) -> HolonomyReport:
    """Compare the full-turn and two-half-turn protocols on the probe window.

    Each term is rasterized alone, and both paths walk its _half_turns columns,
    dropping terms within leak_tolerance; the threshold is 10 times that.  A term
    is +0 outside its mask's node block (phantoms._mask_block), so only a copy
    of that block is kept, and each full image is freed before the next term is
    rasterized; the blocks project with the bits of the full images."""
    leak_tol = leak_tolerance(scene, geometry)
    threshold = 10.0 * leak_tol
    x, y = geometry.x_nodes(), geometry.y_nodes()
    blocks = [_mask_block(mask, x, y) for _, mask in scene.terms]
    terms = [rasterize(CompositeScene((term,)), geometry).values[block].copy()
             for term, block in zip(scene.terms, blocks)]
    columns = _half_turns(geometry, terms, probe, [_origin(block) for block in blocks])
    one = _walk((2,), columns, leak_tol)
    two = _walk((1, 2), columns, leak_tol)
    discrepancy = l2_norm(one.final_sinogram_column - two.final_sinogram_column)
    return HolonomyReport(discrepancy_norm=discrepancy, threshold=threshold,
                          detected=discrepancy > threshold, full_turn=one,
                          two_half_turns=two)


def classify_defect_scene(scene: CompositeScene) -> tuple[tuple, tuple]:
    """Split a defect scene into (defect terms, background terms).

    The scene must have the shape (defect + background) masked to the first
    quadrant plus the same background masked to the third quadrant, with the
    background centrally symmetric (every blob paired with its mirror image
    at -c).  Raises UnsupportedSceneError otherwise.  The defect term tuple
    may be empty (background-only scenes are legitimate).
    """
    q1 = Counter()
    q3 = Counter()
    for blob, mask in scene.terms:
        if mask is RegionMask.QUADRANT_I:
            q1[blob] += 1
        elif mask is RegionMask.QUADRANT_III:
            q3[blob] += 1
        else:
            raise UnsupportedSceneError("defect scenes may not contain unmasked terms")
    defect = q1 - q3
    leftover = q3 - q1
    if leftover:
        centers = ", ".join(f"({blob.cx}, {blob.cy})" for blob in leftover)
        raise UnsupportedSceneError(
            "third-quadrant terms must all belong to the background: "
            f"unmatched blob(s) at {centers}")
    background = q3
    for blob, count in background.items():
        if background[replace(blob, cx=-blob.cx, cy=-blob.cy)] != count:
            raise UnsupportedSceneError(
                f"background is not centrally symmetric: blob at ({blob.cx}, {blob.cy}) "
                f"has no mirror partner at ({-blob.cx}, {-blob.cy})")

    def order(blob):  # complex amplitudes are not orderable directly
        return (blob.cx, blob.cy, blob.sigma, blob.amplitude.real, blob.amplitude.imag)

    return (tuple((blob, RegionMask.QUADRANT_I) for blob in sorted(defect.elements(), key=order)),
            tuple((blob, RegionMask.QUADRANT_III)
                  for blob in sorted(background.elements(), key=order)))


def extract_defect(scene_tilde: CompositeScene, probe: Probe, geometry: GridGeometry) -> Sinogram:
    """Isolate the defect's projection by subtracting the opposite-angle view.

    For a centrally symmetric background the third-quadrant view at phi + pi
    reproduces the first-quadrant background at phi, so the difference
    column(phi) - column(phi + pi) over the probe window is the defect's own
    projection.

    The scene is rasterized once and its first- and third-quadrant node
    blocks (phantoms._mask_block) are projected as two views of that one
    image, placed at their origins, with no zero-filled copy: each keeps its
    own support box, and each column is the sum of the two blocks' columns.
    On the normative window, with every probe tau more than a cell diagonal
    above 0, a line misses the other quadrant's support box: those columns
    are +0, and every column has the bits of projecting the whole image.
    Where the probe reaches within a cell diagonal of tau = 0 (or leaves
    [0, pi/2]) the two agree only to rounding.
    """
    classify_defect_scene(scene_tilde)  # validates the scene shape
    values = rasterize(scene_tilde, geometry).values
    x, y = geometry.x_nodes(), geometry.y_nodes()
    blocks = [_mask_block(mask, x, y) for mask in (RegionMask.QUADRANT_I, RegionMask.QUADRANT_III)]
    plus, minus = _half_turns(geometry, [values[block] for block in blocks], probe,
                              [_origin(block) for block in blocks])
    return Sinogram(probe.taus.tau_min, probe.taus.d_tau, probe.taus.n_tau,
                    probe.angles, (plus[0] + plus[1]) - (minus[0] + minus[1]))


def _one_sided_limit(taus: np.ndarray, vals: np.ndarray) -> complex:
    """3-point Lagrange extrapolation of (taus, vals) to tau = 0."""
    t = taus
    out = 0.0 + 0.0j
    for k in range(3):
        others = [j for j in range(3) if j != k]
        weight = np.prod([(0.0 - t[j]) / (t[k] - t[j]) for j in others])
        out += weight * vals[k]
    return complex(out)


def boundary_jump(sino: Sinogram, phi: float) -> complex:
    """Jump of the projection column across tau = 0.

    Estimated as the difference of 3-point one-sided extrapolations from the
    positive and negative sides; the tau grid must straddle zero with at
    least three samples per side.
    """
    column = sino.values[:, sino.angles.index_of(phi)]
    taus = sino.taus()
    pos = np.nonzero(taus > 0.0)[0]
    neg = np.nonzero(taus < 0.0)[0]
    if len(pos) < 3 or len(neg) < 3:
        raise ValueError("need at least 3 tau samples on each side of zero")
    ip = pos[np.argsort(taus[pos])[:3]]          # three smallest positive offsets
    im = neg[np.argsort(-taus[neg])[:3]]         # three largest negative offsets
    upper = _one_sided_limit(taus[ip], column[ip])
    lower = _one_sided_limit(taus[im], column[im])
    return upper - lower
