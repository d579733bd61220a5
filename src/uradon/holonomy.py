"""Path-dependent evaluation of Radon data over quadrant-masked scenes.

Rotating the probe angles by a single full turn or by two half turns gives
different answers on indicator-masked scenes: after a half turn only the
terms whose quadrant still meets the probe lines survive, and the next half
turn annihilates those.  The mismatch between the two protocols is the
holonomy signal; the same mechanism isolates a "defect" term hidden in a
centrally symmetric background by comparing opposite-angle views.

Shift bookkeeping is symbolic: angles live on the real line and half-turn
shifts flip the direction vector's sign exactly, so a full turn reproduces
the unshifted columns bit for bit.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .grids import AngularRange, GridGeometry, Sinogram, TauGrid
from .forward import _project, direction
from .inversion import l2_norm
from .phantoms import CompositeScene, GaussianBlob, RegionMask, rasterize

HALF_TURN = float(np.pi)
FULL_TURN = float(2.0 * np.pi)

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
class ShiftPath:
    """Ordered angle increments, each a half or full turn, totalling one turn."""

    steps: tuple

    def __post_init__(self):
        steps = tuple(float(s) for s in self.steps)
        if not steps:
            raise ValueError("path needs at least one step")
        for s in steps:
            if not (abs(s - HALF_TURN) <= 1e-12 or abs(s - FULL_TURN) <= 1e-12):
                raise ValueError(f"steps must be pi or 2*pi, got {s}")
        if abs(sum(steps) - FULL_TURN) > 1e-12:
            raise ValueError("total shift must be one full turn")
        object.__setattr__(self, "steps", steps)

    @classmethod
    def full_turn(cls) -> "ShiftPath":
        return cls((FULL_TURN,))

    @classmethod
    def two_half_turns(cls) -> "ShiftPath":
        return cls((HALF_TURN, HALF_TURN))

    def half_turn_counts(self) -> list[int]:
        """Cumulative number of half turns after each step."""
        out = []
        total = 0
        for s in self.steps:
            total += 1 if abs(s - HALF_TURN) <= 1e-12 else 2
            out.append(total)
        return out


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
    path: ShiftPath
    records: tuple
    surviving_terms: tuple
    final_sinogram_column: np.ndarray
    leak_tol: float


@dataclass(frozen=True)
class HolonomyReport:
    """detected is the check's verdict: discrepancy_norm above threshold."""

    discrepancy_norm: float
    threshold: float
    detected: bool
    full_turn: PathEvaluation
    two_half_turns: PathEvaluation


def leak_tolerance(scene: CompositeScene, geometry: GridGeometry) -> float:
    """Tail-leakage yardstick: 1e-6 * scene peak * grid diameter."""
    return 1e-6 * scene.peak * geometry.diameter


def evaluate_path(scene: CompositeScene, path: ShiftPath, probe: Probe,
                  geometry: GridGeometry, ray_step: float | None = None,
                  leak_tol: float | None = None, _columns: dict | None = None) -> PathEvaluation:
    """Walk the shift path, dropping terms whose columns vanish on the window.

    At each step all probe angles shift by the step; every surviving term's
    masked column is evaluated there and terms whose column stays below
    leak_tol in magnitude are dropped.  The final column is the sum over the
    survivors at the final angles.

    _columns maps (term index, direction sign) to projected columns and a
    term index to the term's rasterized image; entries found there are
    reused and new ones are added, so paths evaluated with one dict on the
    same scene, probe, geometry and ray_step project each (term, sign) once
    and rasterize each term at most once, and only when it has a column to
    project.
    """
    if leak_tol is None:
        leak_tol = leak_tolerance(scene, geometry)
    taus = probe.taus.taus()
    trig = [direction(phi) for phi in probe.angles.phis()]

    cache = {} if _columns is None else _columns
    survivors = list(range(len(scene.terms)))
    records = []
    for count in path.half_turn_counts():
        sign = -1.0 if count % 2 else 1.0
        missing = [i for i in survivors if (i, sign) not in cache]
        if missing:
            for i in missing:
                if i not in cache:
                    cache[i] = rasterize(CompositeScene((scene.terms[i],)), geometry)
            directions = [(sign * c, sign * s) for c, s in trig]
            projected = _project(geometry, [cache[i].values for i in missing], taus, directions,
                                 ray_step)
            cache.update(zip([(i, sign) for i in missing], projected))
        columns = {i: cache[i, sign] for i in survivors}
        norms = tuple((i, float(np.max(np.abs(columns[i])))) for i in survivors)
        kept = [i for i, norm in norms if norm > leak_tol]
        total = np.zeros((probe.taus.n_tau, probe.angles.n_phi), dtype=np.complex128)
        for i in kept:
            total = total + columns[i]
        records.append(StepRecord(cumulative_shift=count * HALF_TURN,
                                  term_norms=norms, survivors=tuple(kept), column=total))
        survivors = kept
    final = records[-1]
    return PathEvaluation(path=path, records=tuple(records),
                          surviving_terms=final.survivors,
                          final_sinogram_column=final.column, leak_tol=leak_tol)


def check_holonomy(scene: CompositeScene, probe: Probe, geometry: GridGeometry,
                   ray_step: float | None = None, leak_tol: float | None = None,
                   threshold: float | None = None) -> HolonomyReport:
    """Compare the full-turn and two-half-turn protocols on the probe window."""
    if leak_tol is None:
        leak_tol = leak_tolerance(scene, geometry)
    if threshold is None:
        threshold = 10.0 * leak_tol
    columns: dict = {}  # the full turn's images and +sign columns serve the two half turns
    one = evaluate_path(scene, ShiftPath.full_turn(), probe, geometry, ray_step, leak_tol, columns)
    two = evaluate_path(scene, ShiftPath.two_half_turns(), probe, geometry, ray_step, leak_tol,
                        columns)
    discrepancy = l2_norm(one.final_sinogram_column - two.final_sinogram_column)
    return HolonomyReport(discrepancy_norm=discrepancy, threshold=threshold,
                          detected=discrepancy > threshold, full_turn=one,
                          two_half_turns=two)


def _blob_key(blob: GaussianBlob) -> tuple:
    return (blob.cx, blob.cy, blob.sigma, blob.amplitude)


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
    blob_by_key = {}
    for blob, mask in scene.terms:
        key = _blob_key(blob)
        blob_by_key[key] = blob
        if mask is RegionMask.QUADRANT_I:
            q1[key] += 1
        elif mask is RegionMask.QUADRANT_III:
            q3[key] += 1
        else:
            raise UnsupportedSceneError("defect scenes may not contain unmasked terms")
    defect = q1 - q3
    leftover = q3 - q1
    if leftover:
        centers = ", ".join(f"({cx}, {cy})" for cx, cy, _, _ in leftover)
        raise UnsupportedSceneError(
            "third-quadrant terms must all belong to the background: "
            f"unmatched blob(s) at {centers}")
    background = q3
    for key, count in background.items():
        cx, cy, sigma, amp = key
        mirror = (-cx, -cy, sigma, amp)
        if background.get(mirror, 0) != count:
            raise UnsupportedSceneError(
                f"background is not centrally symmetric: blob at ({cx}, {cy}) "
                f"has no mirror partner at ({-cx}, {-cy})")
    def order(item):  # complex amplitudes are not orderable directly
        (cx, cy, sigma, amp), _ = item
        return (cx, cy, sigma, amp.real, amp.imag)

    defect_terms = tuple((blob_by_key[key], RegionMask.QUADRANT_I)
                         for key, count in sorted(defect.items(), key=order)
                         for _ in range(count))
    background_terms = tuple((blob_by_key[key], RegionMask.QUADRANT_III)
                             for key, count in sorted(background.items(), key=order)
                             for _ in range(count))
    return defect_terms, background_terms


def extract_defect(scene_tilde: CompositeScene, probe: Probe, geometry: GridGeometry,
                   ray_step: float | None = None) -> Sinogram:
    """Isolate the defect's projection by subtracting the opposite-angle view.

    For a centrally symmetric background the third-quadrant view at phi + pi
    reproduces the first-quadrant background at phi, so the difference
    column(phi) - column(phi + pi) over the probe window is the defect's own
    projection.
    """
    classify_defect_scene(scene_tilde)  # validates the scene shape
    img = rasterize(scene_tilde, geometry)
    taus = probe.taus.taus()
    trig = [direction(phi) for phi in probe.angles.phis()]
    # the half-turn shift is the exactly flipped direction
    both = _project(geometry, [img.values], taus, trig + [(-c, -s) for c, s in trig], ray_step)[0]
    values = both[:, :len(trig)] - both[:, len(trig):]
    return Sinogram(probe.taus.tau_min, probe.taus.d_tau, probe.taus.n_tau,
                    probe.angles, values)


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
