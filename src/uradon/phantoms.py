"""Analytic Gaussian test scenes and their closed-form projections.

Gaussian blobs are the one scene family with closed forms for both the
line-integral transform and the 2D Fourier transform at once, which makes
them the oracle class for every numerical stage.  Scenes may mask each blob
with a sharp first- or third-quadrant indicator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .grids import GridGeometry, ImageGrid2D, _finite, _Handover


class RegionMask(enum.Enum):
    """Sharp quadrant indicator applied to a blob."""

    NONE = "none"
    QUADRANT_I = "quadrant1"    # x >= 0 and y >= 0 (boundary included)
    QUADRANT_III = "quadrant3"  # x < 0 and y < 0 (boundary excluded)


class UnsupportedOracleError(ValueError):
    """Closed-form projection requested for a scene outside the oracle class."""


@dataclass(frozen=True)
class GaussianBlob:
    """Isotropic Gaussian amplitude * exp(-|x - c|^2 / (2 sigma^2))."""

    cx: float
    cy: float
    sigma: float
    amplitude: complex = 1.0 + 0.0j

    def __post_init__(self):
        _finite("cx", self.cx)
        _finite("cy", self.cy)
        _finite("sigma", self.sigma, positive=True)
        object.__setattr__(self, "amplitude", complex(self.amplitude))


@dataclass(frozen=True)
class CompositeScene:
    """Sum of (blob, mask) terms."""

    terms: tuple

    def __post_init__(self):
        terms = tuple((blob, RegionMask(mask)) for blob, mask in self.terms)
        if not terms:
            raise ValueError("scene needs at least one term")
        object.__setattr__(self, "terms", terms)

    @classmethod
    def of(cls, *blobs: GaussianBlob) -> "CompositeScene":
        """Scene of unmasked blobs."""
        return cls(tuple((b, RegionMask.NONE) for b in blobs))

    @property
    def peak(self) -> float:
        """Largest term amplitude magnitude (scale yardstick for tolerances)."""
        return max(abs(blob.amplitude) for blob, _ in self.terms)


def _mask_block(mask: RegionMask, x: np.ndarray, y: np.ndarray) -> tuple[slice, slice]:
    """The block of (x, y) nodes a mask keeps: the nodes are sorted, so a quadrant is one block."""
    i, j = np.searchsorted(x, 0.0), np.searchsorted(y, 0.0)   # the first node >= 0 per axis
    if mask is RegionMask.QUADRANT_I:
        return slice(i, None), slice(j, None)
    if mask is RegionMask.QUADRANT_III:
        return slice(None, i), slice(None, j)
    return slice(None), slice(None)


def rasterize(scene: CompositeScene, geometry: GridGeometry) -> ImageGrid2D:
    """Sample the scene at the grid nodes (masks evaluated sharply).

    A masked term is evaluated only on its quadrant's block of nodes (_mask_block).
    Outside it the term is +0, and adding +0 to a sum that starts at +0 changes
    no bit, so the result is that of masking the term over the whole grid.
    """
    x, y = geometry.x_nodes(), geometry.y_nodes()
    values = np.zeros((geometry.nx, geometry.ny), dtype=np.complex128)
    for blob, mask in scene.terms:
        bx, by = _mask_block(mask, x, y)
        with np.errstate(over="ignore"):   # an overflowed square gives exp(-inf) = 0, exact
            r2 = (x[bx, None] - blob.cx) ** 2 + (y[by] - blob.cy) ** 2
        values[bx, by] += blob.amplitude * np.exp(-r2 / (2.0 * blob.sigma**2))
    return ImageGrid2D(geometry, values.view(_Handover))


def analytic_radon(scene: CompositeScene, tau, phi: float):
    """Closed-form line-integral transform of an unmasked scene.

    For each blob the line integral is the 1D Gaussian
    amplitude * sigma * sqrt(2 pi) * exp(-(tau - <n_phi, c>)^2 / (2 sigma^2)).
    Raises UnsupportedOracleError for masked terms (the numeric projector on
    fine grids serves as the masked oracle).
    """
    _require_unmasked(scene, "analytic_radon")
    tau = np.asarray(tau, dtype=np.float64)
    c, s = np.cos(phi), np.sin(phi)
    out = np.zeros(tau.shape, dtype=np.complex128)
    for blob, _ in scene.terms:
        center = c * blob.cx + s * blob.cy
        out += (blob.amplitude * blob.sigma * np.sqrt(2.0 * np.pi)
                * np.exp(-((tau - center) ** 2) / (2.0 * blob.sigma**2)))
    return complex(out) if out.ndim == 0 else out


def analytic_fourier(scene: CompositeScene, lam, phi: float):
    """Closed-form 2D Fourier transform of an unmasked scene at q = lam * n_phi.

    Convention: F(q) = integral exp(-i <q, x>) f(x) d^2x, no prefactor, so a
    blob gives amplitude * 2 pi sigma^2 * exp(-lam^2 sigma^2 / 2) * exp(-i lam <n_phi, c>).
    """
    _require_unmasked(scene, "analytic_fourier")
    lam = np.asarray(lam, dtype=np.float64)
    c, s = np.cos(phi), np.sin(phi)
    out = np.zeros(lam.shape, dtype=np.complex128)
    for blob, _ in scene.terms:
        center = c * blob.cx + s * blob.cy
        out += (blob.amplitude * 2.0 * np.pi * blob.sigma**2
                * np.exp(-(lam**2) * blob.sigma**2 / 2.0)
                * np.exp(-1j * lam * center))
    return complex(out) if out.ndim == 0 else out


def _require_unmasked(scene: CompositeScene, op: str) -> None:
    for k, (_, mask) in enumerate(scene.terms):
        if mask is not RegionMask.NONE:
            raise UnsupportedOracleError(
                f"{op}: term {k} carries mask '{mask.value}'; closed forms exist "
                f"for unmasked scenes only")


# --- scene description files -------------------------------------------------
#
# One blob per line:  cx=<f> cy=<f> sigma=<f> amp_re=<f> amp_im=<f> mask=<name>
# Optional third-axis profile (volume mode), at most one line:  profile center=<f> sigma=<f>
# '#' starts a comment.  A key a line does not take, or takes twice, is refused.

_SCENE_KEYS = {False: ("cx", "cy", "sigma", "amp_re", "amp_im", "mask"),
               True: ("center", "sigma")}


class SceneFormatError(ValueError):
    """Unparseable scene description text."""


def scene_from_text(text: str) -> tuple[CompositeScene, "SeparableScene3D | None"]:
    """Parse a scene description; returns (scene, 3D wrapper if a profile line is present)."""
    terms = []
    profile_kv = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        is_profile = tokens[0] == "profile"
        if is_profile and profile_kv is not None:
            raise SceneFormatError(f"line {lineno}: a second profile line "
                                   f"(the first is line {profile_kv['line']})")
        keys = _SCENE_KEYS[is_profile]
        kv = {}
        for token in (tokens[1:] if is_profile else tokens):
            if "=" not in token:
                raise SceneFormatError(f"line {lineno}: expected key=value, got '{token}'")
            key, _, value = token.partition("=")
            if key not in keys or key in kv:
                raise SceneFormatError(f"line {lineno}: unknown or repeated key '{key}'; this "
                                       f"line takes each of {', '.join(keys)} at most once")
            kv[key] = value
        try:
            if is_profile:
                profile_kv = {"center": float(kv.get("center", 0.0)),
                              "sigma": float(kv.get("sigma", 1.0)), "line": lineno}
            else:
                blob = GaussianBlob(float(kv["cx"]), float(kv["cy"]), float(kv["sigma"]),
                                    complex(float(kv.get("amp_re", 1.0)),
                                            float(kv.get("amp_im", 0.0))))
                terms.append((blob, RegionMask(kv.get("mask", "none"))))
        except (KeyError, ValueError) as exc:
            raise SceneFormatError(f"line {lineno}: {exc}") from exc
    if not terms:
        raise SceneFormatError("scene file lists no blobs")
    scene = CompositeScene(tuple(terms))
    if profile_kv is None:
        return scene, None
    try:
        return scene, SeparableScene3D(scene, profile_kv["center"], profile_kv["sigma"])
    except ValueError as exc:
        raise SceneFormatError(f"line {profile_kv['line']}: {exc}") from exc


def load_scene(path) -> tuple[CompositeScene, "SeparableScene3D | None"]:
    with open(path, "r", encoding="utf-8") as fh:
        return scene_from_text(fh.read())


@dataclass(frozen=True)
class SeparableScene3D:
    """3D scene as a product: base(x1, x2) * exp(-(x3 - c)^2 / (2 sigma^2))."""

    base: CompositeScene
    x3_center: float = 0.0
    x3_sigma: float = 1.0

    def __post_init__(self):
        _finite("x3_center", self.x3_center)
        _finite("x3_sigma", self.x3_sigma, positive=True)

    def profile(self, x3):
        x3 = np.asarray(x3, dtype=np.float64)
        with np.errstate(over="ignore"):   # an overflowed square gives exp(-inf) = 0, exact
            r2 = (x3 - self.x3_center) ** 2
        return np.exp(-r2 / (2.0 * self.x3_sigma**2))

    def profile_transform(self, k):
        """Closed-form 1D transform of the profile: integral exp(-i k x3) profile(x3) dx3."""
        k = np.asarray(k, dtype=np.float64)
        return (self.x3_sigma * np.sqrt(2.0 * np.pi)
                * np.exp(-(k**2) * self.x3_sigma**2 / 2.0)
                * np.exp(-1j * k * self.x3_center))
