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

from .grids import GridGeometry, ImageGrid2D, _finite


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
    def unmasked(self) -> bool:
        return all(mask is RegionMask.NONE for _, mask in self.terms)

    @property
    def peak(self) -> float:
        """Largest term amplitude magnitude (scale yardstick for tolerances)."""
        return max(abs(blob.amplitude) for blob, _ in self.terms)


def _mask_array(mask: RegionMask, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    if mask is RegionMask.QUADRANT_I:
        return (X >= 0.0) & (Y >= 0.0)
    if mask is RegionMask.QUADRANT_III:
        return (X < 0.0) & (Y < 0.0)
    return np.ones_like(X, dtype=bool)


def rasterize(scene: CompositeScene, geometry: GridGeometry) -> ImageGrid2D:
    """Sample the scene at the grid nodes (masks evaluated sharply)."""
    X, Y = geometry.node_mesh()
    values = np.zeros((geometry.nx, geometry.ny), dtype=np.complex128)
    for blob, mask in scene.terms:
        r2 = (X - blob.cx) ** 2 + (Y - blob.cy) ** 2
        term = blob.amplitude * np.exp(-r2 / (2.0 * blob.sigma**2))
        values += np.where(_mask_array(mask, X, Y), term, 0.0)
    return ImageGrid2D(geometry, values)


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
# Optional third-axis profile (volume mode):  profile center=<f> sigma=<f>
# '#' starts a comment.

def scene_to_text(scene: CompositeScene, profile: "SeparableScene3D | None" = None) -> str:
    lines = []
    if profile is not None:
        lines.append(f"profile center={profile.x3_center!r} sigma={profile.x3_sigma!r}")
    for blob, mask in scene.terms:
        lines.append(
            f"cx={blob.cx!r} cy={blob.cy!r} sigma={blob.sigma!r} "
            f"amp_re={blob.amplitude.real!r} amp_im={blob.amplitude.imag!r} mask={mask.value}")
    return "\n".join(lines) + "\n"


class SceneFormatError(ValueError):
    """Unparseable scene description text."""


def scene_from_text(text: str) -> tuple[CompositeScene, "SeparableScene3D | None"]:
    """Parse a scene description; returns (scene, 3D wrapper if a profile line is present)."""
    terms = []
    profile_kv = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        is_profile = line.startswith("profile")
        body = line[len("profile"):] if is_profile else line
        kv = {}
        for token in body.split():
            if "=" not in token:
                raise SceneFormatError(f"line {lineno}: expected key=value, got '{token}'")
            key, _, value = token.partition("=")
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


def save_scene(path, scene: CompositeScene, profile: "SeparableScene3D | None" = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(scene_to_text(scene, profile))


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
        return np.exp(-((x3 - self.x3_center) ** 2) / (2.0 * self.x3_sigma**2))

    def profile_transform(self, k):
        """Closed-form 1D transform of the profile: integral exp(-i k x3) profile(x3) dx3."""
        k = np.asarray(k, dtype=np.float64)
        return (self.x3_sigma * np.sqrt(2.0 * np.pi)
                * np.exp(-(k**2) * self.x3_sigma**2 / 2.0)
                * np.exp(-1j * k * self.x3_center))
