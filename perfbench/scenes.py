"""Seeded Gaussian scenes and their closed forms, independent of the library.

A seed picks one of the eight symmetries of the square grid, a global phase
and a few-percent jitter of every blob's centre, width and amplitude.  The
symmetries and the global phase leave the reconstruction error nearly
unchanged, so seeds give different scenes but comparable oracle errors; the
number of blobs never depends on the seed, so neither does the work done.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Blob:
    cx: float
    cy: float
    sigma: float
    amplitude: complex
    mask: str = "none"


def jittered(rng: np.random.Generator, layout, symmetric: bool = True) -> list[Blob]:
    """Blobs from a layout of (cx, cy, sigma, |amplitude|, phase) tuples.

    With ``symmetric`` the whole layout is first mapped by a random symmetry
    of the square (quarter turns and a mirror), which a centred grid and a
    full angular scan reproduce exactly.
    """
    turn = int(rng.integers(4)) if symmetric else 0
    mirror = bool(rng.integers(2)) if symmetric else False
    global_phase = rng.uniform(0.0, 2.0 * np.pi)
    blobs = []
    for cx, cy, sigma, magnitude, phase in layout:
        if mirror:
            cy = -cy
        for _ in range(turn):
            cx, cy = -cy, cx
        blobs.append(Blob(
            cx=float(cx + rng.uniform(-0.03, 0.03)),
            cy=float(cy + rng.uniform(-0.03, 0.03)),
            sigma=float(sigma * rng.uniform(0.98, 1.02)),
            amplitude=complex(magnitude * rng.uniform(0.97, 1.03)
                              * np.exp(1j * (phase + global_phase + rng.uniform(-0.05, 0.05))))))
    return blobs


def scene_text(blobs, profile: tuple[float, float] | None = None) -> str:
    """The library's scene-file format: one blob per line, optional profile line."""
    lines = [] if profile is None else [f"profile center={profile[0]!r} sigma={profile[1]!r}"]
    for b in blobs:
        lines.append(f"cx={b.cx!r} cy={b.cy!r} sigma={b.sigma!r} amp_re={b.amplitude.real!r} "
                     f"amp_im={b.amplitude.imag!r} mask={b.mask}")
    return "\n".join(lines) + "\n"


def image(blobs, x_nodes: np.ndarray, y_nodes: np.ndarray) -> np.ndarray:
    """Unmasked scene sampled at the nodes, shape (nx, ny)."""
    x = x_nodes[:, None]
    y = y_nodes[None, :]
    out = np.zeros((len(x_nodes), len(y_nodes)), dtype=np.complex128)
    for b in blobs:
        out += b.amplitude * np.exp(-((x - b.cx) ** 2 + (y - b.cy) ** 2) / (2.0 * b.sigma ** 2))
    return out


def projection(blobs, taus: np.ndarray, phis: np.ndarray) -> np.ndarray:
    """Closed-form line integrals of an unmasked scene, shape (n_tau, n_phi)."""
    c = np.cos(phis)[None, :]
    s = np.sin(phis)[None, :]
    t = taus[:, None]
    out = np.zeros((len(taus), len(phis)), dtype=np.complex128)
    for b in blobs:
        centre = c * b.cx + s * b.cy
        out += (b.amplitude * b.sigma * np.sqrt(2.0 * np.pi)
                * np.exp(-((t - centre) ** 2) / (2.0 * b.sigma ** 2)))
    return out


def profile(x3, centre: float, sigma: float) -> np.ndarray:
    """Third-axis profile of a separable volume."""
    return np.exp(-((np.asarray(x3, dtype=np.float64) - centre) ** 2) / (2.0 * sigma ** 2))
