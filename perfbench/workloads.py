"""The four benchmark workloads: seeded inputs, CLI invocations and oracle gates.

Each workload writes its inputs (scene files and containers) into the
current directory, lists the ``uradon`` invocations of one iteration, and
checks the files those invocations wrote against closed forms and the
acceptance tolerances of ``tests/test_acceptance.py``.  ``check`` returns
the workload's headline oracle error and the list of broken gates.
"""

from __future__ import annotations

import csv
import math

import numpy as np

import scenes
from uradon.container import write_container
from uradon.grids import AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid
from uradon.holonomy import leak_tolerance
from uradon.hybrid import dual_k_grid, hybrid_forward, hybrid_inverse_series
from uradon.phantoms import load_scene

HALF_PI = repr(math.pi / 2.0)
PI = repr(math.pi)


def read_metrics(path) -> dict[str, str]:
    """Two-column ``metric,value`` CSV written by the CLI."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return {row[0]: row[1] for row in rows[1:]}


def read_table(path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def rmse_over_peak(values: np.ndarray, reference: np.ndarray) -> float:
    rmse = float(np.sqrt(np.mean(np.abs(values - reference) ** 2)))
    return rmse / float(np.max(np.abs(reference)))


def rel_l2(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


class Gates:
    """Collects broken gates; NaN breaks every gate."""

    def __init__(self):
        self.broken: list[str] = []

    def at_most(self, name: str, value: float, limit: float) -> None:
        if not value <= limit:
            self.broken.append(f"{name} {value:.3e} > {limit:.1e}")

    def at_least(self, name: str, value: float, limit: float) -> None:
        if not value >= limit:
            self.broken.append(f"{name} {value:.3e} < {limit:.1e}")

    def true(self, name: str, ok: bool) -> None:
        if not ok:
            self.broken.append(f"{name} failed")


def _write_reference(path: str, geometry: GridGeometry, blobs) -> np.ndarray:
    values = scenes.image(blobs, geometry.x_nodes(), geometry.y_nodes())
    write_container(path, ImageGrid2D.from_geometry(geometry, values))
    return values


def _geometry_flags(n: int, extent: float) -> list[str]:
    return ["--nx", str(n), "--extent", repr(extent)]


class Roundtrip:
    """phantom, radon over 2 pi, ramp invert of one image.

    The batch user's main pipeline: the projector does most of the work, on
    one image channel with nothing to batch.
    """

    name = "roundtrip"
    N, EXTENT, N_PHI = 128, 8.0, 180
    # (cx, cy, sigma, |amplitude|, phase)
    LAYOUT = ((0.0, 0.0, 1.0, 1.0, 0.0), (1.3, 0.0, 0.7, 0.6, 1.0), (-0.6, 0.75, 0.8, 0.5, -2.0))
    OUTPUTS = ("img.urdn", "img.urdn.manifest.json", "sino.urdn", "sino.urdn.manifest.json",
               "rec_fs.urdn", "rec_fa.urdn", "rec_total.urdn", "rec_metrics.csv",
               "rec.manifest.json")

    def prepare(self, rng: np.random.Generator) -> None:
        self.blobs = scenes.jittered(rng, self.LAYOUT)
        with open("scene.txt", "w", encoding="utf-8") as fh:
            fh.write(scenes.scene_text(self.blobs))
        geometry = GridGeometry.centered(self.N, self.N, self.EXTENT, self.EXTENT)
        self.reference = _write_reference("ref.urdn", geometry, self.blobs)

    def steps(self) -> list[list[str]]:
        geo = _geometry_flags(self.N, self.EXTENT)
        return [["phantom", "--scene", "scene.txt", *geo, "--out", "img.urdn"],
                ["radon", "--image", "img.urdn", "--n-phi", str(self.N_PHI), "--out", "sino.urdn"],
                ["invert", "--sinogram", "sino.urdn", *geo, "--reference", "ref.urdn",
                 "--out-prefix", "rec"]]

    def check(self, out: dict) -> tuple[float, list[str]]:
        g = Gates()
        peak = float(np.max(np.abs(self.reference)))
        g.at_most("phantom vs closed form",
                  float(np.max(np.abs(out["img.urdn"].values - self.reference))) / peak, 1e-12)
        sino = out["sino.urdn"]
        oracle = scenes.projection(self.blobs, sino.taus(), sino.angles.phis())
        # acceptance criterion 2 allows 1e-3 of peak at spacing 0.05, second order in the spacing
        g.at_most("projection vs closed form",
                  float(np.max(np.abs(sino.values - oracle)) / np.max(np.abs(oracle))),
                  1e-3 * (self.EXTENT / self.N / 0.05) ** 2)
        err = rmse_over_peak(out["rec_total.urdn"].values, self.reference)
        g.at_most("rmse/peak", err, 3e-2)
        metrics = read_metrics("rec_metrics.csv")
        g.at_most("full-range fa/fs", float(metrics["fa_fs_ratio"]), 1e-3)
        g.at_most("reported rmse/peak mismatch",
                  abs(float(metrics["rmse_over_peak"]) - err) / err, 1e-9)
        return err, g.broken


class Reconstruct:
    """Three inversions of a closed-form sinogram (1685 tau x 360 angles).

    Ramp with the epsilon-lambda path, finite-part quadrature, and ramp over
    [0, pi).  Filters and backprojection only: the projector does no work
    here, so a projector change must leave this workload unmoved.  It has the
    largest working set (FFT padding) and reads a 9.7 MB container three
    times.
    """

    name = "reconstruct"
    N, EXTENT, D_TAU, N_PHI = 128, 12.0, 0.01, 360
    LAYOUT = ((1.0, -0.6, 1.5, 1.0, 0.0), (-0.8, 0.9, 1.2, 0.4, 1.5))
    OUTPUTS = tuple(f"{p}_{t}" for p in ("ramp", "fp", "half")
                    for t in ("fs.urdn", "fa.urdn", "total.urdn", "metrics.csv")) + tuple(
        f"{p}.manifest.json" for p in ("ramp", "fp", "half"))

    def prepare(self, rng: np.random.Generator) -> None:
        self.blobs = scenes.jittered(rng, self.LAYOUT)
        geometry = GridGeometry.centered(self.N, self.N, self.EXTENT, self.EXTENT)
        taus = TauGrid.covering(geometry, self.D_TAU)
        angles = AngularRange.full(self.N_PHI)
        values = scenes.projection(self.blobs, taus.taus(), angles.phis())
        write_container("sino.urdn", Sinogram(taus.tau_min, taus.d_tau, taus.n_tau, angles, values))
        self.reference = _write_reference("ref.urdn", geometry, self.blobs)

    def steps(self) -> list[list[str]]:
        geo = _geometry_flags(self.N, self.EXTENT)
        base = ["invert", "--sinogram", "sino.urdn", *geo]
        return [base + ["--reference", "ref.urdn", "--with-epsilon-lambda", "--out-prefix", "ramp"],
                base + ["--backend", "fp_quadrature", "--reference", "ref.urdn",
                        "--out-prefix", "fp"],
                base + ["--range", f"0:{PI}", "--out-prefix", "half"]]

    def check(self, out: dict) -> tuple[float, list[str]]:
        g = Gates()
        ramp = out["ramp_total.urdn"].values
        fp = out["fp_total.urdn"].values
        err = max(rmse_over_peak(ramp, self.reference), rmse_over_peak(fp, self.reference))
        g.at_most("worst full-range rmse/peak", err, 3e-2)
        g.at_most("ramp vs fp", rel_l2(ramp, fp), 1e-2)
        m_ramp = read_metrics("ramp_metrics.csv")
        g.at_most("epsilon-lambda vs ramp", float(m_ramp["epsilon_lambda_rel_diff"]), 2e-2)
        for tag, m in (("ramp", m_ramp), ("fp", read_metrics("fp_metrics.csv"))):
            g.at_most(f"{tag} full-range fa/fs", float(m["fa_fs_ratio"]), 1e-3)
        g.at_least("limited-angle fa/fs", float(read_metrics("half_metrics.csv")["fa_fs_ratio"]),
                   1e-2)
        return err, g.broken


class Volume:
    """One hybrid call on 8 slices.

    One projection and two backprojections per k field: the only workload
    where batching channels across fields can show.
    """

    name = "volume"
    N, EXTENT, SLICES, X3, N_PHI = 64, 10.0, 8, "-3.5:1.0", 90
    LAYOUT = ((0.4, -0.2, 1.0, 1.0, 0.0), (-0.6, 0.8, 0.8, 0.5, 1.2))
    OUTPUTS = ("hyb_volume.urdn", "hyb_metrics.csv", "hyb.manifest.json")

    def prepare(self, rng: np.random.Generator) -> None:
        self.blobs = scenes.jittered(rng, self.LAYOUT)
        self.profile = (float(rng.uniform(-0.05, 0.05)), float(1.5 * rng.uniform(0.98, 1.02)))
        with open("scene.txt", "w", encoding="utf-8") as fh:
            fh.write(scenes.scene_text(self.blobs, self.profile))
        geometry = GridGeometry.centered(self.N, self.N, self.EXTENT, self.EXTENT)
        self.base = scenes.image(self.blobs, geometry.x_nodes(), geometry.y_nodes())

    def steps(self) -> list[list[str]]:
        return [["hybrid", "--scene", "scene.txt", *_geometry_flags(self.N, self.EXTENT),
                 "--slices", str(self.SLICES), "--x3", self.X3, "--n-phi", str(self.N_PHI),
                 "--out-prefix", "hyb"]]

    def check(self, out: dict) -> tuple[float, list[str]]:
        g = Gates()
        volume = out["hyb_volume.urdn"]
        weights = scenes.profile(volume.x3_positions, *self.profile)
        err = max(rmse_over_peak(s.values, w * self.base) for s, w in zip(volume.slices, weights))
        g.at_most("worst slice rmse/peak", err, 5e-2)
        ks, _ = dual_k_grid(volume.x3_positions)
        back = hybrid_inverse_series(hybrid_forward(volume, ks), volume.x3_positions)
        g.at_most("series round trip", max(float(np.max(np.abs(a.values - b.values)))
                                           for a, b in zip(back.slices, volume.slices)), 1e-10)
        g.at_most("worst per-k fa/fs", max(float(r["fa_ratio"]) for r in read_table("hyb_metrics.csv")),
                  1e-3)
        return err, g.broken


class Probes:
    """The analysis features: fst-check, holonomy, defect extraction.

    The only workload that runs slice_theorem and holonomy; the projector
    evaluates short probe windows whose tau grids are not symmetric.
    """

    name = "probes"
    N, EXTENT, N_PHI, LAMBDAS = 256, 8.0, 16, "0:8:33"
    TAU, PHI = "0.2:3.0:32", f"0:{HALF_PI}:12"
    LAYOUT = Roundtrip.LAYOUT
    # first-quadrant halves of the three masked mirror pairs
    PAIRS = ((1.5, 1.5, 0.5, 1.0, 0.0), (0.8, 2.0, 0.4, 0.8, 0.7), (2.2, 0.6, 0.45, 0.9, -0.9))
    BACKGROUND = ((1.0, 1.0, 0.5, 1.0, 0.0),)
    DEFECT = ((1.6, 0.9, 0.3, 0.8, 0.5),)
    OUTPUTS = ("img.urdn", "img.urdn.manifest.json", "sino.urdn", "sino.urdn.manifest.json",
               "fst.csv", "fst.csv.manifest.json", "hol.csv", "hol.csv.manifest.json",
               "def_defect.urdn", "def_defect_recon.urdn", "def_metrics.csv", "def.manifest.json",
               "bg_defect.urdn", "bg_defect_recon.urdn", "bg_metrics.csv", "bg.manifest.json")

    def prepare(self, rng: np.random.Generator) -> None:
        self.blobs = scenes.jittered(rng, self.LAYOUT)
        with open("scene.txt", "w", encoding="utf-8") as fh:
            fh.write(scenes.scene_text(self.blobs))
        geometry = GridGeometry.centered(self.N, self.N, self.EXTENT, self.EXTENT)
        self.reference = scenes.image(self.blobs, geometry.x_nodes(), geometry.y_nodes())
        # masked scenes keep their quadrants, so only the jitter and the global phase vary
        pairs = scenes.jittered(rng, self.PAIRS, symmetric=False)
        with open("holonomy.txt", "w", encoding="utf-8") as fh:
            fh.write(scenes.scene_text(_masked_pairs(pairs)))
        background = scenes.jittered(rng, self.BACKGROUND, symmetric=False)
        defect = scenes.jittered(rng, self.DEFECT, symmetric=False)
        background_terms = [
            scenes.Blob(s * b.cx, s * b.cy, b.sigma, b.amplitude, mask)
            for b in background for s in (1.0, -1.0) for mask in ("quadrant1", "quadrant3")]
        defect_terms = [scenes.Blob(b.cx, b.cy, b.sigma, b.amplitude, "quadrant1") for b in defect]
        with open("defect.txt", "w", encoding="utf-8") as fh:
            fh.write(scenes.scene_text(defect_terms + background_terms))
        with open("background.txt", "w", encoding="utf-8") as fh:
            fh.write(scenes.scene_text(background_terms))
        self.leak = leak_tolerance(load_scene("background.txt")[0], geometry)

    def steps(self) -> list[list[str]]:
        geo = _geometry_flags(self.N, self.EXTENT)
        probe = ["--tau", self.TAU, "--phi-window", self.PHI]
        return [["phantom", "--scene", "scene.txt", *geo, "--out", "img.urdn"],
                ["radon", "--image", "img.urdn", "--n-phi", str(self.N_PHI), "--out", "sino.urdn"],
                ["fst-check", "--image", "img.urdn", "--sinogram", "sino.urdn",
                 "--lambdas", self.LAMBDAS, "--out", "fst.csv"],
                ["holonomy", "--scene", "holonomy.txt", *geo, *probe, "--out", "hol.csv"],
                ["defect", "--scene", "defect.txt", *geo, *probe, "--out-prefix", "def"],
                ["defect", "--scene", "background.txt", *geo, *probe, "--out-prefix", "bg"]]

    def check(self, out: dict) -> tuple[float, list[str]]:
        g = Gates()
        peak = float(np.max(np.abs(self.reference)))
        g.at_most("phantom vs closed form",
                  float(np.max(np.abs(out["img.urdn"].values - self.reference))) / peak, 1e-12)
        err = max(float(r["rel_residual"]) for r in read_table("fst.csv"))
        g.at_most("fst max rel residual", err, 1e-3)
        hol = read_metrics("hol.csv")
        g.true("holonomy detected", hol["detected"] == "1")
        g.at_least("holonomy discrepancy / threshold",
                   float(hol["discrepancy_norm"]) / float(hol["threshold"]), 10.0)
        g.true("two half turns leave no survivor", hol["stepwise_survivors"] == "")
        g.at_most("defect vs direct projection",
                  float(read_metrics("def_metrics.csv")["direct_rel_diff"]), 1e-3)
        g.at_most("background-only defect norm / leak tolerance",
                  float(read_metrics("bg_metrics.csv")["defect_norm"]) / self.leak, 1.0)
        return err, g.broken


def _masked_pairs(blobs) -> list:
    out = []
    for b in blobs:
        out.append(scenes.Blob(b.cx, b.cy, b.sigma, b.amplitude, "quadrant1"))
        out.append(scenes.Blob(-b.cx, -b.cy, b.sigma, b.amplitude, "quadrant3"))
    return out


WORKLOADS = {w.name: w for w in (Roundtrip, Reconstruct, Volume, Probes)}
