"""Quadrant-masked scenes: path-dependent projections and defect extraction.

Two ways of turning the probe angles through one full revolution disagree on
indicator-masked scenes: stepping twice by a half turn annihilates every
term, while a single full turn reproduces the first-quadrant data.  The same
opposite-angle comparison digs a localized "defect" out of a centrally
symmetric background.
"""

import numpy as np

import uradon as ur

geom = ur.GridGeometry.centered(192, 192, 8.0, 8.0)
probe = ur.Probe(ur.TauGrid(0.2875, 0.175, 16), ur.AngularRange(0.0, np.pi / 2, 6))

scene = ur.CompositeScene((
    (ur.GaussianBlob(1.5, 1.5, 0.5, 1.0), ur.RegionMask.QUADRANT_I),
    (ur.GaussianBlob(-1.5, -1.5, 0.5, 1.0), ur.RegionMask.QUADRANT_III)))

report = ur.check_holonomy(scene, probe, geom)
for ev, label in ((report.full_turn, "single 2*pi step"),
                  (report.two_half_turns, "two pi steps")):
    print(f"{label}:")
    for rec in ev.records:
        print(f"  after shift {rec.cumulative_shift:5.3f}: survivors {rec.survivors}, "
              f"column sup {np.max(np.abs(rec.column)):.3e}")

print(f"\ndiscrepancy between protocols: {report.discrepancy_norm:.4f} "
      f"(threshold {report.threshold:.2e}) -> detected = {report.detected}")

control = ur.check_holonomy(ur.CompositeScene.of(ur.GaussianBlob(0.5, 0.4, 0.5, 1.0)),
                            probe, geom)
print(f"unmasked control discrepancy:  {control.discrepancy_norm:.2e} "
      f"-> detected = {control.detected}")

# --- defect extraction -------------------------------------------------------
background = [ur.GaussianBlob(1.0, 1.0, 0.5, 1.0), ur.GaussianBlob(-1.0, -1.0, 0.5, 1.0)]
terms = [(ur.GaussianBlob(1.5, 0.5, 0.4, 0.8), ur.RegionMask.QUADRANT_I)]
terms += [(b, ur.RegionMask.QUADRANT_I) for b in background]
terms += [(b, ur.RegionMask.QUADRANT_III) for b in background]
tilde = ur.CompositeScene(tuple(terms))

extracted = ur.extract_defect(tilde, probe, geom)
defect_terms, _ = ur.classify_defect_scene(tilde)
direct = ur.radon_transform(ur.rasterize(ur.CompositeScene(defect_terms), geom),
                            extracted.tau_grid, extracted.angles)
rel = ur.l2_norm(extracted.values - direct.values) / ur.l2_norm(direct.values)
print(f"\ndefect extraction: |extracted - direct| / |direct| = {rel:.2e}")

jump_scene = ur.CompositeScene(((ur.GaussianBlob(0.4, 0.4, 0.5, 1.0),
                                 ur.RegionMask.QUADRANT_I),))
tau_grid = ur.TauGrid.covering(geom, geom.dx)
sino = ur.radon_transform(ur.rasterize(jump_scene, geom), tau_grid, ur.AngularRange.full(8))
print(f"projection jump across tau = 0 for an origin-hugging masked blob: "
      f"{ur.boundary_jump(sino, 0.0):+.4f}")
