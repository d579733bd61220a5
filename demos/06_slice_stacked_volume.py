"""A 3D object as stacked slices, reconstructed through momentum space.

Slicing a volume along the third axis and Fourier-summing over the slice
index produces complex 2D fields indexed by a momentum k.  Each field runs
through the ordinary 2D projection/inversion machinery (k is a spectator);
the inverse Fourier sum on the dual k grid then reassembles the volume
exactly, so the only error left is the per-field 2D reconstruction error.
The complex fields are also the natural habitat of the boundary term: their
projections are genuinely complex even though the volume is real.
"""

import numpy as np

import uradon as ur

# off-center profile: the slice stack is not symmetric in x3, so every
# nonzero-k field is genuinely complex
base = ur.CompositeScene.of(ur.GaussianBlob(0.4, -0.2, 1.0, 1.0))
scene3 = ur.SeparableScene3D(base, x3_center=0.7, x3_sigma=1.5)
geom = ur.GridGeometry.centered(96, 96, 10.0, 10.0)
positions = [-3.5 + 1.0 * n for n in range(8)]

stack = ur.make_slices(scene3, positions, geom)
ks, spacing = ur.dual_k_grid(positions)
field = ur.hybrid_forward(stack, ks)

print("slice stack -> momentum fields (series sum), dual grid k_m = 2 pi m / (N d):")
for k, f in zip(field.k_values, field.fields):
    im_share = ur.l2_norm(f.values.imag) / max(ur.l2_norm(f.values), 1e-300)
    print(f"  k = {k:6.3f}   field imaginary share {im_share:.3f}")

back = ur.hybrid_inverse_series(field, positions)
roundtrip = max(np.max(np.abs(a.values - b.values)) for a, b in zip(back.slices, stack.slices))
print(f"\nseries roundtrip error (no projection involved): {roundtrip:.2e}")

tau_grid = ur.TauGrid.covering(geom, geom.dx)
sinos = ur.hybrid_radon(field, tau_grid, ur.AngularRange.full(120))
volume, recons = ur.reconstruct_volume(sinos, geom, ur.RegParams.defaults(tau_grid.d_tau),
                                        positions)

print("\nend-to-end reconstruction, per slice:")
for x3, ref, rec in zip(positions, stack.slices, volume.slices):
    peak = np.max(np.abs(ref.values))
    rmse = np.sqrt(np.mean(np.abs(rec.values - ref.values) ** 2))
    print(f"  x3 = {x3:+5.2f}   slice peak {peak:5.3f}   rmse/peak {rmse / peak:.3e}")

worst = max(ur.reconstruction_metrics(r)["fa_fs_ratio"] for r in recons)
print(f"\nworst per-k boundary/principal ratio: {worst:.2e} "
      f"(full range: the boundary term cancels for every k)")
