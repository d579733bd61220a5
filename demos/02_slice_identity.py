"""Both sides of the Fourier slice identity computed independently.

The 1D transform of a projection column (over the radial offset) must equal
the 2D transform of the image along the matching ray in frequency space.
The two quadratures share no code path, so their residual measures how well
the discrete projection respects the identity.
"""

import numpy as np

import uradon as ur

scene = ur.CompositeScene.of(ur.GaussianBlob(0.5, -0.3, 1.0, 1.0))
geom = ur.GridGeometry.centered(192, 192, 8.0, 8.0)
img = ur.rasterize(scene, geom)

tau_grid = ur.TauGrid.covering(geom, geom.dx)
sino = ur.radon_transform(img, tau_grid, ur.AngularRange.full(16))

lambdas = np.linspace(0.0, 6.0, 13)
reports = ur.fst_check(img, sino, lambdas=lambdas)

print("phi        max |lhs|   max |lhs-rhs|   rel residual")
for rep in reports[:8]:
    scale = rep.lhs_abs.max()
    print(f"{rep.phi:7.4f}   {scale:9.4f}   {rep.residuals.max():12.3e}   "
          f"{rep.max_rel_residual:10.3e}")

worst = max(r.max_rel_residual for r in reports)
print(f"\nworst relative residual over {len(reports)} angles: {worst:.3e}")
print("pass at 1e-3:", ur.fst_passed(reports, 1e-3))

print("\nat zero frequency, both sides equal the image mass:")
print("  lhs(0)  =", ur.fst_lhs(img, 0.0, [0.0])[0])
print("  rhs(0)  =", ur.fst_rhs(sino, 0.0, [0.0])[0])
print("  integral=", img.total_integral())
