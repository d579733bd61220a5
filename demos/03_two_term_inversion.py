"""Two-term reconstruction from a full-range sinogram.

The inverse splits into a principal-value part and a boundary part carrying
the imaginary measure.  Over a full angular range the boundary part cancels
between opposite angles, so the principal-value part alone recovers the
image; the script verifies both facts and cross-validates the three
reconstruction paths.
"""

import uradon as ur

scene = ur.CompositeScene.of(ur.GaussianBlob(0.6, 0.4, 1.0, 1.0))
geom = ur.GridGeometry.centered(160, 160, 8.0, 8.0)
img = ur.rasterize(scene, geom)

tau_grid = ur.TauGrid.covering(geom, geom.dx)
sino = ur.radon_transform(img, tau_grid, ur.AngularRange.full(240))
params = ur.RegParams.defaults(sino.d_tau)

recon = ur.invert_universal(sino, geom, params)
metrics = ur.reconstruction_metrics(recon, img)
print("full-range reconstruction (ramp kernel backend):")
print(f"  rmse / peak          = {metrics['rmse_over_peak']:.3e}")
print(f"  |f_a| / |f_s|        = {metrics['fa_fs_ratio']:.3e}   (cancellation)")
print(f"  value at the center  = {ur.bilinear_sample(recon.f_total, 0.6, 0.4):.6f}")
print(f"  flagged pixels       = {metrics['flagged_pixels']}")

fp = ur.invert_universal(sino, geom,
                         ur.RegParams.defaults(sino.d_tau, ur.Backend.FP_QUADRATURE))
alt = ur.epsilon_lambda_reconstruct(sino, geom)

def rel(a, b):
    return ur.l2_norm(a - b) / ur.l2_norm(b)

print("\ncross-validation of the three paths:")
print(f"  finite-part vs ramp  = {rel(fp.f_total.values, recon.f_total.values):.3e}")
print(f"  closed-form-kernel vs ramp = {rel(alt.values, recon.f_total.values):.3e}")

eps = 2.0 * sino.d_tau   # epsilon_lambda_reconstruct's default regulator
print("\nregularized pole samples 1/(eta - i eps), eps = {:.3f}:".format(eps))
for eta in (0.0, eps, 5 * eps):
    print(f"  eta = {eta:6.3f}: {ur.delta_plus(eta, eps):+.4f}")
