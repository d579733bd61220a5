"""Complex-valued parallel-beam Radon transforms and their regularized inversion."""

from .grids import (ANGULAR_MEASURE_NORM, AngularRange, GridGeometry, HybridField,
                    ImageGrid2D, Sinogram, TauGrid, VolumeStack, bilinear_sample)
from .container import (ContainerError, MagicMismatchError, MalformedHeaderError,
                        TruncatedPayloadError, read_container, write_container)
from .phantoms import (CompositeScene, GaussianBlob, RegionMask, SceneFormatError,
                       SeparableScene3D, UnsupportedOracleError, analytic_fourier,
                       analytic_radon, load_scene, rasterize, scene_from_text)
from .forward import default_ray_step, direction, radon_point, radon_transform
from .slice_theorem import FstReport, fst_check, fst_lhs, fst_passed, fst_rhs
from .inversion import (Backend, Reconstruction, RegParams, delta_plus,
                        epsilon_lambda_reconstruct, invert_universal, l2_norm,
                        lambda_kernel, reconstruction_metrics)
from .holonomy import (HolonomyReport, PathEvaluation, Probe, StepRecord,
                       UnsupportedSceneError, boundary_jump, check_holonomy,
                       classify_defect_scene, extract_defect, leak_tolerance)
from .hybrid import (dual_k_grid, hybrid_forward, hybrid_from_scene, hybrid_inverse_series,
                     hybrid_radon, make_slices, reconstruct_volume)

__version__ = "0.1.0"

__all__ = [
    "ANGULAR_MEASURE_NORM", "AngularRange", "Backend", "CompositeScene",
    "ContainerError", "FstReport", "GaussianBlob", "GridGeometry", "HolonomyReport",
    "HybridField", "ImageGrid2D", "MagicMismatchError", "MalformedHeaderError",
    "PathEvaluation", "Probe", "Reconstruction", "RegParams", "RegionMask",
    "SceneFormatError", "SeparableScene3D", "Sinogram", "StepRecord",
    "TauGrid", "TruncatedPayloadError", "UnsupportedOracleError",
    "UnsupportedSceneError", "VolumeStack", "analytic_fourier",
    "analytic_radon", "bilinear_sample", "boundary_jump", "check_holonomy",
    "classify_defect_scene", "default_ray_step", "delta_plus", "direction",
    "dual_k_grid", "epsilon_lambda_reconstruct", "extract_defect", "fst_check",
    "fst_lhs", "fst_passed", "fst_rhs", "hybrid_forward", "hybrid_from_scene",
    "hybrid_inverse_series", "hybrid_radon", "invert_universal", "l2_norm",
    "lambda_kernel", "leak_tolerance", "load_scene", "make_slices", "radon_point",
    "radon_transform", "rasterize", "read_container", "reconstruct_volume",
    "reconstruction_metrics", "scene_from_text", "write_container",
]
