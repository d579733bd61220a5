"""Batch command-line front end.

Subcommands wire the library into reproducible experiments: containers in,
containers plus CSV metrics out, one manifest (flags, version, output
checksums) per run.  Exit codes: 0 success, 1 failed check, 2 bad
arguments, 3 file or format errors (malformed, unreadable or unwritable).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import re
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .container import ContainerError, read_container, write_container
from .forward import radon_transform
from .grids import AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid, _finite
from .holonomy import (Probe, check_holonomy, classify_defect_scene,
                       extract_defect, UnsupportedSceneError)
from .hybrid import dual_k_grid, hybrid_forward, hybrid_radon, make_slices, reconstruct_volume
# epsilon_lambda_reconstruct is not called here, but perfbench/tracing.py patches this name
from .inversion import (Backend, RegParams, _invert_all, _rmse_over_peak,
                        epsilon_lambda_reconstruct, invert_universal, l2_norm,
                        reconstruction_metrics)
from .phantoms import (CompositeScene, SceneFormatError, SeparableScene3D, load_scene,
                       rasterize)
from .slice_theorem import fst_check, fst_passed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_FORMAT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _fields(text: str, name: str, *types) -> tuple:
    """Split 'a:b' (or 'a:b:n') into one value per type in ``types``."""
    parts = text.split(":")
    if len(parts) != len(types):
        form = ":".join("abn"[:len(types)])
        raise CliError(f"--{name} expects {form}, got '{text}'", EXIT_BAD_ARGS)
    try:
        return tuple(kind(part) for kind, part in zip(types, parts))
    except ValueError as exc:
        raise CliError(f"--{name}: {exc}", EXIT_BAD_ARGS) from exc


def _load_scene(path):
    try:
        return load_scene(path)
    except SceneFormatError as exc:
        raise CliError(f"bad scene file {path}: {exc}", EXIT_FORMAT) from exc


def _scene3d(args) -> tuple[SeparableScene3D, list[float]]:
    """The scene file as a 3D scene (unit x3 profile if it has none), and --x3's positions."""
    scene, profile3d = _load_scene(args.scene)
    start, step = _fields(args.x3, "x3", float, float)
    if profile3d is None:
        profile3d = SeparableScene3D(scene)
    return profile3d, [start + step * n for n in range(args.slices)]


def _read(path, expected_type):
    try:
        obj = read_container(path)
    except ContainerError as exc:
        raise CliError(f"bad container {path}: {exc}", EXIT_FORMAT) from exc
    if not isinstance(obj, expected_type):
        raise CliError(f"{path}: expected {expected_type.__name__}, "
                       f"found {type(obj).__name__}", EXIT_FORMAT)
    return obj


def _geometry(args) -> GridGeometry:
    ny = args.ny if args.ny is not None else args.nx
    extent_y = args.extent_y if args.extent_y is not None else args.extent
    return GridGeometry.centered(args.nx, ny, args.extent, extent_y)


def _emit(base: str, argv: list[str], outputs: dict) -> None:
    """Write each output, a grid container or a list of CSV rows, in order.

    Then hash them in the same order into ``base + ".manifest.json"`` (flags,
    version, sha256 per output).  Hashing after all writes keeps the order of
    allocations that peak-RSS measurements were taken with; order alone has
    moved them by megabytes.
    """
    for path, obj in outputs.items():
        if isinstance(obj, list):
            with open(path, "w", encoding="utf-8") as fh:
                fh.writelines(",".join(map(str, row)) + "\n" for row in obj)
        else:  # the module global, which perfbench/tracing.py patches
            write_container(path, obj)
    checksums = {}
    for path in outputs:
        with open(path, "rb") as fh:
            checksums[path] = hashlib.sha256(fh.read()).hexdigest()
    manifest = {"command": argv, "version": __version__, "outputs": checksums}
    with open(f"{base}.manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _restrict_angles(sino: Sinogram, window: tuple[float, float]) -> Sinogram:
    lo, hi = window
    phis = sino.angles.phis()
    # the phis increase, so the window selects one contiguous block
    keep = np.nonzero((phis >= lo - 1e-12) & (phis < hi - 1e-12))[0]
    if len(keep) == 0:
        raise CliError(f"no stored angles inside [{lo}, {hi})", EXIT_BAD_ARGS)
    d_phi = sino.angles.d_phi
    angles = AngularRange(float(phis[keep[0]]), float(phis[keep[0]] + len(keep) * d_phi), len(keep))
    return Sinogram(sino.tau_min, sino.d_tau, sino.n_tau, angles,
                    sino.values[:, keep[0]:keep[-1] + 1])


# --- subcommands -------------------------------------------------------------

def _cmd_phantom(args, argv) -> int:
    if (args.slices is None) != (args.x3 is None):
        raise CliError("--slices N and --x3 start:step go together", EXIT_BAD_ARGS)
    if args.slices is None:
        scene, _ = _load_scene(args.scene)
        grid = rasterize(scene, _geometry(args))
    else:
        profile3d, positions = _scene3d(args)
        grid = make_slices(profile3d, positions, _geometry(args))
    _emit(args.out, argv, {args.out: grid})
    return EXIT_OK


def _cmd_radon(args, argv) -> int:
    window = _fields(args.range, "range", float, float)
    img = _read(args.image, ImageGrid2D)
    d_tau = args.d_tau if args.d_tau is not None else img.geometry.dx
    if args.n_tau is not None:
        tau_grid = TauGrid.symmetric(d_tau, args.n_tau)
    else:
        tau_grid = TauGrid.covering(img.geometry, d_tau)
    angles = AngularRange(*window, args.n_phi)
    sino = radon_transform(img, tau_grid, angles, args.ray_step)
    _emit(args.out, argv, {args.out: sino})
    return EXIT_OK


def _cmd_fst_check(args, argv) -> int:
    _finite("tolerance", args.tolerance, positive=True)
    lambdas = None
    if args.lambdas is not None:
        lambdas = np.linspace(*_fields(args.lambdas, "lambdas", float, float, int))
    img = _read(args.image, ImageGrid2D)
    sino = _read(args.sinogram, Sinogram)
    try:
        reports = fst_check(img, sino, lambdas=lambdas)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_ARGS) from exc
    passed = fst_passed(reports, args.tolerance)
    rows = [("phi", "lambda", "abs_lhs", "abs_rhs", "rel_residual")]
    for rep in reports:
        for lam, la, ra, rel in zip(rep.lambda_values, rep.lhs_abs, rep.rhs_abs,
                                    rep.rel_residuals):
            rows.append((rep.phi, lam, la, ra, rel))
    if args.out:
        _emit(args.out, argv, {args.out: rows})
    worst = max(rep.max_rel_residual for rep in reports)
    print(f"fst-check: angles={len(reports)} max_rel_residual={worst:.3e} "
          f"tolerance={args.tolerance:.1e} -> {'pass' if passed else 'FAIL'}")
    if not args.out:
        for row in rows[:12]:
            print(",".join(str(c) for c in row))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _rel_diff(values: np.ndarray, reference: np.ndarray) -> float:
    """|values - reference| / |reference| in the l2 norm; 0 where the reference is all zero."""
    denom = l2_norm(reference)
    return l2_norm(values - reference) / denom if denom > 0 else 0.0


def _cmd_invert(args, argv) -> int:
    if args.epsilon is not None:   # the regulator of the epsilon-lambda path alone
        if not args.with_epsilon_lambda:
            raise CliError("--epsilon requires --with-epsilon-lambda", EXIT_BAD_ARGS)
        _finite("epsilon", args.epsilon, positive=True)
    if args.fa_step is not None:
        _finite("fa_step", args.fa_step, positive=True)
    window = _fields(args.range, "range", float, float) if args.range is not None else None
    sino = _read(args.sinogram, Sinogram)
    if window is not None:
        sino = _restrict_angles(sino, window)
    geometry = _geometry(args)
    params = RegParams.defaults(sino.d_tau, Backend(args.backend))
    if args.fa_step is not None:
        params = replace(params, fa_step=args.fa_step)
    if args.with_epsilon_lambda:   # both inverses in one pass
        (recon,), (alt,) = _invert_all([sino], geometry, params, (args.epsilon, None))
    else:
        recon = invert_universal(sino, geometry, params)
    reference = _read(args.reference, ImageGrid2D) if args.reference else None
    metrics = reconstruction_metrics(recon, reference)
    if args.with_epsilon_lambda:
        metrics["epsilon_lambda_rel_diff"] = _rel_diff(alt.values, recon.f_total.values)
    prefix = args.out_prefix
    _emit(prefix, argv, {f"{prefix}_fs.urdn": recon.f_s, f"{prefix}_fa.urdn": recon.f_a,
                         f"{prefix}_total.urdn": recon.f_total,
                         f"{prefix}_metrics.csv": [("metric", "value")] + sorted(metrics.items())})
    print(f"invert: backend={params.backend.value} angles={sino.angles.n_phi} "
          f"fa_fs_ratio={metrics['fa_fs_ratio']:.3e} flagged={metrics['flagged_pixels']}")
    if "rmse_over_peak" in metrics:
        print(f"invert: rmse/peak={metrics['rmse_over_peak']:.3e}")
    return EXIT_OK


def _probe_inputs(args) -> tuple[CompositeScene, Probe, GridGeometry]:
    """The scene, the probe and the output geometry of the flags _add_probe_flags adds."""
    scene, _ = _load_scene(args.scene)
    geometry = _geometry(args)
    t_lo, t_hi, t_n = _fields(args.tau, "tau", float, float, int)
    p_lo, p_hi, p_n = _fields(args.phi_window, "phi-window", float, float, int)
    if t_n < 1 or p_n < 1:
        raise CliError("probe needs at least one tau and one phi sample", EXIT_BAD_ARGS)
    d_tau = (t_hi - t_lo) / t_n
    taus = TauGrid(t_lo + d_tau / 2.0, d_tau, t_n)  # cell-centered inside (lo, hi]
    return scene, Probe(taus, AngularRange(p_lo, p_hi, p_n)), geometry


def _cmd_holonomy(args, argv) -> int:
    report = check_holonomy(*_probe_inputs(args))
    rows = [("metric", "value"),
            ("discrepancy_norm", report.discrepancy_norm),
            ("threshold", report.threshold),
            ("detected", int(report.detected)),
            ("full_turn_survivors", " ".join(map(str, report.full_turn.surviving_terms))),
            ("stepwise_survivors", " ".join(map(str, report.two_half_turns.surviving_terms)))]
    if args.out:
        _emit(args.out, argv, {args.out: rows})
    print(f"holonomy: discrepancy={report.discrepancy_norm:.6e} "
          f"threshold={report.threshold:.3e} detected={report.detected}")
    return EXIT_OK


def _cmd_defect(args, argv) -> int:
    scene, probe, geometry = _probe_inputs(args)
    try:
        defect_terms, _ = classify_defect_scene(scene)
        extracted = extract_defect(scene, probe, geometry)
    except UnsupportedSceneError as exc:
        raise CliError(f"unsupported defect scene: {exc}", EXIT_BAD_ARGS) from exc
    recon = invert_universal(extracted, geometry, RegParams.defaults(extracted.d_tau))
    metrics = [("metric", "value"), ("defect_norm", l2_norm(extracted.values))]
    if defect_terms:
        direct_img = rasterize(CompositeScene(defect_terms), geometry)
        direct = radon_transform(direct_img, extracted.tau_grid, extracted.angles)
        metrics.append(("direct_rel_diff", _rel_diff(extracted.values, direct.values)))
    prefix = args.out_prefix
    outputs = {f"{prefix}_defect.urdn": extracted, f"{prefix}_defect_recon.urdn": recon.f_total,
               f"{prefix}_metrics.csv": metrics}
    _emit(prefix, argv, outputs)
    print(f"defect: norm={l2_norm(extracted.values):.6e} outputs={len(outputs)}")
    return EXIT_OK


def _cmd_hybrid(args, argv) -> int:
    profile3d, positions = _scene3d(args)
    geometry = _geometry(args)
    d_tau = args.d_tau if args.d_tau is not None else geometry.dx
    tau_grid = TauGrid.covering(geometry, d_tau)
    angles = AngularRange.full(args.n_phi)
    stack = make_slices(profile3d, positions, geometry)
    ks, _ = dual_k_grid(positions)
    field = hybrid_forward(stack, ks)
    sinos = hybrid_radon(field, tau_grid, angles, args.ray_step)
    params = RegParams.defaults(d_tau, Backend(args.backend))
    result = reconstruct_volume(sinos, geometry, params, positions, ks)
    rows = [("k", "fa_norm", "fs_norm", "fa_ratio", "slice_rmse_over_peak")]
    print("hybrid: k, fa_norm/fs_norm, slice rmse/peak")
    for m, (k, ratio) in enumerate(zip(ks, result.fa_ratios().tolist())):
        _, rel = _rmse_over_peak(result.stack.slices[m].values, stack.slices[m].values)
        rows.append((k, result.fa_norms[m], result.fs_norms[m], ratio, rel))
        print(f"  {k:9.4f}  {ratio:10.3e}  {rel:10.3e}")
    prefix = args.out_prefix
    _emit(prefix, argv, {f"{prefix}_volume.urdn": result.stack, f"{prefix}_metrics.csv": rows})
    return EXIT_OK


# --- parser ------------------------------------------------------------------

# lets option values like "-3.5:1.0" pass as values instead of option names
_DASHED_VALUE = re.compile(r"^-(\d+\.?\d*|\.\d+)(:.*)?$")


def _allow_dashed_values(p: argparse.ArgumentParser) -> None:
    p._negative_number_matcher = _DASHED_VALUE


def _add_geometry_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nx", type=int, required=True, help="output grid samples in x")
    p.add_argument("--ny", type=int, default=None, help="samples in y (default: nx)")
    p.add_argument("--extent", type=float, required=True, help="physical width in x")
    p.add_argument("--extent-y", type=float, default=None, help="height (default: extent)")


def _add_probe_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scene", required=True)
    _add_geometry_flags(p)
    p.add_argument("--tau", default="0.2:3.0:16", help="probe radial window a:b:n")
    p.add_argument("--phi-window", default=f"0:{np.pi/2}:6", help="probe angles a:b:n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="uradon",
        description="Complex-valued Radon transforms: projection, slice checks, "
                    "two-term inversion, holonomy analysis, slice-stacked volumes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("phantom", help="rasterize a scene file to an image or volume")
    p.add_argument("--scene", required=True)
    _add_geometry_flags(p)
    p.add_argument("--slices", type=int, default=None, help="build a volume of N slices")
    p.add_argument("--x3", default=None, help="slice positions start:step")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_phantom)

    p = sub.add_parser("radon", help="forward-project an image container")
    p.add_argument("--image", required=True)
    p.add_argument("--d-tau", type=float, default=None, help="radial step (default: dx)")
    p.add_argument("--n-tau", type=int, default=None,
                   help="radial samples (default: cover the grid)")
    p.add_argument("--range", default="0:6.283185307179586", help="angular window a:b")
    p.add_argument("--n-phi", type=int, default=360)
    p.add_argument("--ray-step", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_radon)

    p = sub.add_parser("fst-check", help="compare both sides of the slice identity")
    p.add_argument("--image", required=True)
    p.add_argument("--sinogram", required=True)
    p.add_argument("--lambdas", default=None, help="radial frequencies a:b:n")
    p.add_argument("--tolerance", type=float, default=1e-3)
    p.add_argument("--out", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_fst_check)

    p = sub.add_parser("invert", help="two-term reconstruction from a sinogram")
    p.add_argument("--sinogram", required=True)
    _add_geometry_flags(p)
    p.add_argument("--backend", choices=[b.value for b in Backend],
                   default=Backend.RAMP_FILTER.value)
    p.add_argument("--fa-step", type=float, default=None, help="default d_tau")
    p.add_argument("--range", default=None,
                   help="restrict to stored angles inside a:b before inverting")
    p.add_argument("--reference", default=None, help="image container for RMSE")
    p.add_argument("--with-epsilon-lambda", action="store_true",
                   help="also run the closed-form-kernel path and report the difference")
    p.add_argument("--epsilon", type=float, default=None, help="its pole regulator, default 2*d_tau")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("holonomy", help="compare full-turn vs two-half-turn protocols")
    _add_probe_flags(p)
    p.add_argument("--out", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("defect", help="extract a hidden defect's projection")
    _add_probe_flags(p)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_defect)

    p = sub.add_parser("hybrid", help="slice, transform, project, invert, reassemble")
    p.add_argument("--scene", required=True)
    _add_geometry_flags(p)
    p.add_argument("--slices", type=int, required=True)
    p.add_argument("--x3", required=True, help="slice positions start:step")
    p.add_argument("--n-phi", type=int, default=180)
    p.add_argument("--d-tau", type=float, default=None)
    p.add_argument("--ray-step", type=float, default=None)
    p.add_argument("--backend", choices=[b.value for b in Backend],
                   default=Backend.RAMP_FILTER.value)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_hybrid)
    for p in sub.choices.values():
        _allow_dashed_values(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ContainerError, SceneFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
