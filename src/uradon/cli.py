"""Batch command-line front end.

Subcommands wire the library into reproducible experiments: containers in,
containers plus CSV metrics out, one manifest (flags, version, output
checksums) per run.  Exit codes: 0 success, 1 failed check, 2 bad
arguments, 3 file or format errors.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import re
import sys

import numpy as np

from . import __version__
from .container import ContainerError, read_container, write_container
from .forward import radon_transform
from .grids import AngularRange, GridGeometry, ImageGrid2D, Sinogram, TauGrid
from .holonomy import (Probe, check_holonomy, classify_defect_scene,
                       extract_defect, UnsupportedSceneError)
from .hybrid import dual_k_grid, hybrid_forward, hybrid_radon, make_slices, reconstruct_volume
from .inversion import (Backend, RegParams, epsilon_lambda_reconstruct, invert_universal,
                        l2_norm, reconstruction_metrics)
from .phantoms import SceneFormatError, load_scene, rasterize
from .slice_theorem import fst_check, fst_passed

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_ARGS = 2
EXIT_FORMAT = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _parse_pair(text: str, name: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise CliError(f"--{name} expects a:b, got '{text}'", EXIT_BAD_ARGS)
    try:
        return float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise CliError(f"--{name}: {exc}", EXIT_BAD_ARGS) from exc


def _parse_window(text: str, name: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise CliError(f"--{name} expects a:b:n, got '{text}'", EXIT_BAD_ARGS)
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise CliError(f"--{name}: {exc}", EXIT_BAD_ARGS) from exc


def _load_scene(path):
    try:
        return load_scene(path)
    except FileNotFoundError as exc:
        raise CliError(f"scene file not found: {path}", EXIT_FORMAT) from exc
    except SceneFormatError as exc:
        raise CliError(f"bad scene file {path}: {exc}", EXIT_FORMAT) from exc


def _read(path, expected_type):
    try:
        obj = read_container(path)
    except FileNotFoundError as exc:
        raise CliError(f"file not found: {path}", EXIT_FORMAT) from exc
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


def _write_csv(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def _write_manifest(base: str, argv: list[str], outputs: list[str]) -> str:
    checksums = {}
    for out in outputs:
        digest = hashlib.sha256()
        with open(out, "rb") as fh:
            digest.update(fh.read())
        checksums[out] = digest.hexdigest()
    manifest = {"command": argv, "version": __version__, "outputs": checksums}
    path = f"{base}.manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _restrict_angles(sino: Sinogram, window: tuple[float, float]) -> Sinogram:
    lo, hi = window
    phis = sino.angles.phis()
    keep = np.nonzero((phis >= lo - 1e-12) & (phis < hi - 1e-12))[0]
    if len(keep) == 0:
        raise CliError(f"no stored angles inside [{lo}, {hi})", EXIT_BAD_ARGS)
    if not np.array_equal(keep, np.arange(keep[0], keep[-1] + 1)):
        raise CliError("angle window must select a contiguous block", EXIT_BAD_ARGS)
    d_phi = sino.angles.d_phi
    angles = AngularRange(float(phis[keep[0]]), float(phis[keep[0]] + len(keep) * d_phi), len(keep))
    return Sinogram(sino.tau_min, sino.d_tau, sino.n_tau, angles, sino.values[:, keep])


# --- subcommands -------------------------------------------------------------

def _cmd_phantom(args, argv) -> int:
    scene, profile3d = _load_scene(args.scene)
    geometry = _geometry(args)
    if args.slices is not None:
        if args.x3 is None:
            raise CliError("--slices requires --x3 start:step", EXIT_BAD_ARGS)
        start, step = _parse_pair(args.x3, "x3")
        positions = [start + step * n for n in range(args.slices)]
        if profile3d is None:
            from .phantoms import SeparableScene3D
            profile3d = SeparableScene3D(scene)
        stack = make_slices(profile3d, positions, geometry)
        write_container(args.out, stack)
    else:
        write_container(args.out, rasterize(scene, geometry))
    _write_manifest(args.out, argv, [args.out])
    return EXIT_OK


def _cmd_radon(args, argv) -> int:
    img = _read(args.image, ImageGrid2D)
    d_tau = args.d_tau if args.d_tau is not None else img.geometry.dx
    if args.n_tau is not None:
        tau_grid = TauGrid.symmetric(d_tau, args.n_tau)
    else:
        tau_grid = TauGrid.covering(img.geometry, d_tau)
    lo, hi = _parse_pair(args.range, "range")
    angles = AngularRange(lo, hi, args.n_phi)
    sino = radon_transform(img, tau_grid, angles, args.ray_step)
    write_container(args.out, sino)
    _write_manifest(args.out, argv, [args.out])
    return EXIT_OK


def _cmd_fst_check(args, argv) -> int:
    img = _read(args.image, ImageGrid2D)
    sino = _read(args.sinogram, Sinogram)
    lambdas = None
    if args.lambdas is not None:
        lo, hi, n = _parse_window(args.lambdas, "lambdas")
        lambdas = np.linspace(lo, hi, n)
    try:
        reports = fst_check(img, sino, lambdas=lambdas, tolerance=args.tolerance)
    except ValueError as exc:
        raise CliError(str(exc), EXIT_BAD_ARGS) from exc
    passed = fst_passed(reports, args.tolerance)
    rows = [("phi", "lambda", "abs_lhs", "abs_rhs", "rel_residual")]
    for rep in reports:
        scale = max(float(rep.lhs_abs.max()), 1e-300)
        for lam, la, ra, res in zip(rep.lambda_values, rep.lhs_abs, rep.rhs_abs, rep.residuals):
            rows.append((rep.phi, lam, la, ra, res / scale))
    outputs = []
    if args.out:
        _write_csv(args.out, rows)
        outputs.append(args.out)
        _write_manifest(args.out, argv, outputs)
    worst = max(rep.max_rel_residual for rep in reports)
    print(f"fst-check: angles={len(reports)} max_rel_residual={worst:.3e} "
          f"tolerance={args.tolerance:.1e} -> {'pass' if passed else 'FAIL'}")
    if not args.out:
        for row in rows[:12]:
            print(",".join(str(c) for c in row))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _cmd_invert(args, argv) -> int:
    sino = _read(args.sinogram, Sinogram)
    if args.range is not None:
        sino = _restrict_angles(sino, _parse_pair(args.range, "range"))
    geometry = _geometry(args)
    params = RegParams(
        epsilon=args.epsilon if args.epsilon is not None else 2.0 * sino.d_tau,
        fa_step=args.fa_step if args.fa_step is not None else sino.d_tau,
        backend=Backend(args.backend))
    recon = invert_universal(sino, geometry, params)
    reference = _read(args.reference, ImageGrid2D) if args.reference else None
    metrics = reconstruction_metrics(recon, reference)
    if args.with_epsilon_lambda:
        alt = epsilon_lambda_reconstruct(sino, geometry, params.epsilon)
        denom = l2_norm(recon.f_total.values)
        metrics["epsilon_lambda_rel_diff"] = (
            l2_norm(alt.values - recon.f_total.values) / denom if denom > 0 else 0.0)
    prefix = args.out_prefix
    outputs = []
    for tag, grid in (("fs", recon.f_s), ("fa", recon.f_a), ("total", recon.f_total)):
        path = f"{prefix}_{tag}.urdn"
        write_container(path, grid)
        outputs.append(path)
    metrics_path = f"{prefix}_metrics.csv"
    _write_csv(metrics_path, [("metric", "value")] + sorted(metrics.items()))
    outputs.append(metrics_path)
    _write_manifest(prefix, argv, outputs)
    print(f"invert: backend={params.backend.value} angles={sino.angles.n_phi} "
          f"fa_fs_ratio={metrics['fa_fs_ratio']:.3e} flagged={metrics['flagged_pixels']}")
    if "rmse_over_peak" in metrics:
        print(f"invert: rmse/peak={metrics['rmse_over_peak']:.3e}")
    return EXIT_OK


def _probe_from_args(args) -> Probe:
    t_lo, t_hi, t_n = _parse_window(args.tau, "tau")
    p_lo, p_hi, p_n = _parse_window(args.phi_window, "phi-window")
    if t_n < 1 or p_n < 1:
        raise CliError("probe needs at least one tau and one phi sample", EXIT_BAD_ARGS)
    d_tau = (t_hi - t_lo) / t_n
    taus = TauGrid(t_lo + d_tau / 2.0, d_tau, t_n)  # cell-centered inside (lo, hi]
    return Probe(taus, AngularRange(p_lo, p_hi, p_n))


def _cmd_holonomy(args, argv) -> int:
    scene, _ = _load_scene(args.scene)
    geometry = _geometry(args)
    probe = _probe_from_args(args)
    report = check_holonomy(scene, probe, geometry)
    rows = [("metric", "value"),
            ("discrepancy_norm", report.discrepancy_norm),
            ("threshold", report.threshold),
            ("detected", int(report.detected)),
            ("full_turn_survivors", " ".join(map(str, report.full_turn.surviving_terms))),
            ("stepwise_survivors", " ".join(map(str, report.two_half_turns.surviving_terms)))]
    outputs = []
    if args.out:
        _write_csv(args.out, rows)
        outputs.append(args.out)
        _write_manifest(args.out, argv, outputs)
    print(f"holonomy: discrepancy={report.discrepancy_norm:.6e} "
          f"threshold={report.threshold:.3e} detected={report.detected}")
    return EXIT_OK


def _cmd_defect(args, argv) -> int:
    scene, _ = _load_scene(args.scene)
    geometry = _geometry(args)
    probe = _probe_from_args(args)
    try:
        defect_terms, _ = classify_defect_scene(scene)
        extracted = extract_defect(scene, probe, geometry)
    except UnsupportedSceneError as exc:
        raise CliError(f"unsupported defect scene: {exc}", EXIT_BAD_ARGS) from exc
    prefix = args.out_prefix
    outputs = []
    sino_path = f"{prefix}_defect.urdn"
    write_container(sino_path, extracted)
    outputs.append(sino_path)
    params = RegParams.defaults(extracted.d_tau)
    recon = invert_universal(extracted, geometry, params)
    recon_path = f"{prefix}_defect_recon.urdn"
    write_container(recon_path, recon.f_total)
    outputs.append(recon_path)
    metrics = [("metric", "value"), ("defect_norm", l2_norm(extracted.values))]
    if defect_terms:
        from .phantoms import CompositeScene
        direct_img = rasterize(CompositeScene(defect_terms), geometry)
        direct = radon_transform(direct_img, extracted.tau_grid, extracted.angles)
        denom = l2_norm(direct.values)
        rel = l2_norm(extracted.values - direct.values) / denom if denom > 0 else 0.0
        metrics.append(("direct_rel_diff", rel))
    metrics_path = f"{prefix}_metrics.csv"
    _write_csv(metrics_path, metrics)
    outputs.append(metrics_path)
    _write_manifest(prefix, argv, outputs)
    print(f"defect: norm={l2_norm(extracted.values):.6e} outputs={len(outputs)}")
    return EXIT_OK


def _cmd_hybrid(args, argv) -> int:
    scene, profile3d = _load_scene(args.scene)
    if profile3d is None:
        from .phantoms import SeparableScene3D
        profile3d = SeparableScene3D(scene)
    geometry = _geometry(args)
    start, step = _parse_pair(args.x3, "x3")
    positions = [start + step * n for n in range(args.slices)]
    stack = make_slices(profile3d, positions, geometry)
    ks, _ = dual_k_grid(positions)
    field = hybrid_forward(stack, ks)
    d_tau = args.d_tau if args.d_tau is not None else geometry.dx
    tau_grid = TauGrid.covering(geometry, d_tau)
    angles = AngularRange.full(args.n_phi)
    sinos = hybrid_radon(field, tau_grid, angles, args.ray_step)
    params = RegParams.defaults(d_tau, Backend(args.backend))
    result = reconstruct_volume(sinos, geometry, params, positions, ks)
    rows = [("k", "fa_norm", "fs_norm", "fa_ratio", "slice_rmse_over_peak")]
    print("hybrid: k, fa_norm/fs_norm, slice rmse/peak")
    for m, k in enumerate(ks):
        ref = stack.slices[m].values
        rec = result.stack.slices[m].values
        peak = float(np.max(np.abs(ref)))
        rmse = float(np.sqrt(np.mean(np.abs(rec - ref) ** 2)))
        ratio = result.fa_norms[m] / result.fs_norms[m] if result.fs_norms[m] > 0 else 0.0
        rows.append((k, result.fa_norms[m], result.fs_norms[m], ratio,
                     rmse / peak if peak > 0 else rmse))
        print(f"  {k:9.4f}  {ratio:10.3e}  {rmse / peak if peak > 0 else rmse:10.3e}")
    prefix = args.out_prefix
    outputs = []
    stack_path = f"{prefix}_volume.urdn"
    write_container(stack_path, result.stack)
    outputs.append(stack_path)
    metrics_path = f"{prefix}_metrics.csv"
    _write_csv(metrics_path, rows)
    outputs.append(metrics_path)
    _write_manifest(prefix, argv, outputs)
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


def build_parser() -> argparse.ArgumentParser:
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
    p.add_argument("--epsilon", type=float, default=None, help="default 2*d_tau")
    p.add_argument("--fa-step", type=float, default=None, help="default d_tau")
    p.add_argument("--range", default=None,
                   help="restrict to stored angles inside a:b before inverting")
    p.add_argument("--reference", default=None, help="image container for RMSE")
    p.add_argument("--with-epsilon-lambda", action="store_true",
                   help="also run the closed-form-kernel path and report the difference")
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("holonomy", help="compare full-turn vs two-half-turn protocols")
    p.add_argument("--scene", required=True)
    _add_geometry_flags(p)
    p.add_argument("--tau", default="0.2:3.0:16", help="probe radial window a:b:n")
    p.add_argument("--phi-window", default=f"0:{np.pi/2}:6", help="probe angles a:b:n")
    p.add_argument("--out", default=None, help="CSV report path")
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("defect", help="extract a hidden defect's projection")
    p.add_argument("--scene", required=True)
    _add_geometry_flags(p)
    p.add_argument("--tau", default="0.2:3.0:16")
    p.add_argument("--phi-window", default=f"0:{np.pi/2}:6")
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
    except (ContainerError, SceneFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_ARGS


if __name__ == "__main__":
    sys.exit(main())
