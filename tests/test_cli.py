import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import uradon as ur
import uradon.cli as cli
import uradon.inversion as inv
from uradon.cli import build_parser, main
from uradon.grids import _fold_plan
from conftest import correlate, term_columns
from test_inversion import direct_backproject

SCENE = "cx=0.0 cy=0.0 sigma=1.0 amp_re=1.0 amp_im=0.0 mask=none\n"

DEFECT_SCENE = """
cx=1.5 cy=0.5 sigma=0.4 amp_re=0.8 amp_im=0.0 mask=quadrant1
cx=1.0 cy=1.0 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant1
cx=-1.0 cy=-1.0 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant1
cx=1.0 cy=1.0 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant3
cx=-1.0 cy=-1.0 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant3
"""


@pytest.fixture
def scene_file(tmp_path):
    path = tmp_path / "g.scene"
    path.write_text(SCENE)
    return str(path)


@pytest.fixture
def image_file(tmp_path, scene_file):
    out = str(tmp_path / "img.urdn")
    assert main(["phantom", "--scene", scene_file, "--nx", "96", "--ny", "96",
                 "--extent", "8", "--out", out]) == 0
    return out


@pytest.fixture
def sino_file(tmp_path, image_file):
    out = str(tmp_path / "sino.urdn")
    assert main(["radon", "--image", image_file, "--n-phi", "24", "--out", out]) == 0
    return out


class TestPhantom:
    def test_writes_image_and_manifest(self, tmp_path, scene_file):
        out = tmp_path / "img.urdn"
        assert main(["phantom", "--scene", scene_file, "--nx", "32", "--ny", "32",
                     "--extent", "8", "--out", str(out)]) == 0
        img = ur.read_container(out)
        assert isinstance(img, ur.ImageGrid2D) and img.geometry.nx == 32
        manifest = json.loads((tmp_path / "img.urdn.manifest.json").read_text())
        assert str(out) in manifest["outputs"]

    def test_non_finite_sigma_is_format_error(self, tmp_path, capsys):
        # a bad value in a scene file is a file error (3), like sigma=-1 or cx=a
        scene = tmp_path / "nan.scene"
        scene.write_text("cx=0 cy=0 sigma=nan\n")
        assert main(["phantom", "--scene", str(scene), "--nx", "16", "--extent", "4",
                     "--out", str(tmp_path / "x.urdn")]) == 3
        assert "sigma" in capsys.readouterr().err

    def test_non_finite_profile_is_format_error(self, tmp_path, capsys):
        # the profile line is a scene-file value too: exit 3, like a bad blob line
        scene = tmp_path / "nan_profile.scene"
        scene.write_text(SCENE + "profile center=0 sigma=nan\n")
        assert main(["phantom", "--scene", str(scene), "--nx", "16", "--extent", "4",
                     "--out", str(tmp_path / "x.urdn")]) == 3
        err = capsys.readouterr().err
        assert "line 2" in err and "x3_sigma" in err

    @pytest.mark.parametrize("text, line", [(SCENE.replace("amp_im", "amp_imag"), 1),
                                            ("profile sigma=2\n" + SCENE + "profile sigma=3\n", 3)])
    def test_unknown_key_or_second_profile_is_format_error(self, tmp_path, capsys, text, line):
        scene = tmp_path / "bad.scene"
        scene.write_text(text)
        assert main(["phantom", "--scene", str(scene), "--nx", "16", "--extent", "4",
                     "--out", str(tmp_path / "x.urdn")]) == 3
        assert f"line {line}:" in capsys.readouterr().err
        assert not (tmp_path / "x.urdn").exists()

    def test_missing_scene_is_format_error(self, tmp_path):
        assert main(["phantom", "--scene", str(tmp_path / "nope.scene"), "--nx", "16",
                     "--extent", "4", "--out", str(tmp_path / "x.urdn")]) == 3

    @pytest.mark.parametrize("flags, zero", [(["--extent", "1e308"], [True]),
                                             (["--extent", "8", "--slices", "2",
                                               "--x3", "0:1e308"], [False, True])])
    def test_squares_that_overflow_give_zero_without_warnings(self, tmp_path, scene_file, capsys,
                                                              flags, zero):
        # every node (or slice) 1e306 or more from the blob: its overflowed square is exp's 0
        out = tmp_path / "far.urdn"
        assert main(["phantom", "--scene", scene_file, "--nx", "16", *flags,
                     "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        written = ur.read_container(out)
        slices = written.slices if isinstance(written, ur.VolumeStack) else [written]
        assert [not np.any(s.values) for s in slices] == zero

    def test_volume_mode(self, tmp_path, scene_file):
        out = tmp_path / "vol.urdn"
        assert main(["phantom", "--scene", scene_file, "--nx", "16", "--extent", "6",
                     "--slices", "4", "--x3", "-1.5:1.0", "--out", str(out)]) == 0
        stack = ur.read_container(out)
        assert isinstance(stack, ur.VolumeStack)
        assert stack.x3_positions == (-1.5, -0.5, 0.5, 1.5)


MASKED_SCENE = ("cx=1.5 cy=1.5 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant1\n"
                "cx=-1.5 cy=-1.5 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant3\n")
PROBE = ["--tau", "0.2:3.0:8", "--phi-window", f"0:{np.pi/2}:4"]

# (argv with {scene}/{image}/{sino}/{masked}/{defect} inputs, files written, manifest)
RUNS = {
    "phantom": (["phantom", "--scene", "{scene}", "--nx", "24", "--extent", "6", "--out", "i.urdn"],
                ["i.urdn"], "i.urdn.manifest.json"),
    "phantom-volume": (["phantom", "--scene", "{scene}", "--nx", "16", "--extent", "6",
                        "--slices", "3", "--x3", "-1:1", "--out", "v.urdn"],
                       ["v.urdn"], "v.urdn.manifest.json"),
    "radon": (["radon", "--image", "{image}", "--n-tau", "61", "--n-phi", "12", "--out", "s.urdn"],
              ["s.urdn"], "s.urdn.manifest.json"),
    "fst-check": (["fst-check", "--image", "{image}", "--sinogram", "{sino}",
                   "--lambdas", "0:6:13", "--out", "f.csv"], ["f.csv"], "f.csv.manifest.json"),
    "invert": (["invert", "--sinogram", "{sino}", "--nx", "96", "--extent", "8",
                "--reference", "{image}", "--out-prefix", "r"],
               ["r_fs.urdn", "r_fa.urdn", "r_total.urdn", "r_metrics.csv"], "r.manifest.json"),
    "invert-epsilon-lambda": (["invert", "--sinogram", "{sino}", "--nx", "32", "--extent", "8",
                               "--with-epsilon-lambda", "--epsilon", "0.5", "--out-prefix", "e"],
                              ["e_fs.urdn", "e_fa.urdn", "e_total.urdn", "e_metrics.csv"],
                              "e.manifest.json"),
    "holonomy": (["holonomy", "--scene", "{masked}", "--nx", "48", "--extent", "8", *PROBE,
                  "--out", "h.csv"], ["h.csv"], "h.csv.manifest.json"),
    "defect": (["defect", "--scene", "{defect}", "--nx", "48", "--extent", "8", *PROBE,
                "--out-prefix", "d"],
               ["d_defect.urdn", "d_defect_recon.urdn", "d_metrics.csv"], "d.manifest.json"),
    "hybrid": (["hybrid", "--scene", "{scene}", "--nx", "16", "--extent", "8", "--slices", "2",
                "--x3", "-0.5:1.0", "--n-phi", "8", "--out-prefix", "y"],
               ["y_volume.urdn", "y_metrics.csv"], "y.manifest.json"),
}


@pytest.fixture
def run_inputs(tmp_path, scene_file, image_file, sino_file):
    (tmp_path / "m.scene").write_text(MASKED_SCENE)
    (tmp_path / "d.scene").write_text(DEFECT_SCENE)
    return dict(scene=scene_file, image=image_file, sino=sino_file,
                masked=str(tmp_path / "m.scene"), defect=str(tmp_path / "d.scene"))


class TestOutputs:
    @pytest.mark.parametrize("command", list(RUNS))
    def test_manifest_lists_every_output_and_reruns_bit_identical(
            self, tmp_path, monkeypatch, run_inputs, command):
        template, written, manifest_name = RUNS[command]
        argv = [arg.format(**run_inputs) for arg in template]
        runs = []
        for run in ("first", "second"):
            (tmp_path / run).mkdir()
            monkeypatch.chdir(tmp_path / run)
            assert main(argv) == 0
            files = {p.name: p.read_bytes() for p in Path().iterdir()}
            assert sorted(files) == sorted(written + [manifest_name])
            manifest = json.loads(files[manifest_name])
            assert manifest["command"] == argv and manifest["version"] == ur.__version__
            assert manifest["outputs"] == {name: hashlib.sha256(files[name]).hexdigest()
                                           for name in written}
            runs.append(files)
        assert runs[0] == runs[1]

    def test_unwritable_output_is_file_error(self, tmp_path, scene_file, capsys):
        out = tmp_path / "missing" / "x.urdn"
        assert main(["phantom", "--scene", scene_file, "--nx", "16", "--extent", "4",
                     "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(out) in err and len(err.splitlines()) == 1

    def test_directory_as_input_is_file_error(self, tmp_path, capsys):
        assert main(["radon", "--image", str(tmp_path), "--n-phi", "8",
                     "--out", str(tmp_path / "s.urdn")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(tmp_path) in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("command, extra, words", [
        ("radon", ["--range", "1"], ["expects", "--range"]),
        ("holonomy", ["--tau", "0.2:3.0"], ["expects", "--tau"]),
        ("holonomy", ["--tau", "0.2:3.0:0"], ["at least one tau"]),
        ("invert", ["--epsilon", "0.5"], ["--epsilon", "--with-epsilon-lambda"]),
        ("phantom", ["--x3", "0:1"], ["--slices", "--x3"]),
        ("phantom", ["--slices", "2"], ["--slices", "--x3"]),
    ], ids=["range fields", "tau fields", "no tau samples", "epsilon alone", "x3 alone",
            "slices alone"])
    def test_refused_flags_are_bad_arguments(self, tmp_path, monkeypatch, run_inputs, capsys,
                                             command, extra, words):
        (tmp_path / "out").mkdir()
        monkeypatch.chdir(tmp_path / "out")
        argv = [arg.format(**run_inputs) for arg in RUNS[command][0]]
        assert main(argv + extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert all(word in err for word in words)
        assert not any(Path().iterdir())   # refused before anything was written

    @pytest.mark.parametrize("argv, word", [
        (["fst-check", "--image", "missing.urdn", "--sinogram", "missing.urdn",
          "--lambdas", "0:6"], "--lambdas"),
        (["invert", "--sinogram", "missing.urdn", "--nx", "16", "--extent", "8",
          "--range", "0:x", "--out-prefix", "x"], "--range"),
        (["radon", "--image", "missing.urdn", "--range", "0:x", "--out", "s.urdn"], "--range"),
        (["radon", "--image", "missing.urdn", "--d-tau", "0", "--out", "s.urdn"], "d_tau"),
        (["radon", "--image", "missing.urdn", "--n-phi", "0", "--out", "s.urdn"], "n_phi"),
        (["radon", "--image", "missing.urdn", "--n-tau", "0", "--out", "s.urdn"], "n_tau"),
        (["radon", "--image", "missing.urdn", "--ray-step", "nan", "--out", "s.urdn"], "ray_step"),
        (["invert", "--sinogram", "missing.urdn", "--nx", "0", "--extent", "8",
          "--out-prefix", "x"], "nx"),
        (["invert", "--sinogram", "missing.urdn", "--nx", "16", "--extent", "nan",
          "--out-prefix", "x"], "extent"),
        (["phantom", "--scene", "missing.scene", "--nx", "0", "--extent", "8",
          "--out", "i.urdn"], "nx"),
        (["phantom", "--scene", "missing.scene", "--nx", "16", "--extent", "8",
          "--slices", "0", "--x3", "0:1", "--out", "v.urdn"], "slices"),
        (["holonomy", "--scene", "missing.scene", "--nx", "16", "--extent", "nan"], "extent"),
        (["hybrid", "--scene", "missing.scene", "--nx", "16", "--extent", "8", "--slices", "2",
          "--x3", "0:1", "--n-phi", "0", "--out-prefix", "y"], "n_phi"),
        (["hybrid", "--scene", "missing.scene", "--nx", "16", "--extent", "8", "--slices", "2",
          "--x3", "nan:1", "--out-prefix", "y"], "x3"),
        (["phantom", "--scene", "missing.scene", "--nx", "16", "--extent", "8",
          "--slices", "2", "--x3", "1:0", "--out", "v.urdn"], "x3 step"),
        (["hybrid", "--scene", "missing.scene", "--nx", "16", "--extent", "8", "--slices", "2",
          "--x3", "0:1", "--ray-step", "-1", "--out-prefix", "y"], "ray_step"),
        (["fst-check", "--image", "missing.urdn", "--sinogram", "missing.urdn",
          "--lambdas=-1:2:3"], "nonnegative"),
        (["fst-check", "--image", "missing.urdn", "--sinogram", "missing.urdn",
          "--lambdas", "0:nan:3"], "finite"),
        (["fst-check", "--image", "missing.urdn", "--sinogram", "missing.urdn",
          "--lambdas", "0:inf:3"], "finite"),
        (["fst-check", "--image", "missing.urdn", "--sinogram", "missing.urdn",
          "--lambdas", "6:0:13"], "increasing"),
        (["invert", "--sinogram", "missing.urdn", "--nx", "16", "--extent", "8",
          "--range", "nan:1", "--out-prefix", "x"], "range start"),
        (["invert", "--sinogram", "missing.urdn", "--nx", "16", "--extent", "8",
          "--range", "0:inf", "--out-prefix", "x"], "range end"),
        (["invert", "--sinogram", "missing.urdn", "--nx", "16", "--extent", "8",
          "--range", "1:0", "--out-prefix", "x"], "--range"),
    ], ids=["fst-check lambdas", "invert range", "radon range", "radon d-tau", "radon n-phi",
            "radon n-tau", "radon ray-step", "invert nx", "invert extent", "phantom nx",
            "phantom slices", "holonomy extent", "hybrid n-phi", "hybrid x3", "phantom x3 step",
            "hybrid ray-step", "fst-check negative lambdas", "fst-check nan lambdas",
            "fst-check inf lambdas", "fst-check decreasing lambdas", "invert nan range",
            "invert infinite range", "invert reversed range"])
    def test_bad_values_are_refused_before_reading(self, tmp_path, monkeypatch, capsys,
                                                   argv, word):
        # a missing input would be a file error (3): every window and number is checked first
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and word in err and len(err.splitlines()) == 1
        assert not any(Path().iterdir())


class TestFstCheck:
    def test_matching_pair_passes(self, image_file, sino_file, tmp_path):
        report = tmp_path / "fst.csv"
        code = main(["fst-check", "--image", image_file, "--sinogram", sino_file,
                     "--lambdas", "0:6:13", "--out", str(report)])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "phi,lambda,abs_lhs,abs_rhs,rel_residual"
        assert len(lines) == 1 + 24 * 13

    def test_mismatched_pair_fails(self, tmp_path, image_file, sino_file):
        other_scene = tmp_path / "o.scene"
        other_scene.write_text("cx=1.5 cy=0.5 sigma=0.6 amp_re=1.0 amp_im=0.0 mask=none\n")
        other_img = str(tmp_path / "other.urdn")
        assert main(["phantom", "--scene", str(other_scene), "--nx", "96", "--ny", "96",
                     "--extent", "8", "--out", other_img]) == 0
        assert main(["fst-check", "--image", other_img, "--sinogram", sino_file,
                     "--lambdas", "0:6:13"]) == 1

    @pytest.mark.parametrize("tolerance", ["nan", "-1", "0", "inf"])
    def test_tolerance_must_be_finite_and_positive(self, image_file, sino_file, capsys,
                                                   tolerance):
        assert main(["fst-check", "--image", image_file, "--sinogram", sino_file,
                     "--lambdas", "0:6:13", "--tolerance", tolerance]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "tolerance" in err and len(err.splitlines()) == 1

    def test_bad_tolerance_is_refused_before_reading(self, tmp_path, image_file, capsys):
        # a missing sinogram would be a file error (3): the number is checked first
        assert main(["fst-check", "--image", image_file,
                     "--sinogram", str(tmp_path / "missing.urdn"), "--tolerance", "nan"]) == 2
        assert "tolerance" in capsys.readouterr().err

    def test_wrong_magic_is_format_error(self, tmp_path, image_file, sino_file):
        bad = tmp_path / "bad.urdn"
        bad.write_bytes(Path(sino_file).read_bytes().replace(b"URDN1", b"XXXXX", 1))
        assert main(["fst-check", "--image", image_file, "--sinogram", str(bad)]) == 3


class TestRadon:
    def test_non_finite_header_field_is_format_error(self, tmp_path, image_file, capsys):
        # json reads NaN as a float; the geometry refuses it, and that is a file error (3)
        header, payload = Path(image_file).read_bytes().split(b"\n", 1)
        head = json.loads(header)
        head["dx"] = float("nan")
        bad = tmp_path / "nan_dx.urdn"
        bad.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        assert main(["radon", "--image", str(bad), "--n-phi", "8",
                     "--out", str(tmp_path / "s.urdn")]) == 3
        assert "dx" in capsys.readouterr().err

    def test_non_finite_payload_is_format_error(self, tmp_path, image_file, capsys):
        raw = bytearray(Path(image_file).read_bytes())
        # the payload ends with the last sample as a (re, im) float64 pair
        raw[-16:-8] = np.float64(np.nan).tobytes()
        bad = tmp_path / "nan_sample.urdn"
        bad.write_bytes(bytes(raw))
        assert main(["radon", "--image", str(bad), "--n-phi", "8",
                     "--out", str(tmp_path / "s.urdn")]) == 3
        assert "finite" in capsys.readouterr().err


    @pytest.mark.parametrize("extra", [["--d-tau", "0"], ["--d-tau", "-1"], ["--d-tau", "nan"],
                                       ["--d-tau", "inf"], ["--n-tau", "5", "--d-tau", "nan"]],
                             ids=["zero", "negative", "nan", "inf", "nan with n-tau"])
    def test_bad_d_tau_is_bad_argument(self, tmp_path, image_file, capsys, extra):
        assert main(["radon", "--image", image_file, "--n-phi", "8", *extra,
                     "--out", str(tmp_path / "s.urdn")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d_tau" in err and len(err.splitlines()) == 1


class TestInvert:
    def test_full_range_metrics(self, tmp_path, image_file, sino_file):
        prefix = str(tmp_path / "rec")
        code = main(["invert", "--sinogram", sino_file, "--nx", "96", "--ny", "96",
                     "--extent", "8", "--reference", image_file,
                     "--out-prefix", prefix])
        assert code == 0
        metrics = dict(line.split(",") for line
                       in (tmp_path / "rec_metrics.csv").read_text().splitlines()[1:])
        assert float(metrics["fa_fs_ratio"]) <= 1e-3
        assert float(metrics["rmse_over_peak"]) <= 0.03
        total = ur.read_container(f"{prefix}_total.urdn")
        assert isinstance(total, ur.ImageGrid2D)

    def test_explicit_full_range_cancels_boundary_term(self, tmp_path, sino_file):
        prefix = str(tmp_path / "full")
        code = main(["invert", "--sinogram", sino_file, "--nx", "48", "--ny", "48",
                     "--extent", "8", "--backend", "ramp_filter",
                     "--range", "0:6.2831853", "--out-prefix", prefix])
        assert code == 0
        metrics = dict(line.split(",") for line
                       in (tmp_path / "full_metrics.csv").read_text().splitlines()[1:])
        assert float(metrics["fa_fs_ratio"]) <= 1e-3

    def test_half_range_activates_boundary_term(self, tmp_path, sino_file):
        prefix = str(tmp_path / "half")
        code = main(["invert", "--sinogram", sino_file, "--nx", "48", "--ny", "48",
                     "--extent", "8", "--range", f"0:{np.pi}", "--out-prefix", prefix])
        assert code == 0
        metrics = dict(line.split(",") for line
                       in (tmp_path / "half_metrics.csv").read_text().splitlines()[1:])
        assert float(metrics["fa_fs_ratio"]) > 1e-2

    @pytest.mark.parametrize("end, pairs", [(1.5 * np.pi, 6), (1.25 * np.pi, 3)],
                             ids=["3pi/2", "5pi/4"])
    def test_window_wider_than_pi_matches_the_unfolded_loop(self, tmp_path, sino_file, end, pairs):
        # [0, end) of the 24-angle scan: the angles past pi fold onto their pairs, and the
        # 12 rows of [0, pi) fold further by the square's symmetries
        prefix = str(tmp_path / "w")
        assert main(["invert", "--sinogram", sino_file, "--nx", "48", "--extent", "8",
                     "--range", f"0:{end}", "--with-epsilon-lambda", "--out-prefix", prefix]) == 0
        sino = cli._restrict_angles(ur.read_container(sino_file), (0.0, end))
        geom = ur.GridGeometry.centered(48, 48, 8.0, 8.0)
        plan = _fold_plan(geom, sino.tau_grid, sino.angles)
        assert (plan.pairs, len(plan.rep), len(plan.views)) == (pairs, 12, 4)
        (fs, fa), _ = direct_backproject(term_columns(sino, ur.RegParams.defaults(sino.d_tau)),
                                         sino, geom)
        for part, want in (("fs", fs), ("fa", fa), ("total", fs + fa)):
            got = ur.read_container(f"{prefix}_{part}.urdn").values
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))
        kernel = inv._lambda_correlation_kernel(sino.n_tau, sino.d_tau, 2.0 * sino.d_tau,
                                                np.pi / sino.d_tau)
        (alt,), _ = direct_backproject([correlate(sino.values, kernel)], sino, geom)
        metrics = dict(line.split(",") for line
                       in (tmp_path / "w_metrics.csv").read_text().splitlines()[1:])
        assert float(metrics["epsilon_lambda_rel_diff"]) == pytest.approx(
            ur.l2_norm(alt - fs - fa) / ur.l2_norm(fs + fa), rel=1e-9)

    @pytest.mark.parametrize("extra", [[], ["--with-epsilon-lambda"]], ids=["two-term", "both"])
    def test_missing_reference_is_refused_before_inverting(self, tmp_path, sino_file,
                                                           monkeypatch, capsys, extra):
        # a missing --reference is a file error (3), found before any inverse runs
        calls = []
        for module in (cli, inv):
            monkeypatch.setattr(module, "_invert_all", lambda *args: calls.append(args))
        assert main(["invert", "--sinogram", sino_file, "--nx", "32", "--extent", "8", *extra,
                     "--reference", str(tmp_path / "missing.urdn"),
                     "--out-prefix", str(tmp_path / "ref")]) == 3
        assert calls == []
        err = capsys.readouterr().err
        assert err.startswith("error:") and "missing.urdn" in err
        assert not list(tmp_path.glob("ref*"))

    @pytest.mark.parametrize("extra", [[], ["--with-epsilon-lambda"]], ids=["two-term", "both"])
    def test_reference_on_another_geometry_is_refused_before_inverting(
            self, tmp_path, image_file, sino_file, monkeypatch, capsys, extra):
        # the 96^2 reference cannot be compared with a 32^2 inverse: refused (2), nothing run
        calls = []
        backproject = inv._backproject
        monkeypatch.setattr(inv, "_backproject",
                            lambda *args: calls.append(args) or backproject(*args))
        assert main(["invert", "--sinogram", sino_file, "--nx", "32", "--extent", "8", *extra,
                     "--reference", image_file, "--out-prefix", str(tmp_path / "ref")]) == 2
        assert calls == []
        err = capsys.readouterr().err
        assert err == "error: reference geometry differs from reconstruction\n"
        assert not list(tmp_path.glob("ref*"))

    def test_empty_angle_window_rejected(self, tmp_path, sino_file):
        assert main(["invert", "--sinogram", sino_file, "--nx", "16", "--extent", "8",
                     "--range", "9.0:9.1", "--out-prefix", str(tmp_path / "x")]) == 2

    def test_epsilon_changes_only_the_epsilon_lambda_metric(self, tmp_path, sino_file):
        def run(name, *extra):
            prefix = str(tmp_path / name)
            assert main(["invert", "--sinogram", sino_file, "--nx", "32", "--extent", "8",
                         "--with-epsilon-lambda", *extra, "--out-prefix", prefix]) == 0
            images = [Path(f"{prefix}_{part}.urdn").read_bytes() for part in ("fs", "fa", "total")]
            rows = Path(f"{prefix}_metrics.csv").read_text().splitlines()[1:]
            return images, dict(row.split(",") for row in rows)

        images, metrics = run("default")
        eps_images, eps_metrics = run("eps", "--epsilon", "0.5")   # the default is 2*d_tau = 1/6
        assert eps_images == images
        assert eps_metrics.pop("epsilon_lambda_rel_diff") != metrics.pop("epsilon_lambda_rel_diff")
        assert eps_metrics == metrics

    @pytest.mark.parametrize("flag, field", [("--fa-step", "fa_step"), ("--epsilon", "epsilon")])
    def test_non_finite_regulator_is_bad_argument(self, tmp_path, sino_file, capsys, flag, field):
        assert main(["invert", "--sinogram", sino_file, "--nx", "16", "--extent", "8",
                     "--with-epsilon-lambda", flag, "nan",
                     "--out-prefix", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err

    def test_missing_sinogram_is_format_error(self, tmp_path):
        assert main(["invert", "--sinogram", str(tmp_path / "nope.urdn"), "--nx", "16",
                     "--extent", "8", "--out-prefix", str(tmp_path / "x")]) == 3

    def test_container_of_another_type_is_format_error(self, tmp_path, image_file, capsys):
        assert main(["invert", "--sinogram", image_file, "--nx", "16", "--extent", "8",
                     "--out-prefix", str(tmp_path / "x")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {image_file}: ")
        assert "expected Sinogram" in err

    def test_norms_of_huge_values_stay_finite(self, tmp_path, capsys):
        # the squares of 1e200 overflow: the norms were inf, their ratio nan, with warnings
        scene = tmp_path / "huge.scene"
        scene.write_text("cx=0 cy=0 sigma=1 amp_re=1e200 amp_im=-3e199\n")
        img, sino, prefix = (str(tmp_path / name) for name in ("img.urdn", "sino.urdn", "h"))
        assert main(["phantom", "--scene", str(scene), "--nx", "32", "--extent", "8",
                     "--out", img]) == 0
        assert main(["radon", "--image", img, "--n-phi", "24", "--out", sino]) == 0
        capsys.readouterr()
        assert main(["invert", "--sinogram", sino, "--nx", "32", "--extent", "8",
                     "--range", "0:3.1415927", "--reference", img, "--out-prefix", prefix]) == 0
        assert capsys.readouterr().err == ""
        metrics = dict(line.split(",") for line
                       in (tmp_path / "h_metrics.csv").read_text().splitlines()[1:])
        assert all(np.isfinite(float(v)) for v in metrics.values())
        assert 1e199 < float(metrics["fs_norm"]) < 1e202

    @pytest.mark.parametrize("epsilon, most", [("1e-12", 1e-11), ("1e-300", 1e-11), ("1e300", 1.0),
                                               ("1.7e308", 1.0)])
    def test_extreme_epsilon_runs_without_warnings(self, tmp_path, sino_file, capsys, epsilon,
                                                   most):
        # a full scan: the epsilon-lambda image tends to f_total as epsilon vanishes, and is
        # the exact 0 of an overflowed a^2 at 1e300 and beyond (relative difference 1)
        prefix = str(tmp_path / "e")
        capsys.readouterr()
        assert main(["invert", "--sinogram", sino_file, "--nx", "32", "--extent", "8",
                     "--with-epsilon-lambda", "--epsilon", epsilon, "--out-prefix", prefix]) == 0
        assert capsys.readouterr().err == ""
        metrics = dict(line.split(",") for line
                       in (tmp_path / "e_metrics.csv").read_text().splitlines()[1:])
        assert float(metrics["epsilon_lambda_rel_diff"]) <= most

    @pytest.mark.parametrize("flag, field", [("--fa-step", "fa_step"), ("--epsilon", "epsilon")])
    def test_bad_regulator_is_refused_before_reading(self, tmp_path, capsys, flag, field):
        assert main(["invert", "--sinogram", str(tmp_path / "nope.urdn"), "--nx", "16",
                     "--extent", "8", "--with-epsilon-lambda", flag, "nan",
                     "--out-prefix", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err


class TestHolonomyAndDefect:
    def test_holonomy_report(self, tmp_path):
        scene = tmp_path / "h.scene"
        scene.write_text(
            "cx=1.5 cy=1.5 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant1\n"
            "cx=-1.5 cy=-1.5 sigma=0.5 amp_re=1.0 amp_im=0.0 mask=quadrant3\n")
        out = tmp_path / "rep.csv"
        code = main(["holonomy", "--scene", str(scene), "--nx", "96", "--extent", "8",
                     "--tau", "0.2:3.0:8", "--phi-window", f"0:{np.pi/2}:4",
                     "--out", str(out)])
        assert code == 0
        body = out.read_text()
        assert "detected,1" in body

    def test_defect_outputs(self, tmp_path):
        scene = tmp_path / "d.scene"
        scene.write_text(DEFECT_SCENE)
        prefix = str(tmp_path / "def")
        code = main(["defect", "--scene", str(scene), "--nx", "96", "--extent", "8",
                     "--tau", "0.2:3.0:8", "--phi-window", f"0:{np.pi/2}:4",
                     "--out-prefix", prefix])
        assert code == 0
        extracted = ur.read_container(f"{prefix}_defect.urdn")
        assert isinstance(extracted, ur.Sinogram)
        metrics = dict(line.split(",") for line
                       in (tmp_path / "def_metrics.csv").read_text().splitlines()[1:])
        assert float(metrics["direct_rel_diff"]) <= 1e-3

    def test_non_defect_scene_rejected(self, tmp_path, scene_file, capsys):
        assert main(["defect", "--scene", scene_file, "--nx", "32", "--extent", "8",
                     "--out-prefix", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            "error: defect scenes may not contain unmasked terms\n")


class TestHybrid:
    def test_roundtrip_metrics(self, tmp_path, scene_file):
        prefix = str(tmp_path / "hy")
        code = main(["hybrid", "--scene", scene_file, "--nx", "40", "--extent", "8",
                     "--slices", "4", "--x3", "-1.5:1.0", "--n-phi", "40",
                     "--out-prefix", prefix])
        assert code == 0
        rows = (tmp_path / "hy_metrics.csv").read_text().splitlines()
        assert rows[0].startswith("k,")
        assert len(rows) == 5
        for row in rows[1:]:
            fields = row.split(",")
            assert float(fields[3]) <= 1e-3        # fa ratio per k
            assert float(fields[4]) <= 0.05        # slice rmse / peak
        stack = ur.read_container(f"{prefix}_volume.urdn")
        assert isinstance(stack, ur.VolumeStack) and stack.n_slices == 4

    def test_zero_d_tau_is_bad_argument(self, tmp_path, scene_file, capsys):
        assert main(["hybrid", "--scene", scene_file, "--nx", "16", "--extent", "8",
                     "--slices", "2", "--x3", "-0.5:1.0", "--n-phi", "8", "--d-tau", "0",
                     "--out-prefix", str(tmp_path / "y")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "d_tau" in err and len(err.splitlines()) == 1


class TestDashedValues:
    """Option values that start with '-' reach every subcommand as values, not option names.

    phantom and hybrid take a dashed --x3 in test_volume_mode and test_roundtrip_metrics.
    """

    def test_radon(self, tmp_path, image_file):
        out = str(tmp_path / "s.urdn")
        assert main(["radon", "--image", image_file, "--range", "-3.14:3.14", "--n-phi", "12",
                     "--out", out]) == 0
        assert ur.read_container(out).angles.phi_min == -3.14

    def test_fst_check(self, image_file, sino_file, capsys):
        # parsed, then rejected by the check itself
        assert main(["fst-check", "--image", image_file, "--sinogram", sino_file,
                     "--lambdas", "-2:2:5"]) == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_invert(self, tmp_path, sino_file, capsys):
        assert main(["invert", "--sinogram", sino_file, "--nx", "16", "--extent", "8",
                     "--range", "-1:2", "--out-prefix", str(tmp_path / "r")]) == 0
        assert "angles=" in capsys.readouterr().out

    def test_holonomy(self, tmp_path):
        scene = tmp_path / "d.scene"
        scene.write_text(DEFECT_SCENE)
        with pytest.warns(UserWarning, match="beyond"):
            assert main(["holonomy", "--scene", str(scene), "--nx", "32", "--extent", "8",
                         "--tau", "0.2:3.0:8", "--phi-window", "-0.2:1.0:6"]) == 0

    def test_defect(self, tmp_path, capsys):
        scene = tmp_path / "d.scene"
        scene.write_text(DEFECT_SCENE)
        # parsed, then rejected by the probe itself
        assert main(["defect", "--scene", str(scene), "--nx", "32", "--extent", "8",
                     "--tau", "-0.5:3.0:8", "--out-prefix", str(tmp_path / "d")]) == 2
        assert "strictly positive" in capsys.readouterr().err


class TestParser:
    def test_built_once_per_process(self):
        assert build_parser() is build_parser()

    @pytest.mark.parametrize("argv, word", [
        (["radon", "--n-phi", "3"], "--image"),
        (["invert", "--sinogram", "s.urdn", "--nx", "16", "--extent", "8", "--backend", "x",
          "--out-prefix", "r"], "--backend"),
        (["transform"], "transform"),
        (["radon", "--im", "img.urdn", "--n-p", "12", "--o", "s.urdn"], "--image"),
        (["radon", "--image", "img.urdn", "--n-p", "12", "--out", "s.urdn"], "--n-p"),
    ], ids=["missing required", "bad choice", "unknown command", "flag prefixes",
            "optional flag prefix"])
    def test_argparse_refusals_are_one_error_line(self, capsys, argv, word):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and word in err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    def test_a_rejected_call_leaves_the_parser_usable(self, tmp_path, scene_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["phantom", "--scene", scene_file, "--nx", "sixteen", "--extent", "4",
                  "--out", str(tmp_path / "bad.urdn")])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "--nx" in err
        assert err.startswith("error:") and len(err.splitlines()) == 1
        assert main(["phantom", "--scene", scene_file, "--nx", "16", "--extent", "4",
                     "--out", str(tmp_path / "good.urdn")]) == 0
        assert ur.read_container(tmp_path / "good.urdn").geometry.nx == 16
