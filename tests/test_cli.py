import json
from pathlib import Path

import numpy as np
import pytest

import uradon as ur
from uradon.cli import main

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

    def test_missing_scene_is_format_error(self, tmp_path):
        assert main(["phantom", "--scene", str(tmp_path / "nope.scene"), "--nx", "16",
                     "--extent", "4", "--out", str(tmp_path / "x.urdn")]) == 3

    def test_volume_mode(self, tmp_path, scene_file):
        out = tmp_path / "vol.urdn"
        assert main(["phantom", "--scene", scene_file, "--nx", "16", "--extent", "6",
                     "--slices", "4", "--x3", "-1.5:1.0", "--out", str(out)]) == 0
        stack = ur.read_container(out)
        assert isinstance(stack, ur.VolumeStack)
        assert stack.x3_positions == (-1.5, -0.5, 0.5, 1.5)

    def test_determinism_bit_identical(self, tmp_path, scene_file):
        a, b = tmp_path / "a.urdn", tmp_path / "b.urdn"
        args = ["phantom", "--scene", scene_file, "--nx", "24", "--extent", "6"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


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

    def test_empty_angle_window_rejected(self, tmp_path, sino_file):
        assert main(["invert", "--sinogram", sino_file, "--nx", "16", "--extent", "8",
                     "--range", "9.0:9.1", "--out-prefix", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("flag, field", [("--fa-step", "fa_step"), ("--epsilon", "epsilon")])
    def test_non_finite_regulator_is_bad_argument(self, tmp_path, sino_file, capsys, flag, field):
        assert main(["invert", "--sinogram", sino_file, "--nx", "16", "--extent", "8",
                     flag, "nan", "--out-prefix", str(tmp_path / "x")]) == 2
        assert field in capsys.readouterr().err

    def test_missing_sinogram_is_format_error(self, tmp_path):
        assert main(["invert", "--sinogram", str(tmp_path / "nope.urdn"), "--nx", "16",
                     "--extent", "8", "--out-prefix", str(tmp_path / "x")]) == 3


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

    def test_non_defect_scene_rejected(self, tmp_path, scene_file):
        assert main(["defect", "--scene", scene_file, "--nx", "32", "--extent", "8",
                     "--out-prefix", str(tmp_path / "x")]) == 2


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
