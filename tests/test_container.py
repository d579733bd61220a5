import json

import numpy as np
import pytest

import uradon as ur


def random_image(rng, nx=None, ny=None):
    nx = nx or int(rng.integers(2, 7))
    ny = ny or int(rng.integers(2, 7))
    geom = ur.GridGeometry(nx, ny, float(rng.normal()), float(rng.normal()),
                           float(rng.uniform(0.1, 2.0)), float(rng.uniform(0.1, 2.0)))
    vals = rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))
    return ur.ImageGrid2D.from_geometry(geom, vals)


def random_sinogram(rng):
    n_tau = int(rng.integers(2, 8))
    n_phi = int(rng.integers(1, 6))
    angles = ur.AngularRange(float(rng.uniform(0, 1)), float(rng.uniform(2, 6)), n_phi)
    vals = rng.normal(size=(n_tau, n_phi)) + 1j * rng.normal(size=(n_tau, n_phi))
    return ur.Sinogram(float(rng.normal()), float(rng.uniform(0.05, 1.0)), n_tau, angles, vals)


def random_volume(rng):
    nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    geom = ur.GridGeometry.centered(nx, ny, 2.0, 2.0)
    slices = tuple(ur.ImageGrid2D.from_geometry(
        geom, rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))) for _ in range(n))
    return ur.VolumeStack(tuple(np.sort(rng.normal(size=n) + np.arange(n) * 10)), slices)


def random_hybrid(rng):
    nx, ny = int(rng.integers(2, 5)), int(rng.integers(2, 5))
    n = int(rng.integers(1, 4))
    geom = ur.GridGeometry.centered(nx, ny, 2.0, 2.0)
    fields = tuple(ur.ImageGrid2D.from_geometry(
        geom, rng.normal(size=(nx, ny)) + 1j * rng.normal(size=(nx, ny))) for _ in range(n))
    prov = ur.Provenance.SERIES if rng.integers(2) else ur.Provenance.CONTINUOUS
    return ur.HybridField(tuple(rng.normal(size=n)), fields, prov)


class TestRoundtrip:
    def test_tiny_real_image(self, tmp_path):
        geom = ur.GridGeometry(2, 2, 0.0, 0.0, 1.0, 1.0)
        img = ur.ImageGrid2D.from_geometry(geom, [[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "img.urdn"
        ur.write_container(path, img)
        back = ur.read_container(path)
        assert back == img
        assert back.real_valued

    def test_complex_sinogram(self, tmp_path, rng):
        sino = random_sinogram(rng)
        path = tmp_path / "sino.urdn"
        ur.write_container(path, sino)
        assert ur.read_container(path) == sino

    def test_roundtrip_identity_all_types(self, tmp_path, rng):
        # property: write/read is the identity on every domain type
        builders = [random_image, random_sinogram, random_volume, random_hybrid,
                    lambda r: ur.AngularRange(float(r.uniform(0, 1)),
                                              float(r.uniform(2, 6)), int(r.integers(1, 9)))]
        for trial in range(25):
            obj = builders[trial % len(builders)](rng)
            path = tmp_path / f"obj{trial}.urdn"
            ur.write_container(path, obj)
            back = ur.read_container(path)
            assert back == obj, f"roundtrip failed for {type(obj).__name__}"

    def test_payload_layout_radial_fastest(self, tmp_path):
        # the first index (tau or x) must vary fastest in the byte stream
        geom = ur.GridGeometry(2, 2, 0.0, 0.0, 1.0, 1.0)
        img = ur.ImageGrid2D.from_geometry(geom, [[1.0 + 2.0j, 3.0 + 4.0j],
                                                  [5.0 + 6.0j, 7.0 + 8.0j]])
        path = tmp_path / "img.urdn"
        ur.write_container(path, img)
        raw = path.read_bytes()
        payload = raw.split(b"\n", 1)[1]
        doubles = np.frombuffer(payload, dtype="<f8")
        # x-fastest order: (0,0), (1,0), (0,1), (1,1) interleaved re, im
        assert doubles.tolist() == [1.0, 2.0, 5.0, 6.0, 3.0, 4.0, 7.0, 8.0]


class TestErrors:
    def test_magic_mismatch(self, tmp_path, rng):
        path = tmp_path / "bad.urdn"
        ur.write_container(path, random_image(rng))
        raw = path.read_bytes().replace(b"URDN1", b"NOPE1", 1)
        path.write_bytes(raw)
        with pytest.raises(ur.MagicMismatchError) as err:
            ur.read_container(path)
        assert err.value.field == "magic"

    def test_truncated_payload(self, tmp_path, rng):
        path = tmp_path / "cut.urdn"
        ur.write_container(path, random_image(rng))
        raw = path.read_bytes()
        path.write_bytes(raw[:-16])
        with pytest.raises(ur.TruncatedPayloadError) as err:
            ur.read_container(path)
        assert err.value.field == "payload"

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path = tmp_path / "long.urdn"
        ur.write_container(path, random_image(rng))
        path.write_bytes(path.read_bytes() + b"\x00" * 8)
        with pytest.raises(ur.TruncatedPayloadError):
            ur.read_container(path)

    def test_header_not_json(self, tmp_path):
        path = tmp_path / "junk.urdn"
        path.write_bytes(b"this is not a header\n")
        with pytest.raises(ur.MalformedHeaderError) as err:
            ur.read_container(path)
        assert err.value.field == "header"

    def test_missing_field_named(self, tmp_path, rng):
        path = tmp_path / "missing.urdn"
        ur.write_container(path, random_image(rng))
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        head = json.loads(header)
        del head["dx"]
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.MalformedHeaderError) as err:
            ur.read_container(path)
        assert err.value.field == "dx"

    def test_unknown_type_named(self, tmp_path, rng):
        path = tmp_path / "odd.urdn"
        ur.write_container(path, random_image(rng))
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        head = json.loads(header)
        head["type"] = "tensor"
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.MalformedHeaderError) as err:
            ur.read_container(path)
        assert err.value.field == "type"

    @pytest.mark.parametrize("mutate", [
        lambda head: head.update(real_valued="yes"),
        lambda head: head.update(real_valued=1),
        lambda head: head.pop("real_valued"),
        lambda head: head.update(real_valued=True),
    ], ids=["string", "number", "missing", "true_over_complex_payload"])
    def test_real_valued_flag_checked(self, tmp_path, rng, mutate):
        path = tmp_path / "flag.urdn"
        ur.write_container(path, random_sinogram(rng))
        header, payload = path.read_bytes().split(b"\n", 1)
        head = json.loads(header)
        assert head["real_valued"] is False
        mutate(head)
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.MalformedHeaderError) as err:
            ur.read_container(path)
        assert err.value.field == "real_valued"

    @pytest.mark.parametrize("make", [random_image, random_sinogram, random_volume, random_hybrid])
    def test_non_finite_payload_rejected(self, tmp_path, rng, make):
        path = tmp_path / "nan.urdn"
        ur.write_container(path, make(rng))
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.float64(np.inf).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ur.ContainerError, match="finite"):
            ur.read_container(path)

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            ur.write_container(tmp_path / "x.urdn", {"not": "a grid"})
