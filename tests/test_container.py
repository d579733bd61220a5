import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import uradon as ur
from uradon.cli import main
from conftest import traced_peak

SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)


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
        builders = [random_image, random_sinogram, random_volume]
        for trial in range(25):
            obj = builders[trial % len(builders)](rng)
            path = tmp_path / f"obj{trial}.urdn"
            ur.write_container(path, obj)
            back = ur.read_container(path)
            assert back == obj, f"roundtrip failed for {type(obj).__name__}"

    def test_reading_copies_the_payload_once(self, tmp_path, rng):
        # the file's bytes go straight into the values the Sinogram keeps: 1.005 payloads
        # measured (numpy 2.4), bound about 10% above; buffering the bytes before the
        # frozen copy made it 2.003
        values = rng.normal(size=(1000, 100)) + 1j * rng.normal(size=(1000, 100))
        sino = ur.Sinogram(-5.0, 0.01, 1000, ur.AngularRange.full(100), values)
        path = tmp_path / "sino.urdn"
        ur.write_container(path, sino)
        back, peak = traced_peak(lambda: ur.read_container(path))
        assert back == sino
        assert peak <= 1.1 * values.nbytes

    def test_writing_copies_no_sinogram_payload(self, tmp_path, rng):
        # the angle-major values are written as they are: 0.006 payloads measured (numpy 2.4),
        # a fixed 9 KiB; a transposing copy and its bytes made it 2.0
        values = rng.normal(size=(1000, 100)) + 1j * rng.normal(size=(1000, 100))
        sino = ur.Sinogram(-5.0, 0.01, 1000, ur.AngularRange.full(100), values)
        path = tmp_path / "sino.urdn"
        _, peak = traced_peak(lambda: ur.write_container(path, sino))
        assert ur.read_container(path) == sino
        assert peak <= 0.01 * values.nbytes

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

    def test_payload_that_shrinks_while_read_rejected(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "shrunk.urdn"
        ur.write_container(path, random_sinogram(rng))
        measured = path.stat()
        path.write_bytes(path.read_bytes()[:-16])
        monkeypatch.setattr(os, "fstat", lambda fd: measured)   # sized before the cut
        with pytest.raises(ur.TruncatedPayloadError, match="shrank") as err:
            ur.read_container(path)
        assert err.value.field == "payload"

    def test_shape_beyond_the_file_rejected_before_allocating(self, tmp_path, rng):
        path = tmp_path / "huge.urdn"
        ur.write_container(path, random_sinogram(rng))
        header, payload = path.read_bytes().split(b"\n", 1)
        head = json.loads(header)
        head["shape"] = [10**6, 10**6]   # 16 TB: numpy would raise MemoryError
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.TruncatedPayloadError):
            ur.read_container(path)

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

    @pytest.mark.parametrize("make", [random_image, random_sinogram, random_volume])
    def test_non_finite_payload_rejected(self, tmp_path, rng, make):
        path = tmp_path / "nan.urdn"
        ur.write_container(path, make(rng))
        raw = bytearray(path.read_bytes())
        raw[-8:] = np.float64(np.inf).tobytes()
        path.write_bytes(bytes(raw))
        with pytest.raises(ur.ContainerError, match="finite"):
            ur.read_container(path)

    @pytest.mark.parametrize("positions", [[float("nan"), 1.0], [None, 1.0]],
                             ids=["NaN", "null"])
    def test_non_finite_or_non_numeric_slice_position_rejected(self, tmp_path, positions):
        geom = ur.GridGeometry.centered(3, 3, 2.0, 2.0)
        img = ur.ImageGrid2D(geom, np.ones((3, 3)))
        path = tmp_path / "vol.urdn"
        ur.write_container(path, ur.VolumeStack((0.0, 1.0), (img, img)))
        header, payload = path.read_bytes().split(b"\n", 1)
        head = json.loads(header)
        head["x3_positions"] = positions
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.ContainerError, match="x3 position"):
            ur.read_container(path)
        assert main(["radon", "--image", str(path), "--out", str(tmp_path / "s.urdn")]) == 3

    def test_boolean_block_count_rejected(self, tmp_path):
        geom = ur.GridGeometry.centered(3, 3, 2.0, 2.0)
        path = tmp_path / "vol.urdn"
        ur.write_container(path, ur.VolumeStack((0.0,), (ur.ImageGrid2D(geom, np.ones((3, 3))),)))
        header, payload = path.read_bytes().split(b"\n", 1)
        head = json.loads(header)
        head["shape"] = [True, 3, 3]
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.MalformedHeaderError) as err:
            ur.read_container(path)
        assert err.value.field == "shape"

    def test_unsupported_object(self, tmp_path):
        with pytest.raises(TypeError):
            ur.write_container(tmp_path / "x.urdn", {"not": "a grid"})

    @pytest.mark.parametrize("kind", ["angles", "hybrid"])
    def test_payload_less_angles_type_is_refused(self, tmp_path, kind):
        # the three grid types all carry a payload; a bare angular range is no container,
        # and neither is a hybrid field, which no command writes
        path = tmp_path / f"{kind}.urdn"
        if kind == "angles":
            head = {"shape": [0, 0], "phi_min": 0.0, "phi_max": 6.283185307179586, "n_phi": 8}
            obj, payload = ur.AngularRange.full(8), b""
        else:
            geom = ur.GridGeometry(2, 2, 0.0, 0.0, 1.0, 1.0)
            head = {"shape": [1, 2, 2], "x_min": 0.0, "y_min": 0.0, "dx": 1.0, "dy": 1.0,
                    "k_values": [0.0], "provenance": "series"}
            obj = ur.HybridField((0.0,), (ur.ImageGrid2D(geom, np.ones((2, 2))),))
            payload = np.ones(4, dtype="<c16").tobytes()
        head.update(magic="URDN1", dtype="c128", type=kind, real_valued=True)
        path.write_bytes(json.dumps(head).encode() + b"\n" + payload)
        with pytest.raises(ur.MalformedHeaderError) as err:
            ur.read_container(path)
        assert err.value.field == "type"
        with pytest.raises(TypeError):
            ur.write_container(path, obj)


# --- properties over all three types: drawn shapes, geometries and positions ---

coordinates = st.floats(-50.0, 50.0, allow_nan=False)
spacings = st.floats(1e-3, 5.0)


@st.composite
def sample_arrays(draw, shape):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=shape)
    return values if draw(st.booleans()) else values + 1j * rng.normal(size=shape)


@st.composite
def images(draw, geometry=None):
    if geometry is None:
        geometry = ur.GridGeometry(draw(st.integers(2, 5)), draw(st.integers(2, 5)),
                                   draw(coordinates), draw(coordinates), draw(spacings),
                                   draw(spacings))
    return ur.ImageGrid2D(geometry, draw(sample_arrays((geometry.nx, geometry.ny))))


@st.composite
def angle_ranges(draw):
    phi_min = draw(st.floats(-10.0, 10.0))
    span = draw(st.floats(1e-3, 2.0 * np.pi))
    return ur.AngularRange(phi_min, phi_min + span, draw(st.integers(1, 6)))


@st.composite
def sinograms(draw):
    angles, n_tau = draw(angle_ranges()), draw(st.integers(1, 6))
    return ur.Sinogram(draw(coordinates), draw(spacings), n_tau, angles,
                       draw(sample_arrays((n_tau, angles.n_phi))))


@st.composite
def stacks(draw):
    n = draw(st.integers(1, 3))
    first = draw(images())
    blocks = (first,) + tuple(draw(images(first.geometry)) for _ in range(n - 1))
    numbers = st.lists(coordinates, min_size=n, max_size=n, unique=True)
    return ur.VolumeStack(tuple(sorted(draw(numbers))), blocks)


any_grid = st.one_of(images(), sinograms(), stacks())


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("container_properties") / "obj.urdn"


def read_bytes_back(path, raw: bytes):
    path.write_bytes(raw)
    return ur.read_container(path)


class TestProperties:
    @SETTINGS
    @given(any_grid)
    def test_write_read_is_the_identity_and_rewrites_the_same_bytes(self, scratch, obj):
        ur.write_container(scratch, obj)
        raw = scratch.read_bytes()
        back = ur.read_container(scratch)
        assert type(back) is type(obj) and back == obj
        ur.write_container(scratch, back)
        assert scratch.read_bytes() == raw

    @SETTINGS
    @given(any_grid)
    def test_every_strict_prefix_is_rejected(self, scratch, obj):
        ur.write_container(scratch, obj)
        raw = scratch.read_bytes()
        for end in range(len(raw)):
            with pytest.raises(ur.ContainerError):
                read_bytes_back(scratch, raw[:end])

    @SETTINGS
    @given(any_grid, st.integers(1, 255))
    def test_a_flipped_header_byte_is_rejected_or_reads_a_valid_grid(self, scratch, obj, mask):
        ur.write_container(scratch, obj)
        raw = scratch.read_bytes()
        for at in range(raw.index(b"\n") + 1):
            flipped = bytearray(raw)
            flipped[at] ^= mask
            try:
                back = read_bytes_back(scratch, bytes(flipped))
            except ur.ContainerError:
                continue
            assert isinstance(back, (ur.ImageGrid2D, ur.Sinogram, ur.VolumeStack))
