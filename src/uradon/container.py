"""Single-file binary container "URDN1".

Layout: one UTF-8 JSON header line (newline terminated) followed by the raw
payload -- little-endian float64 pairs (re, im), written with the radial
(or x) index fastest.  The roundtrip write -> read is the identity for all
five grid types.
"""

from __future__ import annotations

import json

import numpy as np

from .grids import (AngularRange, GridGeometry, HybridField, ImageGrid2D, Provenance, Sinogram,
                    VolumeStack)

MAGIC = "URDN1"
DTYPE_TAG = "c128"
_PAYLOAD_DTYPE = np.dtype("<c16")


class ContainerError(Exception):
    """Base class for malformed container files."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class MagicMismatchError(ContainerError):
    pass


class MalformedHeaderError(ContainerError):
    pass


class TruncatedPayloadError(ContainerError):
    pass


def _block_bytes(values: np.ndarray) -> bytes:
    # order="F": first index (tau or x) varies fastest in the byte stream
    return np.ascontiguousarray(values, dtype=np.complex128).astype(_PAYLOAD_DTYPE).tobytes(order="F")


def _block_from(buf: bytes, offset: int, shape: tuple[int, int]) -> tuple[np.ndarray, int]:
    count = shape[0] * shape[1]
    nbytes = count * _PAYLOAD_DTYPE.itemsize
    chunk = buf[offset:offset + nbytes]
    if len(chunk) < nbytes:
        raise TruncatedPayloadError(
            f"payload: expected {nbytes} bytes for block of shape {shape}, got {len(chunk)}",
            field="payload")
    arr = np.frombuffer(chunk, dtype=_PAYLOAD_DTYPE).astype(np.complex128)
    return arr.reshape(shape, order="F"), offset + nbytes


def _geometry_head(g: GridGeometry, *lead: int) -> dict:
    """Header fields of an image block grid; lead is the block count of a stack."""
    return {"shape": [*lead, g.nx, g.ny],
            "x_min": g.x_min, "y_min": g.y_min, "dx": g.dx, "dy": g.dy}


def _header_and_payload(obj) -> tuple[dict, bytes]:
    if isinstance(obj, ImageGrid2D):
        head = {"type": "image", **_geometry_head(obj.geometry), "real_valued": obj.real_valued}
        return head, _block_bytes(obj.values)
    if isinstance(obj, Sinogram):
        head = {"type": "sinogram", "shape": [obj.n_tau, obj.angles.n_phi],
                "tau_min": obj.tau_min, "d_tau": obj.d_tau,
                "phi_min": obj.angles.phi_min, "phi_max": obj.angles.phi_max,
                "real_valued": obj.real_valued}
        return head, _block_bytes(obj.values)
    if isinstance(obj, AngularRange):
        head = {"type": "angles", "shape": [0, 0],
                "phi_min": obj.phi_min, "phi_max": obj.phi_max, "n_phi": obj.n_phi,
                "real_valued": True}
        return head, b""
    if isinstance(obj, VolumeStack):
        head = {"type": "volume", **_geometry_head(obj.geometry, obj.n_slices),
                "x3_positions": list(obj.x3_positions), "real_valued": obj.real_valued}
        return head, b"".join(_block_bytes(s.values) for s in obj.slices)
    if isinstance(obj, HybridField):
        head = {"type": "hybrid", **_geometry_head(obj.geometry, obj.n_k),
                "k_values": list(obj.k_values), "provenance": obj.provenance.value,
                "real_valued": all(f.real_valued for f in obj.fields)}
        return head, b"".join(_block_bytes(f.values) for f in obj.fields)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def write_container(path, obj) -> None:
    """Write one of the five grid types to ``path`` in URDN1 format."""
    head, payload = _header_and_payload(obj)
    header = {"magic": MAGIC, "dtype": DTYPE_TAG, **head}
    line = json.dumps(header, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        fh.write(payload)


def _require(head: dict, key: str, kinds) -> object:
    if key not in head:
        raise MalformedHeaderError(f"header: missing field '{key}'", field=key)
    value = head[key]
    if not isinstance(value, kinds):
        raise MalformedHeaderError(f"header: field '{key}' has wrong type", field=key)
    return value


def _shape(head: dict, rank: int) -> tuple[int, ...]:
    shape = _require(head, "shape", list)
    # type, not isinstance: JSON true is a bool, which isinstance counts as the int 1
    if len(shape) != rank or not all(type(n) is int and n >= 0 for n in shape):
        raise MalformedHeaderError(f"header: field 'shape' must be {rank} nonnegative ints",
                                   field="shape")
    return tuple(shape)


def read_container(path):
    """Read a URDN1 file back into its grid type (inverse of write_container)."""
    with open(path, "rb") as fh:
        line = fh.readline()
        buf = fh.read()
    try:
        head = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MalformedHeaderError(f"header: not a JSON line ({exc})", field="header") from exc
    if not isinstance(head, dict):
        raise MalformedHeaderError("header: not a key-value object", field="header")
    magic = _require(head, "magic", str)
    if magic != MAGIC:
        raise MagicMismatchError(f"magic: expected '{MAGIC}', got '{magic}'", field="magic")
    dtype = _require(head, "dtype", str)
    if dtype != DTYPE_TAG:
        raise MalformedHeaderError(f"dtype: expected '{DTYPE_TAG}', got '{dtype}'", field="dtype")
    kind = _require(head, "type", str)
    real_valued = _require(head, "real_valued", bool)
    try:
        obj = _decode(kind, head, buf)
    except ValueError as exc:
        # a field or sample the grid constructors refuse, such as a NaN spacing or sample
        raise ContainerError(f"{kind}: {exc}") from exc
    # _decode has checked that buf holds exactly the payload's values
    if real_valued and np.any(np.frombuffer(buf, dtype=_PAYLOAD_DTYPE).imag != 0.0):
        raise MalformedHeaderError("real_valued: header says true but the payload has "
                                   "nonzero imaginary parts", field="real_valued")
    return obj


def _decode(kind: str, head: dict, buf: bytes):
    if kind == "image":
        return _images(head, buf, 2)[0]
    if kind == "sinogram":
        n_tau, n_phi = _shape(head, 2)
        values, offset = _block_from(buf, 0, (n_tau, n_phi))
        _check_no_trailing(buf, offset)
        angles = AngularRange(_require(head, "phi_min", (int, float)),
                              _require(head, "phi_max", (int, float)), n_phi)
        return Sinogram(_require(head, "tau_min", (int, float)),
                        _require(head, "d_tau", (int, float)), n_tau, angles, values)
    if kind == "angles":
        _check_no_trailing(buf, 0)
        return AngularRange(_require(head, "phi_min", (int, float)),
                            _require(head, "phi_max", (int, float)),
                            _require(head, "n_phi", int))
    if kind == "volume":
        positions = _require(head, "x3_positions", list)
        return VolumeStack(tuple(positions), tuple(_images(head, buf, 3)))
    if kind == "hybrid":
        ks = _require(head, "k_values", list)
        provenance = _require(head, "provenance", str)
        try:
            provenance = Provenance(provenance)
        except ValueError as exc:
            raise MalformedHeaderError(f"provenance: unknown value '{provenance}'",
                                       field="provenance") from exc
        return HybridField(tuple(ks), tuple(_images(head, buf, 3)), provenance)
    raise MalformedHeaderError(f"type: unknown container type '{kind}'", field="type")


def _images(head: dict, buf: bytes, rank: int) -> list[ImageGrid2D]:
    """The image blocks of an image (rank 2) or a stack (rank 3), all on one GridGeometry."""
    *lead, nx, ny = _shape(head, rank)
    geometry = GridGeometry(nx, ny, *(_require(head, key, (int, float))
                                      for key in ("x_min", "y_min", "dx", "dy")))
    images, offset = [], 0
    for _ in range(lead[0] if lead else 1):
        values, offset = _block_from(buf, offset, (nx, ny))
        images.append(ImageGrid2D(geometry, values))
    _check_no_trailing(buf, offset)
    return images


def _check_no_trailing(buf: bytes, offset: int) -> None:
    if len(buf) != offset:
        raise TruncatedPayloadError(
            f"payload: expected {offset} bytes total, file carries {len(buf)}",
            field="payload")
