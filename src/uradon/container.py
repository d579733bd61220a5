"""Single-file binary container "URDN1".

Layout: one UTF-8 JSON header line (newline terminated) followed by the raw
payload -- little-endian float64 pairs (re, im), written with the radial
(or x) index fastest.  The roundtrip write -> read is the identity for all
three grid types: image, sinogram and volume.
A sinogram's payload is its angle-major rows, Sinogram.values' layout: they
are written as they are and read straight into the array the Sinogram keeps.
"""

from __future__ import annotations

import json
import os

import numpy as np

from .grids import AngularRange, GridGeometry, ImageGrid2D, Sinogram, VolumeStack, _Handover

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


def _blocks(fh, shape: tuple[int, int], count: int, real_valued: bool):
    """The payload's ``count`` blocks of ``shape``, each read straight into fresh rows.

    The file must hold exactly their bytes, checked before anything is
    allocated.  Each block is yielded as the transpose of its rows, a
    grids._Handover array: a Sinogram adopts it, an image copies it to C order.
    """
    nbytes = shape[0] * shape[1] * _PAYLOAD_DTYPE.itemsize
    size = os.fstat(fh.fileno()).st_size - fh.tell()
    if size != count * nbytes:
        raise TruncatedPayloadError(f"payload: expected {count * nbytes} bytes for {count} "
                                    f"block(s) of shape {shape}, file carries {size}",
                                    field="payload")

    def block():
        rows = np.empty(shape[::-1], dtype=_PAYLOAD_DTYPE).view(_Handover)
        if fh.readinto(rows) != nbytes:
            raise TruncatedPayloadError("payload: the file shrank while read", field="payload")
        if real_valued and np.any(rows.imag):
            raise MalformedHeaderError("real_valued: header says true but the payload has "
                                       "nonzero imaginary parts", field="real_valued")
        return rows.T

    return (block() for _ in range(count))


def _geometry_head(g: GridGeometry, *lead: int) -> dict:
    """Header fields of an image block grid; lead is the block count of a stack."""
    return {"shape": [*lead, g.nx, g.ny],
            "x_min": g.x_min, "y_min": g.y_min, "dx": g.dx, "dy": g.dy}


def _header_and_arrays(obj) -> tuple[dict, list[np.ndarray]]:
    if isinstance(obj, ImageGrid2D):
        head = {"type": "image", **_geometry_head(obj.geometry), "real_valued": obj.real_valued}
        return head, [obj.values]
    if isinstance(obj, Sinogram):
        head = {"type": "sinogram", "shape": [obj.n_tau, obj.angles.n_phi],
                "tau_min": obj.tau_min, "d_tau": obj.d_tau,
                "phi_min": obj.angles.phi_min, "phi_max": obj.angles.phi_max,
                "real_valued": obj.real_valued}
        return head, [obj.values]
    if isinstance(obj, VolumeStack):
        head = {"type": "volume", **_geometry_head(obj.geometry, obj.n_slices),
                "x3_positions": list(obj.x3_positions), "real_valued": obj.real_valued}
        return head, [s.values for s in obj.slices]
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def write_container(path, obj) -> None:
    """Write an image, sinogram or volume to ``path`` in URDN1 format; any other
    object, a HybridField included, raises TypeError.

    Each block is written from rows along its last axis, the first index
    fastest: a sinogram's own angle-major rows, an image's transposed copy.
    """
    head, arrays = _header_and_arrays(obj)
    header = {"magic": MAGIC, "dtype": DTYPE_TAG, **head}
    line = json.dumps(header, sort_keys=True) + "\n"
    with open(path, "wb") as fh:
        fh.write(line.encode("utf-8"))
        for values in arrays:
            fh.write(np.ascontiguousarray(values.T, dtype=_PAYLOAD_DTYPE))


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
        try:
            head = json.loads(fh.readline().decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise MalformedHeaderError(f"header: not a JSON line ({exc})", field="header") from exc
        if not isinstance(head, dict):
            raise MalformedHeaderError("header: not a key-value object", field="header")
        magic = _require(head, "magic", str)
        if magic != MAGIC:
            raise MagicMismatchError(f"magic: expected '{MAGIC}', got '{magic}'", field="magic")
        dtype = _require(head, "dtype", str)
        if dtype != DTYPE_TAG:
            raise MalformedHeaderError(f"dtype: expected '{DTYPE_TAG}', got '{dtype}'",
                                       field="dtype")
        kind = _require(head, "type", str)
        real_valued = _require(head, "real_valued", bool)
        try:
            return _decode(kind, head, fh, real_valued)
        except ValueError as exc:
            # a field or sample the grid constructors refuse, such as a NaN spacing or sample
            raise ContainerError(f"{kind}: {exc}") from exc


def _decode(kind: str, head: dict, fh, real_valued: bool):
    if kind == "image":
        return _images(head, fh, 2, real_valued)[0]
    if kind == "sinogram":
        n_tau, n_phi = _shape(head, 2)
        angles = AngularRange(_require(head, "phi_min", (int, float)),
                              _require(head, "phi_max", (int, float)), n_phi)
        (values,) = _blocks(fh, (n_tau, n_phi), 1, real_valued)
        return Sinogram(_require(head, "tau_min", (int, float)),
                        _require(head, "d_tau", (int, float)), n_tau, angles, values)
    if kind == "volume":
        positions = _require(head, "x3_positions", list)
        return VolumeStack(tuple(positions), tuple(_images(head, fh, 3, real_valued)))
    raise MalformedHeaderError(f"type: unknown container type '{kind}'", field="type")


def _images(head: dict, fh, rank: int, real_valued: bool) -> list[ImageGrid2D]:
    """The image blocks of an image (rank 2) or a stack (rank 3), all on one GridGeometry."""
    *lead, nx, ny = _shape(head, rank)
    geometry = GridGeometry(nx, ny, *(_require(head, key, (int, float))
                                      for key in ("x_min", "y_min", "dx", "dy")))
    return [ImageGrid2D(geometry, values)
            for values in _blocks(fh, (nx, ny), lead[0] if lead else 1, real_valued)]
