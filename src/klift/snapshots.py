"""Binary snapshot format for distribution fields.

Layout: 6-byte magic "KLIFT1", a little-endian header
(version u16, N u32, Nv u32, dx f64, dv f64, v_min f64, time f64, scale f64),
then the N x Nv float64 payload in row-major order.
"""

from __future__ import annotations

import struct

import numpy as np

from .kinetic import DistributionField, build_spatial_grid, build_velocity_grid

MAGIC = b"KLIFT1"
VERSION = 1
_HEADER = struct.Struct("<HIIddddd")


def write_snapshot(path, field: DistributionField) -> None:
    header = _HEADER.pack(
        VERSION,
        field.grid.n_cells,
        field.vgrid.n_velocities,
        field.grid.dx,
        field.vgrid.dv,
        field.vgrid.v_min,
        field.time,
        field.scale,
    )
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(header)
        fh.write(payload)


def read_snapshot(path) -> DistributionField:
    with open(path, "rb") as fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise ValueError(f"{path}: not a klift snapshot (bad magic {magic!r})")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValueError(
                f"{path}: truncated snapshot header ({len(header)} of {_HEADER.size} bytes)"
            )
        version, n, nv, dx, dv, v_min, time, scale = _HEADER.unpack(header)
        if version != VERSION:
            raise ValueError(f"{path}: unsupported snapshot version {version}")
        payload = fh.read()
    expected = n * nv * 8
    if len(payload) != expected:
        raise ValueError(f"{path}: payload is {len(payload)} bytes, expected {expected}")
    values = np.frombuffer(payload, dtype="<f8").reshape(n, nv).copy()
    grid = build_spatial_grid(n * dx, n)
    vgrid = build_velocity_grid(v_min, v_min + nv * dv, nv)
    return DistributionField(grid, vgrid, values, time=time, scale=scale)
