"""Binary snapshot format for lattice 2-form fields.

Layout (all little-endian):

    bytes 0-3   magic "HSF1"
    4 x u32     grid sizes n0..n3
    4 x f64     period lengths L0..L3
    f64         simulation time
    u32         number of 2-form fields (3 for a triple)
    payload     per field, the 6 component arrays interleaved point-major:
                a C-ordered (n0, n1, n2, n3, 6) block of f64, so x3 is the
                fastest grid axis and the component index the fastest overall

A JSON sidecar ``<path>.json`` carries provenance: config hash, step index,
time, and the diagnostics row at write time.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from . import grid_calculus as gc
from .errors import ValidationError

MAGIC = b"HSF1"
_HEADER = struct.Struct("<4I4ddI")


def write_snapshot(path, tf: gc.TripleField, time: float = 0.0) -> None:
    lat = tf.lattice
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(*lat.n, *lat.L, float(time), 3))
        for i in range(3):   # written from the array's own buffer, not a bytes copy
            fh.write(np.ascontiguousarray(tf.c[..., i, :], dtype="<f8"))


def read_snapshot(path):
    """Returns ``(triple_field, time)``, c component-major; validates magic and size."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise ValidationError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise ValidationError(f"{path}: truncated header")
        *sizes, time, nforms = _HEADER.unpack(header)   # n0..n3, L0..L3, time, forms
        try:
            lat = gc.Lattice(tuple(sizes[:4]), tuple(sizes[4:]))
        except ValueError as exc:
            raise ValidationError(f"{path}: bad lattice in header: {exc}") from exc
        count = lat.num_points * 6
        fields = []
        for _ in range(nforms):
            buf = fh.read(count * 8)
            if len(buf) != count * 8:
                raise ValidationError(f"{path}: truncated payload")
            fields.append(np.frombuffer(buf, dtype="<f8").reshape(lat.shape + (6,)))
        if fh.read(1):
            raise ValidationError(f"{path}: trailing bytes after payload")
    if nforms != 3:
        raise ValidationError(f"{path}: expected a triple (3 fields), got {nforms}")
    c, = gc._fields(lat.shape, (3, 6))   # component-major, as the flow's states
    for i, f in enumerate(fields):
        c[..., i, :] = f
    return gc.TripleField(lat, c), time


def write_sidecar(path, payload: dict) -> None:
    with open(str(path) + ".json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_sidecar(path) -> dict:
    """The sidecar's JSON object; ValueError when the file holds anything else."""
    with open(str(path) + ".json") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"{fh.name} holds no JSON object")
    return payload
