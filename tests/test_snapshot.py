import numpy as np
import pytest

from hsflow import grid_calculus as gc
from hsflow import initial_data
from hsflow import snapshot as snap
from hsflow import triple_algebra as ta
from hsflow.errors import ValidationError


def test_round_trip(tmp_path):
    lat = gc.Lattice((8, 4, 4, 6), (1.0, 2.0, 0.5, 1.0))
    tf = initial_data.generate_initial(lat, "exact-perturbation", 0.04, seed=9)
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, tf, time=0.125)
    back, t = snap.read_snapshot(path)
    assert t == 0.125
    assert back.lattice == lat
    assert np.array_equal(back.c, tf.c)
    # read back component-major, as the flow's states: each component in place
    assert np.shares_memory(ta._entries(back.c), back.c)


def test_layout_is_documented_order(tmp_path):
    # header then x3-fastest, component-fastest little-endian payload
    lat = gc.Lattice((4, 4, 4, 4))
    tf = initial_data.generate_initial(lat, "hyperkahler-standard")
    tf.c[0, 0, 0, 1, 0, 0] = 42.0   # x3 index 1, form 0, component c01
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, tf, time=0.0)
    raw = path.read_bytes()
    assert raw[:4] == b"HSF1"
    header_len = 4 + 16 + 32 + 8 + 4
    payload = np.frombuffer(raw[header_len:], dtype="<f8")
    # form-0 block, flat index of (0,0,0,1) is 1, component 0 of 6
    assert payload[6] == 42.0


def test_bad_magic(tmp_path):
    path = tmp_path / "bad.hsf"
    path.write_bytes(b"NOPE" + b"\0" * 100)
    with pytest.raises(ValidationError, match="bad magic"):
        snap.read_snapshot(path)


def test_truncated(tmp_path):
    lat = gc.Lattice((4, 4, 4, 4))
    tf = initial_data.generate_initial(lat, "hyperkahler-standard")
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, tf)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(ValidationError, match="truncated"):
        snap.read_snapshot(path)


def test_sidecar_round_trip(tmp_path):
    path = tmp_path / "state.hsf"
    payload = {"config_hash": "abc", "step": 12, "time": 0.5}
    snap.write_sidecar(path, payload)
    assert snap.read_sidecar(path) == payload
