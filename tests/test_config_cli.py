import hashlib
import json
import math
import os
import struct
import subprocess
import sys
import threading
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from hsflow import cli
from hsflow import config as config_mod
from hsflow import flow_engine as fe
from hsflow import grid_calculus as gc
from hsflow import initial_data
from hsflow import snapshot as snap
from hsflow import triple_algebra as ta
from hsflow.errors import ValidationError

INI = """\
[lattice]
n = 8 4 4 4
L = 1 1 1 1

[initial]
generator = t3-invariant
amplitude = 0.05
seed = 7

[flow]
cfl = 0.2
max_steps = 12
diag_cadence = 4
fiber_samples = 2
seed = 1
checkpoint_cadence = 6

[output]
dir = {out}
"""


def test_ini_json_equivalent(tmp_path):
    cfg_ini = config_mod.loads(INI.format(out="runs/x"))
    cfg_json = config_mod.loads(cfg_ini.to_json())
    assert cfg_json == cfg_ini
    assert cfg_json.config_hash() == cfg_ini.config_hash()


def test_round_trip_stable():
    cfg = config_mod.loads(INI.format(out="runs/x"))
    again = config_mod.loads(config_mod.loads(cfg.to_json()).to_json())
    assert again == cfg


def test_defaults_applied():
    cfg = config_mod.loads("[lattice]\nn = 4 4 4 4\n")
    assert cfg.generator == "hyperkahler-standard"
    assert cfg.flow.cfl == 0.2
    assert cfg.flow.dt is None


def test_unknown_key_rejected():
    with pytest.raises(ValidationError, match="unknown key"):
        config_mod.loads("[lattice]\nn = 4 4 4 4\nnn = 3\n")


def test_unknown_section_rejected():
    with pytest.raises(ValidationError, match="unknown section"):
        config_mod.loads("[latice]\nn = 4 4 4 4\n")


@pytest.mark.parametrize("text", ['{"lattice": 5}', '{"flow": [1]}', '{"initial": null}'])
def test_section_not_an_object_rejected(text):
    with pytest.raises(ValidationError, match="must be an object"):
        config_mod.loads(text)


def test_bad_value_rejected():
    with pytest.raises(ValidationError, match="bad value"):
        config_mod.loads("[flow]\nmax_steps = soon\n")


@pytest.mark.parametrize("section,key,value", [
    ("initial", "seed", 1.7), ("initial", "seed", True), ("flow", "max_steps", True),
    ("flow", "max_steps", 12.0), ("flow", "seed", float("inf")), ("initial", "modes", 2.5),
    ("lattice", "n", [4, 4, 4, 4.9]), ("lattice", "n", [4, 4, 4, 4.0]),
    ("lattice", "n", [4, 4, 4, True])])
def test_json_integers_as_the_schema_has_them(section, key, value):
    # a JSON boolean or fraction is no integer: it is neither truncated nor
    # read as 1; a number with no fraction, such as 4.0, is one under the schema
    jsonschema = pytest.importorskip("jsonschema")
    raw = {section: {key: value}}
    if jsonschema.Draft202012Validator(SCHEMA).is_valid(raw):
        got = config_mod.loads(json.dumps(raw)).sections()[section][key]
        got = got if isinstance(got, tuple) else (got,)
        assert got == tuple(np.ravel(value)) and all(type(v) is int for v in got)
    else:
        with pytest.raises(ValidationError, match=rf"bad value for {section}\.{key}"):
            config_mod.loads(json.dumps(raw))


def test_hash_changes_with_content():
    a = config_mod.loads(INI.format(out="runs/x"))
    b = config_mod.loads(INI.format(out="runs/x").replace("0.05", "0.06"))
    assert a.config_hash() != b.config_hash()


def test_hash_ignores_output_dir():
    a = config_mod.loads(INI.format(out="runs/x"))
    b = config_mod.loads(INI.format(out="runs/elsewhere"))
    assert a.config_hash() == b.config_hash()


def test_config_artifacts_pinned():
    # the hash is written into every diagnostics.csv and snapshot sidecar, and
    # to_json is the config.json of a run: both must outlive parser rewrites
    cfg = config_mod.loads(INI.format(out="runs/x"))
    assert cfg.config_hash() == "47d60e390a1948dc"
    assert hashlib.sha256(cfg.to_json().encode()).hexdigest().startswith("7f30b9075170010d")
    assert config_mod.loads("{}").config_hash() == "891933aea7fb4a41"


def test_every_field_has_one_key():
    reached = sorted(("FlowConfig" if section == "flow" else "ExperimentConfig", name)
                     for section, keys in config_mod._KEYS.items() for name in keys.values())
    expected = sorted([("ExperimentConfig", f.name)
                       for f in fields(config_mod.ExperimentConfig) if f.name != "flow"]
                      + [("FlowConfig", f.name) for f in fields(fe.FlowConfig)])
    assert reached == expected
    documented = {section: sorted(spec["properties"])
                  for section, spec in SCHEMA["properties"].items()}
    assert documented == {section: sorted(keys) for section, keys in config_mod._KEYS.items()}


def test_schema_validates_json_form():
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads(
        (Path(__file__).parent.parent / "docs" / "config.schema.json").read_text())
    cfg = config_mod.loads(INI.format(out="runs/x"))
    jsonschema.validate(json.loads(cfg.to_json()), schema)


SCHEMA = json.loads((Path(__file__).parent.parent / "docs" / "config.schema.json").read_text())


# an entry each list key accepts, to fill the lists of the schema cases
_FILL = {("lattice", "n"): 4, ("lattice", "l"): 1}


def _schema_limits():
    """``(section, key, value, accepted)`` for every limit of the schema: the
    last value it accepts and the first one past it, for an enum each member
    and one value outside it, and for a list's length the whole list."""
    cases = []
    for section, keys in SCHEMA["properties"].items():
        for key, prop in keys["properties"].items():
            at = (section, key)
            if "minItems" in prop:
                cases += [(*at, [_FILL[at]] * prop["minItems"], True),
                          (*at, [_FILL[at]] * (prop["minItems"] - 1), False)]
            if "maxItems" in prop:
                cases += [(*at, [_FILL[at]] * prop["maxItems"], True),
                          (*at, [_FILL[at]] * (prop["maxItems"] + 1), False)]
            spec = prop.get("items", prop)   # a list's limits hold for each entry
            if spec.get("type") == "integer":
                def past(x, d):
                    return x + d
            else:
                def past(x, d):
                    return math.nextafter(x, d * math.inf)
            if "minimum" in spec:
                cases += [(*at, spec["minimum"], True), (*at, past(spec["minimum"], -1), False)]
            if "exclusiveMinimum" in spec:
                low = spec["exclusiveMinimum"]
                cases += [(*at, past(low, 1), True), (*at, low, False)]
            if "maximum" in spec:
                cases += [(*at, spec["maximum"], True), (*at, past(spec["maximum"], 1), False)]
            if "enum" in spec:
                members = spec["enum"]
                outside = (max(members) + 1 if isinstance(members[0], int)
                           else "not-" + members[0])
                cases += [(*at, v, True) for v in members] + [(*at, outside, False)]
    return cases


@pytest.mark.parametrize("section,key,value,accepted", _schema_limits())
def test_schema_limits_are_enforced(section, key, value, accepted):
    sections = {"lattice": {"n": "4 4 4 4"}}
    fill = [_FILL[section, key]] * 3 if (section, key) in _FILL else []
    # a list case is the whole list; a scalar limit is a list key's first entry
    entries = value if isinstance(value, list) else [value] + fill
    sections.setdefault(section, {})[key] = " ".join(
        v if isinstance(v, str) else repr(v) for v in entries)
    ini = "".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                  for name, keys in sections.items())
    if accepted:
        config_mod.loads(ini)
    else:
        with pytest.raises(ValidationError):
            config_mod.loads(ini)


class TestCliFlow:
    def test_flow_lift_report(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg_path = tmp_path / "exp.ini"
        cfg_path.write_text(INI.format(out=out))
        assert cli.main(["flow", "--config", str(cfg_path)]) == 0
        assert (out / "config.json").exists()
        csv_text = (out / "diagnostics.csv").read_text()
        assert csv_text.startswith("# config_hash=")
        assert "step,time,dt,max_dw,min_eig_Q" in csv_text
        snaps = sorted(out.glob("snap_*.hsf"))
        assert [p.name for p in snaps] == ["snap_000006.hsf", "snap_000012.hsf"]
        sidecar = snap.read_sidecar(snaps[0])
        assert sidecar["step"] == 6
        assert sidecar["config_hash"] in csv_text

        capsys.readouterr()   # drain the flow command's output
        assert cli.main(["lift", "--snapshot", str(snaps[-1])]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["max_star7_residual"] <= 1e-9
        assert report["max_torsion_trace"] <= 1e-9

        assert cli.main(["report", "--run", str(out)]) == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["max_dw_worst"] <= 1e-11
        assert summary["period_drift_worst"] <= 1e-11
        assert "q_dev_tail_monotone" in summary
        assert summary["q_dev_ratio"] < 1.0
        assert (out / "report.csv").read_text().startswith("time,q_dev")

    def test_missing_config_is_io_error(self, tmp_path):
        assert cli.main(["flow", "--config", str(tmp_path / "nope.ini")]) == 3

    def test_invalid_config_is_validation_error(self, tmp_path):
        p = tmp_path / "bad.ini"
        p.write_text("[flow]\nmax_steps = soon\n")
        assert cli.main(["flow", "--config", str(p)]) == 1

    @pytest.mark.parametrize("text", ['{"lattice": 5}', '{"flow": [1]}'])
    def test_section_not_an_object_is_validation_error(self, tmp_path, capsys, text):
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert cli.main(["flow", "--config", str(p)]) == 1
        assert "validation error: section [" in capsys.readouterr().err

    def test_bad_lattice_is_validation_error(self, tmp_path, capsys):
        p = tmp_path / "exp.ini"
        p.write_text(INI.format(out=tmp_path / "r").replace("8 4 4 4", "2 4 4 4"))
        assert cli.main(["flow", "--config", str(p)]) == 1
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["fiber_samples = -2", "checkpoint_cadence = -1",
                                      "degeneration_threshold = 0"])
    def test_schema_limit_is_validation_error(self, tmp_path, capsys, line):
        p = tmp_path / "exp.ini"
        p.write_text(INI.format(out=tmp_path / "r").replace("[output]", line + "\n\n[output]"))
        assert cli.main(["flow", "--config", str(p)]) == 1
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("old,new", [
        ("generator = t3-invariant", "generator = exact-perturbation\nmodes = 0"),
        ("generator = t3-invariant", "generator = exact-perturbation\nmodes = -3"),
        ("amplitude = 0.05", "amplitude = nan"),
        ("L = 1 1 1 1", "L = nan 1 1 1"),
        ("L = 1 1 1 1", "L = inf 1 1 1"),
        ("cfl = 0.2", "dt = nan"),
        ("cfl = 0.2", "dt = inf"),
        ("max_steps = 12", "max_steps = 12\nt_end = nan"),
        ("max_steps = 12", "max_steps = 12\nt_end = -1"),
        ("seed = 7", "seed = -7"),
        ("fiber_samples = 2\nseed = 1", "fiber_samples = 2\nseed = -1"),
        ("max_steps = 12", "max_steps = 12\ndegeneration_threshold = inf")])
    def test_out_of_range_or_non_finite_is_validation_error(self, tmp_path, capsys, old, new):
        p = tmp_path / "exp.ini"
        p.write_text(INI.format(out=tmp_path / "r").replace(old, new))
        assert cli.main(["flow", "--config", str(p)]) == 1
        assert "validation error" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("value", ["0", "-2", "two"])
    def test_bad_workers_is_validation_error(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("HSF_WORKERS", value)
        p = tmp_path / "exp.ini"
        p.write_text(INI.format(out=tmp_path / "r"))
        assert cli.main(["flow", "--config", str(p)]) == 1
        assert "validation error: HSF_WORKERS" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_degeneration_exit_code(self, tmp_path):
        p = tmp_path / "exp.ini"
        p.write_text(INI.format(out=tmp_path / "r")
                     .replace("cfl = 0.2", "dt = 5.0")
                     .replace("max_steps = 12", "max_steps = 2"))
        assert cli.main(["flow", "--config", str(p)]) == 2

    def test_overlarge_amplitude_exit_code(self, tmp_path, capsys):
        # degenerate initial data abort before the run directory is made
        for generator, amplitude in (("t3-invariant", "9.5"), ("exact-perturbation", "5.0")):
            p = tmp_path / "exp.ini"
            p.write_text(INI.format(out=tmp_path / "r").replace("0.05", amplitude)
                         .replace("t3-invariant", generator))
            assert cli.main(["flow", "--config", str(p)]) == 2
            assert "max admissible amplitude" in capsys.readouterr().err
            assert not (tmp_path / "r").exists()

    def test_initial_data_normalized_once(self, tmp_path, monkeypatch):
        # the initial-data guard's normalization is the flow's first state's:
        # one lattice-sized normalization before row 0
        p = tmp_path / "exp.ini"
        p.write_text(INI.format(out=tmp_path / "r"))
        shape = config_mod.load(p).lattice().shape
        calls, before_row0 = [], []
        normalize, diagnostics = gc._normalize_fields, fe.diagnostics
        monkeypatch.setattr(gc, "_normalize_fields", lambda c, *a: calls.append(
            np.shape(c)[:4] == shape) or normalize(c, *a))
        monkeypatch.setattr(fe, "diagnostics", lambda *a, **kw: before_row0.append(
            sum(calls)) or diagnostics(*a, **kw))
        assert cli.main(["flow", "--config", str(p)]) == 0
        assert before_row0[0] == 1


def test_lift_bad_header_lattice_is_validation_error(tmp_path, capsys):
    path = tmp_path / "state.hsf"
    lat = gc.Lattice((4, 4, 4, 4))
    snap.write_snapshot(path, gc.constant_triple_field(lat, ta.standard_triple()))
    raw = bytearray(path.read_bytes())
    raw[4:8] = struct.pack("<I", 2)    # first grid size of the header
    path.write_bytes(bytes(raw))
    assert cli.main(["lift", "--snapshot", str(path)]) == 1
    assert "validation error" in capsys.readouterr().err


def test_lift_non_finite_header_length_is_validation_error(tmp_path, capsys):
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, gc.constant_triple_field(gc.Lattice((4, 4, 4, 4)),
                                                       ta.standard_triple()))
    raw = bytearray(path.read_bytes())
    raw[20:28] = struct.pack("<d", float("nan"))    # first period length of the header
    path.write_bytes(bytes(raw))
    assert cli.main(["lift", "--snapshot", str(path)]) == 1
    assert "bad lattice in header" in capsys.readouterr().err


def test_lift_huge_header_is_validation_error(tmp_path, capsys):
    # 65535^4 points in the header and no payload: checked before any read
    path = tmp_path / "state.hsf"
    path.write_bytes(b"HSF1" + struct.pack("<4I4ddI", *[65535] * 4, *[1.0] * 4, 0.0, 3))
    assert cli.main(["lift", "--snapshot", str(path)]) == 1
    assert "validation error: " in capsys.readouterr().err


def test_lift_evaluates_each_field_once(tmp_path, monkeypatch, capsys):
    # w is differentiated once (its d gives max_dw), and no lattice-wide
    # eigvalsh runs: the guard's screen gives min_eig_Q from a few points
    lat = gc.Lattice((4, 4, 4, 4))
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, initial_data.generate_initial(
        lat, "exact-perturbation", 0.05, 3))
    calls = {"d": [], "eigvalsh": [], "max_dabs": 0}
    d, eigvalsh, max_dabs = gc.d, np.linalg.eigvalsh, gc.TripleField.max_dabs

    def counted_max_dabs(self, *args, **kw):
        calls["max_dabs"] += 1
        return max_dabs(self, *args, **kw)
    # every exterior derivative runs through gc.d
    monkeypatch.setattr(gc, "d", lambda lat_, f, *a, **kw: calls["d"].append(f.shape)
                        or d(lat_, f, *a, **kw))
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda m, *a, **kw: calls["eigvalsh"].append(
        m.shape) or eigvalsh(m, *a, **kw))
    monkeypatch.setattr(gc.TripleField, "max_dabs", counted_max_dabs)
    assert cli.main(["lift", "--snapshot", str(path), "--samples", "4"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert calls["d"] == [lat.shape + (3, 6)] * 2      # the dual triple and w
    assert [s for s in calls["eigvalsh"] if s[0] >= lat.num_points or s[:4] == lat.shape] == []
    assert calls["max_dabs"] == 0
    assert report["max_dw"] <= 1e-10 and report["min_eig_Q"] > 0.0


def _exact_snapshot(tmp_path, n=(4, 4, 4, 4)):
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, initial_data.generate_initial(
        gc.Lattice(n), "exact-perturbation", 0.05, 3))
    return path


def _order2_run(tmp_path):
    """Final snapshot of an 8x8x4x4 exact-perturbation run at stencil order 2."""
    p = tmp_path / "exp.ini"
    p.write_text(INI.format(out=tmp_path / "r")
                 .replace("8 4 4 4", "8 8 4 4").replace("t3-invariant", "exact-perturbation")
                 .replace("checkpoint_cadence = 6", "stencil_order = 2"))
    assert cli.main(["flow", "--config", str(p)]) == 0
    return tmp_path / "r" / "snap_000012.hsf"


def test_lift_uses_the_runs_stencil_order(tmp_path, capsys):
    path = _order2_run(tmp_path)
    assert snap.read_sidecar(path)["stencil_order"] == 2
    capsys.readouterr()
    assert cli.main(["lift", "--snapshot", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["max_dw"] <= 1e-10
    # without the sidecar, order 4, which does not see this field as closed
    Path(str(path) + ".json").unlink()
    assert cli.main(["lift", "--snapshot", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["max_dw"] > 1e-3


def test_lift_bad_sidecar_is_validation_error(tmp_path, capsys):
    path = _order2_run(tmp_path)
    side = snap.read_sidecar(path)
    snap.write_sidecar(path, dict(side, stencil_order=3))
    capsys.readouterr()
    assert cli.main(["lift", "--snapshot", str(path)]) == 1
    assert "stencil_order" in capsys.readouterr().err
    Path(str(path) + ".json").write_text("{not json")
    assert cli.main(["lift", "--snapshot", str(path)]) == 1
    assert "validation error" in capsys.readouterr().err
    Path(str(path) + ".json").write_text("[1, 2]")    # JSON, but not an object
    assert cli.main(["lift", "--snapshot", str(path)]) == 1
    assert f"validation error: {path}: unreadable sidecar: {path}.json holds no JSON object" \
        in capsys.readouterr().err


def test_lift_negative_samples_is_validation_error(tmp_path, capsys):
    assert cli.main(["lift", "--snapshot", str(_exact_snapshot(tmp_path)),
                     "--samples", "-1"]) == 1
    assert "validation error" in capsys.readouterr().err


def test_lift_negative_seed_is_validation_error(tmp_path, capsys):
    assert cli.main(["lift", "--snapshot", str(_exact_snapshot(tmp_path)),
                     "--seed", "-3"]) == 1
    assert "validation error: --samples and --seed" in capsys.readouterr().err


def test_verify_negative_seed_is_validation_error(capsys):
    assert cli.main(["verify", "--trials", "5", "--seed", "-1"]) == 1
    assert "validation error: --seed" in capsys.readouterr().err


def test_lift_samples_like_the_flow(tmp_path, monkeypatch, capsys):
    # same seed and count give the flow's fiber samples; the dual lift's
    # torsion comes from the function the diagnostics rows use
    path = _exact_snapshot(tmp_path, (8, 4, 4, 4))
    calls = []
    torsion = fe.dual_lift_torsion
    monkeypatch.setattr(fe, "dual_lift_torsion", lambda st, points, *a: calls.append(
        points) or torsion(st, points, *a))
    assert cli.main(["lift", "--snapshot", str(path), "--samples", "5", "--seed", "9"]) == 0
    report = json.loads(capsys.readouterr().out)
    tf, _ = snap.read_snapshot(path)
    state = fe.init_state(fe.FlowConfig(fiber_samples=5, seed=9), tf)
    assert calls == [state.sample_points] and report["points_sampled"] == 5


def test_lift_sigma_is_the_flows(tmp_path, monkeypatch):
    # lift's dual triple at its samples is, bit for bit, the sigma that a
    # flow's right-hand side keeps there (flow_engine._at), here from a
    # component-major copy of the state as in a run
    from hsflow import fiber_g2 as fg
    tf, time = snap.read_snapshot(_exact_snapshot(tmp_path, (8, 4, 4, 4)))
    seen = {}
    _record_calls(monkeypatch, fg, ("build_psi",), seen)
    cli._lift_report(tf, time, 6, 5)
    (sigma, _), = seen["build_psi"]
    flow_tf = gc.TripleField(tf.lattice, ta._pointwise(ta._entries(tf.c)))
    state = fe.init_state(fe.FlowConfig(fiber_samples=6, seed=5), flow_tf)
    fe.rhs(state)
    kept, _ = state.kept[("dual", 4, state.sample_points)]
    assert state.sample_points == fe.draw_points(tf.lattice, 6, 5)
    assert sigma.tobytes() == np.ascontiguousarray(kept).tobytes()


def _record_calls(monkeypatch, module, names, calls):
    """Wrap ``module.<name>`` so that ``calls[name]`` lists each call's arguments."""
    for name in names:
        def recorded(*args, _fn=getattr(module, name), _name=name):
            calls.setdefault(_name, []).append(args)
            return _fn(*args)
        monkeypatch.setattr(module, name, recorded)


def test_lift_report_matches_per_point_loop(tmp_path, monkeypatch):
    # the batched report evaluates the same points, in the same order, as a
    # loop over single fibers
    from hsflow import fiber_g2 as fg
    path = _exact_snapshot(tmp_path, (8, 4, 4, 4))
    tf, time = snap.read_snapshot(path)
    seen = {}
    check_star7 = fg.check_star7
    _record_calls(monkeypatch, fg, ("check_star7", "torsion_trace"), seen)
    report = cli._lift_report(tf, time, 40, 5)
    q, _, mu = gc.pointwise_normalize(tf)
    dome = gc.d(tf.lattice, tf.c, 2, 4)
    rows = {"phi": [], "psi": [], "g7": [], "dphi": [], "star": []}
    for idx in fe.draw_points(tf.lattice, 40, 5):
        phi = fg.build_phi(tf.c[idx])
        psi = fg.build_psi(ta._product(ta.adj3(q[idx]), tf.c[idx]), mu[idx])
        g7, _ = fg.metric_from_phi(phi)
        for key, value in (("phi", phi), ("psi", psi), ("g7", g7),
                           ("dphi", fg.assemble_dphi(dome[idx])),
                           ("star", check_star7(phi, psi, g7))):
            rows[key].append(value)
    (phi, psi, g7), = seen["check_star7"]
    assert np.array_equal(phi, np.stack(rows["phi"]))
    assert np.array_equal(psi, np.stack(rows["psi"]))
    assert np.abs(g7 - np.stack(rows["g7"])).max() <= 1e-14
    _, (_, dphi, _) = seen["torsion_trace"]     # the dual lift, then the lift of w
    assert np.array_equal(dphi, np.stack(rows["dphi"]))
    assert report["points_sampled"] == 40
    assert abs(report["max_star7_residual"] - max(rows["star"])) <= 1e-14
    assert report["max_torsion_trace"] == 0.0


def test_lift_calls_each_fiber_kernel_once(tmp_path, monkeypatch, capsys):
    from hsflow import fiber_g2 as fg
    path = _exact_snapshot(tmp_path)
    calls = {}
    _record_calls(monkeypatch, fg, ("metric_from_phi", "hodge7"), calls)
    assert cli.main(["lift", "--snapshot", str(path), "--samples", "200"]) == 0
    assert json.loads(capsys.readouterr().out)["points_sampled"] == 200
    assert {name: len(args) for name, args in calls.items()} == {
        "metric_from_phi": 1, "hodge7": 1}


def test_lift_names_the_indefinite_point(tmp_path, capsys):
    lat = gc.Lattice((4, 4, 4, 4))
    tf = gc.constant_triple_field(lat, ta.standard_triple())
    tf.c[1, 2, 3, 0, 2] *= -1.0      # (w1, w2, -w3) at one point: left-handed
    path = tmp_path / "state.hsf"
    snap.write_snapshot(path, tf)
    assert cli.main(["lift", "--snapshot", str(path), "--samples", "256"]) == 2
    assert "lattice index (1, 2, 3, 0)" in capsys.readouterr().err


class TestCliVerify:
    def test_smoke_pass(self, tmp_path, capsys):
        assert cli.main(["verify", "--trials", "1", "--seed", "3"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"] is True

    def test_report_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert cli.main(["verify", "--trials", "2", "--seed", "3",
                         "--out", str(out)]) == 0
        assert json.loads(out.read_text())["passed"] is True


class TestReportTruncated:
    """A diagnostics.csv cut short, mid-number or mid-row, is a validation
    error that names the file and the row's line."""

    FULL = "1,2e-05,1e-05,0,0.5,0,0,1,0.19,1.0000000000000001e-05"

    def report(self, tmp_path, capsys, last):
        run = tmp_path / "run"
        run.mkdir()
        (run / "diagnostics.csv").write_text("\n".join([
            "# config_hash=0", ",".join(fe.DIAG_COLUMNS), "0," + ",".join(["0.5"] * 9),
            last]))
        code = cli.main(["report", "--run", str(run)])
        return code, capsys.readouterr().err

    def test_complete_file_reports(self, tmp_path, capsys):
        assert self.report(tmp_path, capsys, self.FULL)[0] == 0

    @pytest.mark.parametrize("last,what", [
        (FULL[:-3], "could not convert string to float: '1.0000000000000001e'"),
        (FULL[:15], "has 4 fields, not 10")])
    def test_cut_last_row(self, tmp_path, capsys, last, what):
        code, err = self.report(tmp_path, capsys, last)
        assert code == 1
        assert err.startswith("validation error: ") and "diagnostics.csv: row at line 4" in err
        assert what in err

    def test_cut_header(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "diagnostics.csv").write_text("step,time,dt,max_dw,min_eig_Q,max_abs\n0,0")
        assert cli.main(["report", "--run", str(run)]) == 1
        assert "no column max_abs_detQ_minus_1" in capsys.readouterr().err


class TestWorkers:
    """HSF_WORKERS sets the threads of hsflow flow; a two-slab lattice gives
    byte-identical outputs at any value, and no thread outlives the run."""

    INI16 = INI.replace("8 4 4 4", "16 16 16 16").replace("max_steps = 12", "max_steps = 1")

    def flow(self, tmp_path, monkeypatch, workers, tag):
        monkeypatch.setenv("HSF_WORKERS", str(workers))
        p = tmp_path / f"{tag}.ini"
        p.write_text(self.INI16.format(out=tmp_path / tag))
        assert cli.main(["flow", "--config", str(p)]) == 0
        return tmp_path / tag

    def test_one_step_flow_byte_identical(self, tmp_path, monkeypatch):
        outputs = []
        for workers in (1, 2, 4):
            run = self.flow(tmp_path, monkeypatch, workers, f"w{workers}")
            outputs.append([(run / name).read_bytes()
                            for name in ("diagnostics.csv", "snap_000001.hsf")])
            assert json.loads((run / "config.json").read_text())["workers"] == workers
        assert outputs[0] == outputs[1] == outputs[2]

    def test_default_is_the_usable_cpus(self, monkeypatch):
        monkeypatch.delenv("HSF_WORKERS", raising=False)
        assert cli._workers() == len(os.sched_getaffinity(0))

    @pytest.mark.parametrize("argv", [["verify", "--trials", "2"], ["lift", "--snapshot"]])
    def test_other_commands_import_no_thread_pool(self, tmp_path, argv):
        # in a fresh interpreter: only hsflow flow's slab threads need it
        if argv[0] == "lift":
            argv = argv + [str(_exact_snapshot(tmp_path))]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        code = ("import sys\nfrom hsflow import cli\n"
                "assert cli.main(sys.argv[1:]) == 0\n"
                "assert 'concurrent.futures' not in sys.modules\n")
        done = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr

    def test_no_pool_thread_outlives_the_run(self, tmp_path, monkeypatch):
        seen, step = set(), fe.step

        def watched_step(*args, **kwargs):
            seen.update(t.name for t in threading.enumerate())
            return step(*args, **kwargs)
        monkeypatch.setattr(fe, "step", watched_step)
        self.flow(tmp_path, monkeypatch, 2, "run")
        assert any(name.startswith("hsflow-slab") for name in seen)
        left = [t for t in threading.enumerate() if t.name.startswith("hsflow-slab")]
        for t in left:
            t.join(timeout=10)
        assert not any(t.is_alive() for t in left)
        assert left == []   # the pool was shut down before the command returned
