"""Experiment configuration: parsing, validation, canonical hashing.

Two equivalent formats are accepted: sectioned key-value text (INI) and JSON
with the same section/key names (see ``docs/config.schema.json``).  Parsed
configs round-trip through :meth:`ExperimentConfig.to_json` and hash to a
stable digest that is recorded in every output artifact.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass, field, fields, asdict

from . import grid_calculus as gc
from . import initial_data
from .flow_engine import FlowConfig
from .errors import ValidationError

_INT, _FLOAT, _STR = int, float, str


def _int_list(text):
    if isinstance(text, (list, tuple)):
        return [int(v) for v in text]
    return [int(v) for v in str(text).replace(",", " ").split()]


def _float_list(text):
    if isinstance(text, (list, tuple)):
        return [float(v) for v in text]
    return [float(v) for v in str(text).replace(",", " ").split()]


def _opt_float(text):
    if text is None or str(text).lower() in ("none", "null", ""):
        return None
    return float(text)


_BY_ANNOTATION = {"int": _INT, "float": _FLOAT, "str": _STR, "float | None": _opt_float}

# section -> key -> (coercer for INI strings, default)
_SCHEMA = {
    "lattice": {
        "n": (_int_list, [16, 8, 8, 8]),
        "l": (_float_list, [1.0, 1.0, 1.0, 1.0]),
    },
    "initial": {
        "generator": (_STR, "hyperkahler-standard"),
        "amplitude": (_FLOAT, 0.0),
        "seed": (_INT, 0),
        "modes": (_INT, 1),
    },
    # every FlowConfig field with its default, coerced by its annotation
    "flow": {f.name: (_BY_ANNOTATION[f.type], f.default) for f in fields(FlowConfig)},
    "output": {
        "dir": (_STR, "runs/out"),
    },
}


@dataclass
class ExperimentConfig:
    lattice_n: tuple = (16, 8, 8, 8)
    lattice_L: tuple = (1.0, 1.0, 1.0, 1.0)
    generator: str = "hyperkahler-standard"
    amplitude: float = 0.0
    initial_seed: int = 0
    modes: int = 1
    flow: FlowConfig = field(default_factory=FlowConfig)
    out_dir: str = "runs/out"

    def validate(self) -> "ExperimentConfig":
        try:
            self.lattice()
        except ValueError as exc:
            raise ValidationError(f"bad lattice: {exc}") from exc
        self.flow.validate()
        if self.generator not in initial_data.GENERATORS:
            raise ValidationError(f"unknown generator {self.generator!r}")
        if not 0 <= self.amplitude < math.inf:
            raise ValidationError("amplitude must be nonnegative and finite")
        if self.modes < 1:
            raise ValidationError("modes must be >= 1")
        return self

    def lattice(self) -> gc.Lattice:
        return gc.Lattice(tuple(self.lattice_n), tuple(self.lattice_L))

    def sections(self) -> dict:
        return {
            "lattice": {"n": list(self.lattice_n), "l": list(self.lattice_L)},
            "initial": {"generator": self.generator, "amplitude": self.amplitude,
                        "seed": self.initial_seed, "modes": self.modes},
            "flow": asdict(self.flow),
            "output": {"dir": self.out_dir},
        }

    def to_json(self) -> str:
        return json.dumps(self.sections(), indent=2, sort_keys=True) + "\n"

    def config_hash(self) -> str:
        """Digest of the experiment content (lattice, initial data, flow).

        The output location is excluded: re-running the same experiment into
        a different directory reproduces identical artifacts, hash included.
        """
        sections = {k: v for k, v in self.sections().items() if k != "output"}
        blob = json.dumps(sections, sort_keys=True,
                          separators=(",", ":")).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def _from_sections(raw: dict) -> ExperimentConfig:
    values = {}
    for section, keys in _SCHEMA.items():
        got = {str(k).lower(): v for k, v in (raw.get(section) or {}).items()}
        unknown = set(got) - set(keys)
        if unknown:
            raise ValidationError(
                f"unknown key(s) {sorted(unknown)} in section [{section}]")
        values[section] = {}
        for key, (coerce, default) in keys.items():
            if key in got:
                try:
                    values[section][key] = coerce(got[key])
                except (TypeError, ValueError) as exc:
                    raise ValidationError(
                        f"bad value for {section}.{key}: {got[key]!r}") from exc
            else:
                values[section][key] = default
    unknown_sections = set(raw) - set(_SCHEMA)
    if unknown_sections:
        raise ValidationError(f"unknown section(s) {sorted(unknown_sections)}")
    lat = values["lattice"]
    if len(lat["n"]) != 4 or len(lat["l"]) != 4:
        raise ValidationError("lattice.n and lattice.L need four entries")
    # an explicit fixed dt supersedes the default CFL policy
    flow_given = {str(k).lower() for k in (raw.get("flow") or {})}
    if "dt" in flow_given and "cfl" not in flow_given:
        if values["flow"]["dt"] is not None:
            values["flow"]["cfl"] = None
    fc = FlowConfig(**values["flow"])
    cfg = ExperimentConfig(
        lattice_n=tuple(lat["n"]), lattice_L=tuple(lat["l"]),
        generator=values["initial"]["generator"],
        amplitude=values["initial"]["amplitude"],
        initial_seed=values["initial"]["seed"],
        modes=values["initial"]["modes"],
        flow=fc, out_dir=values["output"]["dir"])
    return cfg.validate()


def loads(text: str) -> ExperimentConfig:
    """Parse a config from JSON or INI text (auto-detected)."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"invalid JSON config: {exc}") from exc
        raw = {str(k).lower(): v for k, v in raw.items()}
        return _from_sections(raw)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ValidationError(f"invalid config text: {exc}") from exc
    raw = {s.lower(): dict(parser.items(s)) for s in parser.sections()}
    return _from_sections(raw)


def load(path) -> ExperimentConfig:
    with open(path) as fh:
        return loads(fh.read())
