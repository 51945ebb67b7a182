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
from dataclasses import dataclass, field, fields

from . import grid_calculus as gc
from . import initial_data
from .flow_engine import FlowConfig
from .errors import ValidationError


def _list(kind):
    def coerce(text):
        if not isinstance(text, (list, tuple)):
            text = str(text).replace(",", " ").split()
        return tuple(kind(v) for v in text)
    return coerce


def _int(value):   # not JSON's booleans or fractions; 4.0 is an integer, as in the schema
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _opt_float(text):
    if text is None or str(text).lower() in ("none", "null", ""):
        return None
    return float(text)


# every key is coerced by the annotation of the field it sets
_BY_ANNOTATION = {"int": _int, "float": float, "str": str, "float | None": _opt_float,
                  "tuple[int, ...]": _list(_int), "tuple[float, ...]": _list(float)}


@dataclass
class ExperimentConfig:
    lattice_n: tuple[int, ...] = (16, 8, 8, 8)
    lattice_L: tuple[float, ...] = (1.0, 1.0, 1.0, 1.0)
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
        if self.initial_seed < 0:
            raise ValidationError("initial seed must be nonnegative")
        return self

    def lattice(self) -> gc.Lattice:
        return gc.Lattice(tuple(self.lattice_n), tuple(self.lattice_L))

    def sections(self) -> dict:
        return {section: {key: getattr(self.flow if section == "flow" else self, name)
                          for key, name in keys.items()}
                for section, keys in _KEYS.items()}

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


# section -> key -> the field it sets: a FlowConfig field under [flow], else
# an ExperimentConfig one; the fields hold the defaults
_KEYS = {
    "lattice": {"n": "lattice_n", "l": "lattice_L"},
    "initial": {"generator": "generator", "amplitude": "amplitude", "seed": "initial_seed",
                "modes": "modes"},
    "flow": {f.name: f.name for f in fields(FlowConfig)},
    "output": {"dir": "out_dir"},
}
_COERCE = {f.name: _BY_ANNOTATION[f.type]
           for cls in (ExperimentConfig, FlowConfig) for f in fields(cls) if f.name != "flow"}


def _from_sections(raw: dict) -> ExperimentConfig:
    values = {}
    for section, keys in _KEYS.items():
        given = raw.get(section, {})
        if not isinstance(given, dict):
            raise ValidationError(f"section [{section}] must be an object, got {given!r}")
        got = {str(k).lower(): v for k, v in given.items()}
        unknown = set(got) - set(keys)
        if unknown:
            raise ValidationError(f"unknown key(s) {sorted(unknown)} in section [{section}]")
        values[section] = {}
        for key, name in keys.items():
            if key in got:
                try:
                    values[section][name] = _COERCE[name](got[key])
                except (TypeError, ValueError) as exc:
                    raise ValidationError(f"bad value for {section}.{key}: {got[key]!r}") from exc
    unknown_sections = set(raw) - set(_KEYS)
    if unknown_sections:
        raise ValidationError(f"unknown section(s) {sorted(unknown_sections)}")
    flow = values.pop("flow")
    # an explicit fixed dt supersedes the default CFL policy
    if flow.get("dt") is not None and "cfl" not in flow:
        flow["cfl"] = None
    cfg = ExperimentConfig(flow=FlowConfig(**flow),
                           **{name: v for given in values.values() for name, v in given.items()})
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
