"""Pinned ``hsflow verify`` reports.

``pinned.json`` holds the SHA-256 digest of the JSON text that
``hsflow verify --out`` writes for a few (trials, seed) pairs, one of them a
failing seed, with the report's fields and the fingerprint of the numpy build
and CPU that made them.  On that fingerprint every digest must match, so the
reports stay byte-identical.  On any other, roundoff may move the last bits
of a residual: the reports are compared field by field, every field but
``max_residual`` exactly, and a warning names the difference.

A change that alters the reports on purpose re-pins in the same commit:

    PYTHONPATH=src python tests/test_pinned_outputs.py
"""

import hashlib
import json
import platform
import warnings
from pathlib import Path

import numpy as np
import pytest

from hsflow import verify

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:   # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

PINNED = Path(__file__).with_name("pinned.json")
CASES = [(1000, 1), (1000, 38), (1000, 69), (200, 1)]


def fingerprint() -> dict:
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cpu_features": sorted(k for k, on in __cpu_features__.items() if on)}


def report_text(trials: int, seed: int) -> str:
    """What ``hsflow verify --trials <trials> --seed <seed> --out`` writes."""
    return json.dumps(verify.run_suite(trials, seed), indent=2, sort_keys=True) + "\n"


def without_residuals(report: dict) -> dict:
    return {**report, "identities": {
        name: {k: v for k, v in entry.items() if k != "max_residual"}
        for name, entry in report["identities"].items()}}


def pins() -> dict:
    entries = {}
    for trials, seed in CASES:
        text = report_text(trials, seed)
        entries[f"{trials}/{seed}"] = {"sha256": hashlib.sha256(text.encode()).hexdigest(),
                                       "report": without_residuals(json.loads(text))}
    return {"fingerprint": fingerprint(), "verify": entries}


def fingerprint_difference(pinned: dict, here: dict) -> str:
    parts = []
    for key in ("numpy", "machine"):
        if pinned[key] != here[key]:
            parts.append(f"{key} {pinned[key]} pinned, {here[key]} here")
    if pinned["cpu_features"] != here["cpu_features"]:
        lost = sorted(set(pinned["cpu_features"]) - set(here["cpu_features"]))
        gained = sorted(set(here["cpu_features"]) - set(pinned["cpu_features"]))
        parts.append(f"CPU features pinned but not here {lost}, here but not pinned {gained}")
    return "; ".join(parts)


@pytest.fixture(scope="module")
def pinned():
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("trials,seed", CASES)
def test_verify_report_is_pinned(trials, seed, pinned):
    pin = pinned["verify"][f"{trials}/{seed}"]
    text = report_text(trials, seed)
    difference = fingerprint_difference(pinned["fingerprint"], fingerprint())
    if not difference:
        assert hashlib.sha256(text.encode()).hexdigest() == pin["sha256"]
    else:
        warnings.warn(f"verify report {trials}/{seed} compared without max_residual, "
                      f"not byte for byte: {difference}")
    assert without_residuals(json.loads(text)) == pin["report"]


if __name__ == "__main__":
    PINNED.write_text(json.dumps(pins(), indent=2, sort_keys=True) + "\n")
