"""Spans around the public functions of hsflow, recorded from outside the package.

``install`` replaces module attributes with timing wrappers.  hsflow calls
across modules through module attributes (``gc.d``, ``ta.adj3``) and within
a module through its globals, so every such call passes a wrapper.  Spans
are appended to flat lists in memory and saved once, when the round ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

MODULES = ("flow_engine", "grid_calculus", "triple_algebra", "fiber_g2",
           "initial_data", "snapshot", "config", "verify", "cli")

# flow_engine.run is the step loop; it also calls the row and checkpoint
# sinks that cli.cmd_flow defines, and left unwrapped that CSV and sidecar
# work stays in cli.cmd_flow's self time.
UNWRAPPED = {"flow_engine.run"}

# span name suffix per call: the exterior derivative is split by form degree
TAGS = {"grid_calculus.d": lambda args, kwargs: f".k{args[2] if len(args) > 2 else kwargs['k']}"}
# a number kept with each span: the payload bytes of a snapshot write
NOTES = {"snapshot.write_snapshot": lambda args, kwargs: args[1].c.nbytes}


class Tracer:
    """Flat span lists: name, start, end, parent index (-1 at the root), note."""

    def __init__(self):
        self.name, self.start, self.end, self.parent, self.note = [], [], [], [], []
        self._stack = []

    def wrap(self, name, fn, tag=None, note=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.name)
            self.name.append(name if tag is None else name + tag(args, kwargs))
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.note.append(0.0 if note is None else float(note(args, kwargs)))
            self.end.append(0.0)
            self._stack.append(i)
            self.start.append(time.perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[i] = time.perf_counter()
                self._stack.pop()
        return traced

    def save(self, path) -> None:
        labels = sorted(set(self.name))
        index = {n: k for k, n in enumerate(labels)}
        np.savez(path, labels=np.array(labels),
                 name=np.array([index[n] for n in self.name], dtype=np.int32),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64),
                 note=np.array(self.note))


def install(tracer: Tracer) -> None:
    """Wrap every public function of the hsflow modules, plus the named extras."""
    mods = {short: importlib.import_module(f"hsflow.{short}") for short in MODULES}
    for short, mod in mods.items():
        for attr, obj in list(vars(mod).items()):
            full = f"{short}.{attr}"
            if (attr.startswith("_") or full in UNWRAPPED or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            setattr(mod, attr, tracer.wrap(full, obj, TAGS.get(full), NOTES.get(full)))
    gc = mods["grid_calculus"]
    # every normalization, whether from pointwise_normalize or evaluate_rhs
    gc._normalize_fields = tracer.wrap("grid_calculus.normalize", gc._normalize_fields)
    for method in ("max_dabs", "periods"):
        setattr(gc.TripleField, method, tracer.wrap(
            f"grid_calculus.TripleField.{method}", getattr(gc.TripleField, method)))
    # run_suite reads its checks from the registry, not from module attributes
    verify = mods["verify"]
    verify.CHECKS = {name: (tracer.wrap(f"verify.{name}", fn), bound)
                     for name, (fn, bound) in verify.CHECKS.items()}
