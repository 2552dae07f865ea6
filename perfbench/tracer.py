"""Span recorder that wraps risknet's public functions from outside.

Only traced benchmark children import this module; untraced children never
install a wrapper.  A span is ``(name, start_ns, end_ns, parent)`` where
``parent`` is the index of the enclosing span (-1 at the top).  Span names
are ``<module>.<function>``, named after the module that defines the
function, so a tracer inside the program can reuse them.

Callers bind names at import (``from .dynamics import find_steady_state``),
so each function is replaced at every module attribute that refers to it,
not only in its defining module.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

#: Layers whose public functions get spans.  ``model`` is counted, not
#: timed: its validated constructors run about a thousand times per driver
#: set, and one counter shows what an optimisation of that layer removes.
TIMED_LAYERS = ("cli", "experiments", "control", "dynamics", "cascade", "netio", "estimation")


class Tracer:
    """Spans and counters held in memory until :meth:`dump`."""

    def __init__(self):
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.counts: dict = {}
        self._stack: list = []

    def wrap(self, name, fn, on_return=None):
        """Return ``fn`` recording one span per call; ``on_return`` sees the
        result, outside the span."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack
        )
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def count(self, name, value=1):
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path):
        """Write every span and counter as one JSON document."""
        doc = {
            "spans": [
                [n, s, e, p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)
            ],
            "counts": self.counts,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _record_exposures(tracer):
    """Probe for ``estimation.count_transitions``: exposure records and the
    distinct activity levels the estimator aggregates them into."""
    import numpy as np

    names = ("estimation.exposure_records", "estimation.exposure_levels")
    for name in names:
        tracer.counts[name] = 0

    def probe(counts):
        try:
            pairs = [np.asarray(s) for s, _ in counts.exposures]
        except (AttributeError, TypeError, ValueError):
            for name in names:  # a later estimator layout: reported absent
                tracer.counts[name] = None
            return
        if tracer.counts[names[0]] is None:
            return
        tracer.count(names[0], sum(s.size for s in pairs))
        tracer.count(names[1], sum(np.unique(s).size for s in pairs))

    return probe


def install(tracer: Tracer) -> list:
    """Wrap the public functions of every timed layer and count
    ``StateVector`` constructions; returns the span names installed.

    A counter starts at 0 once its source is found; a counter set to None
    could not be read and is reported absent."""
    layers = {}
    for layer in TIMED_LAYERS:
        try:
            layers[layer] = importlib.import_module(f"risknet.{layer}")
        except ImportError:
            continue
    modules = [m for key, m in sorted(sys.modules.items())
               if m is not None and (key == "risknet" or key.startswith("risknet."))]

    installed = []
    probes = {}
    for layer, mod in layers.items():
        for attr, fn in sorted(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue  # imported from another layer; wrapped under its own name
            name = f"{layer}.{attr}"
            if name == "estimation.count_transitions":
                probes[name] = _record_exposures(tracer)
            wrapped = tracer.wrap(name, fn, probes.get(name))
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)
            installed.append(name)

    try:
        state_vector = importlib.import_module("risknet.model").StateVector
        post_init = state_vector.__post_init__
    except (ImportError, AttributeError):
        return installed

    tracer.counts["model.StateVector.constructions"] = 0

    def counted_post_init(self):
        tracer.count("model.StateVector.constructions")
        post_init(self)

    state_vector.__post_init__ = counted_post_init
    return installed


def summarize(doc: dict) -> dict:
    """Per span name: calls, inclusive seconds, self seconds (duration minus
    the part its child spans cover) and every duration in ms."""
    spans = doc["spans"]
    child_ns = [0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    out: dict = {}
    for k, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "ms": []})
        dur = end - start
        entry["calls"] += 1
        entry["s"] += dur / 1e9
        entry["self_s"] += (dur - child_ns[k]) / 1e9
        entry["ms"].append(dur / 1e6)
    return out
