"""Per-layer timing from outside the program.

The harness looks its collaborators up by name at call time
(``complex_normal``, ``substream``, ``_encode_batch`` and ``optimize_power``
in its own module namespace, ``detectors.*_batch`` and ``analysis.*`` as
module attributes).  ``Tracer.installed()`` swaps those attributes for timing
wrappers and restores them on exit, so nothing under ``src/`` changes.

A wrapped call opens a span only when no other layer span is open, so a
layer's time is counted once: ``relay_epsilon`` calling
``coherent_mpsk_rayleigh_ser`` is one ``analysis.epsilon`` span.  Harness
self time is the time inside ``run_ser_experiment`` that no layer span
covers.  A target name the program no longer defines is reported in
``absent`` instead of raising, so the benchmark keeps running when a later
change deletes one.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from collections import defaultdict

from gdmrelay import analysis, detectors, harness

# harness attribute -> (seconds metric, calls metric, samples metric or None)
HARNESS_TARGETS = {
    "complex_normal": ("channel.draw_s", "channel.draw_calls", "channel.samples"),
    "substream": ("channel.substream_s", "channel.substreams", None),
    "_encode_batch": ("modulation.encode_s", "modulation.encode_calls", "modulation.samples"),
    "optimize_power": ("power.s", "power.calls", None),
}

ANALYSIS_GROUPS = {
    "relay_epsilon": "epsilon",
    "coherent_mpsk_rayleigh_ser": "epsilon",
    "ser_conditional_single": "conditional",
    "ser_avg_error_free": "averaged",
    "ser_avg_erroneous": "averaged",
}

# the batch kernels the harness calls; a kernel missing from detectors is absent
DETECTOR_KINDS = ("relay", "nmld", "amld", "pld", "coherent")


def _size(out) -> int:
    return int(getattr(out, "size", 1))


class Tracer:
    """Accumulates per-layer seconds and counts while installed."""

    def __init__(self):
        self.stats = defaultdict(float)
        self.absent = []          # targets the program does not define
        self.absent_keys = set()  # metrics of those targets, reported as 0
        self._layer_s = 0.0       # total time of closed layer spans
        self._open = False        # a layer span is open

    def _targets(self):
        """(module, attribute, wrapper factory, metric keys) of every target."""
        for name, keys in HARNESS_TARGETS.items():
            yield harness, name, self._layer(*keys), keys
        batch_names = {n.split("_")[0]: n for n in vars(detectors) if n.endswith("_batch")}
        for kind in DETECTOR_KINDS:
            keys = (f"detectors.{kind}.s", f"detectors.{kind}.calls",
                    f"detectors.{kind}.symbols")
            yield (detectors, batch_names.get(kind, f"{kind}_detect_batch"),
                   self._layer(*keys), keys)
        for name in analysis.__all__:
            if inspect.isclass(getattr(analysis, name, None)):
                continue
            group = ANALYSIS_GROUPS.get(name, "other")
            keys = (f"analysis.{group}.s", f"analysis.{group}.calls", None)
            yield analysis, name, self._layer(*keys), keys
        yield harness, "run_ser_experiment", self._harness_span, ("harness.self_s",)
        yield harness, "_run_batch", self._counter("harness.batches"), ("harness.batches",)

    def _layer(self, s_key, calls_key, size_key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self._open:
                    return fn(*args, **kwargs)
                self._open = True
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                finally:
                    dt = time.perf_counter() - t0
                    self._open = False
                    self._layer_s += dt
                self.stats[s_key] += dt
                self.stats[calls_key] += 1
                if size_key is not None:
                    self.stats[size_key] += _size(out)
                return out
            return wrapper
        return make

    def _harness_span(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = self._layer_s
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.stats["harness.self_s"] += (time.perf_counter() - t0
                                                 - (self._layer_s - before))
        return wrapper

    def _counter(self, key):
        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                self.stats[key] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    @contextlib.contextmanager
    def installed(self):
        """Swap every target for its wrapper; restore the originals on exit.

        Counting starts afresh.  Every metric key starts at 0, so a layer a
        workload never calls, or a target the program lacks, still reports a
        value.
        """
        self.stats = defaultdict(float)
        self._layer_s = 0.0
        saved = []
        self.absent = []
        self.absent_keys = set()
        try:
            for module, name, make, keys in self._targets():
                keys = [k for k in keys if k is not None]
                for key in keys:
                    self.stats.setdefault(key, 0.0)
                fn = getattr(module, name, None)
                if fn is None:
                    self.absent.append(f"{module.__name__}.{name}")
                    self.absent_keys.update(keys)
                    continue
                saved.append((module, name, fn))
                setattr(module, name, make(fn))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)
