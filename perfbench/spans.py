"""In-memory span recorder and the wrappers that feed it.

Spans are recorded around calls into each layer of the program from the
benchmark's own files: the public functions and methods are replaced by
timing wrappers for the life of the process. Nothing inside ``src/``
knows about tracing.

Each span has a name, a start, an end and the index of the span that was
open when it started. Per name the recorder also keeps the call count and
the self time (span time minus the time covered by its direct children),
so the self times of all names partition the traced wall time.
"""

from __future__ import annotations

import time
from array import array

import numpy as np


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stats = {}          # name -> [calls, self_s]
        self.counters = {}       # free-form counts recorded at span boundaries
        self._open = []          # indices of open spans
        self._child = []         # time covered by children of each open span

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name, fn, on_call=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``on_call(tracer, *args, **kwargs)`` runs before ``fn`` and may
        record counters.
        """
        nid = len(self.names)
        self.names.append(name)
        stat = self.stats.setdefault(name, [0, 0.0])
        clock = time.perf_counter
        opened, child = self._open, self._child
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(self, *args, **kwargs)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(opened[-1] if opened else -1)
            ends.append(0.0)
            opened.append(idx)
            child.append(0.0)
            t0 = clock()
            starts.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[idx] = t1
                opened.pop()
                covered = child.pop()
                dur = t1 - t0
                stat[0] += 1
                stat[1] += dur - covered
                if child:
                    child[-1] += dur

        return traced

    def patch(self, owners, attr, name, on_call=None):
        """Replace ``attr`` on every object in ``owners`` with one traced
        wrapper around the first owner's current value."""
        traced = self.wrap(name, getattr(owners[0], attr), on_call)
        for owner in owners:
            setattr(owner, attr, traced)

    def calls(self, name):
        return self.stats.get(name, [0, 0.0])[0]

    def self_s(self, name):
        return self.stats.get(name, [0, 0.0])[1]

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64))


def _note_absorb(tracer, model, rows_in, rows_out, method="auto"):
    m = len(rows_in)
    tracer.count("ridge_absorb.rows", m)
    if m < model.dim_in:
        tracer.count("ridge_absorb.woodbury_eligible")


def install(tracer, adapts):
    """Wrap every layer boundary the per-layer metrics are read from.

    Functions imported by name into another module are patched in both
    places, so calls through either name are recorded.
    """
    forecaster, harness, metrics, weighter, io = (
        adapts.forecaster, adapts.harness, adapts.metrics, adapts.weighter, adapts.io)
    tracer.patch([forecaster.OnlineForecaster], "predict", "forecaster.predict")
    tracer.patch([forecaster.OnlineForecaster], "fit_block", "forecaster.fit_block")
    tracer.patch([forecaster.OnlineForecaster], "embed_pair", "forecaster.embed_pair")
    tracer.patch([forecaster.OnlineForecaster], "observe_values", "forecaster.observe_values")
    tracer.patch([forecaster.SpectralRidge], "absorb", "forecaster.ridge_absorb",
                 on_call=_note_absorb)
    for fn in ("forward_rft", "lowpass", "pad_spectrum", "inverse_rft"):
        tracer.patch([forecaster], fn, f"spectral.{fn}")
    for fn in ("mase", "rmsse", "block_average_mase", "seasonal_naive_mae",
               "seasonal_naive_mse"):
        owners = [metrics, harness] if hasattr(harness, fn) else [metrics]
        tracer.patch(owners, fn, f"metrics.{fn}")
    for fn in ("update", "fast_weight", "current_weight"):
        tracer.patch([weighter.ChannelWeighter], fn, f"weighter.{fn}")
    tracer.patch([harness], "combine", "weighter.combine")
    for fn in ("load_series", "load_forecasts", "write_report"):
        tracer.patch([io], fn, f"io.{fn}")
    tracer.patch([harness], "run", "harness.run")
