"""Outside-in layer tracing for urlab.

The tracer replaces the module-level names urlab's engines call (keyed
streams, innovation draws, the MA filter and integration, path scoring,
the Brownian sampler's draws and reductions, CLI parsing and dispatch,
artifact writes) with wrappers that record one span per call: the layer
it belongs to, its start and end, and the span that was open when it
started.  Nothing under ``src/`` changes; ``uninstall`` puts every name
back.  Spans stay in memory and are written once, at the end of a run.

A layer's self time is its spans' durations minus the time their direct
children cover, so the self times of one unit sum to the unit's root span.
Flops and bytes are computed from array shapes, not measured.

Only in-process work at workers 1 is visible: pool workers are separate
processes and keep the original names.
"""

from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager

import numpy as np
from scipy import signal

from urlab import brownian, cli, monte_carlo, reporting

ROOT = "trace.unattributed"

# Self-time layer -> per-layer metric name.
BUSY_METRICS = {
    "streams": "streams.busy_s",
    "innovations": "innovations.busy_s",
    "linear_process.filter": "linear_process.filter.busy_s",
    "linear_process.integrate": "linear_process.integrate.busy_s",
    "monte_carlo.score": "monte_carlo.score.busy_s",
    "monte_carlo.aggregate": "monte_carlo.aggregate.busy_s",
    "brownian.draws": "brownian.draws.busy_s",
    "brownian.cumsum": "brownian.cumsum.busy_s",
    "brownian.quadform": "brownian.quadform.busy_s",
    "brownian.concatenate": "brownian.concatenate.busy_s",
    "brownian.other": "brownian.other.busy_s",
    "cli.parse": "cli.parse.busy_s",
    "cli.dispatch": "cli.dispatch.busy_s",
    "reporting": "reporting.busy_s",
    ROOT: "trace.unattributed_s",
}

COUNT_METRICS = (
    "streams.calls",
    "innovations.calls",
    "innovations.values",
    "linear_process.filter.flops_computed",
    "linear_process.filter.bytes_computed",
    "linear_process.integrate.bytes_computed",
    "monte_carlo.sample_statistics.calls",
    "brownian.quadform.flops_computed",
    "brownian.resampled",
    "reporting.bytes_written",
)

_MIB = float(1 << 20)


class _Proxy:
    """Stand-in for a module or object: the given names are replaced,
    every other attribute comes from the wrapped target."""

    def __init__(self, target, **replaced):
        self._target = target
        self.__dict__.update(replaced)

    def __getattr__(self, name):
        return getattr(self._target, name)


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self):
        # (id, parent id, layer, start, end), appended as spans close; tuples
        # of plain values leave the garbage collector nothing to traverse
        self.spans: list[tuple] = []
        self.units: list[tuple[int, int]] = []  # span id range per unit
        self._next_id = 0
        self.counts: Counter = Counter()
        self.alloc_mib: dict[str, float] = {}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._fir_out = None  # id of the last MA filter output
        self._finite_streams = 0
        self._finite_reps = 0
        self._points: set = set()

    # -- spans ---------------------------------------------------------

    def call(self, layer, fn, args, kwargs):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.spans.append((sid, parent, layer, start, time.perf_counter()))
            self._stack.pop()

    def _timed(self, layer, fn):
        def wrapper(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        return wrapper

    @contextmanager
    def _peak_alloc(self, metric):
        """Peak traced allocation of one call, when tracemalloc is on."""
        if not tracemalloc.is_tracing():
            yield
            return
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            yield
        finally:
            peak = (tracemalloc.get_traced_memory()[1] - start) / _MIB
            self.alloc_mib[metric] = max(self.alloc_mib.get(metric, 0.0), peak)

    def unit(self, fn, *args):
        """Run one unit of work under a root span; return (result, per-layer values)."""
        self.counts.clear()
        self.alloc_mib.clear()
        self._finite_streams = self._finite_reps = 0
        self._points.clear()
        first, lo = self._next_id, len(self.spans)
        out = self.call(ROOT, fn, args, {})
        self.units.append((first, self._next_id))
        return out, self._reduce(first, self.spans[lo:])

    def _reduce(self, first, spans):
        covered = [0.0] * len(spans)
        for _, parent, _, start, end in spans:
            if parent >= first:
                covered[parent - first] += end - start
        busy = Counter()
        for sid, _, layer, start, end in spans:
            busy[layer] += end - start - covered[sid - first]
        values = {metric: busy[layer] for layer, metric in BUSY_METRICS.items()}
        values.update({metric: self.counts[metric] for metric in COUNT_METRICS})
        values["streams.attempts_per_rep"] = (
            self._finite_streams / self._finite_reps if self._finite_reps else 0.0
        )
        calls = self.counts["monte_carlo.sample_statistics.calls"]
        values["monte_carlo.sims_per_point"] = calls / len(self._points) if self._points else 0.0
        root = spans[-1]  # the root span closes last
        values["trace.wall_s"] = root[4] - root[3]
        values["trace.spans"] = len(spans)
        return values

    def write(self, path):
        """All spans of the run, with unit boundaries, as one JSON file."""
        payload = {
            "fields": ["id", "parent", "layer", "start_s", "end_s"],
            "units": self.units,
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload), encoding="utf-8")

    # -- wrappers ------------------------------------------------------

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self):
        while self._patches:
            owner, name, value = self._patches.pop()
            setattr(owner, name, value)

    def install(self):
        mc, bm = monte_carlo, brownian
        counts = self.counts

        def mc_substream(*args, **kwargs):
            counts["streams.calls"] += 1
            self._finite_streams += 1
            return self.call("streams", substream_mc, args, kwargs)

        def standardized(rng, family, size):
            counts["innovations.calls"] += 1
            counts["innovations.values"] += int(np.prod(size))
            return self.call("innovations", standardized_mc, (rng, family, size), {})

        def lfilter(b, a, x, *args, **kwargs):
            size = np.size(x)
            if len(a) == 1:  # FIR: the MA filter on omega
                counts["linear_process.filter.flops_computed"] += 2 * len(b) * size
                counts["linear_process.filter.bytes_computed"] += 16 * size
                out = self.call("linear_process.filter", signal.lfilter, (b, a, x) + args, kwargs)
                self._fir_out = id(out)
                return out
            # AR(1) recursion: integration in the stationary contrast
            counts["linear_process.integrate.bytes_computed"] += 16 * size
            return self.call("linear_process.integrate", signal.lfilter, (b, a, x) + args, kwargs)

        def mc_cumsum(a, *args, **kwargs):
            if id(a) != self._fir_out:  # APE running sums belong to scoring
                return np.cumsum(a, *args, **kwargs)
            counts["linear_process.integrate.bytes_computed"] += 16 * np.size(a)
            return self.call("linear_process.integrate", np.cumsum, (a,) + args, kwargs)

        def sample_statistics(config, n, *args, **kwargs):
            counts["monte_carlo.sample_statistics.calls"] += 1
            self._finite_reps += config.reps
            self._points.add(
                (config.filter_spec, config.innovations, config.beta, config.varsigma,
                 config.reps, config.base_seed, n)
            )
            with self._peak_alloc("monte_carlo.peak_alloc_mib"):
                return self.call("monte_carlo.aggregate", sample_mc, (config, n) + args, kwargs)

        def bm_substream(*args, **kwargs):
            counts["streams.calls"] += 1
            rng = self.call("streams", substream_bm, args, kwargs)
            return _Proxy(rng, standard_normal=self._timed("brownian.draws", rng.standard_normal))

        def einsum(subscripts, *operands, **kwargs):
            # every einsum in the sampler is a row-wise dot "ij,ij->i"
            counts["brownian.quadform.flops_computed"] += 2 * np.size(operands[0])
            return self.call("brownian.quadform", np.einsum, (subscripts,) + operands, kwargs)

        def estimate_constants(*args, **kwargs):
            with self._peak_alloc("brownian.peak_alloc_mib"):
                return self.call("brownian.other", estimate_bm, args, kwargs)

        def limit_sample_batch(*args, **kwargs):
            with self._peak_alloc("brownian.peak_alloc_mib"):
                out = self.call("brownian.other", limit_bm, args, kwargs)
            counts["brownian.resampled"] += out["resampled"]
            return out

        def write_text(path, text):
            out = self.call("reporting", write_text_rep, (path, text), {})
            counts["reporting.bytes_written"] += out.stat().st_size
            return out

        substream_mc, standardized_mc = mc.substream, mc._standardized
        sample_mc, substream_bm = mc.sample_statistics, bm.substream
        estimate_bm, limit_bm = bm.estimate_constants, bm.limit_sample_batch
        write_text_rep = reporting.write_text

        self._patch(mc, "substream", mc_substream)
        self._patch(mc, "_standardized", standardized)
        self._patch(mc, "signal", _Proxy(signal, lfilter=lfilter))
        self._patch(mc, "np", _Proxy(np, cumsum=mc_cumsum))
        self._patch(mc, "_path_columns", self._timed("monte_carlo.score", mc._path_columns))
        self._patch(mc, "sample_statistics", sample_statistics)
        self._patch(bm, "substream", bm_substream)
        self._patch(bm, "np", _Proxy(
            np,
            cumsum=self._timed("brownian.cumsum", np.cumsum),
            einsum=einsum,
            concatenate=self._timed("brownian.concatenate", np.concatenate),
        ))
        self._patch(bm, "_constant_draws", self._timed("brownian.other", bm._constant_draws))
        self._patch(bm, "estimate_constants", estimate_constants)
        self._patch(bm, "limit_sample_batch", limit_sample_batch)
        self._patch(cli, "main", self._timed("cli.parse", cli.main))
        self._patch(cli, "load_run", self._timed("cli.parse", cli.load_run))
        self._patch(cli, "dispatch", self._timed("cli.dispatch", cli.dispatch))
        self._patch(reporting, "write_text", write_text)
        self._patch(reporting, "checksum", self._timed("reporting", reporting.checksum))
