"""In-memory span tracer that wraps levyem's public functions from outside.

Every wrapped call records one span: name, parent span, start and end on
``time.perf_counter``.  Spans live in four parallel lists until the run ends
and are written out once by :meth:`Tracer.save`.  A span's layer is the part
of its name before the first dot (``samplers.increments`` -> ``samplers``).

Counters are recorded at the same boundaries by small callbacks that look at
a wrapped call's arguments and result.  The tracer keeps one span stack, so
it must only be installed around single-threaded work.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import math
import time
from collections import defaultdict

import numpy as np

ROOT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id: list[int] = []
        self.parent: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack = [ROOT]
        self._patches: list[tuple] = []
        self.missing: list[str] = []

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        sid = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(sid)

    def _open(self, nid: int) -> int:
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start[sid] = time.perf_counter()
        return sid

    def _close(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None):
        """Return ``fn`` wrapped in a span; ``count(counters, args, kwargs,
        result)`` runs after a call that returned."""
        nid = self._intern(name)
        open_, close, counters = self._open, self._close, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(sid)
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`restore`.
        An attribute the program no longer has is recorded as missing."""
        if not hasattr(owner, attr):
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, count))

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` until :meth:`restore`."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def mark(self) -> int:
        return len(self.start)

    def summarize(self, lo: int, hi: int) -> "SpanSummary":
        return SpanSummary.build(self, lo, hi)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names, dtype=str),
                 name_id=np.asarray(self.name_id, dtype=np.int32),
                 parent=np.asarray(self.parent, dtype=np.int64),
                 start=np.asarray(self.start), end=np.asarray(self.end))


@dataclasses.dataclass
class SpanSummary:
    """Per-name and per-layer totals over the spans with ids in [lo, hi)."""

    count: dict        # name -> calls
    total: dict        # name -> summed duration, s
    layer_time: dict   # layer -> duration of its outermost spans, s
    layer_self: dict   # layer -> span time not covered by child spans, s

    @classmethod
    def build(cls, tracer: Tracer, lo: int, hi: int) -> "SpanSummary":
        if hi <= lo:
            return cls({}, {}, {}, {})
        nid = np.asarray(tracer.name_id[lo:hi])
        dur = np.asarray(tracer.end[lo:hi]) - np.asarray(tracer.start[lo:hi])
        parent = np.asarray(tracer.parent[lo:hi]) - lo
        inside = parent >= 0
        children = np.bincount(parent[inside], weights=dur[inside], minlength=hi - lo)
        self_time = dur - children
        layers = [name.split(".", 1)[0] for name in tracer.names]
        layer_of = np.array([layers[i] for i in nid], dtype=object)
        parent_layer = np.where(inside, layer_of[np.where(inside, parent, 0)], None)
        outermost = parent_layer != layer_of

        count, total, layer_time, layer_self = {}, {}, {}, {}
        for i in np.unique(nid):
            sel = nid == i
            count[tracer.names[i]] = int(sel.sum())
            total[tracer.names[i]] = float(dur[sel].sum())
        for layer in set(layer_of):
            sel = layer_of == layer
            layer_time[layer] = float(dur[sel & outermost].sum())
            layer_self[layer] = float(self_time[sel].sum())
        return cls(count, total, layer_time, layer_self)


# ----------------------------------------------------------------------
# the levyem layer boundaries
# ----------------------------------------------------------------------

def _count_variates(c, args, kwargs, batch):
    c["samplers.variates"] += batch.values.size


def _count_jumps(c, args, kwargs, radii):
    c["samplers.jumps"] += len(radii)


def _count_drift(c, args, kwargs, result):
    c["engine.drift_elems"] += np.size(args[1] if len(args) > 1 else kwargs["x"])


def _count_mc(c, args, kwargs, table):
    config = args[0] if args else kwargs["config"]
    c["harness.chunks"] += math.ceil(config.paths / config.chunk)
    c["harness.flagged"] += table.flagged


def _count_density(c, args, kwargs, table):
    n = table.grid.n_points
    c["spectral.grid_points"] = max(c["spectral.grid_points"], n)
    # three FFTs per call: the density and its first two derivatives
    c["spectral.fft_flops_computed"] += 3 * 5 * n * math.log2(n)


def _count_picard(c, args, kwargs, sol):
    # the converged iteration is not appended to the contraction history;
    # iterations of horizons abandoned by a halving are not visible here
    c["spectral.picard_iters"] += len(sol.diffs) + (1 if sol.converged else 0)
    c["spectral.picard_halvings"] += sol.halvings


@contextlib.contextmanager
def installed(tracer: Tracer, levyem):
    """Wrap the public layer boundaries of an imported ``levyem`` package."""
    engine, harness, models = levyem.engine, levyem.harness, levyem.models
    rng, samplers, spectral = levyem.rng, levyem.samplers, levyem.spectral
    try:
        tracer.patch(harness, "run_experiment", "harness.run_experiment")
        tracer.patch(harness, "mc_strong_error", "harness.mc_strong_error", _count_mc)
        tracer.patch(harness, "increments", "samplers.increments", _count_variates)
        tracer.patch(harness, "fit_rate", "fitting.fit_rate")
        tracer.patch(harness, "fit_decay_rate", "fitting.fit_decay_rate")
        tracer.patch(samplers, "default_epsilon", "samplers.default_epsilon")
        tracer.patch(models.RadialDensity, "sample_tail", "models.sample_tail",
                     _count_jumps)
        tracer.patch(rng.RngStream, "generator", "rng.generator")
        tracer.patch(spectral, "char_exponent_radial", "models.char_exponent_radial")
        tracer.patch(spectral, "suggest_grid", "spectral.suggest_grid")
        tracer.patch(spectral, "gradient_scaling_exponent",
                     "spectral.gradient_scaling_exponent")
        tracer.patch(spectral, "density_fft", "spectral.density_fft", _count_density)
        tracer.patch(spectral, "picard_solve", "spectral.picard_solve", _count_picard)
        tracer.patch(spectral, "kolmogorov_residual", "spectral.kolmogorov_residual")

        def traced_factory(factory):
            def make(**kwargs):
                spec = factory(**kwargs)
                fn = tracer.wrap("engine.drift", spec.fn, _count_drift)
                return dataclasses.replace(spec, fn=fn)
            return make

        tracer.replace(engine, "DRIFT_CATALOG",
                       {k: traced_factory(f) for k, f in engine.DRIFT_CATALOG.items()})
        yield tracer
    finally:
        tracer.restore()
