"""Spans around the calls into each tdalab layer, recorded from outside.

The tracer never touches tdalab's source. While installed it replaces, in
the namespace of ``tdalab.pipelines``, every public function that the
module imported from a layer module, every imported layer module (by a view
whose public functions are wrapped) and every imported estimator class (one
with a ``fit`` method, by a subclass whose public methods are wrapped). The
benchmark reaches ``datagen``, ``io`` and the experiment functions through
views from ``Tracer.view``. Spans and counts stay in memory until
``write_spans`` is called at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass

LAYERS = ("geometry", "datagen", "complexes", "persistence", "signatures", "learn", "pipelines", "io")
PACKAGE = "tdalab"

# percentiles tried for the tail, in tenths of a percent, highest first; the
# tail is the highest one that leaves at least TAIL_MIN_BEYOND samples above it
TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)
TAIL_MIN_BEYOND = 10


def layer_of(module_name: str) -> str | None:
    """The layer a ``tdalab.<layer>`` module belongs to, else None."""
    package, _, layer = module_name.partition(".")
    return layer if package == PACKAGE and layer in LAYERS else None


@dataclass(frozen=True)
class Span:
    span_id: int
    parent: int | None
    layer: str
    name: str
    start: float
    end: float
    phase: str


class _ModuleView:
    """Attribute view of a module whose own public functions are traced."""

    def __init__(self, tracer: "Tracer", module, layer: str):
        self._tracer = tracer
        self._module = module
        self._layer = layer
        self._cache = {}

    def __getattr__(self, name):
        obj = getattr(self._module, name)
        if name.startswith("_") or not inspect.isfunction(obj):
            return obj
        if obj.__module__ != self._module.__name__:
            return obj
        if name not in self._cache:
            self._cache[name] = self._tracer.wrap(self._layer, obj)
        return self._cache[name]


class Tracer:
    """In-memory span recorder with per-phase counts and persistence items.

    A phase names what the process was doing (``setup-0``, ``rep-1``, ...);
    every span and count belongs to the phase current when it was recorded.
    A persistence item is the group of persistence calls made on complexes
    built from one input object (a distance matrix or a mask); items are
    what the retry loop works on, so they carry the fallback count.
    """

    def __init__(self):
        self.spans: list = []
        self.counts: dict = {}
        self.items: dict = {}  # phase -> list of [persistence seconds, compute_ph calls]
        self.phase = "idle"
        self._stack: list = []
        self._built: dict = {}  # id(complex) -> the object it was built from
        self._item_source = None

    # -- recording ---------------------------------------------------------

    def begin(self, phase: str) -> None:
        self.phase = phase
        self.counts.setdefault(phase, Counter())
        self.items.setdefault(phase, [])
        self._built.clear()
        self._item_source = None

    def wrap(self, layer: str, fn):
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append(None)
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[span_id] = Span(span_id, parent, layer, name, start, end, self.phase)
            self._observe(layer, fn.__name__, args, out, end - start)
            return out

        return traced

    def _observe(self, layer, name, args, out, seconds) -> None:
        counts = self.counts.setdefault(self.phase, Counter())
        counts[f"{layer}.calls"] += 1
        if layer == "complexes":
            if args:
                self._built[id(out)] = args[0]
            counts["complexes.edges"] += len(getattr(out, "edges", ()))
            counts["complexes.triangles"] += len(getattr(out, "triangles", ()))
            top = getattr(out, "top_values", None)
            if top is not None:
                counts["complexes.cells"] += int((top < math.inf).sum())
        elif layer == "persistence":
            counts["persistence.intervals"] += len(getattr(out, "intervals", ()))
            items = self.items.setdefault(self.phase, [])
            source = self._built.get(id(args[0])) if args else None
            if source is None or source is not self._item_source:
                self._item_source = source
                self._built = {k: v for k, v in self._built.items() if v is source}
                items.append([0.0, 0])
            items[-1][0] += seconds
            if name == "compute_ph":
                items[-1][1] += 1
        elif layer == "io" and isinstance(out, str):
            counts["io.bytes"] += len(out.encode())

    # -- installation ------------------------------------------------------

    def view(self, module):
        """The module with its own public functions traced."""
        return _ModuleView(self, module, layer_of(module.__name__))

    def _traced_class(self, layer: str, cls):
        namespace = {}
        for attr, raw in vars(cls).items():
            if attr.startswith("_"):
                continue
            if isinstance(raw, classmethod):
                namespace[attr] = classmethod(self.wrap(layer, raw.__func__))
            elif isinstance(raw, staticmethod):
                namespace[attr] = staticmethod(self.wrap(layer, raw.__func__))
            elif inspect.isfunction(raw):
                namespace[attr] = self.wrap(layer, raw)
        return type(cls.__name__, (cls,), namespace)

    @contextmanager
    def installed(self, pipelines):
        """Trace the layer calls that ``pipelines`` makes, then restore it."""
        saved = dict(vars(pipelines))
        try:
            for name, obj in saved.items():
                if name.startswith("_"):
                    continue
                if inspect.ismodule(obj):
                    layer = layer_of(obj.__name__)
                    if layer and layer != "pipelines":
                        setattr(pipelines, name, _ModuleView(self, obj, layer))
                    continue
                layer = layer_of(getattr(obj, "__module__", None) or "")
                if layer is None or layer == "pipelines":
                    continue
                if inspect.isfunction(obj):
                    setattr(pipelines, name, self.wrap(layer, obj))
                elif inspect.isclass(obj) and callable(getattr(obj, "fit", None)):
                    setattr(pipelines, name, self._traced_class(layer, obj))
            yield self
        finally:
            for name, obj in saved.items():
                setattr(pipelines, name, obj)

    # -- derived metrics ---------------------------------------------------

    def self_seconds(self, phase: str) -> Counter:
        """Per-layer self time in a phase: span time minus child span time."""
        busy = Counter()
        for span in self.spans:
            if span.phase != phase:
                continue
            busy[span.layer] += span.end - span.start
            if span.parent is not None:
                busy[self.spans[span.parent].layer] -= span.end - span.start
        return busy

    def layer_metrics(self, setup_phases, rep_phases) -> tuple:
        """Per-layer metrics, each the median over the traced repetitions
        (``datagen.busy_s`` over the set-up phases), and a line that gives
        the tail's percentile and sample count."""
        per_rep = []
        for phase in rep_phases:
            busy = self.self_seconds(phase)
            counts = self.counts.get(phase, Counter())
            items = self.items.get(phase, [])
            samples = sorted(seconds for seconds, _ in items)
            permille = tail_permille(len(samples))
            calls = counts["persistence.calls"]
            fallbacks = sum(max(0, n - 1) for _, n in items)
            row = {f"{layer}.busy_s": busy[layer] for layer in LAYERS if layer != "pipelines"}
            row["pipelines.self_s"] = busy["pipelines"]
            for key in (
                "geometry.calls", "complexes.calls", "complexes.edges", "complexes.triangles",
                "complexes.cells", "persistence.calls", "persistence.intervals",
                "signatures.calls", "learn.calls", "io.bytes",
            ):
                row[key] = counts[key]
            row["persistence.fallbacks"] = fallbacks
            row["persistence.kept_ratio"] = (calls - fallbacks) / calls if calls else 1.0
            row["persistence.item_p50_s"] = percentile(samples, 500) if samples else 0.0
            row["persistence.item_tail_s"] = percentile(samples, permille) if samples else 0.0
            per_rep.append(row)
        out = {key: statistics.median(row[key] for row in per_rep) for key in per_rep[0]}
        out["datagen.busy_s"] = statistics.median(
            self.self_seconds(phase)["datagen"] for phase in setup_phases
        )
        # every repetition has the same items, so they share the percentile
        note = (f"persistence.item_tail_s is p{permille / 10:g} of {len(samples)} items"
                f" per repetition, median over {len(per_rep)} repetitions")
        return out, note

    def write_spans(self, path) -> None:
        """One JSON object per span, in the order the spans started."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.__dict__) + "\n")


def rank(count: int, permille: int) -> int:
    """Nearest rank (1-based) of a percentile given in tenths of a percent."""
    return max(1, -(-permille * count // 1000))


def percentile(sorted_values, permille: int) -> float:
    """Nearest-rank percentile of an ascending, nonempty sequence."""
    return sorted_values[rank(len(sorted_values), permille) - 1]


def tail_permille(count: int) -> int:
    """Highest listed percentile with at least TAIL_MIN_BEYOND samples above it."""
    for permille in TAIL_PERMILLE:
        if count - rank(count, permille) >= TAIL_MIN_BEYOND:
            return permille
    return 500
