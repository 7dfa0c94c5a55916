"""Layer tracing for the benchmark: wraps the library's public calls from outside.

A traced iteration patches each layer function where its callers look it up
(every `treegraded` module global bound to it, or the class attribute for a
method), runs the workload, and restores the originals. Each call records its
self time (duration minus the time of traced calls it made) and a call count.
Coarse layers also record a span (id, name, start, end, parent span, run id);
the hot leaves (`dist_row` alone runs millions of times per sweep) only update
the aggregate counters.

The tracing overhead is estimated, not timed against an untraced iteration
(the machine's drift between two iterations is larger than the overhead): the
calls each wrapper kind made, times that wrapper's cost per call, measured on
a no-op function in the same process.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

import numpy as np

CHECKS = (
    "projection_uniqueness",
    "projection_lipschitz",
    "projection_stability",
    "chain_entry_projection",
    "trace_shape",
    "base_component_bound",
    "piece_offset",
    "near_projection_color",
    "projected_chain_color",
    "in_piece_chain_distance",
    "geodesic_chain_distance",
)

# (layer name, "module:attribute" or "module:Class.method", hot leaf)
LAYERS = (
    ("forge.gen_random", "treegraded.forge:gen_random", False),
    ("formats.write_space", "treegraded.formats:write_space", False),
    ("formats.read_space", "treegraded.formats:read_space", False),
    ("formats.write_coloring", "treegraded.formats:write_coloring", False),
    ("formats.read_coloring", "treegraded.formats:read_coloring", False),
    ("graph.Graph", "treegraded.graph:Graph.__init__", False),
    ("graph.dist_row", "treegraded.graph:Graph.dist_row", True),
    ("graph.scale_components", "treegraded.graph:Graph.scale_components", True),
    ("graph.diameter_witness", "treegraded.graph:Graph.diameter_witness", True),
    ("graph.canonical_geodesic", "treegraded.graph:Graph.canonical_geodesic", True),
    ("space.validate", "treegraded.space:Space.validate", False),
    ("space.project", "treegraded.space:Space.project", True),
    ("space.piece_dist_from", "treegraded.space:Space.piece_dist_from", True),
    ("coloring.build_piece_colorings", "treegraded.coloring:build_piece_colorings", False),
    ("coloring.magnitude_report", "treegraded.coloring:magnitude_report", False),
    ("coloring.classify_piece", "treegraded.coloring:classify_piece", True),
    ("assemble.color_space", "treegraded.assemble:color_space", False),
    ("assemble.trace", "treegraded.assemble:trace", True),
    ("checks.space_suite", "treegraded.checks:space_suite", False),
    ("checks.cell_suite", "treegraded.checks:cell_suite", False),
    ("checks.proj_array", "treegraded.checks:SpaceAnalysis.proj_array", True),
) + tuple((f"checks.{name}", f"treegraded.checks:check_{name}", False) for name in CHECKS)

# layers whose results feed the counters beside the timings
_OBSERVED = {"forge.gen_random", "space.validate"} | {f"checks.{name}" for name in CHECKS}


def cached_array_bytes(obj) -> int:
    """Bytes of the numpy arrays an object holds, directly or one container deep
    (the distance cache of a Graph, whatever shape the engine gives it)."""
    names = [n for cls in type(obj).__mro__ for n in getattr(cls, "__slots__", ())]
    names += list(getattr(obj, "__dict__", {}))
    seen: set[int] = set()
    total = 0

    def visit(value, depth: int):
        nonlocal total
        if isinstance(value, np.ndarray):
            if id(value) not in seen:
                seen.add(id(value))
                total += value.nbytes
        elif depth and isinstance(value, dict):
            for item in value.values():
                visit(item, depth - 1)
        elif depth and isinstance(value, (list, tuple)):
            for item in value:
                visit(item, depth - 1)

    for name in names:
        visit(getattr(obj, name, None), 2)
    return total


class Tracer:
    """Self time, call counts and coarse spans for one traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = perf_counter()
        self.stats: dict[str, list] = {}  # layer -> [calls, self seconds]
        self.spans: list[tuple[int, str, float, float, int | None, str]] = []
        self.vertices = 0  # generated by forge
        self.cases = 0  # property-check cases examined
        self.violations = 0  # property-check violations found
        self.dist_bytes = 0  # largest distance cache of one graph
        self.unresolved: list[str] = []  # LAYERS targets the library does not have
        self.hot: set[str] = set()  # layers wrapped as hot leaves
        self._stack: list[list] = []  # open calls: [seconds in traced callees, span id or None]
        self._spans_opened = 0
        self._validated: list = []  # spaces whose graph caches are still to be measured

    def calls(self, layer: str) -> int:
        return self.stats.get(layer, (0, 0.0))[0]

    def self_seconds(self, layer: str) -> float:
        return self.stats.get(layer, (0, 0.0))[1]

    def _open_span(self) -> list:
        frame = [0.0, self._spans_opened]
        self._spans_opened += 1
        self._stack.append(frame)
        return frame

    def _close_span(self, name: str, frame: list, start: float, end: float):
        stack = self._stack
        stack.pop()
        duration = end - start
        acc = self.stats.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += duration - frame[0]
        if stack:
            stack[-1][0] += duration
        parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
        self.spans.append((frame[1], name, start - self.origin, end - self.origin, parent, self.run_id))

    @contextmanager
    def span(self, name: str):
        """A coarse span around the benchmark's own code."""
        frame = self._open_span()
        start = perf_counter()
        try:
            yield
        finally:
            self._close_span(name, frame, start, perf_counter())

    def wrap(self, name: str, fn, hot: bool):
        if not hot:
            return self._wrap_coarse(name, fn)
        self.hot.add(name)
        stack = self._stack
        acc = self.stats.setdefault(name, [0, 0.0])
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, None]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                acc[0] += 1
                acc[1] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration

        return traced

    def _wrap_coarse(self, name: str, fn):
        tracer = self
        observe = name in _OBSERVED

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open_span()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(name, frame, start, perf_counter())
            if observe:
                tracer._observe(name, args, result)
            return result

        return traced

    def _observe(self, name: str, args: tuple, result):
        if name == "forge.gen_random":
            self.vertices += result.graph.vertex_count
        elif name == "space.validate":
            self.measure_caches()
            self._validated.append(args[0])
        else:  # a property check
            self.cases += result.checked
            self.violations += len(result.violations) + result.info.get("suppressed", 0)

    def measure_caches(self):
        """Fold the distance caches of spaces validated so far into dist_bytes.

        Caches only grow, so measuring a graph when the next space is validated
        (or the run ends) sees its largest size.
        """
        for space in self._validated:
            self.dist_bytes = max(self.dist_bytes, cached_array_bytes(space.graph))
        self._validated.clear()

    def layer_seconds(self, prefix: str) -> float:
        return sum(acc[1] for name, acc in self.stats.items() if name.startswith(prefix))

    def overhead_seconds(self) -> float:
        """Estimated seconds the wrappers added to the traced run."""
        per_call = {hot: wrapper_seconds(hot) for hot in (False, True)}
        return sum(acc[0] * per_call[name in self.hot] for name, acc in self.stats.items())


def wrapper_seconds(hot: bool, calls: int = 20_000, repeats: int = 5) -> float:
    """Seconds one wrapper of the given kind adds to a call: the median, over
    `repeats`, of a wrapped no-op's time per call minus the bare no-op's."""

    def noop(*args):
        return None

    tracer = Tracer("calibration")
    wrapped = tracer.wrap("calibration", noop, hot)
    samples = []
    with tracer.span("calibration"):  # wrapped calls inside a span, as in a run
        for _ in range(repeats):
            started = perf_counter()
            for _ in range(calls):
                noop(None)
            bare = perf_counter() - started
            started = perf_counter()
            for _ in range(calls):
                wrapped(None)
            samples.append((perf_counter() - started - bare) / calls)
    return max(statistics.median(samples), 0.0)


@contextmanager
def patched(tracer: Tracer):
    """Route every layer call through the tracer; restore the library on exit."""
    undo: list[tuple[object, str, object]] = []
    try:
        for name, target, hot in LAYERS:
            module_name, _, qualname = target.partition(":")
            # a layer the library no longer has is recorded, and fails the run
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                tracer.unresolved.append(target)
                continue
            if "." in qualname:
                cls_name, method = qualname.split(".")
                cls = getattr(module, cls_name, None)
                original = vars(cls).get(method) if cls is not None else None
                if original is None:
                    tracer.unresolved.append(target)
                    continue
                undo.append((cls, method, original))
                setattr(cls, method, tracer.wrap(name, original, hot))
                continue
            original = getattr(module, qualname, None)
            if original is None:
                tracer.unresolved.append(target)
                continue
            traced = tracer.wrap(name, original, hot)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name != "treegraded" and not mod_name.startswith("treegraded."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, traced)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        tracer.measure_caches()
