"""Spans around the public entry points of each ``lejaflip`` layer.

:meth:`Tracer.installed` rebinds every listed function in every loaded
``lejaflip`` module that refers to it (``cli`` imports ``circle_flip_stats``
and others by name, so rebinding only the defining module would miss those
calls) and restores the originals on exit.  Spans stay in memory with parent
links until the pass ends.

``core`` and index helpers such as ``triangular_number``, ``lex_to_pair``,
``default_grid`` and ``wrap_angle`` get no spans: they are called hundreds of
thousands of times, and a span each would cost more than the work.  Their
time counts toward their callers.  Private kernels (``_abs_flip_matrix``,
``_golden_max_vec``, ``_flip_on_axes``) get none either, so that renaming
them does not change what a layer means.  The tracer keeps one span stack and
so assumes one worker thread.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

#: Layer (module of ``lejaflip``) -> its traced public entry points.
LAYERS: dict[str, tuple[str, ...]] = {
    "cli": ("main",),
    "disk": ("canonical_disk_leja", "greedy_leja", "validate_leja", "circle_samples"),
    "flip": ("circle_flip_stats", "special_n_statistics", "lebesgue_constant", "sup_norm_on_circle"),
    "transport": (
        "ellipse_exterior_map",
        "transport_sequence",
        "boundary_samples",
        "compact_flip_stats",
        "estimate_alper_constant",
    ),
    "bivariate": (
        "build_array",
        "flip_case",
        "bivariate_flip",
        "flip_via_vdm_ratio",
        "vdm_determinant",
        "vdm_extension_factor",
        "schiffer_siciak",
        "verify_2d_leja",
        "bivariate_lebesgue",
        "jackson_decay_experiment",
    ),
}

ORACLE = ("flip_via_vdm_ratio", "vdm_determinant", "vdm_extension_factor", "schiffer_siciak")
TORUS = ("bivariate_lebesgue", "jackson_decay_experiment")
SAMPLERS = ("greedy_leja", "validate_leja")
FLIP_SCANS = ("circle_flip_stats", "sup_norm_on_circle")


def _scan(nodes, grid) -> int:
    """grid x N of one boundary scan; a missing grid means the default max(4096, 64N)."""
    n = len(nodes)
    return n * (grid or max(4096, 64 * n))


#: Work counted per call, from the call's arguments.  Delegating entry points
#: (``special_n_statistics``, ``lebesgue_constant``) count nothing, so each
#: scan is counted once, by the function that runs it.
ELEMENTS = {
    "circle_flip_stats": lambda a: _scan(a["points"], a["coarse_grid"]),
    "sup_norm_on_circle": lambda a: _scan(a["points"], a["coarse_grid"]),
    "compact_flip_stats": lambda a: _scan(a["ts"], a["boundary_grid"]),
    "greedy_leja": lambda a: len(a["boundary"]) * a["n_points"],
    "validate_leja": lambda a: len(a["boundary"]) * len(a["section"]),
}

#: Per-layer metrics in the order :meth:`Tracer.metrics` reports them.
METRIC_UNITS = {
    "cli.calls": "count",
    "cli.self_s": "s",
    "disk.calls": "count",
    "disk.self_s": "s",
    "disk.sample_ns_per_elem": "ns/elem",
    "flip.calls": "count",
    "flip.self_s": "s",
    "flip.scan_elems": "count",
    "flip.scan_ns_per_elem": "ns/elem",
    "transport.calls": "count",
    "transport.self_s": "s",
    "transport.scan_elems": "count",
    "transport.scan_ns_per_elem": "ns/elem",
    "transport.alper_s": "s",
    "bivariate.calls": "count",
    "bivariate.self_s": "s",
    "bivariate.flip_calls": "count",
    "bivariate.flip_us_per_call": "us/call",
    "bivariate.oracle_s": "s",
    "bivariate.torus_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
}


def _per(numerator: float, denominator: float, scale: float) -> float:
    """numerator / denominator * scale, or 0 when the layer did no such work."""
    return numerator / denominator * scale if denominator else 0.0


class Tracer:
    """In-memory spans: (parent index, layer, function, start, end, elements)."""

    def __init__(self):
        self.spans: list = []
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, layer: str, name: str, fn):
        spans, stack = self.spans, self._stack
        elements = ELEMENTS.get(name)
        signature = inspect.signature(fn) if elements else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            elems = 0
            if elements:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                elems = elements(bound.arguments)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (parent, layer, name, start, end, elems)

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Trace the entry points in :data:`LAYERS` while the block runs."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"lejaflip.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                else:
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        rebound = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lejaflip" and not mod_name.startswith("lejaflip."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    rebound.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in rebound:
                setattr(module, attr, value)

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans; ``wall_s`` is the traced pass time.

        A span's self time is its duration minus the durations of its child
        spans.  ``trace.overhead_s`` needs an untraced pass and is left to
        the caller.
        """
        child = [0.0] * len(self.spans)
        for parent, _, _, start, end, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, elems = Counter(), Counter()
        self_s, fn_self, fn_total = defaultdict(float), defaultdict(float), defaultdict(float)
        for i, (_, layer, name, start, end, n) in enumerate(self.spans):
            own = end - start - child[i]
            calls[layer] += 1
            calls[name] += 1
            self_s[layer] += own
            fn_self[name] += own
            fn_total[name] += end - start
            elems[name] += n
        flip_elems = sum(elems[name] for name in FLIP_SCANS)
        sample_elems = sum(elems[name] for name in SAMPLERS)
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out.update(
            {
                "disk.sample_ns_per_elem": _per(sum(fn_self[n] for n in SAMPLERS), sample_elems, 1e9),
                "flip.scan_elems": flip_elems,
                "flip.scan_ns_per_elem": _per(self_s["flip"], flip_elems, 1e9),
                "transport.scan_elems": elems["compact_flip_stats"],
                "transport.scan_ns_per_elem": _per(
                    fn_self["compact_flip_stats"], elems["compact_flip_stats"], 1e9
                ),
                "transport.alper_s": fn_self["estimate_alper_constant"],
                "bivariate.flip_calls": calls["bivariate_flip"],
                "bivariate.flip_us_per_call": _per(fn_total["bivariate_flip"], calls["bivariate_flip"], 1e6),
                "bivariate.oracle_s": sum(fn_self[n] for n in ORACLE),
                "bivariate.torus_s": sum(fn_self[n] for n in TORUS),
                "trace.unattributed_s": wall_s - sum(self_s.values()),
            }
        )
        return {name: out[name] for name in METRIC_UNITS if name in out}

    def write(self, path) -> None:
        """Write the spans as rows, times in seconds from the first span's start."""
        origin = self.spans[0][3] if self.spans else 0.0
        rows = [[p, layer, name, s - origin, e - origin, n] for p, layer, name, s, e, n in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["parent", "layer", "function", "start_s", "end_s", "elements"], "rows": rows}, fh)
