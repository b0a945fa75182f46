"""Spans recorded from outside the library.

:func:`install` wraps the public functions named in :data:`TARGETS` and
rebinds each wrapper wherever a ``qbary`` module holds the original, because
the modules import each other's functions by name.  A span is
``[name, start, end, parent, item, counters]``; spans stay in memory until
the pass ends.
"""

from __future__ import annotations

import sys
import time

TARGETS = {
    "cli": ("execute",),
    "ehrhart": ("lattice_point_stats", "ehrhart_polynomial", "reciprocity_check"),
    "hull": ("convex_hull", "volume_and_barycenter"),
    "polytope": (
        "polytope_from_document",
        "hull_from_vertices",
        "body_from_points",
        "measure",
        "facet_data",
        "classify",
    ),
    "lattice": ("hermite_normal_form",),
    "exactnum": ("poly_fit", "laurent_expand"),
    "expansion": ("barycenter_function", "asymptotic_coefficients", "quantized_barycenter"),
    "toric": ("mixed_volume", "divisor_polytope", "hrr_coefficients", "rooftop_coefficients"),
    "stability": ("delta_sequence", "delta_k"),
}


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item: int | None = None

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        if name == "ehrhart.lattice_point_stats":
            return self._wrap_counting(name, fn)

        counts_points = name == "hull.convex_hull"

        def traced(*args, **kwargs):
            if counts_points:  # the hull may be given a one-shot iterable
                args = (list(args[0]),) + args[1:]
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if counts_points:
                    span[5] = {"points_in": len(args[0])}

        return traced

    def _wrap_counting(self, name: str, fn):
        """Counting spans also record whether the cache answered, the
        dilation, the points found and the bounding-box points scanned."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(p, k, *args, **kwargs):
            misses = fn.cache_info().misses
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(p, k, *args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            box = 1
            for i in range(p.dim):
                coords = [v[i] for v in p.vertices]
                box *= k * (max(coords) - min(coords)) + 1
            span[5] = {
                "k": k,
                "dim": p.dim,
                "miss": fn.cache_info().misses > misses,
                "points": result[0],
                "box_points": box,
            }
            return result

        return traced


def install(recorder: Recorder) -> None:
    modules = [m for n, m in list(sys.modules.items()) if n == "qbary" or n.startswith("qbary.")]
    for mod_name, names in TARGETS.items():
        owner = sys.modules[f"qbary.{mod_name}"]
        for fn_name in names:
            original = getattr(owner, fn_name)
            wrapper = recorder.wrap(f"{mod_name}.{fn_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

