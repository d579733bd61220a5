"""Spans at the library's module boundaries, recorded from outside the library.

Every wrapper replaces one module attribute: the global name through which a
caller reaches the function (``uradon.cli.radon_transform``,
``uradon.forward.bilinear_sample``, ...), so the library's own source stays
untouched.  A span holds its name, start, end, parent span and iteration id.
Spans stay in memory until the run ends.  Counters are taken after the
wrapped call returns, inside a ``trace.count`` span of their own, so their
cost is neither charged to the layer they count nor hidden.

A span's self time is its duration minus the durations of its direct
children.  Every span maps to exactly one per-layer self-time metric, so the
self times of an iteration add up to the time spent inside its ``cli``
spans.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
from collections import Counter, defaultdict
from dataclasses import dataclass

import numpy as np

# span name -> per-layer metric that receives the span's self time
SELF_METRIC = {
    "cli": "cli.self_s",
    "phantoms.rasterize": "phantoms.rasterize_s",
    "container.write": "container.write_s",
    "container.read": "container.read_s",
    "forward.radon_transform": "forward.project_s",
    "forward.rays": "forward.project_s",
    "grids.bilinear": "grids.bilinear_s",
    "inversion.ramp_filtered": "inversion.ramp_filter_s",
    "inversion.finite_part_filtered": "inversion.fp_filter_s",
    "inversion.lambda_kernel_filtered": "inversion.lambda_filter_s",
    "inversion.tau_derivative": "inversion.tau_derivative_s",
    "inversion.invert_universal": "inversion.backproject_s",
    "inversion.invert_fs": "inversion.backproject_s",
    "inversion.invert_fa": "inversion.backproject_s",
    "inversion.epsilon_lambda_reconstruct": "inversion.backproject_s",
    "inversion.backproject": "inversion.backproject_s",
    "hybrid.make_slices": "hybrid.series_s",
    "hybrid.hybrid_forward": "hybrid.series_s",
    "hybrid.hybrid_radon": "hybrid.series_s",
    "hybrid.reconstruct_volume": "hybrid.series_s",
    "hybrid.hybrid_inverse_series": "hybrid.series_s",
    "slice_theorem.fst_lhs": "slice_theorem.lhs_s",
    "slice_theorem.fst_rhs": "slice_theorem.rhs_s",
    "holonomy.check_holonomy": "holonomy.check_s",
    "holonomy.extract_defect": "holonomy.defect_s",
    "trace.count": "trace.count_s",
}

# span name -> metric that receives the span's whole duration (not part of the self-time sum)
INCLUSIVE_METRIC = {
    "hybrid.hybrid_radon": "hybrid.radon_s",
    "hybrid.reconstruct_volume": "hybrid.reconstruct_s",
}

# counters that must repeat exactly between iterations and seeds
EXACT_COUNTERS = (
    "grids.bilinear_points", "grids.bilinear_inside", "inversion.backproject_passes",
    "inversion.backproject_px_angles", "holonomy.term_columns", "holonomy.survivors",
    "holonomy.terms_evaluated", "container.bytes", "hybrid.fields", "slice_theorem.angles",
    "phantoms.rasterize_calls",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    iteration: int


class Recorder:
    """Collects spans and counters while an iteration is active."""

    def __init__(self, clock):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self.iteration: int | None = None
        self.missing: list[str] = []
        self._stack: list[int] = []

    def open(self, name: str) -> int | None:
        if self.iteration is None:
            return None
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.clock(), 0.0, parent, self.iteration))
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx].end = self.clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            if idx is not None:
                self.close(idx)

    def count(self, key: str, n) -> None:
        self.counters[self.iteration][key] += n


# --- counters taken from a wrapped call's arguments and result ---------------------

def _count_calls(key):
    def after(rec, args, result):
        rec.count(key, 1)
    return after


def _count_file_bytes(rec, args, result):
    rec.count("container.bytes", os.path.getsize(args[0]))


def _count_bilinear(rec, args, result):
    img, x, y = args[:3]
    x, y = np.broadcast_arrays(np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
    g = img.geometry
    inside = (x >= g.x_min) & (x <= g.x_max) & (y >= g.y_min) & (y <= g.y_max)
    rec.count("grids.bilinear_points", inside.size)
    rec.count("grids.bilinear_inside", int(np.count_nonzero(inside)))


def _count_backproject(rec, args, result):
    _, sino, geometry = args[:3]
    rec.count("inversion.backproject_passes", 1)
    rec.count("inversion.backproject_px_angles", geometry.nx * geometry.ny * sino.angles.n_phi)


def _count_fields(rec, args, result):
    rec.count("hybrid.fields", len(result))


def _count_holonomy(rec, args, result):
    n_phi = args[1].angles.n_phi
    for path in (result.full_turn, result.two_half_turns):
        for record in path.records:
            rec.count("holonomy.terms_evaluated", len(record.term_norms))
            rec.count("holonomy.term_columns", len(record.term_norms) * n_phi)
            rec.count("holonomy.survivors", len(record.survivors))


# (module, attribute, span name, counter); the attribute is the name the caller resolves
PATCHES = (
    ("uradon.cli", "rasterize", "phantoms.rasterize", _count_calls("phantoms.rasterize_calls")),
    ("uradon.hybrid", "rasterize", "phantoms.rasterize", _count_calls("phantoms.rasterize_calls")),
    ("uradon.holonomy", "rasterize", "phantoms.rasterize", _count_calls("phantoms.rasterize_calls")),
    ("uradon.cli", "write_container", "container.write", _count_file_bytes),
    ("uradon.cli", "read_container", "container.read", _count_file_bytes),
    ("uradon.cli", "radon_transform", "forward.radon_transform", None),
    ("uradon.hybrid", "radon_transform", "forward.radon_transform", None),
    ("uradon.holonomy", "_radon_rays", "forward.rays", None),
    ("uradon.forward", "bilinear_sample", "grids.bilinear", _count_bilinear),
    ("uradon.inversion", "ramp_filtered", "inversion.ramp_filtered", None),
    ("uradon.inversion", "finite_part_filtered", "inversion.finite_part_filtered", None),
    ("uradon.inversion", "lambda_kernel_filtered", "inversion.lambda_kernel_filtered", None),
    ("uradon.inversion", "tau_derivative", "inversion.tau_derivative", None),
    ("uradon.inversion", "invert_fs", "inversion.invert_fs", None),
    ("uradon.inversion", "invert_fa", "inversion.invert_fa", None),
    ("uradon.inversion", "_backproject", "inversion.backproject", _count_backproject),
    ("uradon.cli", "invert_universal", "inversion.invert_universal", None),
    ("uradon.hybrid", "invert_universal", "inversion.invert_universal", None),
    ("uradon.cli", "epsilon_lambda_reconstruct", "inversion.epsilon_lambda_reconstruct", None),
    ("uradon.cli", "make_slices", "hybrid.make_slices", None),
    ("uradon.cli", "hybrid_forward", "hybrid.hybrid_forward", None),
    ("uradon.cli", "hybrid_radon", "hybrid.hybrid_radon", _count_fields),
    ("uradon.cli", "reconstruct_volume", "hybrid.reconstruct_volume", None),
    ("uradon.hybrid", "hybrid_inverse_series", "hybrid.hybrid_inverse_series", None),
    ("uradon.slice_theorem", "fst_lhs", "slice_theorem.fst_lhs",
     _count_calls("slice_theorem.angles")),
    ("uradon.slice_theorem", "fst_rhs", "slice_theorem.fst_rhs", None),
    ("uradon.cli", "check_holonomy", "holonomy.check_holonomy", _count_holonomy),
    ("uradon.cli", "extract_defect", "holonomy.extract_defect", None),
)


def _wrap(rec: Recorder, fn, name: str, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        if idx is None:
            return fn(*args, **kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(idx)
        if counter is not None:
            with rec.span("trace.count"):
                counter(rec, args, result)
        return result
    return traced


@contextlib.contextmanager
def installed(rec: Recorder):
    """Replace every patched attribute for the duration of the block.

    An attribute the library no longer has is skipped and listed in
    ``rec.missing``; its metrics then read zero.
    """
    saved = []
    try:
        for module_name, attr, name, counter in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                if f"{module_name}.{attr}" not in rec.missing:
                    rec.missing.append(f"{module_name}.{attr}")
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(rec, original, name, counter))
        yield rec
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> tuple[dict, dict]:
    """Per-iteration self-time and inclusive metrics: ({it: {metric: s}}, {it: {metric: s}})."""
    child = defaultdict(float)
    for sp in spans:
        if sp.parent is not None:
            child[sp.parent] += sp.end - sp.start
    own: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    inclusive: dict[int, dict] = defaultdict(lambda: defaultdict(float))
    for idx, sp in enumerate(spans):
        duration = sp.end - sp.start
        own[sp.iteration][SELF_METRIC[sp.name]] += duration - child[idx]
        if sp.name in INCLUSIVE_METRIC:
            inclusive[sp.iteration][INCLUSIVE_METRIC[sp.name]] += duration
    return own, inclusive
